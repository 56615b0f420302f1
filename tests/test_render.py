import json
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influenceops.render import SLOT, _decimal, json_block, json_text, ratio_payload

# Text that json.dumps escapes, and text it must leave alone with ensure_ascii=False.
TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\b\f\n\r\t  é\U0001f600\ud800 ')) | st.text()
INTS = st.integers() | st.integers(-(2**200), 2**200) | st.sampled_from([0, 1, -1])
LEAVES = st.none() | st.booleans() | INTS | TEXT
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS, st.integers(0, 3))
def test_json_text_matches_json_dumps(document, depth):
    text = json.dumps(document, indent=2, ensure_ascii=False)
    assert json_text(document) == text + "\n"
    assert json_block(document, depth) == text.replace("\n", "\n" + "  " * depth)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 5))
def test_a_slot_template_filled_with_blocks_is_the_block_of_the_filled_value(data, depth):
    """What the report's and generate's row templates rely on: a SLOT, filled
    with a value's block one level deeper, lays the value out as json_block
    does in its place, in an object with keys free of % and in an array."""
    keys = data.draw(st.lists(TEXT.filter(lambda key: "%" not in key), unique=True, max_size=4))
    values = data.draw(st.lists(DOCUMENTS, min_size=len(keys), max_size=len(keys)))
    blocks = tuple(json_block(value, depth + 1) for value in values)
    assert json_block(dict.fromkeys(keys, SLOT), depth) % blocks == json_block(dict(zip(keys, values)), depth)
    assert json_block([SLOT] * len(values), depth) % blocks == json_block(values, depth)


def test_json_text_keeps_bools_apart_from_ints():
    document = {"a": [True, 1, False, 0, None, [], {}], "": {"b": [[], [{}]]}}
    assert json_text(document) == json.dumps(document, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("bad", [1.5, (1, 2), {1: "a"}, {"a": [set()]}, b"x"])
def test_json_text_rejects_other_types(bad):
    with pytest.raises(TypeError):
        json_text(bad)


def reference_decimal(value: Fraction, places: int) -> str:
    """Round-half-even through the decimal module. Quotients of the sizes
    drawn below are exact to far more digits than a rounding tie needs."""
    with localcontext() as ctx:
        ctx.prec = 400
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        return format(exact.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN), "f")


# Ratios of counts: the numerator is at least 0.
FRACTIONS = st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**30)) | st.builds(
    Fraction, st.integers(0, 400), st.sampled_from([1, 2, 3, 8, 16, 20, 125, 400, 2000, 10**8])
)


@settings(max_examples=1000, deadline=None)
@given(FRACTIONS, st.integers(1, 8))
def test_decimal_string_matches_decimal_module(value, places):
    assert _decimal(value.numerator, value.denominator, places) == reference_decimal(value, places)
    assert _decimal(value.numerator * 100, value.denominator, places) == reference_decimal(value * 100, places)


@settings(max_examples=500, deadline=None)
@given(FRACTIONS, st.integers(1, 10**6), st.integers(1, 8))
def test_decimal_of_an_unreduced_pair_is_the_decimal_of_its_ratio(value, common, places):
    """DOT and GraphML label conditional edges from their two counts, unreduced."""
    numerator, denominator = value.numerator * common, value.denominator * common
    assert _decimal(numerator, denominator, places) == reference_decimal(value, places)


def test_decimal_string_rounds_ties_to_even():
    assert [_decimal(k, 20, 1) for k in (1, 3, 5)] == ["0.0", "0.2", "0.2"]
    assert _decimal(1, 8, 2) == "0.12"
    assert _decimal(3, 8, 2) == "0.38"
    assert _decimal(100, 8, 1) == "12.5"


@settings(max_examples=500, deadline=None)
@given(st.integers(0) | st.integers(0, 2**200), st.integers(1) | st.integers(1, 2**200), st.booleans())
def test_ratio_payload_is_the_payload_of_the_fraction(numerator, denominator, percent):
    value = Fraction(numerator, denominator)
    text = ("percent", reference_decimal(value * 100, 1)) if percent else ("value", reference_decimal(value, 4))
    expected = [("numerator", value.numerator), ("denominator", value.denominator), text]
    assert list(ratio_payload(numerator, denominator, percent).items()) == expected


def test_ratio_payload_of_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        ratio_payload(1, 0)
