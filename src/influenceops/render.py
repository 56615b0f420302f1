"""Exact-to-text rendering of rational values, and the indent-2 JSON writer.

Statistics are exact ratios of two counts; turning them into decimal text
is a report-layer concern. ``_decimal`` rounds round-half-even, computed in
integers on the numerator and denominator, so no float ever enters the
pipeline. ``ratio_payload`` builds the JSON view of a ratio from its two
integers, as the report and the conditional-graph document do from the
counts they hold; the DOT and GraphML writers label edges with ``_decimal``
of the same two counts. Both take counts, to 1, 4 or 6 places: a numerator
>= 0 (``ClassifiedCorpus`` refuses a negative count) over a denominator >= 1
(a corpus with no mapped incident raises ``EmptyCorpus`` before any share,
and a conditional edge's source count reaches its support threshold, >= 1).

``json_block`` is the package's one statement of the JSON layout: the bytes
of ``json.dumps(value, indent=2, ensure_ascii=False)`` for values of str, int,
bool, None, list and dict with str keys, at any depth, without the
pure-Python encoder that ``json.dumps`` falls back to when indenting.
``json_text`` (a whole document and a newline) writes every JSON output.
``json_block`` of a value holding ``SLOT`` is a ``%`` template in that layout,
built once and filled per row: the report's pattern rows and conditional
edges, and ``generate``'s incident rows. ``classify``'s per-incident row
(``evidence.py``) is the one hand-written template: filled with ``%`` it
measured 9 ms slower per 50k rows, 3.5% of ``classify --lenient --strict-prep``.

``chunked`` lays out a document of many rows, ``classify``'s and ``generate``'s,
as chunks of at most ``CHUNK_ROWS`` rows, which the CLI writes one at a time:
no more than one chunk of the output is held at once.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring
from math import gcd

CHUNK_ROWS = 512
"""Rows per chunk of ``chunked``: a chunk of ``classify`` JSON is ~150 kB, and a
``generate`` corpus of 4,050 incidents is eight chunks."""


def _decimal(numerator: int, denominator: int, places: int) -> str:
    """Fixed-point decimal text of counts numerator >= 0 over denominator >= 1,
    to ``places`` >= 1 places, round-half-even; the pair need not be reduced."""
    whole, remainder = divmod(numerator * 10**places, denominator)
    doubled = 2 * remainder
    if doubled > denominator or (doubled == denominator and whole & 1):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def ratio_payload(numerator: int, denominator: int, percent: bool = False) -> dict:
    """JSON view of counts numerator >= 0 over denominator >= 1: the reduced
    integer pair, then its decimal to 4 places or, with ``percent``, its
    percentage to 1 place, round-half-even. Raises ZeroDivisionError on a
    zero denominator."""
    common = gcd(numerator, denominator)
    numerator, denominator = numerator // common, denominator // common
    payload = {"numerator": numerator, "denominator": denominator}
    if percent:
        payload["percent"] = _decimal(numerator * 100, denominator, 1)
    else:
        payload["value"] = _decimal(numerator, denominator, 4)
    return payload


class Rendered(str):
    """JSON text already laid out for the depth where it is placed in a
    document; ``json_text`` and ``json_block`` write it as it is."""


SLOT = Rendered("%s")
"""Written as ``%s``: ``json_block(value, depth) % texts`` puts each text, laid
out one level below its slot's container, where a SLOT stands. It holds when
no other string in ``value``, key or value, contains ``%``."""


def json_text(value: object) -> str:
    """Indent-2 JSON text of a document, ending in a newline.

    Raises TypeError on a value that is not str, int, bool, None, list or
    dict, and on a dict key that is not str.
    """
    return json_block(value, 0) + "\n"


def json_block(value: object, depth: int) -> str:
    """Indent-2 JSON text of a value ``depth`` levels deep in a document, with
    no trailing newline: lines after the first get 2 * depth more spaces.
    Raises TypeError as ``json_text`` does."""
    parts: list[str] = []
    _write_json(value, "\n" + "  " * depth, parts.append)
    return "".join(parts)


def _write_json(value: object, newline: str, write) -> None:
    if isinstance(value, str):
        write(value if type(value) is Rendered else encode_basestring(value))
    elif value is None or value is True or value is False:
        write("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            # encode_basestring raises TypeError on a key that is not str.
            write(separator + encode_basestring(key) + ": ")
            separator = "," + inner
            _write_json(item, inner, write)
        write(newline + "}")
    elif isinstance(value, list):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            write(separator)
            separator = "," + inner
            _write_json(item, inner, write)
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def chunked(rows: Iterable[str], head: str, sep: str, tail: str, empty: str) -> Iterator[str]:
    """``head + sep.join(rows) + tail``, or ``empty`` when there is no row, in
    chunks of at most ``CHUNK_ROWS`` rows. Head goes with the first chunk and
    tail with the last, so no chunk is empty."""
    rows = iter(rows)
    batch = list(islice(rows, CHUNK_ROWS))
    if not batch:
        yield empty
        return
    chunk = head + sep.join(batch)
    while batch := list(islice(rows, CHUNK_ROWS)):
        yield chunk
        chunk = sep + sep.join(batch)
    yield chunk + tail
