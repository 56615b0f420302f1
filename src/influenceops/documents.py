"""Reading input documents without tracebacks.

The taxonomy, catalog and generator-spec loaders read their files with
``read_text`` and parse them with ``parse_object``, so that a file that is not
UTF-8, text that is not JSON, JSON nested too deeply for the parser, an
integer over Python's digit limit and a string that cannot be encoded as
UTF-8 (a lone surrogate, as a ``\\ud800`` escape decodes to) are each a
ParseError, and a key that appears twice in one object, or a document that is
not an object, is a SchemaError. The field readers below state the rules the
three loaders share, each in one wording, ``{where}: field 'k' must be ...``;
each loader keeps only its domain rules. The corpus scan (``corpus.py``) calls
``decode_json`` with an object hook that checks each incident, its id
included, as it is decoded; it takes no repeated-key hook, which would slow
its hot path.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError, SchemaError

_REQUIRED = object()
_KINDS = {str: "a string", list: "an array", dict: "an object", bool: "true or false"}


def read_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file; ``what`` names the file in the error."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {what} is not valid UTF-8: {exc.reason}") from None


def decode_json(text: str, what: str, object_pairs_hook=None, object_hook=None) -> object:
    """The decoded JSON document; ``what`` names it in the error."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook, object_hook=object_hook)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None


def parse_object(text: str, what: str) -> dict:
    """The decoded JSON object, in which no key appears twice in one object and
    every string, key or value, can be written as UTF-8; ``what`` names it in
    the error."""
    def without_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise SchemaError(f"{what}: key {key!r} appears twice in one object")
                seen.add(key)
        return obj

    doc = decode_json(text, what, without_repeated_keys)
    # A lone surrogate comes from a \u escape or is in the text itself.
    pending = [doc] if "\\u" in text or not text.isascii() else []
    while pending:
        value = pending.pop()
        if type(value) is dict:
            pending += value
            pending += value.values()
        elif type(value) is list:
            pending += value
        elif type(value) is str and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{what}: string {value!r} cannot be encoded as UTF-8") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return doc


def require(doc: dict, key: str, where: str) -> object:
    """``doc[key]``; ``where`` names ``doc`` in the error."""
    if key not in doc:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return doc[key]


def typed(doc: dict, key: str, where: str, kind: type, default: object = _REQUIRED):
    """``doc[key]``, of type ``kind`` (str, list, dict or bool); ``default``
    when the field is absent, and required when no default is given."""
    if default is not _REQUIRED and key not in doc:
        return default
    value = require(doc, key, where)
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: field {key!r} must be {_KINDS[kind]}")
    return value


def nonempty_string(doc: dict, key: str, where: str) -> str:
    """The required non-empty string ``doc[key]``."""
    value = require(doc, key, where)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{where}: field {key!r} must be a non-empty string")
    return value


def strings(doc: dict, key: str, where: str) -> list[str]:
    """The required array of strings ``doc[key]``."""
    value = require(doc, key, where)
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SchemaError(f"{where}: field {key!r} must be an array of strings")
    return value


def natural(value: object, key: object, where: str) -> int:
    """``value``, the field ``key`` of ``where``, if it is a non-negative
    integer (not a bool). It takes the value, not the document, so that it
    also checks the counts of a hand-built generator spec."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SchemaError(f"{where}: field {key!r} must be a non-negative integer")
    return value


def objects(doc: dict, key: str, where: str, build, default: object = _REQUIRED) -> tuple:
    """The array ``doc[key]`` (``default`` when absent, if one is given), each
    entry an object built by ``build(entry, f"{key}[{i}]")``."""
    built = []
    for i, entry in enumerate(typed(doc, key, where, list, default)):
        if not isinstance(entry, dict):
            raise SchemaError(f"{key}[{i}]: must be an object")
        built.append(build(entry, f"{key}[{i}]"))
    return tuple(built)
