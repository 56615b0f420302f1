"""Reading input documents without tracebacks.

The taxonomy, catalog and generator-spec loaders read their files with
``read_text`` and parse them with ``parse_json``, so that a file that is not
UTF-8, text that is not JSON, JSON nested too deeply for the parser, an
integer over Python's digit limit and a string that cannot be encoded as
UTF-8 (a lone surrogate, as a ``\\ud800`` escape decodes to) are each a
ParseError. The corpus scan (``corpus.py``) calls ``decode_json`` with an
object hook that checks each incident, its id included, as it is decoded.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError


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


def parse_json(text: str, what: str, object_pairs_hook=None) -> object:
    """The decoded JSON document, every string of which, key or value, can be
    written as UTF-8; ``what`` names it in the error."""
    doc = decode_json(text, what, object_pairs_hook)
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
    return doc
