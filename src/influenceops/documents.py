"""Reading input documents without tracebacks.

The taxonomy, catalog and generator-spec loaders read their files with
``read_text``, and they and the JSON corpus parser parse with
``parse_json``, so that a file that is not UTF-8, text that is not JSON,
JSON nested too deeply for the parser and an integer over Python's digit
limit are each a ParseError. (Corpus files are read by ``corpus.py``, which
parses CSV as it reads.)
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


def parse_json(text: str, what: str, object_pairs_hook=None) -> object:
    """The parsed JSON document; ``what`` names it in the error."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None
