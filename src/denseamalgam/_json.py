"""The JSON reader shared by every input format."""

import json
import sys


def loads(text: str):
    """`json.loads`, with text nested too deeply to decode refused by
    ValueError.  The decoder recurses once per level of nesting, so it
    reads fewer levels than the interpreter's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(
            "JSON nested too deeply: the reader's depth limit is below the "
            f"recursion limit of {sys.getrecursionlimit()} levels") from None
