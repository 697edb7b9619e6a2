"""The JSON reader shared by every input format, its shape checks, and the
DOT ID quoting shared by the DOT writers.

A reader checks its document's keys with `document` and each field's JSON
type with `require`, in its own exception type and words; whether a value
of the right type is allowed is left to the constructor it calls.
"""

import json
import sys

# JSON types by name.  A JSON number decodes to an int or a float, and
# Python counts true and false as ints: a "number" may be a bool, an
# "integer" may not.  A "scalar" is anything but a list or an object.
SHAPES = {
    "object": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "strings": lambda v: isinstance(v, list) and all(
        isinstance(s, str) for s in v),
    "number": lambda v: isinstance(v, (int, float)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "scalar": lambda v: not isinstance(v, (list, dict)),
}


def loads(text: str, error):
    """`json.loads`, with text that is not JSON raising error("invalid
    JSON").  Text nested too deeply to decode is refused by ValueError: the
    decoder recurses once per level of nesting, so it reads fewer levels
    than the interpreter's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(
            "JSON nested too deeply: the reader's depth limit is below the "
            f"recursion limit of {sys.getrecursionlimit()} levels") from None
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON: {exc}") from exc


def document(doc, error, keys, kind=None,
             refusal="document must be a JSON object", missing="missing key"):
    """doc, when it is a JSON object of the given "kind", if any, holding
    every key of keys; else error(refusal), or error(missing key)."""
    if not isinstance(doc, dict) or kind is not None and doc.get("kind") != kind:
        raise error(refusal)
    for key in keys:
        if key not in doc:
            raise error(f"{missing} {key!r}")
    return doc


def require(value, shape, error, *args):
    """value, when it has the JSON type `SHAPES[shape]`; else error(*args)."""
    if not SHAPES[shape](value):
        raise error(*args)
    return value


def dot_id(name) -> str:
    """`name` as a quoted DOT ID, with backslash and double quote escaped."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'
