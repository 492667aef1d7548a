"""The one reader of the JSON documents the program reads back: the config,
a recommender file, `datasets/manifest.json`, a grid's `.meta.json` and
`.cache.json`. Each function raises its caller's exception class, so every
document keeps its error code, and names the document (`where`) and the key:
`cannot read <where> <file>: <reason>`, `<where> is not a JSON object`,
`<where> key '<path>' must be <kind>, not <json>`, `<where> has no key
'<path>'` or `<where> has unknown key '<path>'`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _finite(value) -> bool:
    """Whether `float(value)` is finite. Python's JSON parser also reads NaN,
    Infinity and integers beyond a float's range, which JSON does not have."""
    try:
        return math.isfinite(float(value))
    except (ValueError, OverflowError):
        return False


# each JSON kind a value can be asked for -> its test; true is no number
KINDS = {
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float) and _finite(v),
    "a string": lambda v: isinstance(v, str),
    "a non-empty string": lambda v: isinstance(v, str) and v != "",
    "a float string": lambda v: isinstance(v, str) and _finite(v),
    "true or false": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "any value": lambda v: True,
    "an object": lambda v: isinstance(v, dict),
    "an array": lambda v: isinstance(v, list),
    "a non-empty array": lambda v: isinstance(v, list) and v != [],
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer or null": lambda v: v is None or type(v) is int,
    "a string or an object": lambda v: isinstance(v, (str, dict)),
}


def read_json(path: str | Path, where: str, error: type[Exception]):
    """The JSON document in file `path`, UTF-8; else `error` naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {where} {path}: {reason}") from None


def _wrong(error: type[Exception], where: str, path: str, kind: str, value) -> Exception:
    if not path:  # the document itself
        return error(f"{where} is not a JSON object")
    text = json.dumps(value)
    if len(text) > 40:
        text = text[:37] + "..."
    return error(f"{where} key '{path}' must be {kind}, not {text}")


def read_key(obj: dict, name: str, kind: str, where: str,
             error: type[Exception] = ValueError, low=None, high=None, prefix: str = ""):
    """obj[name] when it is of `kind` (a key of KINDS) and in [low, high], else
    raise `error`; `prefix` is the path of `obj` in its document, dot-ended."""
    try:
        value = obj[name]
    except (KeyError, TypeError):
        if not isinstance(obj, dict):
            raise _wrong(error, where, prefix.rstrip("."), "an object", obj) from None
        raise error(f"{where} has no key '{prefix}{name}'") from None
    if not KINDS[kind](value) or (low is not None and value < low) \
            or (high is not None and value > high):
        if low is not None:
            kind += f" in {low}..{high}" if high is not None else f" >= {low}"
        raise _wrong(error, where, prefix + name, kind, value)
    return value


def read_array(obj: dict, name: str, kind: str, where: str,
               error: type[Exception] = ValueError, shape: tuple = (None,),
               prefix: str = "") -> list:
    """obj[name] when it is an array of `shape` (a length per level, None for
    any) of `kind` items, else raise `error` naming the array or the item."""
    value = read_key(obj, name, "any value", where, error, prefix=prefix)
    if not _has_shape(value, shape):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        raise _wrong(error, where, prefix + name, f"an array of {kind.split(' ', 1)[1]}s"
                     + (f" of shape [{dims}]" if shape != (None,) else ""), value)
    _check_items(value, KINDS[kind], kind, len(shape), where, error, prefix + name)
    return value


def _has_shape(value, shape: tuple) -> bool:
    return isinstance(value, list) and shape[0] in (None, len(value)) \
        and (len(shape) == 1 or all(_has_shape(item, shape[1:]) for item in value))


def _check_items(value: list, test, kind: str, depth: int, where: str, error, path: str):
    if depth == 1 and all(map(test, value)):  # the common case, without a Python loop
        return
    for i, item in enumerate(value):
        if depth > 1:
            _check_items(item, test, kind, depth - 1, where, error, f"{path}[{i}]")
        elif not test(item):
            raise _wrong(error, where, f"{path}[{i}]", kind, item)


def read_object(obj: dict, kinds: dict, where: str, error: type[Exception] = ValueError,
                required=(), prefix: str = "") -> dict:
    """`obj` when it is an object of `kinds` keys with each of `required`."""
    if not isinstance(obj, dict):
        raise _wrong(error, where, prefix.rstrip("."), "an object", obj)
    for name in obj:
        if name not in kinds:
            raise error(f"{where} has unknown key '{prefix}{name}'")
    for name in (*required, *obj):
        read_key(obj, name, kinds[name], where, error, prefix=prefix)
    return obj
