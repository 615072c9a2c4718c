"""Strict JSON readers, the field-driven codec and the JSON writer every document goes through.

``decode`` builds a dataclass from a JSON object and ``encode`` writes it
back.  A key is a field's name or its ``key`` metadata (``"class"``, or
``"schedule.rounds"`` for the key ``rounds`` of the nested object
``schedule``); a key ending in ``_`` (``"epsilon_"``) writes a nested
dataclass as flat prefixed keys (``epsilon_start``) of the same object.  An
absent key takes the field's default, and declaration order is the
canonical key order.  Every violation raises ConfigError
naming its key path from the document root, e.g. ``run_log.steps[3].v_pu``.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import sys
import typing

import numpy as np


class ConfigError(ValueError):
    """Raised when an input document (experiment, run log, metrics) fails parsing or validation."""


def json_object(text: str, ctx: str) -> dict:
    def unique(pairs: list) -> dict:  # json.loads alone would keep the last of repeated keys
        d = dict(pairs)
        if len(d) < len(pairs):
            counts = collections.Counter(key for key, _ in pairs)
            raise ConfigError(f"{ctx}: duplicate key(s) {sorted(k for k, n in counts.items() if n > 1)}")
        return d

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{ctx}: parse error at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:  # the parser recurses once per nested array or object
        raise ConfigError(f"{ctx}: nested too deeply") from e
    return as_dict(doc, ctx)


def as_dict(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx}: expected an object")
    return dict(value)


def as_list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{ctx}: expected an array")
    return value


def pop(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"{ctx}: missing required key '{key}'")
    return d.pop(key)


def done(d: dict, ctx: str) -> None:
    if d:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(d)}")


def read_int(value, ctx: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected an integer")
    return value


def read_float(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number")
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity or an integer beyond float range
        raise ConfigError(f"{ctx}: expected a finite number")
    return float(value)


def read_str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{ctx}: expected a string")
    return value


def read_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected a boolean")
    return value


def numbers(value, ctx: str) -> np.ndarray:
    """A flat array of numbers as a float array; one type scan and one numpy pass check it.

    Only an array that pass refuses is read item by item: a float as it is (NaN too, as
    numpy takes it) and anything else through read_float, so an integer beyond int64
    reads as a scalar would and an error names the element.
    """
    items = as_list(value, ctx)
    if bool not in map(type, items):  # numpy would read a JSON true among numbers as 1.0
        try:
            arr = np.asarray(items)
            if arr.ndim == 1 and arr.dtype.kind in "if":
                return arr.astype(float, copy=False)
        except ValueError:  # ragged nesting
            pass
    return np.array([v if isinstance(v, float) else read_float(v, f"{ctx}[{i}]") for i, v in enumerate(items)])


# Readers (raw, ctx) and writers by field type; a type that its fields alone cannot
# describe registers both here before its module decodes or encodes anything.
READERS: dict = {int: read_int, float: read_float, str: read_str, bool: read_bool, np.ndarray: numbers}
WRITERS: dict = {}


@functools.cache
def _fields(cls) -> tuple:
    """(name, block, key, type, default or MISSING, reader, closes block) per field, in order."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        block, _, key = f.metadata.get("key", f.name).rpartition(".")
        out.append([f.name, block, key, hints[f.name], default, _reader(hints[f.name]), bool(block)])
    for this, after in zip(out, out[1:]):  # a block is closed by its last field
        this[-1] = this[-1] and after[1] != this[1]
    return tuple(map(tuple, out))


def decode(cls, raw, ctx: str, **fixed):
    """Build cls from the object raw at key path ctx; fields named in fixed come from the caller."""
    d = as_dict(raw, ctx)
    obj = _take(cls, d, ctx, "", fixed)
    done(d, ctx)
    return obj


def _take(cls, d: dict, ctx: str, prefix: str, fixed: dict):
    kwargs = dict(fixed)
    blocks: dict = {}
    for name, block, key, tp, default, read, closes in _fields(cls):
        if name in fixed:
            continue
        src, where = d, ctx
        if block:
            where = f"{ctx}.{block}"
            if block not in blocks:
                blocks[block] = as_dict(pop(d, block, ctx), where)
            src = blocks[block]
        key = prefix + key
        if key.endswith("_"):  # a nested dataclass as flat prefixed keys
            kwargs[name] = _take(tp, src, where, key, {})
        elif key in src:
            kwargs[name] = read(src.pop(key), f"{where}.{key}")
        elif default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key '{key}'")
        else:
            kwargs[name] = default
        if closes:
            done(src, where)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{ctx}: {e}") from e


@functools.cache
def _reader(tp):
    """The check-and-convert function (raw, ctx) for a field of type tp, built once per type."""
    if tp in READERS:
        return READERS[tp]
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        item = _reader(args[0])
        return lambda raw, ctx: tuple(item(v, f"{ctx}[{i}]") for i, v in enumerate(as_list(raw, ctx)))
    if type(None) in args:  # X | None
        inner = _reader(args[0])
        return lambda raw, ctx: None if raw is None else inner(raw, ctx)
    return functools.partial(decode, tp)


def encode(obj, prefix: str = "") -> dict:
    """The JSON-ready object of a dataclass; a block is nested where its first field falls."""
    doc: dict = {}
    for name, block, key, _, default, _, _ in _fields(type(obj)):
        value = getattr(obj, name)
        dst = doc.setdefault(block, {}) if block else doc
        if key.endswith("_"):
            dst.update(encode(value, prefix + key))
        # Optional fields holding their empty default (None, "" or False) are
        # left out; numeric defaults such as 0.0 are written.
        elif not ((default is None or default is False or default == "") and value == default):
            dst[prefix + key] = plain(value)
    return doc


_SCALARS = {str, int, float, bool, type(None)}


def plain(value):
    """value as JSON-ready lists, objects and scalars."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        if hasattr(value, "_asdict"):  # a NamedTuple is written as an object
            return plain(value._asdict())
        if set(map(type, value)) <= _SCALARS:  # a series: nothing in it to convert
            return list(value)
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value):
        return WRITERS.get(type(value), encode)(value)
    return value


_escape = json.encoder.encode_basestring  # the C string escaper json.dumps uses without ensure_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def json_pieces(doc) -> typing.Iterator[str]:
    """The text of json.dumps(doc, indent=2, ensure_ascii=False) + "\n", one piece per top-level
    key and one per object in an array under it (a run log's steps), so it never exists whole."""
    if not isinstance(doc, dict) or not doc:
        yield _text(doc, "\n") + "\n"
        return
    opening = "{"
    for key, value in doc.items():
        head = opening + "\n  " + _escape(key) + ": "
        opening = ","
        if isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            yield head + "["
            lead = "\n    "
            for item in value:
                yield lead + _text(item, "\n    ")
                lead = ",\n    "
            yield "\n  ]"
        else:
            yield head + _text(value, "\n  ")
    yield "\n}\n"


def _text(value, nl: str) -> str:
    """value as JSON text; nl is the newline and indent of the line that closes it."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_escape(k) + ": " + _text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = "," + inner
        if isinstance(value[0], float):
            try:
                text = sep.join(map(float.__repr__, value))
            except TypeError:  # not every item is a float: write item by item
                text = "n"
            if "n" not in text:  # and no nan or inf to rename
                return "[" + inner + text + nl + "]"
        return "[" + inner + sep.join([_text(v, inner) for v in value]) + nl + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
