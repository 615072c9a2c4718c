"""Strict JSON readers, the field-driven codec and the JSON writer every document goes through.

``decode`` builds a dataclass from a JSON object and ``encode`` writes it back.
``read_document`` decodes the shape the writer emits (a non-empty object whose top-level
``tuple[X, ...]`` keys hold non-empty arrays, in any JSON whitespace) as it parses it, one
member and one array element at a time; any other shape, and every error, goes through
the whole parsed document.  A key is a field's name or its ``key`` metadata (``"class"``,
or ``"schedule.rounds"`` for the key ``rounds`` of the nested object ``schedule``); a key
ending in ``_`` (``"epsilon_"``) writes a nested dataclass as flat prefixed keys
(``epsilon_start``) of the same object.  An absent key takes the field's default, and
declaration order is the canonical key order.  Every violation raises ConfigError naming
its key path from the document root, e.g. ``run_log.steps[3].v_pu``.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import re
import sys
import typing
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Raised when an input document (experiment, run log, metrics) fails parsing or validation."""


def _unique_keys(ctx: str):
    """The object_pairs_hook that refuses repeated keys; json.loads alone would keep the last of them."""
    def unique(pairs: list) -> dict:
        d = dict(pairs)
        if len(d) < len(pairs):
            counts = collections.Counter(key for key, _ in pairs)
            raise ConfigError(f"{ctx}: duplicate key(s) {sorted(k for k, n in counts.items() if n > 1)}")
        return d
    return unique


def json_object(text: str, ctx: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys(ctx))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{ctx}: parse error at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:  # the parser recurses once per nested array or object
        raise ConfigError(f"{ctx}: nested too deeply") from e
    return as_dict(doc, ctx)


def read_text(path, ctx: str) -> str:
    """The UTF-8 text of the document at path; bytes that are not UTF-8 raise ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{ctx}: not UTF-8 text: {e.reason} at byte {e.start}") from e


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
    if type(value) is not int:  # True, 1.0 and np.int64(1) are refused
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
    # One shared object per distinct label or id, as in the run that wrote a log; str() plainly
    # copies a subclass (numpy's str_), which sys.intern refuses.
    return sys.intern(str(value))


def read_bool(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}: expected a boolean")
    return value


def read_instance(value, ctx: str, *types):
    """value if it is an instance of one of types: the check of a field that a config built in Python fills."""
    if not isinstance(value, types):
        raise ConfigError(f"{ctx}: expected {' or '.join(t.__name__ for t in types)}, got {type(value).__name__}")
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
def _fields(cls, prefix: str) -> tuple:
    """Per field, in order, worked out once per class: (name, block, prefixed key, its path after ctx,
    class of a flat-prefixed key or None, default or MISSING, whether encode leaves the default out, reader)."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        block, _, key = f.metadata.get("key", f.name).rpartition(".")
        key = prefix + key
        # Optional fields holding their empty default (None, "" or False) are
        # left out; numeric defaults such as 0.0 are written.
        omit = default is None or default is False or default == ""
        out.append((f.name, block, key, f".{block}.{key}" if block else f".{key}",
                    hints[f.name] if key.endswith("_") else None, default, omit, _reader(hints[f.name])))
    return tuple(out)


def decode(cls, raw, ctx: str, **fixed):
    """Build cls from the object raw at key path ctx; fields named in fixed come from the caller."""
    d = as_dict(raw, ctx)
    obj = _take(cls, d, ctx, "", fixed)
    done(d, ctx)
    return obj


def _take(cls, d: dict, ctx: str, prefix: str, fixed: dict):
    kwargs = dict(fixed)
    blocks: dict = {}
    for name, block, key, path, nested, default, _, read in _fields(cls, prefix):
        if name in fixed:
            continue
        src, where = d, ctx
        if block:
            where = f"{ctx}.{block}"
            if block not in blocks:
                blocks[block] = as_dict(pop(d, block, ctx), where)
            src = blocks[block]
        if nested:  # a nested dataclass as flat prefixed keys
            kwargs[name] = _take(nested, src, where, key, {})
        elif key in src:
            kwargs[name] = read(src.pop(key), ctx + path)
        elif default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key '{key}'")
        else:
            kwargs[name] = default
    for block, src in blocks.items():
        done(src, f"{ctx}.{block}")
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
        return lambda raw, ctx: tuple([item(v, f"{ctx}[{i}]") for i, v in enumerate(as_list(raw, ctx))])
    if type(None) in args:  # X | None
        inner = _reader(args[0])
        return lambda raw, ctx: None if raw is None else inner(raw, ctx)
    return functools.partial(decode, tp)


# One structural character and json's whitespace around it; the match ends where the next value starts.
_TOKEN = re.compile(r"[ \t\n\r]*([^ \t\n\r])[ \t\n\r]*").match


def read_document(cls, text: str, ctx: str):
    """cls decoded from the JSON object text at key path ctx: decode(cls, json_object(text, ctx), ctx).

    json's scanner parses the top-level members one at a time, and an array under a
    tuple[X, ...] field one element at a time, each handed to X's reader as soon as it is
    parsed, so the parsed document never exists whole (a run log's steps).  A shape other
    than the writer's (see the module docstring) and any failure read the text again
    through json_object and decode, which word every error.
    """
    def step(pos: int, expected: str) -> tuple[str, int]:
        token = _TOKEN(text, pos)
        if token is None or token[1] not in expected:
            raise ValueError(f"expected one of {expected!r} at {pos}")
        return token[1], token.end()

    try:
        scan = json.JSONDecoder(object_pairs_hook=_unique_keys(ctx)).raw_decode
        streamed, doc = _streamed(cls), {}  # doc: each member read so far, a streamed one decoded
        char, pos = step(0, "{")
        while char != "}":
            key, pos = scan(text, pos)
            if type(key) is not str or key in doc:
                raise ValueError(f"not a new key: {key!r}")
            pos = step(pos, ":")[1]
            if key in streamed:
                _, read, path = streamed[key]
                (char, pos), items = step(pos, "["), []
                while char != "]":
                    raw, pos = scan(text, pos)
                    items.append(read(raw, ctx + path))
                    char, pos = step(pos, ",]")
                doc[key] = tuple(items)
            else:
                doc[key], pos = scan(text, pos)
            char, pos = step(pos, ",}")
        if pos != len(text):
            raise ValueError("extra data")
        return decode(cls, doc, ctx, **{streamed[key][0]: doc.pop(key) for key in streamed if key in doc})
    except Exception:  # noqa: BLE001 - any failure: the whole-document path decides which error, in its words
        pass
    return decode(cls, json_object(text, ctx), ctx)


@functools.cache
def _streamed(cls) -> dict:
    """Per top-level key of a tuple[X, ...] field of cls: the field's name, X's reader and its path after ctx."""
    hints = typing.get_type_hints(cls)
    return {key: (name, _reader(typing.get_args(hints[name])[0]), path)
            for name, block, key, path, nested, *_ in _fields(cls, "")
            if not block and not nested and typing.get_origin(hints[name]) is tuple}


def encode(obj, prefix: str = "") -> dict:
    """The JSON-ready object of a dataclass; a block is nested where its first field falls."""
    doc: dict = {}
    for name, block, key, _, nested, default, omit, _ in _fields(type(obj), prefix):
        value = getattr(obj, name)
        dst = doc.setdefault(block, {}) if block else doc
        if nested:
            dst.update(encode(value, key))
        elif not (omit and value == default):
            dst[key] = plain(value)
    return doc


_SCALARS = {str, int, float, bool, type(None)}


def plain(value):
    """value as JSON-ready lists, objects and scalars."""
    if type(value) in _SCALARS:
        return value
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
    key and one per object in an array under it (a run log's steps), so it never exists whole.
    Such an item may be a dataclass, encoded only when its piece is written (``write_run_log``)."""
    if not isinstance(doc, dict) or not doc:
        yield _text(doc, "\n") + "\n"
        return
    opening = "{"
    for key, value in doc.items():
        head = opening + "\n  " + _escape(key) + ": "
        opening = ","
        if isinstance(value, (list, tuple)) and value and (isinstance(value[0], dict)
                                                          or dataclasses.is_dataclass(value[0])):
            yield head + "["
            lead = "\n    "
            for item in value:
                yield lead + _text(plain(item), "\n    ")
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
