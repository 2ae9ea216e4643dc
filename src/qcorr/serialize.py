"""JSON value formats, their codecs, the schema checker and the writer.

Conventions
-----------
* A complex number is a two-element array [re, im].
* A raw matrix is an array of rows, each row an array of [re, im] pairs.
* A sequence stores components as an array indexed by n-1 (null = absent).
* These are the formats that the scenario reader and the result writer
  share.  The scenario document, its explicit system, its tasks and its
  presets are cli's: it builds the scenario schema from these formats and
  its own tables, and decodes the scenario's sequences and systems itself.
* decode_raw_matrix checks only that a matrix is square: the constructor
  that receives it (ManyBodyOperator, SystemSpec) checks its size.
* The module imports no other qcorr module but qcorr.errors.

Every JSON file `qcorr run` writes, but scenario.json, the bytes it read,
is canonical: sorted keys, no whitespace, a final newline, so reruns
produce identical bytes.  dump_canonical streams it into a binary file, and
dumps_canonical returns it as a str.

Fast path of the canonical writer
---------------------------------
The text is exactly that of json.dumps(obj, sort_keys=True,
separators=(",", ":"), allow_nan=False) plus a newline, but json writes
each float with float.__repr__, about 1.4 us a float.  So a small recursive
writer walks dicts with string keys and lists, hands everything else but
the matrix leaves to json.dumps (keys, strings and scalars are json's own
text, escapes and refusals), and hands each piece of text, as bytes, on to
a file's write or a list's append.

* A float64 array of shape (rows, cols, 2), as encode_raw_matrix returns,
  is written in blocks of whole rows, about _BLOCK numbers each, so that
  the work arrays stay in cache and no file is held whole.  Every leaf a
  run writes is such an array; a list, a list of lists among them, is
  walked like any other.  Each block's flat view goes to one orjson.dumps
  call, which writes a flat run about twice as fast as the (rows, cols, 2)
  form, where every [re, im] pair is an inner array.  orjson picks the
  same shortest round-trip digits as float.__repr__; numpy then gives each
  number a row of 32 bytes: its separator (',', '],[', ']],[[' or '[[['),
  its text and zero bytes, which one bytes.translate drops.  orjson lays
  out three ranges of |x| differently, and each number's value decides its
  range, whose edit moves bytes within the row:

      |x|              orjson       float.__repr__
      >= 1e16          1.5e16       1.5e+16      (3 digits from 1e+100)
      [1e-9, 1e-5)     1.5e-7       1.5e-07
      [1e-5, 1e-4)     0.000015     1.5e-05

  Value and text agree: x >= fl(10^k) exactly when the shortest
  round-trip text of x has a decimal exponent >= k, since that text rounds
  to x, rounding is monotone, and "1e{k}" is the shortest text of
  fl(10^k).
* An array that holds a NaN or an infinity, which np.isfinite finds (orjson
  writes them as null), is refused by json.dumps of its first such value,
  in json's own words; a non-contiguous array is written as its C-ordered
  copy, and an empty one as its brackets.
* orjson is imported at the first leaf written, so importing
  qcorr.serialize does not load it.
* The reader's guard, check_nesting, drops every byte but brackets and
  quotes with one bytes.translate (they are about 4 % of io-d4's scenario)
  and counts depth on what is left.

The checker
-----------
validate is one recursive checker, _check, written for the keywords these
schemas use: type, properties, required, additionalProperties, items,
minItems, maxItems, minProperties, maxProperties, enum (of strings),
minimum, maximum, exclusiveMinimum and oneOf, with Draft 2020-12 meaning and
jsonschema's default type checks (bool is no number, 1.0 is an integer).  A
tier-1 test keeps every schema within that subset, and tests hold its
verdicts equal to jsonschema's, which only the tests import.

* It returns the first failure as a path and a reason, quoting a JSON
  scalar's repr and only the kind of any other value.  A oneOf is judged
  inside the one branch whose type the instance has and, for an object,
  whose required keys it holds, so a system with "preset" is judged as a
  preset.  When none or several fit, the oneOf is judged, and refused, as a
  whole.
* It recurses along the schema, never deeper than the schema nests, so a
  document nested however deep cannot exhaust the stack.
* Documents are large only in their raw-matrix leaves: where the schema is
  RAW_MATRIX_SCHEMA, a leaf that _is_raw_matrix accepts in one pass is
  valid, and only another is walked entry by entry to the one at fault.
"""

from __future__ import annotations

import json
from itertools import chain
from numbers import Number
from typing import Any

import numpy as np

from .errors import SchemaViolation

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

RAW_MATRIX_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _COMPLEX},
}

SEQUENCE_SCHEMA = {
    "type": "object",
    "required": ["dim_single", "n_max", "scalar0", "components"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": ["correlation", "density"]},
        "dim_single": {"type": "integer", "minimum": 2},
        "n_max": {"type": "integer", "minimum": 1},
        "scalar0": _COMPLEX,
        "components": {
            "type": "array",
            "items": {"oneOf": [{"type": "null"}, RAW_MATRIX_SCHEMA]},
        },
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite", "checks", "passed"],
    "additionalProperties": True,
    "properties": {
        "suite": {"type": "string"},
        "passed": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "law", "residual", "tolerance", "pass"],
                "properties": {
                    "name": {"type": "string"},
                    "law": {"type": "string"},
                    "residual": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


# exact types only: bool, numpy scalars and other number-likes take the slow
# routes, where _check's type checks and json decide about them
_NUMBER_TYPES = {int, float}

# the schema keywords _check knows; a tier-1 test keeps every schema that
# cli.ALL_SCHEMAS publishes within them
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minProperties", "maxProperties", "enum",
    "minimum", "maximum", "exclusiveMinimum", "oneOf",
})


def _is_raw_matrix(x) -> bool:
    """True when x is a raw-matrix leaf that every raw-matrix schema accepts:
    a non-empty list of non-empty rows of [re, im] pairs of exact ints and
    floats.  Past the rows, three sets over all pairs at once decide."""
    if type(x) is not list or not x or set(map(type, x)) != {list} or not all(x):
        return False
    pairs = list(chain.from_iterable(x))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return False
    return set(map(type, chain.from_iterable(pairs))) <= _NUMBER_TYPES


# how deep check_nesting lets arrays and objects nest: far above the 7
# levels of a scenario, and far below the depth that exhausts orjson's
# parser, about 50,000 levels
MAX_NESTING = 100
_TOO_DEEP = f"{{}} nests arrays and objects more than {MAX_NESTING} levels deep"

# jsonschema's Draft 2020-12 default type checks
_TYPE_CHECKS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: (
        x.is_integer()
        if isinstance(x, float)
        else isinstance(x, int) and not isinstance(x, bool)
    ),
}

_Failure = tuple[tuple, str]


def _show(x) -> str:
    """x as a reason quotes it: a JSON scalar's repr, any other value's kind."""
    if x is None or isinstance(x, (str, int, float, bool)):
        return repr(x)
    if isinstance(x, dict):
        return "an object"
    if isinstance(x, list):
        return "an array"
    return f"a value of type {type(x).__name__}"


def _check(x, schema: dict) -> _Failure | None:
    """None when x is valid under schema, else the first failure: the path
    from x to the value at fault, and the reason."""
    if schema is RAW_MATRIX_SCHEMA and _is_raw_matrix(x):
        return None
    if "type" in schema and not _TYPE_CHECKS[schema["type"]](x):
        return (), f"{_show(x)} is not of type {schema['type']!r}"
    if "oneOf" in schema:
        failure = _check_one_of(x, schema["oneOf"])
        if failure is not None:
            return failure
    if "enum" in schema and x not in schema["enum"]:
        return (), f"{_show(x)} is not one of {schema['enum']!r}"
    # each keyword below applies only to its own instance type
    if isinstance(x, dict):
        return _check_object(x, schema)
    if isinstance(x, list):
        return _check_array(x, schema)
    if _TYPE_CHECKS["number"](x):
        if "minimum" in schema and x < schema["minimum"]:
            return (), f"{x!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and x > schema["maximum"]:
            return (), f"{x!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
            return (), (
                f"{x!r} is less than or equal to the minimum of "
                f"{schema['exclusiveMinimum']!r}"
            )
    return None


def _check_one_of(x, branches: list[dict]) -> _Failure | None:
    """_check under a oneOf: inside the one branch that x fits by type and,
    as an object, by required keys, or else at the oneOf itself."""
    fits = [
        b for b in branches
        if ("type" not in b or _TYPE_CHECKS[b["type"]](x))
        and not (isinstance(x, dict) and any(k not in x for k in b.get("required", ())))
    ]
    if len(fits) == 1:
        return _check(x, fits[0])
    valid = sum(_check(x, b) is None for b in fits)
    if valid == 0:
        return (), f"{_show(x)} matches none of the allowed forms"
    if valid > 1:
        return (), f"{_show(x)} matches more than one of the allowed forms"
    return None


def _check_object(x: dict, schema: dict) -> _Failure | None:
    n = len(x)
    if n < schema.get("minProperties", 0):
        return (), f"has too few properties: {n}, at least {schema['minProperties']}"
    if n > schema.get("maxProperties", n):
        return (), f"has too many properties: {n}, at most {schema['maxProperties']}"
    for k in schema.get("required", ()):
        if k not in x:
            return (), f"{k!r} is a required property"
    props = schema.get("properties", {})
    rest = schema.get("additionalProperties", True)
    for k, v in x.items():
        sub = props.get(k, rest)
        if sub is False:
            return (), f"property {k!r} is not allowed"
        failure = None if sub is True else _check(v, sub)
        if failure is not None:
            return (k, *failure[0]), failure[1]
    return None


def _check_array(x: list, schema: dict) -> _Failure | None:
    n = len(x)
    if n < schema.get("minItems", 0):
        return (), f"has too few items: {n}, at least {schema['minItems']}"
    if n > schema.get("maxItems", n):
        return (), f"has too many items: {n}, at most {schema['maxItems']}"
    items = schema.get("items")
    if items is not None:
        for i, v in enumerate(x):
            failure = _check(v, items)
            if failure is not None:
                return (i, *failure[0]), failure[1]
    return None


def validate(obj: Any, schema: dict, what: str = "document") -> None:
    """Validate obj against schema, raising SchemaViolation on failure."""
    failure = _check(obj, schema)
    if failure is not None:
        path, reason = failure
        raise SchemaViolation(f"{what} at '{'/'.join(map(str, path))}': {reason}")


# the bytes of JSON text that check_nesting reads, and every other byte,
# which it drops before it scans
_QUOTE, _OPEN, _CLOSE = b'"[]'
_NOT_BRACKETS = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def check_nesting(text: bytes, what: str = "document") -> None:
    """Refuse JSON text that nests more than MAX_NESTING arrays and objects,
    before a parser recurses into it.

    Brackets inside strings do not count.  Text past the first JSON error
    may be misread, but no parser reads past that error.
    """
    # drop escaped backslashes, then escaped quotes: what quotes are left
    # open and close strings
    if b"\\" in text:
        text = text.replace(b"\\\\", b"").replace(b'\\"', b"")
    b = np.frombuffer(text.translate(None, _NOT_BRACKETS), np.uint8)
    # '{' and '}' differ from '[' and ']' only in bit 0x20
    c = b & 0xDF
    step = (c == _OPEN).astype(np.int32) - (c == _CLOSE)
    # a bracket after an odd number of quotes is inside a string
    step[np.cumsum(b == _QUOTE) % 2 == 1] = 0
    if len(step) and np.cumsum(step).max() > MAX_NESTING:
        raise SchemaViolation(_TOO_DEEP.format(what))


_JSON_OPTIONS = {"sort_keys": True, "separators": (",", ":"), "allow_nan": False}

# a leaf is written in blocks of whole rows, about _BLOCK numbers each, so
# that the work arrays stay in cache and no file is held whole
_BLOCK = 1 << 13
# a number's row: its separator, then 24 bytes of its text
_ROW = np.dtype([("sep", "S8"), ("text", "V24")])
# _KEEP[n] keeps a row's separator and the first n bytes of its text
_KEEP = np.where(np.arange(32) < np.arange(8, 33)[:, None], 0xFF, 0).astype(np.uint8)


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, newline end.

    The text is json.dumps(obj, sort_keys=True, separators=(",", ":"),
    allow_nan=False) + "\n", each float64 array of shape (rows, cols, 2)
    standing for its tolist(), and what that call refuses raises its error
    (a cyclic obj aside).  Floats are float.__repr__'s text, so every value
    decodes back unchanged.  The raw-matrix leaves, which hold nearly all
    of them, are written by orjson (see the module docstring).
    """
    parts: list[bytes] = []
    _write(obj, parts.append)
    return b"".join(parts).decode() + "\n"


def dump_canonical(obj: Any, fh) -> None:
    """Write dumps_canonical(obj) to the binary file fh, as ASCII bytes in
    pieces of at most one block of a leaf; what it refuses raises its error."""
    _write(obj, fh.write)
    fh.write(b"\n")


def _write(x, put) -> None:
    """Hand the canonical text of x to put, as pieces of bytes."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 3 and x.shape[2] == 2:
        _write_numbers(x, put)
    elif type(x) is dict and all(type(k) is str for k in x):
        put(b"{")
        for i, k in enumerate(sorted(x)):
            put((("," if i else "") + json.dumps(k) + ":").encode())
            _write(x[k], put)
        put(b"}")
    elif type(x) is list:
        put(b"[")
        for i, v in enumerate(x):
            if i:
                put(b",")
            _write(v, put)
        put(b"]")
    else:
        put(json.dumps(x, **_JSON_OPTIONS).encode())


def _write_numbers(x: np.ndarray, put) -> None:
    """Hand json.dumps's text of a float64 array leaf to put, block by
    block; a NaN or an infinity raises json's error, with nothing handed."""
    import orjson

    # orjson writes NaN and the infinities of a float64 array as null, so
    # json.dumps of the first of them raises the refusal instead
    finite = np.isfinite(x)
    if not finite.all():
        json.dumps(float(x[~finite][0]), **_JSON_OPTIONS)
    n_rows, cols, _ = x.shape
    if not x.size:
        put(b"[" + b",".join([b"[]"] * n_rows) + b"]")
        return
    flat = np.ascontiguousarray(x).reshape(-1)
    # the separator before each number of a block of whole rows
    seps = np.full((min(n_rows, max(1, _BLOCK // (2 * cols))), cols, 2), b",", "S8")
    seps[:, :, 0] = b"],["
    seps[:, 0, 0] = b"]],[["
    seps = seps.reshape(-1)
    seps[0] = b"[[["
    for start in range(0, flat.size, seps.size):
        v = flat[start:start + seps.size]
        raw = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)
        put(_number_rows(raw, v, seps[:v.size]).tobytes().translate(None, b"\0"))
        seps[0] = b"]],[["
    put(b"]]]")


def _number_rows(raw: bytes, v: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """32 bytes for each number of v, whose orjson text is raw: its separator,
    then its float.__repr__ text, then zero bytes; the edits of each layout
    class (the module docstring's table) move bytes within a number's row."""
    b = np.frombuffer(raw, np.uint8)
    # every number but the last ends at a ',', the last at the closing ']'
    ends = np.append(np.flatnonzero(b == ord(",")), b.size - 1)
    starts = np.append(1, ends[:-1] + 1)
    rows = np.empty(v.size, _ROW)
    rows["sep"] = seps
    # a number is at most 24 bytes, and the 23 zero bytes after raw let the
    # last number's 24 be read too
    rows["text"] = _windows(np.frombuffer(raw + bytes(23), np.uint8), "V24")[starts]

    f = rows.view(np.uint8)
    at = np.arange(8, f.size, 32)
    end = at + ends - starts
    a = np.abs(v)
    # 1.5e-7 -> 1.5e-07: a '0' goes before the exponent digit
    i = np.flatnonzero((a >= 1e-9) & (a < 1e-5))
    j = end[i]
    f[j] = f[j - 1]
    f[j - 1] = ord("0")
    end[i] += 1
    # 1.5e16 -> 1.5e+16, 1e100 -> 1e+100: a '+' goes after the 'e'
    i = np.flatnonzero(a >= 1e16)
    e = end[i] - 3 - (a[i] >= 1e100)
    moved = _windows(f, "V3")
    moved[e + 2] = moved[e + 1]
    f[e + 1] = ord("+")
    end[i] += 1
    # 0.0000DR -> D.Re-05, or De-05 when R is empty: R, at most 16 digits,
    # moves 5 bytes left
    i = np.flatnonzero((a >= 1e-5) & (a < 1e-4))
    p = at[i] + (v[i] < 0)
    f[p] = f[p + 6]
    moved = _windows(f, "V16")
    moved[p + 2] = moved[p + 7]
    f[p + 1] = ord(".")
    j = end[i] - 5
    j -= j == p + 2
    _windows(f, "S4")[j] = b"e-05"
    end[i] = j + 4

    rows = f.reshape(-1, 32)
    rows &= np.take(_KEEP, end - at, axis=0)
    return rows


def _windows(b: np.ndarray, dtype: str) -> np.ndarray:
    """The items of dtype that start at each byte of b, overlapping."""
    size = np.dtype(dtype).itemsize
    return np.ndarray((b.size - size + 1,), dtype, b, strides=(1,))


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def encode_raw_matrix(m: np.ndarray) -> np.ndarray:
    """The raw-matrix leaf of m: a C-contiguous float64 array of shape
    (rows, cols, 2), which dumps_canonical writes as [[re, im]] rows."""
    # the float view of complex entries is their [re, im] pairs
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2)


def decode_raw_matrix(rows, what: str | None = None) -> np.ndarray:
    """The matrix of a raw-matrix leaf that RAW_MATRIX_SCHEMA accepts;
    SchemaViolation unless it is square, naming the matrix what if given."""
    name = "" if what is None else f"{what}: "
    n, cols = len(rows), len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != cols:
            raise SchemaViolation(
                f"{name}ragged matrix of {n} rows: row {i + 1} has "
                f"{len(row)} entries, row 1 has {cols}"
            )
    if cols != n:
        raise SchemaViolation(f"{name}matrix must be square, got shape {(n, cols)}")
    # the [re, im] pairs are the complex entries' memory layout; a view
    # keeps the sign of each zero, as re + 1j * im would not
    pairs = chain.from_iterable(chain.from_iterable(rows))
    return np.fromiter(pairs, float, 2 * n * n).view(complex).reshape(n, n)


def encode_sequence(seq, kind: str) -> dict:
    """The sequence document of the given kind of a plain OperatorSequence
    seq, or of anything with its dim_single, n_max, scalar0, prefix and components."""
    if seq.prefix:
        raise ValueError("only plain sequences are serialized")
    return {
        "kind": kind,
        "dim_single": seq.dim_single,
        "n_max": seq.n_max,
        "scalar0": encode_complex(seq.scalar0),
        "components": [
            encode_raw_matrix(seq.components[n].matrix)
            if n in seq.components
            else None
            for n in range(1, seq.n_max + 1)
        ],
    }
