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
  goes to one orjson.dumps call.  Every leaf a run writes is such an array;
  a list, a list of lists among them, is walked like any other.  orjson
  picks the same shortest round-trip digits as float.__repr__ and lays out
  three ranges differently, which _repr_layout_piece rewrites with numpy
  in pieces of about 128 KiB, each cut at a '],[' and handed on when made,
  so that its work arrays stay in cache and no file is held whole:

      |x|              orjson       float.__repr__
      >= 1e16          1.5e16       1.5e+16
      [1e-9, 1e-5)     1.5e-7       1.5e-07
      [1e-5, 1e-4)     0.000015     1.5e-05

* An array that holds a NaN or an infinity, which np.isfinite finds (orjson
  writes them as null), is refused by json.dumps of its first such value,
  in json's own words; a non-contiguous array is written as its C-ordered
  copy.
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

# the bytes of orjson's number text that _repr_layout_piece reads
_DOT, _E, _MINUS, _ZERO, _NINE, _COMMA = b".e-09,"
# a leaf's text is rewritten in pieces of about _PIECE bytes, so that the
# work arrays stay in cache; the 8-byte words read after a '.' run up to 6
# bytes past a piece's end, into _PAD zero bytes
_PIECE = 1 << 17
_PAD = 8


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
    pieces of at most about 2 * _PIECE; what it refuses raises its error."""
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
    """Hand json.dumps's text of a float64 array leaf to put, piece by
    piece; a NaN or an infinity raises json's error, with nothing handed."""
    import orjson

    # orjson writes NaN and the infinities of a float64 array as null, so
    # json.dumps of the first of them raises the refusal instead
    finite = np.isfinite(x)
    if not finite.all():
        json.dumps(float(x[~finite][0]), **_JSON_OPTIONS)
    raw = orjson.dumps(np.ascontiguousarray(x), option=orjson.OPT_SERIALIZE_NUMPY)
    view = memoryview(raw)
    start = 0
    # each piece ends before the '[' of a '],[', so no number spans two
    while start < len(raw):
        cut = raw.find(b"],[", start + _PIECE)
        end = len(raw) if cut < 0 else cut + 2
        put(_repr_layout_piece(view[start:end]))
        start = end


def _repr_layout_piece(piece) -> bytes:
    """orjson's text of a piece of numbers nested in arrays, which starts
    with '[', laid out as float.__repr__ lays them out.

    Every number of the piece is followed by ',' or ']', and holds at most
    one '.' and one 'e'.  The tests read a bytearray copy of the piece, the
    edits then go into that copy as marker bytes, and one translate, which
    also drops the _PAD zero bytes, and a replace for each other marker the
    piece holds expand them:

    * 'e' before a digit (1.5e16) becomes 1, expanded to 'e+';
    * the '-' of a one-digit exponent (1.5e-7) becomes 2, expanded to '-0';
    * in 0.0000DR (|x| in [1e-5, 1e-4), D a digit 1-9, R digits or none)
      the first '0' becomes D, '0000D' and, when R is empty, the '.' are
      dropped (marker 0), and the ',' or ']' that ends the number becomes
      3 or 4, expanded to 'e-05,' or 'e-05]'.
    """
    buf = bytearray(piece)
    buf += bytes(_PAD)
    b = np.frombuffer(buf, np.uint8)

    e = np.flatnonzero(b == _E)
    sign = b[e + 1]
    plus = e[sign != _MINUS]
    e = e[sign == _MINUS]
    # a one-digit exponent ends two bytes after its '-'
    short = e[~_is_digit(b[e + 3])] + 1

    # a '.' with '0' before it, no digit before that, and '0000' after it
    p = np.flatnonzero(b == _DOT)
    p = p[_words(b, "<u4")[p + 1] == 0x30303030]
    p = p[(b[p - 1] == _ZERO) & ~_is_digit(b[p - 2])]
    first = b[p + 5]
    # j: the ',' or ']' after the digits from p + 6 on, at most 16 of them
    j = _digit_run_end(b, p + 6)
    comma = b[j] == _COMMA
    commas = int(np.count_nonzero(comma))

    b[plus] = 1
    b[short] = 2
    b[p - 1] = first
    _words(b, "<u4")[p + 1] = 0
    b[p + 5] = 0
    b[p[j == p + 6]] = 0
    b[j] = 4 - comma

    kinds = [(b"\1", b"e+", len(plus)), (b"\2", b"-0", len(short)),
             (b"\3", b"e-05,", commas), (b"\4", b"e-05]", len(j) - commas)]
    out = buf.translate(None, b"\0")
    for marker, text, count in kinds:
        if count:
            out = out.replace(marker, text)
    return bytes(out)


def _is_digit(c: np.ndarray) -> np.ndarray:
    return (c >= _ZERO) & (c <= _NINE)


def _words(b: np.ndarray, dtype: str) -> np.ndarray:
    """The unaligned words of b: element i is the word that starts at b[i]."""
    size = np.dtype(dtype).itemsize
    return np.ndarray((len(b) - size + 1,), dtype, b, strides=(1,))


def _digit_run_end(b: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The index of the first byte from each of at on that is no digit, where
    at most 16 digits follow each; b holds ASCII bytes."""
    words = _words(b, "<u8")

    def skip(at):
        # the count of digits that lead the 8 bytes from each of at: xor
        # 0x30 maps the digits, and only them, to bytes below 10, and adding
        # 0x76 sets the top bit of every other byte, with no carry
        x = words[at] ^ 0x3030303030303030
        stop = (x + 0x7676767676767676) & 0x8080808080808080
        # the lowest top bit set, in byte k, times the multiplier leaves k
        # in the top byte
        low = (stop & (~stop + 1)) >> 7
        return np.where(stop == 0, 8, (low * 0x0001020304050607) >> 56)

    n = skip(at).astype(np.intp)
    long = n == 8
    n[long] += skip(at[long] + 8).astype(np.intp)
    return at + n


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


def encode_sequence(seq, kind: str | None = None) -> dict:
    """The sequence document of a plain OperatorSequence seq, or of anything
    with its dim_single, n_max, scalar0, prefix and components."""
    if seq.prefix:
        raise ValueError("only plain sequences are serialized")
    out = {
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
    if kind is not None:
        out["kind"] = kind
    return out
