"""JSON codecs and schemas for sequences, systems, and scenarios.

Conventions
-----------
* A complex number is a two-element array [re, im].
* A raw matrix is an array of rows, each row an array of [re, im] pairs.
* A sequence stores components as an array indexed by n-1 (null = absent).
* A system is either explicit {dim_single, hbar, one_body, potentials}
  or a preset {"preset": "random_hermitian", "seed": ..., "orders": [...]}.

All dumps go through dumps_canonical so that reruns produce identical bytes.

Fast paths
----------
Documents are large only in their raw-matrix leaves, so both directions
treat those leaves apart from the rest.

* validate first checks, in one pass, which lists are raw matrices: non-empty
  lists of non-empty rows of two-element lists whose entries are exactly
  int or float.  Each such leaf is replaced by the stand-in [[[0.0, 0.0]]]
  in a skeleton copy.  This is sound because no schema in ALL_SCHEMAS
  constrains a matrix-level array beyond "minItems": 1 (tests pin this), so
  no schema can tell a valid leaf from the stand-in: the skeleton is valid
  exactly when the document is.
* The skeleton is accepted by _conforms, a checker written here for the
  keywords these schemas use and nothing else: type, properties, required,
  additionalProperties, patternProperties, items, minItems, maxItems,
  minProperties, maxProperties, enum (of strings), pattern, minimum, maximum,
  exclusiveMinimum and oneOf, with Draft 2020-12 meaning and jsonschema's
  default type checks (bool is no number, 1.0 is an integer).  Every
  subschema must name a type or be a lone oneOf.  A schema outside that
  subset makes _conforms give up, which it reports as "not accepted".
* Only a document _conforms does not accept reaches jsonschema, imported at
  that point: jsonschema validates the original document and its best_match
  error is the one reported.  So jsonschema still decides every rejection
  and words it, while accepting a document costs no jsonschema import and
  no meta-schema check.  Tests check that _conforms agrees with jsonschema
  and that every schema passes jsonschema's meta-schema.
* dumps_canonical writes the text itself instead of going through json's
  pure-Python indenting encoder.  Its output is defined as, and tested equal
  to, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n":
  rows of [re, im] pairs are formatted with one format string per row,
  dicts and lists are framed by hand, and every other leaf (str, bool,
  None, numpy scalars, dicts with non-str keys, non-finite floats) is
  handed to json itself.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import chain
from math import isfinite
from numbers import Number
from typing import Any

import numpy as np

from .errors import SchemaViolation
from .hamiltonian import SystemSpec
from .operators import ManyBodyOperator
from .partitions import ParticleSet
from .star_algebra import OperatorSequence

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_RAW_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _COMPLEX},
}

SEQUENCE_SCHEMA = {
    "type": "object",
    "required": ["dim_single", "n_max", "scalar0", "components"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": ["correlation", "density", "marginal"]},
        "dim_single": {"type": "integer", "minimum": 2},
        "n_max": {"type": "integer", "minimum": 1},
        "scalar0": _COMPLEX,
        "components": {
            "type": "array",
            "items": {"oneOf": [{"type": "null"}, _RAW_MATRIX]},
        },
    },
}

_SYSTEM_EXPLICIT = {
    "type": "object",
    "required": ["dim_single", "one_body"],
    "additionalProperties": False,
    "properties": {
        "dim_single": {"type": "integer", "minimum": 2},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "one_body": _RAW_MATRIX,
        "potentials": {
            "type": "object",
            "additionalProperties": False,
            "patternProperties": {"^[2-9]$": _RAW_MATRIX},
        },
    },
}

_SYSTEM_PRESET = {
    "type": "object",
    "required": ["preset", "seed"],
    "additionalProperties": False,
    "properties": {
        "preset": {"type": "string", "enum": ["random_hermitian"]},
        "seed": {"type": "integer", "minimum": 0},
        "orders": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 1,
        },
        "dim_single": {"type": "integer", "minimum": 2},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "scale": {"type": "number", "exclusiveMinimum": 0},
    },
}

SYSTEM_SCHEMA = {"oneOf": [_SYSTEM_EXPLICIT, _SYSTEM_PRESET]}

_INITIAL_PRESET = {
    "type": "object",
    "required": ["preset", "seed"],
    "additionalProperties": False,
    "properties": {
        "preset": {
            "type": "string",
            "enum": ["random_correlation", "random_density"],
        },
        "seed": {"type": "integer", "minimum": 0},
        "norms": {
            "oneOf": [
                {"type": "number", "exclusiveMinimum": 0},
                {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            ]
        },
        "trace_scale": {"type": "number", "exclusiveMinimum": 0},
        "traceless": {"type": "boolean"},
        "symmetric": {"type": "boolean"},
    },
}

INITIAL_SCHEMA = {
    "type": "object",
    "minProperties": 1,
    "maxProperties": 1,
    "additionalProperties": False,
    "properties": {
        "correlation": SEQUENCE_SCHEMA,
        "density": SEQUENCE_SCHEMA,
        "preset": _INITIAL_PRESET,
    },
}

QUADRATURE_SCHEMA = {
    "type": "object",
    "required": ["order", "nodes_per_dim", "rule"],
    "additionalProperties": False,
    "properties": {
        "order": {"type": "integer", "minimum": 0, "maximum": 3},
        "nodes_per_dim": {"type": "integer", "minimum": 4, "maximum": 64},
        "rule": {
            "type": "string",
            "enum": ["gauss-legendre-simplex", "nested-trapezoid"],
        },
    },
}

_TASK_PATTERN = "^(evolve|hierarchy|bbgky|iterate|observables)$"

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["system", "initial", "times", "tasks", "n_max"],
    "additionalProperties": False,
    "properties": {
        "system": SYSTEM_SCHEMA,
        "initial": INITIAL_SCHEMA,
        "times": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
        },
        "tasks": {
            "type": "array",
            "items": {"type": "string", "pattern": _TASK_PATTERN},
            "minItems": 1,
        },
        "n_max": {"type": "integer", "minimum": 1},
        "s_values": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "quadrature": QUADRATURE_SCHEMA,
        "observable": _RAW_MATRIX,
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"type": "string", "enum": ["json", "csv", "both"]},
            },
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

ALL_SCHEMAS = {
    "sequence": SEQUENCE_SCHEMA,
    "system": SYSTEM_SCHEMA,
    "scenario": SCENARIO_SCHEMA,
    "quadrature": QUADRATURE_SCHEMA,
    "report": REPORT_SCHEMA,
}


# exact types only: bool, numpy scalars and other number-likes take the slow
# routes, where jsonschema and json decide about them as they always have
_NUMBER_TYPES = {int, float}

_MATRIX_STAND_IN = [[[0.0, 0.0]]]

# the schema keywords _conforms knows; any other makes it give up
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties",
    "patternProperties", "items", "minItems", "maxItems", "minProperties",
    "maxProperties", "enum", "pattern", "minimum", "maximum",
    "exclusiveMinimum", "oneOf",
})


def _pair_row(row) -> tuple | None:
    """The entries of a row of [re, im] pairs of exact ints and floats,
    flattened; None when row is anything else (an empty row included)."""
    if type(row) is not list or set(map(type, row)) != {list}:
        return None
    if set(map(len, row)) != {2}:
        return None
    flat = tuple(chain.from_iterable(row))
    return flat if set(map(type, flat)) <= _NUMBER_TYPES else None


def _is_raw_matrix(x) -> bool:
    """True when x is a raw-matrix leaf that every raw-matrix schema accepts."""
    if type(x) is not list or not x:
        return False
    return all(_pair_row(row) is not None for row in x)


def _skeleton(x):
    """x with every raw-matrix leaf replaced by the stand-in."""
    if type(x) is dict:
        return {k: _skeleton(v) for k, v in x.items()}
    if type(x) is list:
        if _is_raw_matrix(x):
            return _MATRIX_STAND_IN
        return [_skeleton(v) for v in x]
    return x


class _Undecided(Exception):
    """The schema uses something _conforms does not know."""


def _is_type(x, kind: str) -> bool:
    """jsonschema's Draft 2020-12 default type check."""
    if kind == "object":
        return isinstance(x, dict)
    if kind == "array":
        return isinstance(x, list)
    if kind == "string":
        return isinstance(x, str)
    if kind == "boolean":
        return isinstance(x, bool)
    if kind == "null":
        return x is None
    if kind == "number":
        return isinstance(x, Number) and not isinstance(x, bool)
    if kind == "integer":
        if isinstance(x, float):
            return x.is_integer()
        return isinstance(x, int) and not isinstance(x, bool)
    raise _Undecided


def _check(x, schema) -> bool:
    """Whether x is valid under schema; raises _Undecided for a schema
    outside the known subset, so that False always means "invalid"."""
    if schema is True or schema is False:
        return schema
    if type(schema) is not dict or not schema.keys() <= _KEYWORDS:
        raise _Undecided
    if "type" in schema:
        if not _is_type(x, schema["type"]):
            return False
    elif schema.keys() != {"oneOf"}:
        raise _Undecided
    if "oneOf" in schema and sum(_check(x, s) for s in schema["oneOf"]) != 1:
        return False
    if "enum" in schema:
        if not all(type(v) is str for v in schema["enum"]):
            raise _Undecided
        if x not in schema["enum"]:
            return False
    # each keyword below applies only to its own instance type
    if isinstance(x, dict):
        if not (
            schema.get("minProperties", 0)
            <= len(x)
            <= schema.get("maxProperties", len(x))
        ):
            return False
        if any(k not in x for k in schema.get("required", ())):
            return False
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        rest = schema.get("additionalProperties", True)
        for k, v in x.items():
            subs = [sub for p, sub in patterns.items() if re.search(p, k)]
            if k in props:
                subs.append(props[k])
            if not all(_check(v, sub) for sub in subs or [rest]):
                return False
    elif isinstance(x, list):
        if not schema.get("minItems", 0) <= len(x) <= schema.get("maxItems", len(x)):
            return False
        items = schema.get("items", True)
        return all(_check(v, items) for v in x)
    elif isinstance(x, str):
        if "pattern" in schema and not re.search(schema["pattern"], x):
            return False
    elif _is_type(x, "number"):
        if "minimum" in schema and x < schema["minimum"]:
            return False
        if "maximum" in schema and x > schema["maximum"]:
            return False
        if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
            return False
    return True


def _conforms(instance, schema) -> bool:
    """True when instance is valid under schema.  False when it is not, or
    when schema uses a keyword or a form outside the subset _check knows."""
    try:
        return _check(instance, schema)
    except _Undecided:
        return False


def validate(obj: Any, schema: dict, what: str = "document") -> None:
    """Validate obj against schema, raising SchemaViolation on failure."""
    if _conforms(_skeleton(obj), schema):
        return
    import jsonschema

    validator = jsonschema.validators.validator_for(schema)(schema)
    exc = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path)
        raise SchemaViolation(f"{what} at '{path}': {exc.message}") from exc


def _json_text(value, level: int) -> str:
    """json's own text for value, indented as if written at depth level."""
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.replace("\n", "\n" + "  " * level) if level else text


@lru_cache(maxsize=64)
def _row_format(level: int, n_pairs: int) -> str:
    """%-format of a row of n_pairs [re, im] pairs whose "[" sits at level."""
    row_in = "\n" + "  " * level
    pair_in = row_in + "  "
    num_in = pair_in + "  "
    pair = "[" + num_in + "%r," + num_in + "%r" + pair_in + "]"
    return "[" + pair_in + ("," + pair_in).join([pair] * n_pairs) + row_in + "]"


def _pair_row_text(row, level: int) -> str | None:
    """json's text for a row of [re, im] pairs of exact ints and floats
    written at depth level; None for any other value, or a non-finite entry."""
    flat = _pair_row(row)
    if flat is None:
        return None
    text = _row_format(level, len(row)) % flat
    # finite reprs are made of digits, ".", "-", "+" and "e": an "n" can only
    # come from nan or inf, which json refuses
    return None if "n" in text else text


def _write(value, level: int, out: list) -> None:
    """Append json's text for value, written at depth level, to out."""
    kind = type(value)
    if kind is float and isfinite(value):
        out.append(float.__repr__(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            text = _pair_row_text(item, level + 1)
            if text is None:
                _write(item, level + 1, out)
            else:
                out.append(text)
        out.append("\n" + "  " * level + "]")
    elif kind is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + json.dumps(key) + ": ")
            sep = "," + inner
            _write(item, level + 1, out)
        out.append("\n" + "  " * level + "}")
    else:
        out.append(_json_text(value, level))


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed indentation, newline end.

    Equal to json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    plus a newline, written without json's pure-Python indenting encoder.
    """
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def encode_raw_matrix(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def decode_raw_matrix(rows) -> np.ndarray:
    a = np.array(
        [[complex(e[0], e[1]) for e in row] for row in rows], dtype=complex
    )
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SchemaViolation(f"matrix must be square, got shape {a.shape}")
    return a


def encode_sequence(seq: OperatorSequence, kind: str | None = None) -> dict:
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


def decode_sequence(obj: dict) -> OperatorSequence:
    """The sequence of an obj already validated against SEQUENCE_SCHEMA."""
    d = int(obj["dim_single"])
    n_max = int(obj["n_max"])
    rows = obj["components"]
    if len(rows) > n_max:
        raise SchemaViolation(
            f"sequence lists {len(rows)} components but n_max is {n_max}"
        )
    comps = {}
    for i, entry in enumerate(rows):
        if entry is None:
            continue
        n = i + 1
        m = decode_raw_matrix(entry)
        want = d**n
        if m.shape != (want, want):
            raise SchemaViolation(
                f"component {n} is {m.shape[0]}x{m.shape[1]}, "
                f"expected {want}x{want}"
            )
        comps[n] = ManyBodyOperator(ParticleSet.range1(n), d, m)
    return OperatorSequence(d, n_max, decode_complex(obj["scalar0"]), comps)


def decode_system(obj: dict) -> SystemSpec:
    validate(obj, SYSTEM_SCHEMA, "system")
    if "preset" in obj:
        from .presets import random_system

        return random_system(
            int(obj["seed"]),
            dim_single=int(obj.get("dim_single", 2)),
            orders=tuple(obj.get("orders", [2])),
            hbar=float(obj.get("hbar", 1.0)),
            scale=float(obj.get("scale", 1.0)),
        )
    d = int(obj["dim_single"])
    one = decode_raw_matrix(obj["one_body"])
    if one.shape != (d, d):
        raise SchemaViolation(
            f"one_body is {one.shape[0]}x{one.shape[1]}, expected {d}x{d}"
        )
    pots = {}
    for key, rows in obj.get("potentials", {}).items():
        k = int(key)
        m = decode_raw_matrix(rows)
        want = d**k
        if m.shape != (want, want):
            raise SchemaViolation(
                f"potential of order {k} is {m.shape[0]}x{m.shape[1]}, "
                f"expected {want}x{want}"
            )
        pots[k] = m
    try:
        return SystemSpec(d, one, pots, float(obj.get("hbar", 1.0)))
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc
