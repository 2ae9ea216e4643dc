"""JSON codec roundtrips and schema rejection paths."""

import copy
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr.cli import load_scenario
from qcorr.errors import SchemaViolation
from qcorr.operators import ManyBodyOperator
from qcorr.partitions import ParticleSet
from qcorr.presets import random_correlation_state, random_system, rng_from_seed
from qcorr.serialize import (
    _KEYWORDS,
    ALL_SCHEMAS,
    SCENARIO_SCHEMA,
    SEQUENCE_SCHEMA,
    decode_complex,
    decode_raw_matrix,
    decode_sequence,
    decode_system,
    dumps_canonical,
    encode_complex,
    encode_raw_matrix,
    encode_sequence,
    validate,
)
from qcorr.serialize import _conforms
from qcorr.star_algebra import OperatorSequence
from qcorr.verify import run_suite

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


def test_complex_encoding_shape():
    assert encode_complex(1.5 - 2j) == [1.5, -2.0]
    assert decode_complex([0.25, 3.0]) == 0.25 + 3j


@given(finite, finite)
def test_complex_roundtrip(re, im):
    z = complex(re, im)
    assert decode_complex(encode_complex(z)) == z


def test_raw_matrix_roundtrip():
    rng = rng_from_seed(10)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    back = decode_raw_matrix(encode_raw_matrix(m))
    assert np.array_equal(back, m)


def test_raw_matrix_must_be_square():
    rows = [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 3]
    with pytest.raises(SchemaViolation):
        decode_raw_matrix(rows)


# ---------------------------------------------------------------------------
# sequences


def test_sequence_roundtrip_with_gap():
    g = random_correlation_state(12, 2, 3).seq
    gapped = OperatorSequence(
        2, 3, g.scalar0, {n: g.components[n] for n in (1, 3)}
    )
    obj = encode_sequence(gapped, kind="correlation")
    assert obj["components"][1] is None
    assert obj["kind"] == "correlation"
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    back = decode_sequence(obj)
    assert back.n_max == 3
    assert back.support == (1, 3)
    for n in (1, 3):
        assert np.array_equal(back.components[n].matrix, gapped.components[n].matrix)


def test_sequence_scalar_preserved():
    op = ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2, dtype=complex))
    seq = OperatorSequence(2, 1, 0.5 - 0.25j, {1: op})
    obj = encode_sequence(seq)
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    back = decode_sequence(obj)
    assert back.scalar0 == 0.5 - 0.25j


def test_prefixed_sequence_not_serialized():
    op = ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2, dtype=complex))
    seq = OperatorSequence(2, 2, 0.0, {0: op}, 1)
    with pytest.raises(ValueError):
        encode_sequence(seq)


def test_sequence_component_count_capped():
    obj = encode_sequence(random_correlation_state(13, 2, 2).seq)
    obj["n_max"] = 1
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    with pytest.raises(SchemaViolation, match="n_max"):
        decode_sequence(obj)


def test_sequence_component_size_checked():
    obj = encode_sequence(random_correlation_state(14, 2, 2).seq)
    obj["components"][1] = obj["components"][0]
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    with pytest.raises(SchemaViolation, match="component 2"):
        decode_sequence(obj)


# ---------------------------------------------------------------------------
# systems


def encode_system(spec):
    """The explicit system document of spec, which decode_system reads."""
    return {
        "dim_single": spec.dim_single,
        "hbar": spec.hbar,
        "one_body": encode_raw_matrix(spec.one_body),
        "potentials": {
            str(k): encode_raw_matrix(v) for k, v in sorted(spec.potentials.items())
        },
    }


def test_system_roundtrip_explicit():
    spec = random_system(15, dim_single=2, orders=(2, 3), hbar=0.5)
    back = decode_system(encode_system(spec))
    assert back.dim_single == 2
    assert back.hbar == 0.5
    assert np.array_equal(back.one_body, spec.one_body)
    assert set(back.potentials) == {2, 3}
    for k in (2, 3):
        assert np.array_equal(back.potentials[k], spec.potentials[k])


def test_system_preset_path():
    obj = {"preset": "random_hermitian", "seed": 7, "orders": [2, 3]}
    got = decode_system(obj)
    want = random_system(7, dim_single=2, orders=(2, 3))
    assert np.array_equal(got.one_body, want.one_body)
    assert np.array_equal(got.potentials[3], want.potentials[3])


def test_system_one_body_size_checked():
    obj = {"dim_single": 2, "one_body": encode_raw_matrix(np.eye(3))}
    with pytest.raises(SchemaViolation, match="one_body"):
        decode_system(obj)


def test_system_potential_size_checked():
    obj = {
        "dim_single": 2,
        "one_body": encode_raw_matrix(np.eye(2)),
        "potentials": {"2": encode_raw_matrix(np.eye(2))},
    }
    with pytest.raises(SchemaViolation, match="order 2"):
        decode_system(obj)


def test_system_constructor_errors_become_schema_violations():
    # valid JSON shape, but the one-body matrix is not Hermitian
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    obj = {"dim_single": 2, "one_body": encode_raw_matrix(bad)}
    with pytest.raises(SchemaViolation):
        decode_system(obj)


# ---------------------------------------------------------------------------
# canonical text


def test_dumps_canonical_is_order_insensitive():
    a = dumps_canonical({"b": 1, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1}


def test_dumps_canonical_rejects_nan():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_dumps_canonical_stable_bytes():
    spec = random_system(16, dim_single=2, orders=(2,))
    assert dumps_canonical(encode_system(spec)) == dumps_canonical(
        encode_system(spec)
    )


def _json_reference(obj):
    """The definition of canonical text that dumps_canonical must equal."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(fn, obj):
    try:
        return fn(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


_edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1e308, -1.7976931348623157e308]
)
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _edge_floats,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**300),
)
_scalars = st.one_of(
    _numbers,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# mostly [re, im] pairs of numbers, sometimes 1- or 3-element, tuple or scalar
_pairs = st.one_of(
    st.lists(_numbers, min_size=2, max_size=2),
    st.lists(_scalars, min_size=1, max_size=3),
    st.tuples(_scalars, _scalars),
    _scalars,
)
# well-formed raw matrices, which take the writer's row fast path
_raw_matrices = st.lists(
    st.lists(st.lists(_numbers, min_size=2, max_size=2), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
)
# matrix-shaped leaves, ragged and empty rows included
_matrices = st.lists(st.lists(_pairs, max_size=4), max_size=4)
_json_trees = st.recursive(
    st.one_of(_scalars, _raw_matrices, _matrices),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.text(max_size=3), kids, max_size=3),
        st.dictionaries(st.integers(), kids, max_size=2),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(_json_trees)
def test_dumps_canonical_equals_json_dumps(obj):
    assert _outcome(dumps_canonical, obj) == _outcome(_json_reference, obj)


def test_dumps_canonical_equals_json_dumps_on_documents():
    g = random_correlation_state(21, 2, 4).seq
    spec = random_system(22, dim_single=2, orders=(2, 3))
    doc = {
        "states": [encode_sequence(g, kind="correlation")],
        "system": encode_system(spec),
        "nested": {"deeper": [[{"labels": [1, 2], "dim_single": 2,
                                "matrix": encode_raw_matrix(g.components[2].matrix)}]]},
    }
    assert dumps_canonical(doc) == _json_reference(doc)


@settings(max_examples=100)
@given(
    st.lists(st.lists(st.lists(_edge_floats, min_size=2, max_size=2), min_size=1,
                      max_size=3), min_size=1, max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_dumps_canonical_refuses_non_finite_like_json(matrix, bad, data):
    i = data.draw(st.integers(0, len(matrix) - 1))
    j = data.draw(st.integers(0, len(matrix[i]) - 1))
    k = data.draw(st.integers(0, 1))
    matrix[i][j][k] = bad
    doc = data.draw(st.sampled_from([matrix, {"m": matrix}, [1, {"a": [matrix]}]]))
    with pytest.raises(ValueError) as ours:
        dumps_canonical(doc)
    with pytest.raises(ValueError) as theirs:
        _json_reference(doc)
    assert str(ours.value) == str(theirs.value)


def test_raw_matrix_encoding_is_plain_floats():
    m = np.array([[1 - 0j, complex(-0.0, 2.5)], [5e-324j, 1e16 + 0j]])
    rows = encode_raw_matrix(m)
    assert rows == [[[1.0, 0.0], [-0.0, 2.5]], [[0.0, 5e-324], [1e16, 0.0]]]
    assert all(type(x) is float for row in rows for pair in row for x in pair)
    assert math.copysign(1.0, rows[0][1][0]) == -1.0


# ---------------------------------------------------------------------------
# scenario schema


def _minimal_scenario():
    return {
        "system": {"preset": "random_hermitian", "seed": 1, "orders": [2]},
        "initial": {"preset": {"preset": "random_correlation", "seed": 2}},
        "times": [0.1],
        "tasks": ["evolve"],
        "n_max": 2,
    }


def test_scenario_minimal_passes():
    validate(_minimal_scenario(), SCENARIO_SCHEMA, "scenario")


def test_scenario_rejects_unknown_task():
    sc = _minimal_scenario()
    sc["tasks"] = ["simulate"]
    with pytest.raises(SchemaViolation, match="tasks/0"):
        validate(sc, SCENARIO_SCHEMA, "scenario")


def test_scenario_requires_exactly_one_initial():
    sc = _minimal_scenario()
    sc["initial"] = {}
    with pytest.raises(SchemaViolation):
        validate(sc, SCENARIO_SCHEMA, "scenario")
    sc["initial"] = {
        "preset": {"preset": "random_correlation", "seed": 2},
        "correlation": encode_sequence(
            OperatorSequence(
                2, 1, 0.0, {1: ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2))}
            )
        ),
    }
    with pytest.raises(SchemaViolation, match="has too many properties"):
        validate(sc, SCENARIO_SCHEMA, "scenario")


def test_scenario_rejects_unknown_key():
    sc = _minimal_scenario()
    sc["extra"] = True
    with pytest.raises(SchemaViolation):
        validate(sc, SCENARIO_SCHEMA, "scenario")


def test_violation_message_carries_path():
    sc = _minimal_scenario()
    sc["times"] = []
    with pytest.raises(SchemaViolation, match="'times'"):
        validate(sc, SCENARIO_SCHEMA, "scenario")


def _explicit_scenario(values):
    """A d = 2 scenario whose matrix entries are drawn from values."""
    it = iter(values)

    def matrix(dim):
        return [[[next(it), next(it)] for _ in range(dim)] for _ in range(dim)]

    return {
        "system": {
            "dim_single": 2,
            "one_body": matrix(2),
            "potentials": {"2": matrix(4)},
        },
        "initial": {
            "density": {
                "dim_single": 2,
                "n_max": 2,
                "scalar0": [1.0, 0.0],
                "components": [matrix(2), matrix(4)],
            }
        },
        "times": [0.1],
        "tasks": ["evolve"],
        "n_max": 2,
        "observable": matrix(2),
    }


_MATRIX_PATHS = [
    ("system", "one_body"),
    ("system", "potentials", "2"),
    ("initial", "density", "components", 0),
    ("initial", "density", "components", 1),
    ("observable",),
]

_BAD_VALUES = [
    True, None, "1.0", [], [1.0], [1.0, 2.0, 3.0], {}, np.float64(0.5), 2**80, -0.0
]


def _jsonschema_outcome(obj, schema, what):
    try:
        jsonschema.validate(obj, schema)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path)
        return f"{what} at '{path}': {exc.message}"
    return None


def _validate_outcome(obj, schema, what):
    try:
        validate(obj, schema, what)
    except SchemaViolation as exc:
        return str(exc)
    return None


@settings(max_examples=60)
@given(
    st.lists(st.one_of(_edge_floats, st.integers(-3, 3)), min_size=96, max_size=96),
    st.sampled_from(_MATRIX_PATHS),
    st.data(),
)
def test_validate_agrees_with_jsonschema(values, where, data):
    doc = _explicit_scenario(values)
    *parents, key = where
    holder = doc
    for p in parents:
        holder = holder[p]
    matrix = holder[key]
    bad = data.draw(st.sampled_from(_BAD_VALUES))
    depth = data.draw(st.sampled_from(["matrix", "row", "pair", "number"]))
    i = data.draw(st.integers(0, len(matrix) - 1))
    j = data.draw(st.integers(0, len(matrix) - 1))
    if depth == "matrix":
        holder[key] = bad
    elif depth == "row":
        matrix[i] = bad
    elif depth == "pair":
        matrix[i][j] = bad
    else:
        matrix[i][j][data.draw(st.integers(0, 1))] = bad
    for obj, schema, what in [
        (doc, SCENARIO_SCHEMA, "scenario"),
        (doc["initial"]["density"], SEQUENCE_SCHEMA, "sequence"),
    ]:
        assert _validate_outcome(obj, schema, what) == _jsonschema_outcome(
            obj, schema, what
        )


def _subschemas(schema):
    yield schema
    for key in ("properties", "patternProperties"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])
    for sub in schema.get("oneOf", []):
        yield from _subschemas(sub)


def test_schemas_cannot_tell_a_raw_matrix_from_the_stand_in():
    """validate replaces every raw-matrix leaf by [[[0.0, 0.0]]] before
    jsonschema sees it.  That is sound only while every array schema either
    is a raw-matrix level, which constrains nothing beyond type,
    "minItems": 1 and the pair's two unbounded numbers, or rejects every row
    of [re, im] pairs as an item, so that a raw matrix and the stand-in (both
    non-empty lists of such rows) fail it alike."""
    raw_matrix = SCENARIO_SCHEMA["properties"]["observable"]
    row = raw_matrix["items"]
    pair = row["items"]
    assert raw_matrix == {"type": "array", "minItems": 1, "items": row}
    assert row == {"type": "array", "minItems": 1, "items": pair}
    assert pair == {
        "type": "array",
        "items": {"type": "number"},
        "minItems": 2,
        "maxItems": 2,
    }
    scalar_types = {"number", "integer", "string", "boolean", "null", "object"}

    def rejects_rows(schema):
        # a row's items are [re, im] pairs, whose items are numbers, so a
        # row is never a raw matrix
        if "oneOf" in schema:
            return all(rejects_rows(branch) for branch in schema["oneOf"])
        return schema.get("type") in scalar_types or schema == raw_matrix

    # keywords whose verdict on a list depends only on the facts above
    allowed = {
        "type", "properties", "required", "additionalProperties",
        "patternProperties", "items", "minItems", "maxItems", "minProperties",
        "maxProperties", "enum", "pattern", "minimum", "maximum",
        "exclusiveMinimum", "oneOf",
    }
    for schema in ALL_SCHEMAS.values():
        for sub in _subschemas(schema):
            assert set(sub) <= allowed, set(sub) - allowed
            assert all(isinstance(v, str) for v in sub.get("enum", []))
            assert "type" in sub or set(sub) == {"oneOf"}
            if sub.get("type") == "array" and sub not in (raw_matrix, row):
                assert isinstance(sub["items"], dict)
                assert rejects_rows(sub["items"]), sub


def test_schema_registry_names():
    assert set(ALL_SCHEMAS) == {
        "sequence",
        "system",
        "scenario",
        "quadrature",
        "report",
    }


def _nested_schemas(x):
    """x and every value nested in it, at any depth."""
    yield x
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _nested_schemas(v)


def test_every_published_schema_has_a_reader():
    # qcorr reads one document, a scenario, and writes one report; a
    # published schema that neither could hold would describe a format
    # that no input accepts
    nested = list(_nested_schemas(SCENARIO_SCHEMA))
    for name, schema in ALL_SCHEMAS.items():
        if name == "report":
            validate(run_suite("combinatorics"), schema, "report")
        else:
            assert any(s is schema for s in nested), name


def test_every_schema_passes_the_meta_schema():
    for schema in ALL_SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


# ---------------------------------------------------------------------------
# the built-in checker against jsonschema

_M2 = [[[1.0, 0.0], [0.5, -0.5]], [[0.5, 0.5], [2.0, 0.0]]]
_M4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]


def _full_scenario(explicit):
    """A valid scenario that sets every optional field."""
    if explicit:
        system = {"dim_single": 2, "hbar": 1.0, "one_body": _M2,
                  "potentials": {"2": _M4}}
        initial = {"density": {"kind": "density", "dim_single": 2, "n_max": 2,
                               "scalar0": [1.0, 0.0], "components": [_M2, None]}}
    else:
        system = {"preset": "random_hermitian", "seed": 1, "orders": [2, 3],
                  "dim_single": 2, "hbar": 0.5, "scale": 1.0}
        initial = {"preset": {"preset": "random_correlation", "seed": 2,
                              "norms": [0.3, 0.2], "traceless": False,
                              "symmetric": True}}
    return {
        "system": system,
        "initial": initial,
        "times": [0.1, 0.2],
        "tasks": ["evolve", "observables"],
        "n_max": 2,
        "s_values": [1],
        "quadrature": {"order": 2, "nodes_per_dim": 6,
                       "rule": "gauss-legendre-simplex"},
        "observable": _M2,
        "output": {"path": "out", "format": "json"},
    }


@pytest.mark.parametrize("explicit", [True, False])
def test_full_scenario_is_valid(explicit):
    doc = _full_scenario(explicit)
    validate(doc, SCENARIO_SCHEMA, "scenario")
    sc = load_scenario(doc)
    assert sc.tasks == ["evolve", "observables"]


def _report():
    return {"suite": "group-law", "passed": True, "checks": [
        {"name": "c", "law": "l", "residual": 1e-16, "tolerance": 1e-10,
         "pass": True}]}


_SCENARIO_PATHS = [
    ("times",), ("times", 0), ("tasks",), ("tasks", 0), ("tasks", 1),
    ("n_max",), ("s_values",), ("s_values", 0), ("quadrature",),
    ("quadrature", "order"), ("quadrature", "nodes_per_dim"),
    ("quadrature", "rule"), ("quadrature", "extra"), ("tolerances",),
    ("output",), ("output", "path"), ("output", "format"), ("output", "extra"),
    ("system",), ("system", "seed"), ("system", "orders"),
    ("system", "orders", 0), ("system", "dim_single"), ("system", "hbar"),
    ("system", "scale"), ("system", "preset"), ("system", "extra"),
    ("system", "potentials"), ("system", "potentials", "1"),
    ("system", "potentials", "2"), ("system", "potentials", "10"),
    ("initial",), ("initial", "extra"), ("initial", "chaos"),
    ("initial", "preset", "preset"), ("initial", "preset", "seed"),
    ("initial", "preset", "norms"), ("initial", "preset", "norms", 0),
    ("initial", "preset", "trace_scale"), ("initial", "preset", "traceless"),
    ("initial", "density", "kind"), ("initial", "density", "n_max"),
    ("initial", "density", "scalar0"), ("initial", "density", "components", 1),
    ("initial", "density", "extra"), ("extra",),
]
_REPORT_PATHS = [
    ("suite",), ("passed",), ("checks",), ("checks", 0),
    ("checks", 0, "residual"), ("checks", 0, "pass"), ("checks", 0, "name"),
    ("extra",),
]
_MUTATIONS = [
    True, False, 1.0, 2, np.float64(2.0), np.float64(0.5), 2**80, 0, -1,
    -0.0, -2.5, 0.5, 1e-300, None, [], {}, [1.0], [0.5, 1.0], "evolve",
    "evolve\n", "verify:group-law", "verify:", "simulate", "json",
    "random_hermitian", _M2, _M4,
]
_DELETE = object()


def _mutate(doc, path, value):
    """Set the entry at path to value, or remove it for _DELETE; a path that
    no longer leads anywhere leaves doc as it is."""
    *parents, key = path
    try:
        holder = doc
        for p in parents:
            holder = holder[p]
        if value is _DELETE:
            del holder[key]
        else:
            holder[key] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass


def _nodes(x):
    yield x
    children = x.values() if isinstance(x, dict) else x if isinstance(x, list) else ()
    for child in children:
        yield from _nodes(child)


_JSONSCHEMA = {
    name: jsonschema.validators.validator_for(s)(s) for name, s in ALL_SCHEMAS.items()
}


def _base(kind):
    doc = _report() if kind == "report" else _full_scenario(kind == "explicit")
    return json.loads(json.dumps(doc))


def _paths(kind):
    return _REPORT_PATHS if kind == "report" else _SCENARIO_PATHS


def _agrees(doc, name):
    """_conforms and jsonschema give doc the same verdict under ALL_SCHEMAS[name]."""
    return _conforms(doc, ALL_SCHEMAS[name]) == _JSONSCHEMA[name].is_valid(doc)


@settings(max_examples=150)
@given(st.sampled_from(["explicit", "preset", "report"]), st.data())
def test_conforms_agrees_with_jsonschema(kind, data):
    doc = _base(kind)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(_paths(kind)))
        _mutate(doc, path, data.draw(st.sampled_from(_MUTATIONS + [_DELETE])))
    for node in _nodes(doc):
        for name in ALL_SCHEMAS:
            assert _agrees(node, name), (name, node)
    if kind != "report":
        assert _validate_outcome(doc, SCENARIO_SCHEMA, "scenario") == (
            _jsonschema_outcome(doc, SCENARIO_SCHEMA, "scenario")
        )


def test_conforms_agrees_with_jsonschema_on_every_single_mutation():
    for kind in ("explicit", "preset", "report"):
        name = "report" if kind == "report" else "scenario"
        for path in _paths(kind):
            for value in _MUTATIONS + [_DELETE]:
                doc = _base(kind)
                _mutate(doc, path, value)
                assert _agrees(doc, name), (path, value)


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "integer"}, True),
        ({"type": "number"}, False),
        ({"type": "integer"}, 2.0),
        ({"type": "integer"}, np.float64(2.0)),
        ({"type": "integer"}, 2.5),
        ({"type": "integer"}, 2**80),
        ({"type": "number"}, np.float64(0.5)),
        ({"type": "number", "minimum": 0}, -0.0),
        ({"type": "number", "exclusiveMinimum": 0}, -0.0),
        ({"type": "number", "maximum": 3}, 2**80),
        ({"type": "string", "pattern": "b"}, "abc"),
        ({"type": "string", "pattern": "^a$"}, "a\n"),
        ({"type": "object", "patternProperties": {"b": {"type": "null"}},
          "additionalProperties": False}, {"ab": None}),
        ({"type": "object", "patternProperties": {"b": {"type": "null"}},
          "additionalProperties": False}, {"ab": 1}),
        ({"type": "object", "properties": {"a": {"type": "null"}},
          "additionalProperties": {"type": "integer"}}, {"a": None, "b": 1}),
        ({"type": "object", "properties": {"a": {"type": "null"}},
          "additionalProperties": {"type": "integer"}}, {"b": None}),
        ({"type": "object", "properties": {"ab": {"type": "null"}},
          "patternProperties": {"a": {"type": "null"}}}, {"ab": None}),
        ({"type": "object", "properties": {"ab": {"type": "null"}},
          "patternProperties": {"a": {"type": "integer"}}}, {"ab": None}),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 4),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 4.5),
        ({"type": "array", "items": {"type": "null"}, "maxItems": 1}, [None] * 2),
        ({"type": "object", "minProperties": 1}, {}),
        ({"type": "string", "enum": ["a"]}, "b"),
    ],
)
def test_conforms_follows_draft_2020_12(schema, instance):
    validator = jsonschema.validators.validator_for(schema)(schema)
    assert _conforms(instance, schema) == validator.is_valid(instance)


def test_conforms_knows_exactly_the_pinned_keywords():
    assert _KEYWORDS == {
        "type", "properties", "required", "additionalProperties",
        "patternProperties", "items", "minItems", "maxItems", "minProperties",
        "maxProperties", "enum", "pattern", "minimum", "maximum",
        "exclusiveMinimum", "oneOf",
    }


@pytest.mark.parametrize(
    "schema, instance",
    [
        ({"type": "integer", "multipleOf": 2}, 4),  # unknown keyword
        ({"minimum": 1}, 4),  # no type
        ({"type": ["integer", "null"]}, 4),  # a list of types
        ({"type": "integer", "enum": [4]}, 4),  # an enum of non-strings
        ({"type": "array", "prefixItems": [{"type": "string"}]}, [4]),
        # exactly one branch is known to hold, but the other holds as well
        ({"oneOf": [{"type": "integer"}, {"type": "integer", "multipleOf": 2}]}, 4),
        ({"type": "object", "properties": {"a": {"const": 4}}}, {"a": 4}),
    ],
)
def test_conforms_defers_outside_its_subset(schema, instance):
    assert not _conforms(instance, schema)
    # jsonschema decides instead, whatever its verdict
    assert _validate_outcome(instance, schema, "doc") == _jsonschema_outcome(
        instance, schema, "doc"
    )
