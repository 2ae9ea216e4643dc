"""JSON codec roundtrips and schema rejection paths."""

import copy
import io
import json
import math
import os
import struct
import sys
import tempfile
from unittest import mock

import jsonschema
import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import stdlib_text, wire
from qcorr import cli, serialize
from qcorr.cli import ALL_SCHEMAS, SCENARIO_SCHEMA, load_scenario, main
from qcorr.errors import SchemaViolation
from qcorr.operators import ManyBodyOperator
from qcorr.partitions import ParticleSet
from qcorr.presets import random_correlation_state, random_system, rng_from_seed
from qcorr.serialize import (
    _KEYWORDS,
    _TYPE_CHECKS,
    MAX_NESTING,
    RAW_MATRIX_SCHEMA,
    SEQUENCE_SCHEMA,
    check_nesting,
    decode_complex,
    decode_raw_matrix,
    dump_canonical,
    dumps_canonical,
    encode_complex,
    encode_raw_matrix,
    encode_sequence,
    validate,
)
from qcorr.serialize import _BLOCK, _check, _is_raw_matrix
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
    back = decode_raw_matrix(wire(encode_raw_matrix(m)))
    assert np.array_equal(back, m)


def test_raw_matrix_decodes_bit_for_bit():
    rows = [[[-0.0, 5e-324], [1, -(2**63)]], [[2**64 - 1, -0.0], [1.5e-300, 0]]]
    a = decode_raw_matrix(rows)
    want = np.array([[complex(re, im) for re, im in row] for row in rows])
    assert a.dtype == np.complex128 and a.shape == (2, 2)
    assert np.array_equal(a.view(np.uint64), want.view(np.uint64))


_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.5e-320, 2.225073858507201e-308]),
    st.integers(-(2**63), 2**64 - 1),
    st.integers(2**53 + 1, 2**70),
)


@settings(max_examples=200)
@given(st.integers(1, 4), st.data())
def test_raw_matrix_decodes_as_numpy_reads_its_pairs(n, data):
    rows = [[[data.draw(_ENTRIES), data.draw(_ENTRIES)] for _ in range(n)]
            for _ in range(n)]
    want = np.asarray(rows, dtype=float).view(complex)[..., 0]
    got = decode_raw_matrix(rows)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_raw_matrix_must_be_square():
    for rows, message in [
        ([[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 3],
         "matrix must be square, got shape (2, 3)"),
        ([[[1, 0], [2, 0]]], "matrix must be square, got shape (1, 2)"),
        ([[[1, 0]], [[1, 0]]], "matrix must be square, got shape (2, 1)"),
        ([[[1, 0], [2, 0]], [[1, 0]]],
         "ragged matrix of 2 rows: row 2 has 1 entries, row 1 has 2"),
    ]:
        with pytest.raises(SchemaViolation) as info:
            decode_raw_matrix(rows)
        assert str(info.value) == message


def test_raw_matrix_leaf_is_the_stacked_pairs():
    rng = rng_from_seed(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m[0, 1] = complex(-0.0, 5e-324)
    for x in (m, m.T, m.real, [[1, 2], [3, 4]]):
        a = np.asarray(x, dtype=complex)
        want = np.stack([a.real, a.imag], -1)
        leaf = encode_raw_matrix(x)
        assert leaf.shape == want.shape and leaf.dtype == np.float64
        assert leaf.flags.c_contiguous
        assert leaf.tobytes() == want.tobytes()
    # a C-contiguous complex matrix is not copied
    assert np.shares_memory(encode_raw_matrix(m), m)


# ---------------------------------------------------------------------------
# sequences; cli decodes the scenario's initial sequence


def test_sequence_roundtrip_with_gap():
    g = random_correlation_state(12, 2, 3).seq
    gapped = OperatorSequence(
        2, 3, g.scalar0, {n: g.components[n] for n in (1, 3)}
    )
    obj = wire(encode_sequence(gapped, kind="correlation"))
    assert obj["components"][1] is None
    assert obj["kind"] == "correlation"
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    back = cli._decode_sequence("correlation", obj, 2, obj["n_max"])
    assert back.n_max == 3
    assert back.support == (1, 3)
    for n in (1, 3):
        assert np.array_equal(back.components[n].matrix, gapped.components[n].matrix)


def test_sequence_scalar_preserved():
    op = ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2, dtype=complex))
    seq = OperatorSequence(2, 1, 0.5 - 0.25j, {1: op})
    # "kind" is optional on input: a document without it decodes under its tag
    obj = wire(encode_sequence(seq, kind="correlation"))
    del obj["kind"]
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    back = cli._decode_sequence("correlation", obj, 2, obj["n_max"])
    assert back.scalar0 == 0.5 - 0.25j


def test_prefixed_sequence_not_serialized():
    op = ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2, dtype=complex))
    seq = OperatorSequence(2, 2, 0.0, {0: op}, 1)
    with pytest.raises(ValueError):
        encode_sequence(seq, kind="correlation")


def test_sequence_component_count_capped():
    obj = wire(encode_sequence(random_correlation_state(13, 2, 2).seq, kind="correlation"))
    obj["n_max"] = 1
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    with pytest.raises(SchemaViolation, match="n_max"):
        cli._decode_sequence("correlation", obj, 2, 2)


def test_sequence_component_size_checked():
    obj = wire(encode_sequence(random_correlation_state(14, 2, 2).seq, kind="correlation"))
    obj["components"][1] = obj["components"][0]
    validate(obj, SEQUENCE_SCHEMA, "sequence")
    with pytest.raises(SchemaViolation, match="component 2"):
        cli._decode_sequence("correlation", obj, 2, 2)


# ---------------------------------------------------------------------------
# systems, which only the scenario holds, so cli decodes them


def encode_system(spec):
    """The explicit system document of spec, which cli._decode_system reads."""
    return wire({
        "dim_single": spec.dim_single,
        "hbar": spec.hbar,
        "one_body": encode_raw_matrix(spec.one_body),
        "potentials": {
            str(k): encode_raw_matrix(v) for k, v in sorted(spec.potentials.items())
        },
    })


def test_system_roundtrip_explicit():
    spec = random_system(15, dim_single=2, orders=(2, 3), hbar=0.5)
    back = cli._decode_system(encode_system(spec))
    assert back.dim_single == 2
    assert back.hbar == 0.5
    assert np.array_equal(back.one_body, spec.one_body)
    assert set(back.potentials) == {2, 3}
    for k in (2, 3):
        assert np.array_equal(back.potentials[k], spec.potentials[k])


def test_system_one_body_size_checked():
    obj = wire({"dim_single": 2, "one_body": encode_raw_matrix(np.eye(3))})
    with pytest.raises(SchemaViolation, match="one_body"):
        cli._decode_system(obj)


def test_system_potential_size_checked():
    obj = wire({
        "dim_single": 2,
        "one_body": encode_raw_matrix(np.eye(2)),
        "potentials": {"2": encode_raw_matrix(np.eye(2))},
    })
    with pytest.raises(SchemaViolation, match="order 2"):
        cli._decode_system(obj)


def test_system_constructor_errors_become_schema_violations():
    # valid JSON shape, but the one-body matrix is not Hermitian
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    obj = wire({"dim_single": 2, "one_body": encode_raw_matrix(bad)})
    with pytest.raises(SchemaViolation):
        cli._decode_system(obj)


# ---------------------------------------------------------------------------
# canonical text


def test_dumps_canonical_is_order_insensitive():
    a = dumps_canonical({"b": 1, "a": [1, 2]})
    b = dumps_canonical({"a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1}\n'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["top", "matrix", "array"])
def test_dumps_canonical_rejects_nan(bad, where):
    rows = [[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, bad]]]
    if where == "top":
        doc = {"x": bad}
    elif where == "matrix":
        doc = {"m": rows}
    else:
        doc = {"m": np.array(rows)}
    with pytest.raises(ValueError, match="Out of range float values"):
        dumps_canonical(doc)


def test_dumps_canonical_stable_bytes():
    spec = random_system(16, dim_single=2, orders=(2,))
    assert dumps_canonical(encode_system(spec)) == dumps_canonical(
        encode_system(spec)
    )


_edge_floats = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 1e308, -1.7976931348623157e308]
)


@given(st.lists(st.one_of(_edge_floats, st.floats(allow_nan=False,
                                                  allow_infinity=False))))
def test_dumps_canonical_keeps_every_float(values):
    back = json.loads(dumps_canonical({"v": values}))["v"]
    assert [x.hex() for x in back] == [x.hex() for x in values]


def test_raw_matrix_encoding_is_plain_floats():
    m = np.array([[1 - 0j, complex(-0.0, 2.5)], [5e-324j, 1e16 + 0j]])
    leaf = encode_raw_matrix(m)
    assert type(leaf) is np.ndarray
    assert leaf.dtype == np.float64
    assert leaf.shape == (2, 2, 2)
    assert leaf.flags.c_contiguous
    rows = leaf.tolist()
    assert rows == [[[1.0, 0.0], [-0.0, 2.5]], [[0.0, 5e-324], [1e16, 0.0]]]
    assert all(type(x) is float for row in rows for pair in row for x in pair)
    assert math.copysign(1.0, leaf[0, 1, 0]) == -1.0
    # the array is written as its list form, which encode_raw_matrix
    # returned before it returned arrays
    assert dumps_canonical({"m": leaf}) == stdlib_text({"m": rows})
    assert dumps_canonical({"m": leaf}) == (
        '{"m":[[[1.0,0.0],[-0.0,2.5]],[[0.0,5e-324],[1e+16,0.0]]]}\n'
    )


# ---------------------------------------------------------------------------
# raw-matrix leaves: the text orjson writes is the text json writes


def _bits_to_double(u: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", u))[0]


# every finite double: hypothesis's own choice, and uniform bit patterns
_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_bits_to_double).filter(math.isfinite),
)


def _assert_leaf_text(leaf):
    """A float64 array leaf, which orjson writes, is written as json writes
    its list."""
    assert leaf.dtype == np.float64
    assert dumps_canonical({"m": leaf}) == stdlib_text({"m": leaf.tolist()})


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_leaves_are_written_as_json_writes_them(n_rows, n_cols, data):
    size = 2 * n_rows * n_cols
    values = data.draw(st.lists(_doubles, min_size=size, max_size=size))
    leaf = np.array(values).reshape(n_rows, n_cols, 2)
    _assert_leaf_text(leaf)
    # the walker: a list of lists goes to json a number at a time
    assert dumps_canonical({"m": leaf.tolist()}) == stdlib_text({"m": leaf.tolist()})


def test_many_random_doubles_are_written_as_json_writes_them():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=(400, 250, 2), dtype=np.uint64).view(np.float64)
    spread = 10.0 ** rng.uniform(-25, 25, size=(400, 250, 2))
    spread *= rng.choice([-1.0, 1.0], size=spread.shape)
    for leaf in (np.where(np.isfinite(bits), bits, -0.0), spread):
        assert dumps_canonical(leaf) == stdlib_text(leaf.tolist())


# where orjson's layout differs from float.__repr__'s, and the doubles on
# either side of each border (from 1e100 on, the exponent has three digits)
_GRID = [
    -0.0, 0.0, 5e-324, 1e-5, 1.0000000000000001e-05, 9.999999999999999e-05,
    1e-4, 1e16, 9999999999999998.0, 1e100, 1.7976931348623157e308,
    1e-9, 1.5e-7, 1.2345678901234567e-6, 1e-10, 2.5e-320, 1e22, 0.1,
    # '0.0000' inside a number of another range
    10.00001, 100.000015, 0.00010000000000000002, 1.00001e-10,
]
_GRID += [math.nextafter(x, y) for x in (1e-9, 1e-5, 1e-4, 1e16, 1e100) for y in (0, math.inf)]
_GRID += [-x for x in _GRID]


@pytest.mark.parametrize("x", _GRID, ids=repr)
def test_grid_values_are_written_as_json_writes_them(x):
    for rows in ([[[x, x]]], [[[x, 0.5], [1, x]], [[x, -x], [x, 1e-7]]]):
        _assert_leaf_text(np.array(rows, dtype=np.float64))
        # the walker, on the same rows as lists
        assert dumps_canonical({"m": rows}) == stdlib_text({"m": rows})


def test_one_leaf_of_every_grid_value():
    rows = [[[x, y] for x, y in zip(_GRID, reversed(_GRID))]]
    _assert_leaf_text(np.array(rows, dtype=np.float64))
    assert dumps_canonical({"m": rows}) == stdlib_text({"m": rows})


# -- the walker: a list is written item by item, each number by json, so
# lists of lists check brackets, commas and json's own number text


def test_lists_with_ints_are_walked_as_json_writes_them():
    rows = [[[1, 0], [-3, 2**63]], [[-(2**63), 7], [2**64 - 1, 1.5e-05]]]
    assert dumps_canonical({"m": rows}) == stdlib_text({"m": rows})
    # ints that orjson refuses, 2^64 and up or below -2^63, never reach it
    for huge in (2**64, -(2**63) - 1, 10**30):
        rows = [[[1, 1e-05], [huge, 0.5]], [[2.0, 3], [4, 1e16]]]
        with pytest.raises(TypeError):
            orjson.dumps(rows)
        assert dumps_canonical({"m": rows}) == stdlib_text({"m": rows})


def test_d2_leaves_whose_rows_look_like_pairs():
    # a row of a 2 x 2 matrix is itself two pairs; only the matrix is a leaf
    m = [[[1e-05, -2.5e-05], [1e16, 0.0]], [[1e-7, 3.0], [-0.0, 1]]]
    doc = {"components": [m, None, [m[0]]], "pair": m[0], "scalar0": [1e-05, 0.0]}
    assert dumps_canonical(doc) == stdlib_text(doc)
    leaf = np.array(m, dtype=np.float64)
    assert dumps_canonical({"components": [leaf, None], "pair": m[0]}) == stdlib_text(
        {"components": [leaf.tolist(), None], "pair": m[0]}
    )


def test_non_contiguous_array_leaves_are_written_by_json():
    leaf = (np.arange(48.0).reshape(3, 8, 2) * 1e-5)[:, ::2]
    assert not leaf.flags.c_contiguous
    assert dumps_canonical({"m": leaf}) == stdlib_text({"m": leaf.tolist()})


def test_strings_are_written_as_json_writes_them():
    leaf = [[[1e-05, 0.5]]]
    doc = {
        "é": "x0.00001",
        "e5": ["é", "e5", "x0.00001", "\u2028", 'q"\\'],
        "x0.00001": {"e5": "1e16", "": [], "b": {}, "a": (1, "e-7")},
        "m": leaf,
        "0.0000": [leaf, "0.00001e5", True, None, 2**70, -1.5e-05],
    }
    assert dumps_canonical(doc) == stdlib_text(doc)


def test_other_documents_go_to_json_whole():
    # int keys, which json sorts as ints and writes as strings
    doc = {"k": {2: "b", 10: [[[1e-05, 0.0]]]}}
    assert dumps_canonical(doc) == stdlib_text(doc)
    # keys json cannot sort, and values it cannot write, raise its errors
    with pytest.raises(TypeError, match="not supported between"):
        dumps_canonical({2: "b", "k": None})
    for other in (np.zeros((2, 2)), np.zeros((2, 2, 2), dtype=np.float32), {1, 2}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps_canonical({"x": other})


def _json_outcome(write, doc) -> str:
    """The text write gives doc, or the type and message of its error."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "other",
    [True, False, None, "1e-05", "", 2**64, -(2**63) - 1, np.float32(0.5),
     np.float64(1.5e-05), {"b": 1e-05, "a": [1e16]}, math.nan],
    ids=repr,
)
def test_lists_holding_other_than_numbers_are_written_by_json(other):
    # the walker hands every item that is not a list or a dict to json whole
    for doc in ([other, 1e-05], [[1e-05, other], [2.0, 3]], [[[1e16, 0], [other, 1e-7]]],
                {"m": [[1.5e-05], [other]], "n": [[[2.5e-05, 1]]]}):
        assert _json_outcome(dumps_canonical, doc) == _json_outcome(stdlib_text, doc)


def test_ragged_nested_numbers_are_written_as_json_writes_them():
    for doc in ([[1e-05, [2.5e-7, [1e16, []]]], [0.0], []],
                [[[1.5e-05]], [[-0.0, 3], [1e-9, 2**63]]],
                [[0.00012], [1.2345678901234567e-05, -1e-05]]):
        assert dumps_canonical(doc) == stdlib_text(doc)


def _many_piece_leaf() -> np.ndarray:
    """160 x 160 pairs, with numbers of every layout class spread over every
    block of whole rows that the writer hands orjson."""
    rng = np.random.default_rng(7)
    scale = rng.choice([1e17, 1e-7, 3e-5, 0.0, -0.0, 1.0], size=(160, 160, 2))
    leaf = scale * rng.uniform(1, 9.99, size=scale.shape)
    leaf *= rng.choice([-1.0, 1.0], size=leaf.shape)
    return leaf


def test_a_leaf_of_many_pieces_is_written_as_json_writes_it():
    leaf = _many_piece_leaf()
    assert leaf.size > 4 * _BLOCK
    assert dumps_canonical(leaf) == stdlib_text(leaf.tolist())


def test_a_long_list_of_lists_is_walked_as_json_writes_it():
    # the list form of the many-piece leaf; none of it goes to orjson
    rows = _many_piece_leaf().tolist()
    assert dumps_canonical(rows) == stdlib_text(rows)


def test_each_leaf_goes_to_orjson_as_its_flat_blocks(monkeypatch):
    g = random_correlation_state(12, 2, 3).seq
    gapped = OperatorSequence(2, 3, g.scalar0, {n: g.components[n] for n in (1, 3)})
    encoded = encode_sequence(gapped, kind="correlation")
    leaves = encoded["components"][::2]
    want = stdlib_text(wire(encoded))
    dumps = orjson.dumps
    # leaves of 2 x 2 and 8 x 8 pairs: one block each at the default size,
    # blocks of whole rows at 40 numbers, a row a block at 6
    for block, counts in ((_BLOCK, [1, 1]), (40, [1, 4]), (6, [2, 8])):
        calls = []

        def recording(obj, *args, **kwargs):
            calls.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(serialize, "_BLOCK", block)
        monkeypatch.setattr(orjson, "dumps", recording)
        assert dumps_canonical(encoded) == want
        # every call gets a 1-D float64 array that shares memory with one
        # leaf, and a leaf's calls, in order, hold its numbers bit for bit
        assert all(type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 1
                   for a in calls)
        owner = [[np.shares_memory(a, leaf) for leaf in leaves].index(True) for a in calls]
        assert owner == sorted(owner)
        assert [owner.count(k) for k in range(len(leaves))] == counts
        for k, leaf in enumerate(leaves):
            joined = np.concatenate([a for a, o in zip(calls, owner) if o == k])
            assert joined.view(np.uint64).tolist() == leaf.ravel().view(np.uint64).tolist()


class _Recording(io.BytesIO):
    """A binary file in memory that keeps the data of every write call."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, data):
        self.pieces.append(data)
        return super().write(data)


def _streamed(doc):
    """dump_canonical's bytes of doc, or the type and message of its error."""
    fh = _Recording()
    try:
        dump_canonical(doc, fh)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return fh.getvalue()


def _encoded(doc):
    """dumps_canonical's text of doc as bytes, or its error as _streamed has it."""
    text = _json_outcome(dumps_canonical, doc)
    return text.encode() if text.endswith("\n") else text


_LEAF = np.array([[[1e-05, -2.5e-7], [1e16, 0.5]], [[-0.0, 3.0], [1.5e-05, 2e-05]]])


@pytest.mark.parametrize(
    "doc",
    [
        _many_piece_leaf(),
        {"m": _many_piece_leaf(), "n": [None, _LEAF]},
        {"m": np.where(_LEAF == 0.5, math.inf, _LEAF), "n": _LEAF * math.nan},
        {"m": (np.arange(48.0).reshape(3, 8, 2) * 1e-5)[:, ::2]},
        {"é": {"b": [_LEAF, {"c": [1e-05, "x0.00001", True]}], "a": []}, "": [[_LEAF]]},
        encode_sequence(random_correlation_state(12, 2, 3).seq, kind="correlation"),
        {"x": math.nan},
        {"m": [[[0.0, 1.0]], [[2.0, -math.inf]]]},
        {"k": {2: "b"}, "m": _LEAF},
        {2: "b", "k": None},
    ],
    ids=["many-piece-leaf", "many-piece-nested", "non-finite", "non-contiguous",
         "nested", "sequence", "nan-scalar", "nan-matrix", "int-keys", "unsortable"],
)
def test_the_stream_is_the_string_encoded(doc):
    # the file gets dumps_canonical's text, or the same refusal
    assert _streamed(doc) == _encoded(doc)


def test_a_long_leaf_reaches_its_file_as_bytes_in_pieces():
    leaf = _many_piece_leaf()
    assert leaf.size > 4 * _BLOCK
    result = {"task": "evolve", "times": [0.5], "states": [{"components": [leaf, None]}]}
    fh = _Recording()
    dump_canonical(result, fh)
    assert fh.getvalue() == dumps_canonical(result).encode()
    assert {type(piece) for piece in fh.pieces} == {bytes}
    # a piece is a block of at most _BLOCK numbers, each with its separator
    # at most 32 bytes, and several pieces exceed 64 KiB, 8 bytes for each
    # number of a full block
    assert max(map(len, fh.pieces)) <= 32 * _BLOCK
    assert sum(len(piece) > 8 * _BLOCK for piece in fh.pieces) >= 4


def _grid_leaf(rows: int, cols: int) -> np.ndarray:
    """A leaf of rows x cols pairs that runs through _GRID over and over."""
    return np.resize(np.array(_GRID), (rows, cols, 2))


@pytest.mark.parametrize(
    "rows, cols",
    [(9, 2), (13, 1), (3, 7), (1, 13), (1, 1), (2, 3)],
    ids=["several-blocks", "one-column", "rows-longer-than-a-block", "one-long-row",
         "one-pair", "one-block"],
)
def test_blocks_of_whole_rows_are_written_as_json_writes_them(monkeypatch, rows, cols):
    # at 8 numbers a block: 2 rows of 2 pairs a block, the last block short;
    # 4 rows of 1; and a row a block where a row holds more than 8 numbers
    monkeypatch.setattr(serialize, "_BLOCK", 8)
    leaf = _grid_leaf(rows, cols)
    assert dumps_canonical({"m": leaf}) == stdlib_text({"m": leaf.tolist()})
    assert _streamed([leaf, leaf[::-1]]) == _encoded([leaf, leaf[::-1]])


@pytest.mark.parametrize("block", [_BLOCK, 8])
@pytest.mark.parametrize("shape, text", [((0, 0, 2), "[]"), ((2, 0, 2), "[[],[]]"),
                                         ((0, 3, 2), "[]")])
def test_empty_leaves_are_written_as_json_writes_them(monkeypatch, block, shape, text):
    monkeypatch.setattr(serialize, "_BLOCK", block)
    leaf = np.zeros(shape)
    assert dumps_canonical({"m": leaf}) == stdlib_text({"m": leaf.tolist()})
    assert dumps_canonical(leaf) == text + "\n"


# ---------------------------------------------------------------------------
# reading: `qcorr run` reads each number literal as float() reads it


def _read_by_cli(text: str) -> tuple[int, list]:
    """The exit code of `qcorr run` on a scenario file holding text, and the
    documents it handed to load_scenario (which here refuses each one)."""
    seen = []

    def capture(obj, seed):
        seen.append(obj)
        raise SchemaViolation("captured")

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        cli, "load_scenario", capture
    ):
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = main(["run", "--scenario", path, "--out", os.path.join(tmp, "out")])
    return code, seen


def _assert_read_as_float_reads(texts: list[str]) -> None:
    code, seen = _read_by_cli('{"v": [' + ", ".join(texts) + "]}")
    assert code == 2
    (obj,) = seen
    assert [type(x) for x in obj["v"]] == [float] * len(texts)
    assert [x.hex() for x in obj["v"]] == [float(t).hex() for t in texts]


@settings(max_examples=200, deadline=None)
@given(st.lists(_doubles, min_size=1, max_size=20))
def test_reader_reads_each_literal_to_the_bits_of_float(values):
    _assert_read_as_float_reads([t for x in values for t in (repr(x), "%.25e" % x)])


# the literals at the ends of the range of a double, and what float() reads
_READ_GRID = {
    "-0.0": -0.0,
    "5e-324": 5e-324,
    "2.4703282292062327e-324": 0.0,
    "2.4703282292062328e-324": 5e-324,
    "1.7976931348623157e308": sys.float_info.max,
    "1.7976931348623158e308": sys.float_info.max,
    "1e-400": 0.0,
}


def test_reader_reads_the_grid_as_float_does():
    for text, value in _READ_GRID.items():
        assert float(text).hex() == value.hex()
    _assert_read_as_float_reads(list(_READ_GRID))


def test_reader_refuses_the_first_literal_beyond_a_double(capsys):
    literal = "1.7976931348623159e308"
    code, seen = _read_by_cli('{"v": [' + literal + "]}")
    assert (code, seen) == (2, [])
    err = capsys.readouterr().err
    assert err.startswith("malformed JSON: number is infinity when parsed as double")
    assert f"'{literal}'" in err
    assert len(err.splitlines()) == 1


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
        "correlation": wire(encode_sequence(
            OperatorSequence(
                2, 1, 0.0, {1: ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2))}
            ),
            kind="correlation",
        )),
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


def _chain(depth, kind, leaf=1):
    """leaf inside depth nested lists, or objects with the one key "a"."""
    for _ in range(depth):
        leaf = [leaf] if kind == "list" else {"a": leaf}
    return leaf


def _refused_as_too_deep(doc) -> tuple[bool, bool]:
    """Whether validate, and check_nesting on doc's JSON text, refuse doc
    for its nesting."""
    verdicts = []
    for check in (
        lambda: validate(doc, SCENARIO_SCHEMA, "scenario"),
        lambda: check_nesting(json.dumps(doc).encode(), "scenario"),
    ):
        try:
            check()
        except SchemaViolation as exc:
            verdicts.append("levels deep" in str(exc))
        else:
            verdicts.append(False)
    return tuple(verdicts)


@pytest.mark.parametrize("kind", ["list", "dict"])
@pytest.mark.parametrize("depth", [600, 5000])
def test_validate_refuses_deep_nesting_without_recursing(kind, depth):
    # validate recurses along the schema, not the document, and quotes no
    # container, so no depth exhausts its stack
    sc = _minimal_scenario()
    sc["system"] = _chain(depth, kind)
    with pytest.raises(SchemaViolation) as info:
        validate(sc, SCENARIO_SCHEMA, "scenario")
    shown = "an array" if kind == "list" else "an object"
    assert str(info.value) == (
        f"scenario at 'system': {shown} matches none of the allowed forms"
    )
    sc["system"] = {"preset": "random_hermitian", "seed": 1,
                    "orders": [_chain(depth, kind)]}
    with pytest.raises(SchemaViolation) as info:
        validate(sc, SCENARIO_SCHEMA, "scenario")
    assert str(info.value) == (
        f"scenario at 'system/orders/0': {shown} is not of type 'integer'"
    )


@pytest.mark.parametrize(
    "value, kind",
    [(np.zeros((3, 3, 2)), "ndarray"), ((1, 2), "tuple"), ({1, 2}, "set")],
    ids=["ndarray", "tuple", "set"],
)
def test_validate_names_a_value_json_does_not_hold_by_its_kind(value, kind):
    # a library caller's document may hold values no JSON text parses to;
    # the reason names their kind in one line and quotes none of them
    sc = _minimal_scenario()
    sc["observable"] = value
    with pytest.raises(SchemaViolation) as info:
        validate(sc, SCENARIO_SCHEMA, "scenario")
    assert str(info.value) == (
        f"scenario at 'observable': a value of type {kind} is not of type 'array'"
    )


@pytest.mark.parametrize("kind", ["list", "dict", "matrix"])
def test_the_nesting_bound_is_one_for_documents_and_text(kind):
    # the scenario object is the first level, a raw matrix three more;
    # check_nesting guards the parser, and validate needs no depth bound
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        if kind == "matrix":
            doc = {"m": _chain(depth - 4, "list", [[[0.5, -1]]])}
        else:
            doc = {"m": _chain(depth - 1, kind)}
        too_deep = depth > MAX_NESTING
        assert _refused_as_too_deep(doc) == (False, too_deep)


_DEEP = "[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1)


@pytest.mark.parametrize(
    "text, refused",
    [
        ('{"path": "' + "[" * 200 + '"}', False),
        ('{"a": "' + "]" * 200 + '", "b": ' + _DEEP + "}", True),
        # an escaped quote does not end the string
        ('{"a": "\\"' + "[" * 200 + '"}', False),
        # an escaped backslash does not escape the quote after it
        ('{"a": "\\\\", "b": ' + _DEEP + "}", True),
        ('{"a": "\\\\\\"' + "{" * 200 + '"}', False),
        ('"\\', False),
        ("", False),
    ],
)
def test_brackets_in_strings_do_not_nest(text, refused):
    try:
        check_nesting(text.encode())
    except SchemaViolation:
        assert refused
    else:
        assert not refused


def _deepest_by_scan(text: str) -> int:
    """The deepest nesting of text, read one character at a time: a string
    runs to the next quote that no backslash escapes, and brackets inside it
    do not count."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


# what a string may hold: brackets, an escaped quote, an escaped backslash
# (which leaves a quote after it unescaped), and other text
_STRING_BODY = st.lists(
    st.sampled_from(["[", "]", "{", "}", '\\"', "\\\\", "a", "\\n"]), max_size=4
).map("".join)
_NESTING_TOKENS = st.one_of(
    st.sampled_from(["[", "{", "]", "}", ",", "1"]),
    _STRING_BODY.map(lambda body: f'"{body}"'),
)


@settings(max_examples=300)
@given(st.integers(99, 102), st.data())
def test_check_nesting_agrees_with_a_plain_scan(depth, data):
    opens = data.draw(st.lists(st.sampled_from("[{"), min_size=depth, max_size=depth))
    inserts = data.draw(st.lists(st.tuples(st.integers(0, depth), _NESTING_TOKENS),
                                 max_size=8))
    tokens = list(opens)
    for at, token in sorted(inserts, reverse=True):
        tokens.insert(at, token)
    tokens += data.draw(st.lists(st.sampled_from("]}"), max_size=depth))
    # an unterminated final string, maybe ending in a lone backslash
    tokens.append(data.draw(st.one_of(
        st.just(""),
        _STRING_BODY.map(lambda body: '"' + body),
        _STRING_BODY.map(lambda body: '"' + body + "\\"),
    )))
    text = "".join(tokens)
    try:
        check_nesting(text.encode())
    except SchemaViolation:
        refused = True
    else:
        refused = False
    assert refused == (_deepest_by_scan(text) > MAX_NESTING)


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


def _error_paths(errors):
    """The absolute path of every error in jsonschema's error tree: the
    errors given and, recursively, each one's context."""
    for error in errors:
        yield "/".join(map(str, error.absolute_path))
        yield from _error_paths(error.context)


def _validate_outcome(obj, schema, what):
    try:
        validate(obj, schema, what)
    except SchemaViolation as exc:
        return str(exc)
    return None


def _agrees_with_jsonschema(obj, schema, what="document") -> bool:
    """validate refuses obj exactly when jsonschema does, and then in one
    line at a path where jsonschema's error tree holds an error."""
    validator = jsonschema.validators.validator_for(schema)(schema)
    errors = list(validator.iter_errors(obj))
    outcome = _validate_outcome(obj, schema, what)
    if not errors:
        return outcome is None
    failure = _check(obj, schema)
    if failure is None:
        return False
    path = "/".join(map(str, failure[0]))
    return (
        outcome == f"{what} at '{path}': {failure[1]}"
        and len(outcome.splitlines()) == 1
        and path in set(_error_paths(errors))
    )


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
        assert _agrees_with_jsonschema(obj, schema, what)


_SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.text(max_size=1)
)


@settings(max_examples=300)
@given(st.lists(st.lists(st.lists(_SCALARS, min_size=1, max_size=3), max_size=3),
                max_size=3))
def test_the_one_pass_matrix_test_agrees_with_the_walk(x):
    # validate accepts a leaf that _is_raw_matrix accepts without walking it
    # under RAW_MATRIX_SCHEMA; on JSON values the two accept the same leaves.
    # A copy of the schema is not RAW_MATRIX_SCHEMA, so _check walks it
    walked = _check(x, dict(RAW_MATRIX_SCHEMA)) is None
    assert _is_raw_matrix(x) == walked
    assert (_check(x, RAW_MATRIX_SCHEMA) is None) == walked


@pytest.mark.parametrize("x", [
    [[[1, 0]], []], [[]], [], [[[1, 0]], [[0, 1, 2]]], [[[1, 0]], [1]],
    [[[1, 0]], "ab"], [[[1, 0], [0.5, True]]], [[[1, 0]], [[None, 0]]],
], ids=["empty-row", "only-empty-row", "no-row", "triple", "number-row",
        "text-row", "bool", "null"])
def test_the_one_pass_matrix_test_refuses_each_bad_leaf(x):
    # the test looks at all pairs of a leaf at once, so a fault in any row,
    # not only the first, must still refuse the whole leaf
    assert not _is_raw_matrix(x)
    assert _check(x, RAW_MATRIX_SCHEMA) is not None


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
    ("output",),
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


def _base(kind):
    doc = _report() if kind == "report" else _full_scenario(kind == "explicit")
    return json.loads(json.dumps(doc))


def _paths(kind):
    return _REPORT_PATHS if kind == "report" else _SCENARIO_PATHS


@settings(max_examples=150)
@given(st.sampled_from(["explicit", "preset", "report"]), st.data())
def test_conforms_agrees_with_jsonschema(kind, data):
    doc = _base(kind)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(_paths(kind)))
        _mutate(doc, path, data.draw(st.sampled_from(_MUTATIONS + [_DELETE])))
    for node in _nodes(doc):
        for name in ALL_SCHEMAS:
            assert _agrees_with_jsonschema(node, ALL_SCHEMAS[name]), (name, node)
    if kind != "report":
        assert _agrees_with_jsonschema(doc, SCENARIO_SCHEMA, "scenario")


def test_conforms_agrees_with_jsonschema_on_every_single_mutation():
    for kind in ("explicit", "preset", "report"):
        name = "report" if kind == "report" else "scenario"
        for path in _paths(kind):
            for value in _MUTATIONS + [_DELETE]:
                doc = _base(kind)
                _mutate(doc, path, value)
                assert _agrees_with_jsonschema(doc, ALL_SCHEMAS[name]), (path, value)


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
        ({"type": "string", "enum": ["ab", "abcd"]}, "abc"),
        # an enum matches whole strings, trailing newline included
        ({"type": "string", "enum": ["a"]}, "a\n"),
        ({"type": "object", "properties": {"2": {"type": "null"}},
          "additionalProperties": False}, {"2\n": None}),
        ({"type": "object", "properties": {"2": {"type": "null"}},
          "additionalProperties": False}, {"2": None}),
        ({"type": "object", "properties": {"a": {"type": "null"}},
          "additionalProperties": {"type": "integer"}}, {"a": None, "b": 1}),
        ({"type": "object", "properties": {"a": {"type": "null"}},
          "additionalProperties": {"type": "integer"}}, {"b": None}),
        ({"type": "object", "required": ["a"],
          "properties": {"a": {"type": "null"}}}, {"b": None}),
        ({"type": "object", "maxProperties": 1,
          "additionalProperties": {"type": "integer"}}, {"a": 1, "b": None}),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 4),
        ({"oneOf": [{"type": "integer"}, {"type": "number"}]}, 4.5),
        ({"type": "array", "items": {"type": "null"}, "maxItems": 1}, [None] * 2),
        ({"type": "object", "minProperties": 1}, {}),
        ({"type": "string", "enum": ["a"]}, "b"),
        # both branches fit 4 by type, and only the first holds
        ({"oneOf": [{"type": "integer"}, {"type": "number", "minimum": 10}]}, 4),
    ],
)
def test_conforms_follows_draft_2020_12(schema, instance):
    # conformance as _check decides it
    assert not _outside_the_subset(schema)
    assert _agrees_with_jsonschema(instance, schema)


def test_conforms_knows_exactly_the_pinned_keywords():
    assert _KEYWORDS == {
        "type", "properties", "required", "additionalProperties", "items",
        "minItems", "maxItems", "minProperties", "maxProperties", "enum",
        "minimum", "maximum", "exclusiveMinimum", "oneOf",
    }


def _outside_the_subset(schema) -> list:
    """The subschemas of schema that _check does not know: one with a
    keyword outside _KEYWORDS, a type it has no check for, an enum of
    non-strings, or neither a type nor a lone oneOf, which a oneOf's
    branches need to be told apart."""
    if not isinstance(schema, dict):
        return [schema]
    outside = []
    if (
        not schema.keys() <= _KEYWORDS
        or not all(isinstance(v, str) for v in schema.get("enum", []))
        or schema.keys() != {"oneOf"}
        and not (isinstance(schema.get("type"), str) and schema["type"] in _TYPE_CHECKS)
    ):
        outside.append(schema)
    subs = [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]
    if "items" in schema:
        subs.append(schema["items"])
    if not isinstance(schema.get("additionalProperties", True), bool):
        subs.append(schema["additionalProperties"])
    for sub in subs:
        outside += _outside_the_subset(sub)
    return outside


def test_every_schema_keyword_is_one_check_knows():
    # _check has no fallback: a keyword it does not know would be ignored
    for name, schema in ALL_SCHEMAS.items():
        assert not _outside_the_subset(schema), name


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
    # _check has no give-up for these: the test that keeps every published
    # schema within its subset names each of them (the instances are the
    # ones _check once deferred to jsonschema on)
    assert _outside_the_subset(schema)
