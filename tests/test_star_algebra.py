from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import (
    complex_gaussian,
    kron_first_block_sum,
    naive_partitions,
    with_signed_zeros,
)
from qcorr import star_algebra
from qcorr.bbgky import MarginalState
from qcorr.errors import NormalizationError
from qcorr.hierarchy import (
    CorrelationState,
    DensityState,
    cluster_expand,
    cluster_invert,
    literal_cluster_transform,
)
from qcorr.operators import (
    ManyBodyOperator,
    partial_trace,
    relabel,
    tensor_product,
    trace_norm,
)
from qcorr.partitions import ParticleSet, partition_sum
from qcorr.presets import random_correlation_state, random_sequence, rng_from_seed
from qcorr.serialize import encode_sequence
from qcorr.star_algebra import (
    OperatorSequence,
    annihilation_expand,
    seq_block_product,
    star_exp,
    star_ln,
    star_product,
)
from qcorr.verify import (
    cluster_and_singletons,
    cluster_argument_sequence,
    correlation_from_marginals,
    product_reduction_residual,
    seq_add,
    seq_residual,
    shift_map,
    verify_lemma2,
    verify_lemma3,
)

TOL = 1e-12


def seq(seed, n_max=3, norms=0.5):
    return random_sequence(seed=seed, dim_single=2, n_max=n_max, norms=norms)


def test_sequence_validation():
    op1 = ManyBodyOperator(ParticleSet((1,)), 2, np.eye(2))
    with pytest.raises(ValueError):
        OperatorSequence(2, 3, 0.0, {0: op1})  # plain sequences start at 1
    with pytest.raises(ValueError):
        OperatorSequence(2, 3, 0.0, {2: op1})  # wrong label count
    with pytest.raises(ValueError):
        OperatorSequence(2, 3, 1.0, {1: op1}, prefix=1)  # prefixed scalar
    with pytest.raises(ValueError):
        OperatorSequence(2, 0, 0.0, {1: op1})  # index above cutoff


def test_sequence_component_materializes_zero():
    f = seq(90, n_max=2)
    assert f.support == (1, 2)
    z = f.component(3) if f.n_max >= 3 else None
    g = OperatorSequence(2, 3, 0.0, dict(f.components))
    assert trace_norm(g.component(3)) == 0.0


def test_seq_arithmetic_and_residual():
    f = seq(91)
    g = OperatorSequence(2, 3, 0.0, {n: op * 2.0 for n, op in f.components.items()})
    assert seq_residual(seq_add(f, f), g) <= TOL
    assert seq_residual(f, f) == 0.0
    h = seq(92)
    assert seq_residual(f, h) > 1e-3


def test_unit_is_neutral():
    f = seq(93)
    one = OperatorSequence(2, 3, 1.0)
    assert seq_residual(star_product(one, f, out_n_max=3), f) <= TOL
    assert seq_residual(star_product(f, one, out_n_max=3), f) <= TOL


def test_star_product_component_formula():
    # subset convolution at n=2, written out by hand
    f = seq(94)
    h = seq(95)
    prod = star_product(f, h, out_n_max=2)
    f1, f2 = f.components[1], f.components[2]
    h1, h2 = h.components[1], h.components[2]
    lab1, lab2 = ParticleSet((1,)), ParticleSet((2,))
    want = (
        f2.matrix * h.scalar0
        + h2.matrix * f.scalar0
        + tensor_product([relabel(f1, lab1), relabel(h1, lab2)]).matrix
        + tensor_product([relabel(f1, lab2), relabel(h1, lab1)]).matrix
    )
    assert np.allclose(prod.components[2].matrix, want, atol=TOL)


def test_star_product_is_commutative_and_associative():
    f, g, h = seq(96, n_max=2), seq(97, n_max=2), seq(98, n_max=2)
    ab = star_product(f, g, out_n_max=4)
    ba = star_product(g, f, out_n_max=4)
    assert seq_residual(ab, ba) <= TOL
    left = star_product(star_product(f, g, out_n_max=4), h, out_n_max=6)
    right = star_product(f, star_product(g, h, out_n_max=4), out_n_max=6)
    assert seq_residual(left, right) <= TOL


def test_star_product_default_cut_and_exactness():
    f, g = seq(99, n_max=2), seq(100, n_max=3)
    assert star_product(f, g).n_max == 2
    full = star_product(f, g, out_n_max=5)
    assert full.n_max == 5
    assert 5 in full.support


def test_exponential_components_are_partition_sums():
    f = seq(101)
    e = star_exp(f, out_n_max=3)
    assert abs(e.scalar0 - 1.0) <= TOL
    for n in (1, 2, 3):
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for p in naive_partitions(tuple(range(1, n + 1))):
            factors = [
                relabel(f.components[len(b)], ParticleSet.of(b)) for b in p
            ]
            acc = acc + tensor_product(factors).matrix
        assert np.allclose(e.components[n].matrix, acc, atol=TOL)


def test_exp_rejects_bad_input():
    f = seq(102)
    bad = OperatorSequence(2, 3, 0.5, dict(f.components))
    with pytest.raises(ValueError):
        star_exp(bad)
    with pytest.raises(ValueError):
        star_exp(shift_map(f, 1))
    with pytest.raises(ValueError):
        star_ln(bad)


@given(st.integers(min_value=0, max_value=10_000))
def test_exp_ln_roundtrip(seed):
    f = seq(seed, n_max=3)
    e = star_exp(f, out_n_max=3)
    back = star_ln(e, out_n_max=3)
    assert seq_residual(back, f) <= 1e-11


def test_ln_exp_roundtrip_from_unit_side():
    g = seq_add(OperatorSequence(2, 3, 1.0), seq(103))
    back = star_exp(star_ln(g, out_n_max=3), out_n_max=3)
    assert seq_residual(back, g) <= 1e-11


def test_exp_and_ln_build_one_operator_per_output_component(monkeypatch):
    # counted the way bench/layers.py counts ManyBodyOperator constructions:
    # the recursion computes on matrices and wraps each result once
    g = random_correlation_state(1, 2, 4).seq
    e = star_exp(g)
    built = []
    post_init = ManyBodyOperator.__post_init__

    def counted(self):
        built.append(len(self.labels))
        post_init(self)

    monkeypatch.setattr(ManyBodyOperator, "__post_init__", counted)
    for fn, arg in ((star_exp, g), (star_ln, e)):
        built.clear()
        out = fn(arg)
        assert out.support == (1, 2, 3, 4)
        assert built == [1, 2, 3, 4]


def test_shift_map_moves_components():
    f = seq(104)
    sh = shift_map(f, 1)
    assert sh.prefix == 1
    assert sh.n_max == 2
    assert np.array_equal(sh.components[0].matrix, f.components[1].matrix)
    assert np.array_equal(sh.components[2].matrix, f.components[3].matrix)
    with pytest.raises(ValueError):
        shift_map(f, 0)
    with pytest.raises(ValueError):
        shift_map(f, 4)
    with pytest.raises(ValueError):
        shift_map(sh, 1)


def test_prefixed_star_product_keeps_cluster_with_factor():
    f = seq(106)
    h = seq(107)
    u = shift_map(f, 2)  # components: u_0 = f_2, u_1 = f_3
    prod = star_product(u, h, out_n_max=1)
    h1 = h.components[1]
    want = (
        f.components[3].matrix * h.scalar0
        + tensor_product(
            [f.components[2], relabel(h1, ParticleSet((3,)))]
        ).matrix
    )
    assert np.allclose(prod.components[1].matrix, want, atol=TOL)
    with pytest.raises(ValueError):
        star_product(u, shift_map(h, 1))


def test_shift_is_a_derivation_over_star():
    # component shift by one distributes like a derivative over the product
    f, h = seq(108), seq(109)
    prod = star_product(f, h, out_n_max=6)
    lhs = shift_map(prod, 1)
    rhs = seq_add(
        star_product(shift_map(f, 1), h, out_n_max=5),
        star_product(f, shift_map(h, 1), out_n_max=5),
    )
    assert seq_residual(lhs, rhs) <= 1e-12


def test_shifted_exponential_identity():
    # the shift of Exp(f) is (shift f) star Exp(f), component for component
    f = seq(110)
    e = star_exp(f, out_n_max=4)
    lhs = shift_map(e, 1)
    rhs = star_product(shift_map(f, 1), e, out_n_max=3)
    assert seq_residual(lhs, rhs) <= 1e-11


def test_annihilation_expand_plain():
    f = seq(111)
    red = annihilation_expand(f)
    want_scalar = sum(
        f.components[n].trace / factorial(n) for n in (1, 2, 3)
    )
    assert abs(red.scalar0 - want_scalar) <= TOL
    want1 = (
        f.components[1].matrix
        + partial_trace(f.components[2], ParticleSet((2,))).matrix
        + partial_trace(f.components[3], ParticleSet((2, 3))).matrix / 2.0
    )
    assert np.allclose(red.components[1].matrix, want1, atol=TOL)


def test_annihilation_expand_prefixed_traces_ordinary_only():
    f = seq(112)
    u = shift_map(f, 1)
    red = annihilation_expand(u)
    assert red.prefix == 1
    want0 = (
        f.components[1].matrix
        + partial_trace(f.components[2], ParticleSet((2,))).matrix
        + partial_trace(f.components[3], ParticleSet((2, 3))).matrix / 2.0
    )
    assert np.allclose(red.components[0].matrix, want0, atol=TOL)


def test_reduction_scalar_factorizes_over_product():
    f, h = seq(113), seq(114)
    assert product_reduction_residual(f, h) <= 1e-11


@pytest.mark.parametrize("s", [1, 2])
def test_cluster_reduction_identity(s):
    f = seq(115, norms=1e-3)
    assert verify_lemma2(f, s, depth=8) <= 1e-10


def test_cluster_reduction_validates(s=5):
    f = seq(116, norms=1e-3)
    with pytest.raises(ValueError):
        verify_lemma2(f, 0)
    with pytest.raises(ValueError):
        verify_lemma2(f, s)


def test_reduction_exchange_identity():
    f = seq(117, norms=1e-3)
    assert verify_lemma3(f, depth=8) <= 1e-10


def test_reduction_identities_reject_tiny_normalization():
    # one-particle component with trace -1 makes the depth-1 reduction
    # scalar of the exponential vanish
    m = np.diag([-1.0, 0.0]).astype(complex)
    f = OperatorSequence(
        2, 1, 0.0, {1: ManyBodyOperator(ParticleSet((1,)), 2, m)}
    )
    with pytest.raises(NormalizationError):
        verify_lemma2(f, 1, depth=1)
    with pytest.raises(NormalizationError):
        verify_lemma3(f, depth=1)


def test_zero_sequence_behaves():
    z = OperatorSequence(2, 3)
    f = seq(118)
    assert seq_residual(star_product(z, f, out_n_max=3), z) == 0.0


# ---------------------------------------------------------------------------
# the first-block recursion against the literal partition sums

RECURSION_CASES = [
    (d, n_max, hermitian)
    for d in (2, 3)
    for n_max in (3, 4)
    for hermitian in (True, False)
]


def plain(seed, d, n_max, hermitian, scalar):
    if hermitian:
        comps = random_sequence(seed, d, n_max, norms=0.5).components
    else:
        rng = rng_from_seed(seed)
        comps = {
            n: ManyBodyOperator(ParticleSet.range1(n), d, complex_gaussian(rng, d**n, 0.5))
            for n in range(1, n_max + 1)
        }
    return OperatorSequence(d, n_max, scalar, dict(comps))


@pytest.mark.parametrize("d,n_max,hermitian", RECURSION_CASES)
def test_star_exp_equals_literal_partition_sum(d, n_max, hermitian):
    f = plain(1300 + n_max, d, n_max, hermitian, 0.0)
    # out_n_max up to n_max + 2, within the command line's 256-dimension cap
    for out in [m for m in range(n_max, n_max + 3) if d**m <= 256]:
        wide = OperatorSequence(d, out, 0.0, dict(f.components))
        want = literal_cluster_transform(wide, signed=False)
        got = star_exp(f, out_n_max=out)
        assert got.support == want.support
        assert seq_residual(got, want) <= TOL


@pytest.mark.parametrize("d,n_max,hermitian", RECURSION_CASES)
def test_star_ln_equals_literal_partition_sum(d, n_max, hermitian):
    u = plain(1310 + n_max, d, n_max, hermitian, 1.0)
    want = literal_cluster_transform(u, signed=True)
    got = star_ln(u)
    assert got.support == want.support
    assert seq_residual(got, want) <= TOL
    f = MarginalState(u)
    for s in range(1, n_max + 1):
        assert trace_norm(correlation_from_marginals(f, s) - want.component(s)) <= TOL


@pytest.mark.parametrize("d,n_max,hermitian", RECURSION_CASES)
def test_cluster_arguments_equal_literal_partition_sum(d, n_max, hermitian):
    u = plain(1320 + n_max, d, n_max, hermitian, 1.0)
    for s in (1, 2, 3):
        got = cluster_argument_sequence(u, s, n_max - s)
        for n in range(n_max - s + 1):
            units = cluster_and_singletons(s, n)
            want = partition_sum(units, lambda b: seq_block_product(u, b), signed=True)
            assert trace_norm(got.components[n] - want) <= TOL


def test_sparse_input_keeps_components_absent():
    # (1, 0, D_2, 0): only the partitions into pairs have every block present
    d2 = seq(1330).components[2]
    dens = OperatorSequence(2, 3, 1.0, {2: d2})
    corr = OperatorSequence(2, 3, 0.0, {2: d2})
    assert cluster_invert(DensityState(dens)).seq.support == (2,)
    assert cluster_expand(CorrelationState(corr)).seq.support == (2,)
    assert star_ln(dens).support == (2,)
    assert star_exp(corr, out_n_max=6).support == (2, 4, 6)
    assert encode_sequence(star_ln(dens), "correlation")["components"][0::2] == [None, None]
    # the cluster reading still materializes zeros
    args = cluster_argument_sequence(dens, 1, 2)
    assert args.support == (0, 1, 2)
    assert trace_norm(args.components[0]) == 0.0
    assert trace_norm(args.components[2]) == 0.0


# ---------------------------------------------------------------------------
# the strided first-block sum against the kron-and-copy route it replaced,
# by bytes, signed zeros included


def _signed_sequence(rng, d, n_max, scalar=0.0, prefix=0):
    comps = {
        n: ManyBodyOperator(
            ParticleSet.range1(prefix + n),
            d,
            with_signed_zeros(complex_gaussian(rng, d ** (prefix + n), 0.5), rng),
        )
        for n in range(0 if prefix else 1, n_max + 1)
    }
    return OperatorSequence(d, n_max, scalar, comps, prefix)


def _bytes(x: OperatorSequence):
    return (
        x.n_max,
        x.prefix,
        x.scalar0,
        {n: op.matrix.tobytes() for n, op in x.components.items()},
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_star_kernels_are_bit_identical_to_the_kron_route(d, monkeypatch):
    rng = np.random.default_rng(1400 + d)
    n_max = 3 if d < 4 else 2
    f = _signed_sequence(rng, d, n_max)
    g = _signed_sequence(rng, d, n_max, scalar=1.0)
    u = _signed_sequence(rng, d, n_max, scalar=-0.5 + 0.25j)
    v = _signed_sequence(rng, d, n_max, scalar=2.0 - 0.0j)
    p1 = _signed_sequence(rng, d, n_max, prefix=1)
    p2 = _signed_sequence(rng, d, n_max - 1, prefix=2)
    calls = [
        (star_exp, (f,)),
        (star_exp, (f, n_max + 1)),
        (star_ln, (g,)),
        (star_product, (u, v, 2 * n_max)),
        (star_product, (f, u)),
        (star_product, (p1, v, n_max)),
        (star_product, (u, p2, n_max)),
    ]
    got = [_bytes(fn(*args)) for fn, args in calls]
    monkeypatch.setattr(star_algebra, "_first_block_sum", kron_first_block_sum)
    assert got == [_bytes(fn(*args)) for fn, args in calls]


@pytest.mark.parametrize("s", [0, 1, 2])
def test_first_block_sum_on_fraction_arrays_equals_the_float_route(s):
    # the buffer takes the factors' dtype: object arrays of Fractions stay exact
    d, n, rng = 2, 2, np.random.default_rng(1410 + s)

    def exact(dim):
        ks = rng.integers(-9, 10, size=(dim, dim))
        return np.array([[Fraction(int(k), 5) for k in row] for row in ks], dtype=object)

    a = {k: exact(d ** (s + k)) for k in range(n + 1)}
    b = {0: np.array([[Fraction(3, 2)]], dtype=object), 1: exact(d), 2: exact(d**2)}
    got = star_algebra._first_block_sum(a, b, s, n, d)
    assert got.dtype == object and isinstance(got[0, 0], Fraction)
    floats = star_algebra._first_block_sum(
        *({k: m.astype(complex) for k, m in x.items()} for x in (a, b)), s, n, d
    )
    assert floats.dtype == complex
    assert np.abs(got.astype(complex) - floats).max() <= 1e-14 * np.abs(floats).max()
