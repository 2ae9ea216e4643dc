"""Seeded random systems, operators, and states.

Everything here is driven by an explicit integer seed through numpy's
Generator, so verification runs are reproducible bit for bit on the same
platform.  Hermitian draws follow the usual Gaussian-ensemble recipe
(B + B*)/2 and are then rescaled, symmetrized, or de-traced as requested.
A random operator is symmetrized and de-traced first and rescaled once, to
its trace norm, which one spectrum gives: that of the exchange-symmetric
draws in the blocks of the pair swaps (:func:`qcorr.operators.swap_block_eigh`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .hamiltonian import SystemSpec
from .hierarchy import CorrelationState, DensityState
from .operators import (
    ManyBodyOperator,
    identity_operator,
    swap_block_eigh,
    symmetrize,
)
from .partitions import ParticleSet
from .star_algebra import OperatorSequence


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def _gaussian_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """(B + B*)/2 for B of independent standard complex Gaussian entries."""
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (b + b.conj().T) / 2


def random_hermitian(
    rng: np.random.Generator, dim: int, scale: float = 1.0
) -> np.ndarray:
    """Hermitian matrix with spectral radius equal to scale."""
    a = _gaussian_hermitian(rng, dim)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    if radius == 0.0:  # pragma: no cover - measure-zero draw
        return a
    return a * (scale / radius)


def random_system(
    seed: int,
    dim_single: int = 2,
    orders: Iterable[int] = (2, 3),
    hbar: float = 1.0,
    scale: float = 1.0,
) -> SystemSpec:
    """A system with seeded Hermitian one-body term and k-body potentials.

    Potentials are symmetrized over particle permutations, as the model
    requires; scale bounds every spectral radius.
    """
    rng = rng_from_seed(seed)
    d = int(dim_single)
    one = random_hermitian(rng, d, scale)
    pots: dict[int, np.ndarray] = {}
    for k in sorted(set(int(k) for k in orders)):
        raw = random_hermitian(rng, d**k, scale)
        sym = symmetrize(ManyBodyOperator(ParticleSet.range1(k), d, raw))
        pots[k] = np.array(sym.matrix)
    return SystemSpec(d, one, pots, float(hbar))


def free_system(seed: int, dim_single: int = 2) -> SystemSpec:
    """A seeded system without any interaction potentials."""
    d = int(dim_single)
    return SystemSpec(d, random_hermitian(rng_from_seed(seed), d), {})


def random_operator(
    rng: np.random.Generator,
    labels: ParticleSet,
    dim_single: int,
    norm: float = 1.0,
    traceless: bool = False,
    symmetric: bool = False,
) -> ManyBodyOperator:
    """Random Hermitian operator with the requested structure and trace norm.

    The draw is that of :func:`random_hermitian`, from the same stream, left
    unscaled: the trace norm, the sum of |eigenvalue|, sets the scale, and
    one spectrum gives it, in the pair-swap blocks of a symmetric draw
    (:func:`qcorr.operators.swap_block_eigh`).
    """
    dim = dim_single ** len(labels)
    op = ManyBodyOperator(labels, dim_single, _gaussian_hermitian(rng, dim))
    if symmetric:
        op = symmetrize(op)
    if traceless:
        op = op - identity_operator(labels, dim_single) * (op.trace / dim)
    lam = swap_block_eigh(op.matrix, dim_single, len(labels), vectors=False)
    tn = float(np.sum(np.abs(lam)))
    if tn == 0.0:  # pragma: no cover - measure-zero draw
        return op
    return op * (norm / tn)


def random_correlation_state(
    seed: int,
    dim_single: int,
    n_max: int,
    norms: float | Sequence[float] = 0.5,
    traceless: bool = False,
    symmetric: bool = False,
) -> CorrelationState:
    """Seeded correlation sequence; component n gets trace norm norms[n-1],
    from one norm for every component or a list of exactly n_max."""
    if isinstance(norms, (int, float)):
        norms = [norms] * n_max
    if len(norms) != n_max:
        raise ValueError(f"norms has {len(norms)} entries but n_max is {n_max}")
    rng = rng_from_seed(seed)
    comps = {}
    for n in range(1, n_max + 1):
        comps[n] = random_operator(
            rng,
            ParticleSet.range1(n),
            dim_single,
            norm=float(norms[n - 1]),
            traceless=traceless,
            symmetric=symmetric,
        )
    return CorrelationState(OperatorSequence(dim_single, n_max, 0.0, comps))


def random_density_state(
    seed: int,
    dim_single: int,
    n_max: int,
    trace_scale: float = 1.0,
) -> DensityState:
    """Seeded physical density sequence: each component positive and symmetric.

    Component n is a symmetrized Gram matrix rescaled so its trace equals
    trace_scale^n, a finite stand-in for grand-canonical weighting.
    """
    rng = rng_from_seed(seed)
    comps = {}
    for n in range(1, n_max + 1):
        dim = dim_single**n
        c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = c @ c.conj().T
        op = symmetrize(ManyBodyOperator(ParticleSet.range1(n), dim_single, m))
        tr = op.trace.real
        comps[n] = op * (trace_scale**n / tr)
    return DensityState(OperatorSequence(dim_single, n_max, 1.0, comps))


def random_sequence(
    seed: int,
    dim_single: int,
    n_max: int,
    norms: float | Sequence[float] = 0.5,
) -> OperatorSequence:
    """Seeded plain sequence with zero scalar component."""
    return random_correlation_state(seed, dim_single, n_max, norms=norms).seq


def chaos_one_particle(seed: int, dim_single: int, norm: float = 1.0) -> ManyBodyOperator:
    """Seeded one-particle component for independent initial data."""
    rng = rng_from_seed(seed)
    return random_operator(rng, ParticleSet.range1(1), dim_single, norm=norm)
