"""Labeled operators: embedding, products, partial traces."""

import numpy as np

from qcorr.operators import (
    ManyBodyOperator,
    partial_trace,
    symmetrize,
    tensor_embed,
    tensor_product,
    trace_norm,
)
from qcorr.partitions import ParticleSet
from qcorr.presets import random_hermitian, rng_from_seed

rng = rng_from_seed(7)
d = 2

# one operator on particle 2, one on the pair {1,3}
a = ManyBodyOperator(ParticleSet((2,)), d, random_hermitian(rng, d, 1.0))
b = ManyBodyOperator(ParticleSet((1, 3)), d, random_hermitian(rng, d * d, 1.0))

# tensor products keep track of which slot belongs to which particle
ab = tensor_product([a, b])
print(f"product lives on {tuple(ab.labels)}, matrix {ab.matrix.shape[0]}x{ab.matrix.shape[0]}")

# embedding pads with identities on the missing particles
full = ParticleSet.range1(4)
emb = tensor_embed(a, full)
print(f"embedded trace: {emb.trace.real:.6f} = {a.trace.real:.6f} * {d}^3")

# tracing out particles 1 and 3 of the product recovers a up to the scalar tr b
reduced = partial_trace(ab, ParticleSet((1, 3)))
print(f"partial trace factorizes: residual "
      f"{np.abs(reduced.matrix - a.matrix * b.trace).max():.2e}")

# the symmetrizer projects onto permutation-invariant operators
sym = symmetrize(ab)
print(f"symmetrized defect vs original: {trace_norm(sym - ab):.3f}")
print(f"symmetrizing twice is idempotent: "
      f"{trace_norm(symmetrize(sym) - sym):.2e}")
