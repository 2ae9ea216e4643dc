"""Propagator groups and their cumulants.

The cumulant of order m is the signed partition combination of propagators
over m clusters.  It vanishes identically when the clusters do not interact:
at t = 0, for interaction-free systems, and in the limit of far-separated
dynamics.  What survives is exactly the correlated part of the evolution.
"""

from qcorr.cumulants import (
    cumulant_apply,
    cumulant_vanishes_free,
    recover_group_from_cumulants,
    scattering_cumulant_apply,
    scattering_operator_apply,
)
from qcorr.evolution import group_apply, make_unitary_group, unitary_matrix
from qcorr.operators import ManyBodyOperator, tensor_product, trace_norm
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.presets import free_system, random_correlation_state, random_system

spec = random_system(21, dim_single=2, orders=(2, 3))
labels = ParticleSet.range1(3)
f = random_correlation_state(22, 2, 3, norms=1.0).seq.components[3]

# a fully clustered cumulant is just the propagator conjugation
onecluster = ClusterSet.of([(1, 2, 3)])
ug = make_unitary_group(spec, labels)
print("single cluster = plain propagation:",
      f"{trace_norm(cumulant_apply(spec, 0.6, onecluster, f) - group_apply(ug, 0.6, f)):.2e}")

# three singleton clusters: zero at t=0, grows with the interaction time
singles = ClusterSet.singletons(labels)
print("three clusters at t=0:", trace_norm(cumulant_apply(spec, 0.0, singles, f)))
for t in (0.1, 0.5, 1.5):
    print(f"  t={t:<4} cumulant size {trace_norm(cumulant_apply(spec, t, singles, f)):.4f}")

# no potentials, no correlated evolution
fspec = free_system(23, dim_single=2)
print("free system, order 3, t=1.0:",
      f"{cumulant_vanishes_free(fspec, 3, f, 1.0):.2e}")

# the inversion: summing products of cumulants over partitions rebuilds
# the full propagator conjugation
t = 0.8
rebuilt = recover_group_from_cumulants(spec, t, labels, f)
print("group recovered from cumulants:",
      f"{trace_norm(rebuilt - group_apply(ug, t, f)):.2e}")

# scattering operators compose the interacting forward flow with free
# backward flows, W_B(t) = U_B(t) (x)_k U_k(-t); they generate the same
# cumulant hierarchy shifted by the free reference
g = random_correlation_state(24, 2, 2, norms=1.0).seq.components[2]
pair = ParticleSet.range1(2)
print("scattering conjugation is norm preserving:",
      f"{abs(trace_norm(scattering_operator_apply(spec, 1.2, pair, g)) - trace_norm(g)):.2e}")


# the scattering cumulant, written out with one W per block, equals the
# propagator cumulant of the freely back-evolved operand
def w_block(block):
    back = [ManyBodyOperator(ParticleSet((k,)), 2,
                             unitary_matrix(make_unitary_group(spec, ParticleSet((k,))), -t))
            for k in block]
    forward = unitary_matrix(make_unitary_group(spec, block), t)
    return ManyBodyOperator(block, 2, forward @ tensor_product(back).matrix)


def w_conj(blocks):
    w = tensor_product([w_block(b) for b in blocks]).matrix
    return w @ f.matrix @ w.conj().T


split = ClusterSet.of([(1, 2), (3,)])
explicit = w_conj(ClusterSet.of([(1, 2, 3)])) - w_conj(split)
print("scattering cumulant {1,2},{3} against explicit W:",
      f"{abs(scattering_cumulant_apply(spec, t, split, f).matrix - explicit).max():.2e}")
