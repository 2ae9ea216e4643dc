"""Reduced s-particle operators: three solution routes and observables."""

import numpy as np

from qcorr.bbgky import (
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    average_particle_number,
    marginal_state_from_density,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from qcorr.evolution import evolve_density_sequence
from qcorr.hierarchy import DensityState, cluster_expand, solve_hierarchy
from qcorr.operators import trace_norm
from qcorr.presets import (
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_system,
    rng_from_seed,
)
from qcorr.verify import reduce_from_correlations

spec = random_system(51, dim_single=2, orders=(2, 3))

# normalized initial data (traceless correlations) so all three routes agree
g0 = random_correlation_state(52, 2, 3, norms=0.4, traceless=True, symmetric=True)
d0 = cluster_expand(g0)
f0 = marginal_state_from_density(d0)

print("three routes to F_s(t), pairwise residuals:")
for t in (0.2, 0.8):
    dt = DensityState(evolve_density_sequence(spec, d0.seq, t))
    gt = solve_hierarchy(spec, g0, t)
    for s in (1, 2):
        a = reduce_from_density(dt, s)
        b = solve_bbgky_cumulant(spec, f0, s, t)
        c = reduce_from_correlations(gt, s)
        print(f"  t={t} s={s}:  density/cumulant {trace_norm(a - b):.2e}"
              f"   cumulant/correlation {trace_norm(b - c):.2e}")

# the time-ordered series is an independent route; quadrature error shows
spec2 = random_system(53, dim_single=2, orders=(2,))
fphys = marginal_state_from_density(random_density_state(54, 2, 3))
ref = solve_bbgky_cumulant(spec2, fphys, 1, 0.2)
print("\niteration series at t=0.2 vs cumulant solution:")
for nodes in (8, 16, 32):
    q = QuadratureSpec(2, nodes, "nested-trapezoid")
    err = trace_norm(solve_bbgky_iteration(spec2, fphys, 1, 0.2, q) - ref)
    print(f"  trapezoid {nodes:2d} nodes: {err:.3e}")
q = QuadratureSpec(2, 32, "gauss-legendre-simplex")
print(f"  gauss     32 nodes: {trace_norm(solve_bbgky_iteration(spec2, fphys, 1, 0.2, q) - ref):.3e}")

# observables: mean particle number is conserved, dispersion matches the
# second central moment computed directly from the density sequence
dphys = random_density_state(55, 2, 3, trace_scale=0.8)
n0 = average_particle_number(marginal_state_from_density(dphys))
print(f"\nmean particle number at t=0: {n0:.6f}")
for t in (0.4, 1.2):
    dt = DensityState(evolve_density_sequence(spec, dphys.seq, t))
    nt = average_particle_number(marginal_state_from_density(dt))
    print(f"  t={t}: {nt:.6f}  (drift {abs(nt - n0):.2e})")

a1 = random_hermitian(rng_from_seed(56), 2, 1.0)
m1 = additive_observable_moment(dphys, a1, 1)
m2 = additive_observable_moment(dphys, a1, 2)
disp = additive_dispersion(a1, marginal_state_from_density(dphys))
print(f"\nadditive observable: mean {m1:.6f}, dispersion {disp:.6f}")
print(f"second-central-moment check: {abs(disp - (m2 - m1 * m1)):.2e}")
