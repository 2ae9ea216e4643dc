"""The coupled evolution of correlation operators, checked against brute force.

The solver expands the correlations into density components, conjugates
each with its own propagator and inverts the cluster expansion, with Exp
and Ln by the first-block recursion.  The oracle takes the literal route:
the same evolution between Exp and Ln written out as partition sums.  The
two must agree to rounding.
"""

from qcorr.hierarchy import solve_hierarchy, solve_via_density_oracle
from qcorr.operators import trace_norm
from qcorr.presets import random_correlation_state, random_system
from qcorr.verify import verify_group_property, verify_growth_bound

spec = random_system(31, dim_single=2, orders=(2, 3))
g0 = random_correlation_state(32, 2, 3, norms=0.5)

print("solver vs literal oracle, componentwise trace-norm residuals:")
for t in (0.1, 0.5, 1.0, 2.0):
    gt = solve_hierarchy(spec, g0, t)
    oracle = solve_via_density_oracle(spec, g0, t)
    per_comp = [
        trace_norm(gt.seq.components[n] - oracle.seq.components[n]) for n in (1, 2, 3)
    ]
    print(f"  t={t:<4}" + "".join(f"  n={n}: {r:.2e}" for n, r in zip((1, 2, 3), per_comp)))

# flowing for t1 then t2 is the same as flowing once; the composition is
# genuinely nonlinear in g0 yet still a one-parameter group
print("\ngroup property residuals:")
for t1, t2 in ((0.3, 0.4), (0.9, -0.2), (-0.6, -0.7)):
    r = verify_group_property(spec, g0, t1, t2)
    print(f"  t1={t1:+.1f} t2={t2:+.1f}: {r:.2e}")

# solution components stay under the factorial-exponential envelope
print("\ngrowth bound, |g_n(t=1)| against n! e^(2n+1) c^n:")
for seed in (33, 34, 35):
    g = random_correlation_state(seed, 2, 4, norms=0.8)
    rows = []
    for n in (1, 2, 3, 4):
        lhs, rhs = verify_growth_bound(spec, g, 1.0, n)
        rows.append(f"n={n}: {lhs:8.3f} <= {rhs:10.1f}")
    print(f"  seed {seed}:  " + "   ".join(rows))
