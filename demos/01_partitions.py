"""Set partitions, Bell/Stirling counts, and the signed partition sum.

Everything the rest of the package does is driven by sums over set
partitions, so this walks the combinatorial layer first.
"""

from qcorr.partitions import (
    ParticleSet,
    bell_number,
    enumerate_partitions,
    mobius_coefficient,
    partition_alternating_sum,
    stirling2,
)

# all partitions of {1,2,3,4} with their signed coefficients; each
# partition is a ClusterSet of its blocks, ordered by smallest label
ground = ParticleSet.range1(4)
parts = enumerate_partitions(ground)
print(f"partitions of {tuple(ground)}: {len(parts)} (Bell B_4 = {bell_number(4)})")
for p in parts[:6]:
    blocks = " | ".join(",".join(map(str, b)) for b in p)
    print(f"  coeff {mobius_coefficient(len(p)):+d}   {blocks}")
print(f"  ... and {len(parts) - 6} more")

# Stirling triangle: row n counts partitions with exactly k blocks
print("\nStirling numbers of the second kind, rows n = 1..6:")
for n in range(1, 7):
    row = [stirling2(n, k) for k in range(1, n + 1)]
    assert sum(row) == bell_number(n)
    print(f"  n={n}: {row}")

# the signed sum over all partitions collapses to 1 only at n = 1;
# this cancellation is what makes cumulants of independent systems vanish
print("\nalternating sums (should be 1, then all zero):")
print(" ", [partition_alternating_sum(n) for n in range(1, 13)])
