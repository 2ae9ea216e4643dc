"""Sequence algebra: products over label subsets, Exp/Ln, reductions.

A sequence assigns one operator to each particle number.  The product
convolves components over splittings of the labels; its exponential turns
correlation sequences into density sequences.  The reduction map traces one
particle at a time, and e^(reduction) aggregates every marginal at once.
The two lemma residuals at the end are the engine room of the reduced
dynamics: both are checked at increasing series depth.
"""

from qcorr.presets import random_sequence
from qcorr.star_algebra import annihilation_expand, star_exp, star_ln, star_product
from qcorr.verify import (
    product_reduction_residual,
    seq_add,
    seq_residual,
    shift_map,
    verify_lemma2,
    verify_lemma3,
)

f = random_sequence(41, 2, 3, norms=0.5)
h = random_sequence(42, 2, 3, norms=0.5)

print("Ln(Exp f) = f:",
      f"{seq_residual(star_ln(star_exp(f, out_n_max=3), out_n_max=3), f):.2e}")

prod = star_product(f, h, out_n_max=6)
leib = seq_residual(
    shift_map(prod, 1),
    seq_add(
        star_product(shift_map(f, 1), h, out_n_max=5),
        star_product(f, shift_map(h, 1), out_n_max=5),
    ),
)
print(f"shift is a derivation over the product: {leib:.2e}")

e = star_exp(f, out_n_max=4)
dgamma = seq_residual(
    shift_map(e, 1), star_product(shift_map(f, 1), e, out_n_max=3)
)
print(f"shifted exponential identity: {dgamma:.2e}")

red = annihilation_expand(f)
print(f"normalization scalar of f: {red.scalar0:.6f}")
print(f"reduction scalar multiplicative over product: "
      f"{product_reduction_residual(f, h):.2e}")

# the factorization lemmas hold exactly; at finite series depth the
# residual is pure truncation error, so it collapses as depth grows
weak = random_sequence(43, 2, 3, norms=1e-3)
print("\nfactorization residuals by series depth:")
for depth in (2, 4, 6, 8):
    l2 = max(verify_lemma2(weak, s, depth=depth) for s in (1, 2))
    l3 = verify_lemma3(weak, depth=depth)
    print(f"  depth {depth}:  shifted {l2:.3e}   plain {l3:.3e}")
