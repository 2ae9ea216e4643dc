"""Scenario generators for the benchmark workloads.

Each workload is one `qcorr run` scenario document built from a seed.  The
same seed gives the same document byte for byte; the program under test
receives only the written file.  Sizes (d, n_max, times, tasks) are fixed
per workload, so the seed changes the numbers and never the amount of work.

Why each workload exists, with single-run sizing measurements taken on a
2-core x86-64 machine, one BLAS thread, `--threads 1`:

io-d4
    Explicit `density` initial data (about 7 MB of canonical JSON), four
    times, tasks `evolve` + `observables`.  Serialization-bound on both
    sides: `load_scenario` runs jsonschema over the whole document twice
    (the scenario schema, then again inside `decode_sequence`), about 3 s
    against about 0.01 s for `decode_raw_matrix`; the run writes about
    37 MB at about 0.3 s of encoding per time while the physics takes about
    0.01 s per time.  It bypasses cumulants, blockwise propagation and the
    iteration series.

cumulant-d4
    Preset `random_correlation`, two times, s in {1, 2, 3}, tasks
    `hierarchy` + `bbgky`.  The cumulant path: `solve_hierarchy` ->
    `cumulant_apply` -> `group_apply_on_subsets`, about 0.5 s per time
    against about 0.03 s for the expand-evolve-invert oracle.  Reads almost
    nothing and never touches the iteration series; about half its wall
    time is still encoding a 15 MB output.  The preset is asked for
    exchange-symmetric data: the `bbgky` task's cumulant formula equals the
    reduced evolved density, its check, only for such data (with the
    non-symmetric preset the s = 1, 2 records are off by about 1e-2 in
    trace norm while `qcorr run` still exits 0).

iterate-d4
    Preset `random_density` (exchange-symmetric), t = 0.5, s in {2, 3},
    order-2 series with 6 Gauss-Legendre nodes, task `iterate`.  The
    time-ordered series: the pair-potential embedding inside
    `interaction_liouvillian_apply` and the embedded conjugations dominate.
    Output is under 0.5 MB, so serialization is bypassed.  The data must
    be exchange-symmetric and s >= n_max - 2: only then does the order-2
    series equal the cumulant solution that the output is checked against
    (trace-norm error about 3e-12; with the non-symmetric
    `random_correlation` preset the s = 2 error is about 2e-3 whatever the
    node count).  The system has a two-body potential only, because the
    series is defined for two-body systems.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("io-d4", "cumulant-d4", "iterate-d4")

N_MAX = 4


def _seeds(seed: int, k: int) -> list[int]:
    return [int(x) for x in np.random.default_rng(seed).integers(0, 2**31 - 1, size=k)]


def build(name: str, seed: int, dim: int = 4) -> dict:
    """The scenario document of workload ``name`` for ``seed``.

    ``dim`` is the single-particle dimension; the benchmark uses 4 and its
    smoke test uses 2.
    """
    if name == "io-d4":
        from qcorr.presets import random_density_state, random_hermitian, rng_from_seed
        from qcorr.serialize import encode_raw_matrix, encode_sequence

        sys_seed, dens_seed, obs_seed = _seeds(seed, 3)
        density = random_density_state(dens_seed, dim, N_MAX, trace_scale=0.8)
        observable = random_hermitian(rng_from_seed(obs_seed), dim)
        return {
            "system": {"preset": "random_hermitian", "seed": sys_seed,
                       "orders": [2, 3], "dim_single": dim},
            "initial": {"density": encode_sequence(density.seq, kind="density")},
            "times": [0.25, 0.5, 0.75, 1.0],
            "n_max": N_MAX,
            "observable": encode_raw_matrix(observable),
            "tasks": ["evolve", "observables"],
        }
    if name == "cumulant-d4":
        sys_seed, corr_seed = _seeds(seed, 2)
        return {
            "system": {"preset": "random_hermitian", "seed": sys_seed,
                       "orders": [2, 3], "dim_single": dim},
            "initial": {"preset": {"preset": "random_correlation",
                                   "seed": corr_seed, "norms": 0.5,
                                   "symmetric": True}},
            "times": [0.3, 0.7],
            "n_max": N_MAX,
            "s_values": [1, 2, 3],
            "tasks": ["hierarchy", "bbgky"],
        }
    if name == "iterate-d4":
        sys_seed, dens_seed = _seeds(seed, 2)
        return {
            "system": {"preset": "random_hermitian", "seed": sys_seed,
                       "orders": [2], "dim_single": dim},
            "initial": {"preset": {"preset": "random_density",
                                   "seed": dens_seed, "trace_scale": 0.8}},
            "times": [0.5],
            "n_max": N_MAX,
            "s_values": [2, 3],
            "quadrature": {"order": 2, "nodes_per_dim": 6,
                           "rule": "gauss-legendre-simplex"},
            "tasks": ["iterate"],
        }
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
