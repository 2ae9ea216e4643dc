"""Output checks: each task's result against an independent route.

Tolerances are those of the matching `qcorr verify` suite, as trace-norm
residuals:

    evolve       own eigh propagator         group-law            1e-10
    hierarchy    solve_via_density_oracle    oracle               1e-9
    bbgky        reduce_from_density         bbgky-triangle       1e-9
    iterate      solve_bbgky_cumulant        iteration            1e-5
    observables  direct moments              observables          1e-10 (means),
                                                                  1e-9 (dispersion)

The propagator and the direct moments are built here from the system's
matrices with numpy alone, so `evolve` and `observables` are checked without
the package's Hamiltonian, embedding, propagation or reduction code.
"""

from __future__ import annotations

import json
import os
from math import factorial

import numpy as np

TOL_EVOLVE = 1e-10
TOL_HIERARCHY = 1e-9
TOL_BBGKY = 1e-9
TOL_ITERATE = 1e-5
TOL_MEAN = 1e-10
TOL_DISPERSION = 1e-9


def _matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def _embed(op: np.ndarray, sites: tuple[int, ...], n: int, d: int) -> np.ndarray:
    """op on the 0-based particles `sites`, identity on the other n - k."""
    rest = [i for i in range(n) if i not in sites]
    full = np.kron(op, np.eye(d ** len(rest)))
    perm = list(np.argsort(list(sites) + rest))
    t = full.reshape((d,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return t.reshape(d**n, d**n)


def _hamiltonian(spec, n: int) -> np.ndarray:
    from itertools import combinations

    d = spec.dim_single
    h = sum(_embed(spec.one_body, (i,), n, d) for i in range(n))
    for k, phi in spec.potentials.items():
        for sites in combinations(range(n), k):
            h = h + _embed(phi, sites, n, d)
    return h


def _evolve(spec, components: dict[int, np.ndarray], t: float) -> dict[int, np.ndarray]:
    """U_n D_n U_n^dagger with U_n = exp(-i t H_n / hbar) by eigh."""
    out = {}
    for n, m in components.items():
        lam, v = np.linalg.eigh(_hamiltonian(spec, n))
        u = (v * np.exp(-1j * t / spec.hbar * lam)) @ v.conj().T
        out[n] = u @ m @ u.conj().T
    return out


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _spec(doc: dict):
    from qcorr.presets import random_system

    s = doc["system"]
    return random_system(s["seed"], dim_single=s["dim_single"], orders=tuple(s["orders"]))


def _initial_state(doc: dict, spec):
    """The initial data as the library builds it, tagged density/correlation."""
    from qcorr.presets import random_correlation_state, random_density_state

    (tag, body), = doc["initial"].items()
    d, n_max = spec.dim_single, doc["n_max"]
    if tag == "density":
        comps = {i + 1: _matrix(r) for i, r in enumerate(body["components"]) if r is not None}
        return "density", comps
    if body["preset"] == "random_density":
        state = random_density_state(body["seed"], d, n_max, trace_scale=body["trace_scale"])
        return "density", {n: op.matrix for n, op in state.seq.components.items()}
    state = random_correlation_state(body["seed"], d, n_max, norms=body["norms"],
                                     symmetric=body.get("symmetric", False))
    return "correlation", state


def _density_sequence(components: dict[int, np.ndarray], d: int, n_max: int):
    from qcorr.hierarchy import DensityState
    from qcorr.operators import ManyBodyOperator
    from qcorr.partitions import ParticleSet
    from qcorr.star_algebra import OperatorSequence

    ops = {n: ManyBodyOperator(ParticleSet.range1(n), d, m) for n, m in components.items()}
    return DensityState(OperatorSequence(d, n_max, 1.0, ops))


def _check_evolve(doc, spec, dens, out_dir, fail):
    res = _load(out_dir, "evolve.json")
    for t, state in zip(doc["times"], res["states"], strict=True):
        want = _evolve(spec, dens, t)
        for n, rows in enumerate(state["components"], start=1):
            err = _trace_norm(_matrix(rows) - want[n])
            if not err <= TOL_EVOLVE:
                fail(f"evolve t={t} n={n}: residual {err:.3e} > {TOL_EVOLVE}")


def _check_observables(doc, spec, dens, out_dir, fail):
    d = spec.dim_single
    a = _matrix(doc["observable"]) if "observable" in doc else np.eye(d)
    res = _load(out_dir, "observables.json")
    for t, rec in zip(doc["times"], res["records"], strict=True):
        dt = _evolve(spec, dens, t)
        z = 1.0 + sum(np.trace(m) / factorial(n) for n, m in dt.items())
        number = m1 = m2 = 0.0
        for n, m in dt.items():
            a_n = sum(_embed(a, (i,), n, d) for i in range(n))
            number += n * np.trace(m) / factorial(n)
            m1 += np.trace(a_n @ m) / factorial(n)
            m2 += np.trace(a_n @ a_n @ m) / factorial(n)
        number, m1, m2 = (float((x / z).real) for x in (number, m1, m2))
        for key, want, tol in (
            ("mean_particle_number", number, TOL_MEAN),
            ("observable_mean", m1, TOL_MEAN),
            ("observable_dispersion", m2 - m1 * m1, TOL_DISPERSION),
        ):
            err = abs(rec[key] - want)
            if not err <= tol:
                fail(f"observables t={t} {key}: residual {err:.3e} > {tol}")


def _check_hierarchy(doc, spec, g0, out_dir, fail):
    from qcorr.hierarchy import solve_via_density_oracle

    res = _load(out_dir, "hierarchy.json")
    for t, state in zip(doc["times"], res["states"], strict=True):
        want = solve_via_density_oracle(spec, g0, t).seq
        for n, rows in enumerate(state["components"], start=1):
            err = _trace_norm(_matrix(rows) - want.component(n).matrix)
            if not err <= TOL_HIERARCHY:
                fail(f"hierarchy t={t} n={n}: residual {err:.3e} > {TOL_HIERARCHY}")


def _records(res: dict, doc: dict) -> dict:
    got = {(r["s"], r["t"]): _matrix(r["matrix"]) for r in res["records"]}
    want = {(s, t) for s in doc["s_values"] for t in doc["times"]}
    if set(got) != want or len(res["records"]) != len(want):
        raise ValueError(f"records cover {sorted(got)}, expected {sorted(want)}")
    return got


def _check_bbgky(doc, spec, dens, out_dir, fail):
    from qcorr.bbgky import reduce_from_density

    got = _records(_load(out_dir, "bbgky.json"), doc)
    for t in doc["times"]:
        dt = _density_sequence(_evolve(spec, dens, t), spec.dim_single, doc["n_max"])
        for s in doc["s_values"]:
            err = _trace_norm(got[(s, t)] - reduce_from_density(dt, s).matrix)
            if not err <= TOL_BBGKY:
                fail(f"bbgky s={s} t={t}: residual {err:.3e} > {TOL_BBGKY}")


def _check_iterate(doc, spec, dens, out_dir, fail):
    from qcorr.bbgky import marginal_state_from_density, solve_bbgky_cumulant

    got = _records(_load(out_dir, "iterate.json"), doc)
    f0 = marginal_state_from_density(_density_sequence(dens, spec.dim_single, doc["n_max"]))
    for s, t in got:
        err = _trace_norm(got[(s, t)] - solve_bbgky_cumulant(spec, f0, s, t).matrix)
        if not err <= TOL_ITERATE:
            fail(f"iterate s={s} t={t}: residual {err:.3e} > {TOL_ITERATE}")


def check_outputs(doc: dict, out_dir: str) -> list[str]:
    """Failures of one run's outputs against the scenario `doc`; [] if correct."""
    failures: list[str] = []
    fail = failures.append
    spec = _spec(doc)
    kind, initial = _initial_state(doc, spec)
    if kind == "correlation":
        from qcorr.hierarchy import cluster_expand

        dens = {n: op.matrix for n, op in cluster_expand(initial).seq.components.items()}
    else:
        dens = initial
    try:
        for task in doc["tasks"]:
            if task == "evolve":
                _check_evolve(doc, spec, dens, out_dir, fail)
            elif task == "observables":
                _check_observables(doc, spec, dens, out_dir, fail)
            elif task == "hierarchy":
                _check_hierarchy(doc, spec, initial, out_dir, fail)
            elif task == "bbgky":
                _check_bbgky(doc, spec, dens, out_dir, fail)
            elif task == "iterate":
                _check_iterate(doc, spec, dens, out_dir, fail)
            else:
                fail(f"no check for task {task!r}")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures
