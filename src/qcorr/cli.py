"""Command-line front end: scenario runner, verification suites, schemas.

Exit codes: 0 success, 1 contract or numeric failure (a verification check
failed, a normalization degenerated, or a task overflowed or produced an
invalid floating-point result), 2 malformed or schema-violating input, 3 a
capacity guard tripped.  Outputs are written only after every task has
computed, so a failing run leaves no partial files, and all serialization is
canonical: rerunning an identical scenario reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import isfinite
from typing import Any

import numpy as np

from . import __version__
from .bbgky import (
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    average_particle_number,
    marginal_state_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from .errors import CapacityError, NormalizationError, NumericError, SchemaViolation
from .evolution import evolve_density_sequence
from .hamiltonian import SystemSpec
from .hierarchy import (
    CorrelationState,
    DensityState,
    cluster_expand,
    cluster_invert,
    solve_chaos,
    solve_hierarchy,
)
from .operators import TAU_HERM, ManyBodyOperator, min_eigenvalue, trace_norm
from .partitions import ParticleSet
from .presets import chaos_one_particle, random_correlation_state, random_density_state
from .serialize import (
    ALL_SCHEMAS,
    SCENARIO_SCHEMA,
    decode_operator,
    decode_raw_matrix,
    decode_sequence,
    decode_system,
    dumps_canonical,
    encode_complex,
    encode_operator,
    encode_raw_matrix,
    encode_sequence,
    validate,
)
from .star_algebra import OperatorSequence
from .verify import SUITE_NAMES, run_suite

MAX_N_MAX = 4
MAX_TOTAL_DIM = 256
MAX_TIME = 10.0

_TASK_ORDER = ("evolve", "hierarchy", "chaos", "bbgky", "iterate", "observables")


@dataclass
class Scenario:
    """A fully decoded scenario: system, initial data, and work items."""

    spec: SystemSpec
    initial_kind: str  # correlation | density | chaos
    initial: Any
    times: list[float]
    tasks: list[str]
    n_max: int
    s_values: list[int]
    quadrature: QuadratureSpec
    observable: np.ndarray
    tol_scale: float
    output: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _fit_sequence(seq: OperatorSequence, n_max: int) -> OperatorSequence:
    """Reconcile a decoded sequence with the scenario's n_max."""
    if seq.n_max == n_max:
        return seq
    if seq.support and max(seq.support) > n_max:
        raise SchemaViolation(
            f"initial data has components beyond n_max={n_max}"
        )
    return OperatorSequence(seq.dim_single, n_max, seq.scalar0, dict(seq.components))


def _norm_scalar(value, default: float) -> float:
    if value is None:
        return default
    if isinstance(value, (int, float)):
        return float(value)
    return float(value[0])


def _build_initial(obj: dict, spec: SystemSpec, n_max: int, seed_override):
    """Decode the tagged initial-data union into (kind, state)."""
    (tag, body), = obj.items()
    if tag == "correlation":
        seq = _fit_sequence(decode_sequence(body), n_max)
        return "correlation", CorrelationState(seq)
    if tag == "density":
        seq = _fit_sequence(decode_sequence(body), n_max)
        return "density", DensityState(seq)
    if tag == "chaos":
        op = decode_operator(body)
        if len(op.labels) != 1:
            raise SchemaViolation("chaos initial data must be a one-particle operator")
        if op.dim_single != spec.dim_single:
            raise SchemaViolation("chaos initial data does not match the system dimension")
        return "chaos", op
    # preset
    seed = int(seed_override) if seed_override is not None else int(body["seed"])
    name = body["preset"]
    if name == "random_correlation":
        state = random_correlation_state(
            seed,
            spec.dim_single,
            n_max,
            norms=body.get("norms", 0.5),
            traceless=bool(body.get("traceless", False)),
            symmetric=bool(body.get("symmetric", False)),
        )
        return "correlation", state
    if name == "random_density":
        state = random_density_state(
            seed, spec.dim_single, n_max, trace_scale=body.get("trace_scale", 0.8)
        )
        return "density", state
    op = chaos_one_particle(
        seed, spec.dim_single, norm=_norm_scalar(body.get("norms"), 1.0)
    )
    return "chaos", op


def load_scenario(obj: dict, seed_override=None) -> Scenario:
    """Validate, decode, and capacity-check a scenario document."""
    validate(obj, SCENARIO_SCHEMA, "scenario")

    system_obj = dict(obj["system"])
    if seed_override is not None and "preset" in system_obj:
        system_obj["seed"] = int(seed_override)
    spec = decode_system(system_obj)

    n_max = int(obj["n_max"])
    if n_max > MAX_N_MAX:
        raise CapacityError(f"n_max={n_max} exceeds the supported {MAX_N_MAX}")
    if spec.dim_single**n_max > MAX_TOTAL_DIM:
        raise CapacityError(
            f"total dimension {spec.dim_single}^{n_max} exceeds {MAX_TOTAL_DIM}"
        )
    times = [float(t) for t in obj["times"]]
    for t in times:
        if not isfinite(t) or abs(t) > MAX_TIME:
            raise CapacityError(f"time {t} outside [-{MAX_TIME}, {MAX_TIME}]")

    kind, initial = _build_initial(obj["initial"], spec, n_max, seed_override)
    if getattr(initial, "seq", None) is not None:
        if initial.seq.dim_single != spec.dim_single:
            raise SchemaViolation("initial data does not match the system dimension")

    s_values = [int(s) for s in obj.get("s_values", range(1, max(n_max, 2)))]
    for s in s_values:
        if not 1 <= s <= n_max:
            raise SchemaViolation(f"s={s} outside [1, n_max={n_max}]")

    q = obj.get("quadrature")
    quadrature = (
        QuadratureSpec(int(q["order"]), int(q["nodes_per_dim"]), q["rule"])
        if q
        else QuadratureSpec(2, 16, "gauss-legendre-simplex")
    )

    if "observable" in obj:
        a = decode_raw_matrix(obj["observable"])
        if a.shape != (spec.dim_single, spec.dim_single):
            raise SchemaViolation(
                f"observable must be {spec.dim_single}x{spec.dim_single}"
            )
        # ||A - A^dagger||_F <= TAU_HERM ||A||_F: the dispersion is real only
        # for Hermitian A, and would silently drop an imaginary part otherwise
        dev = float(np.linalg.norm(a - a.conj().T))
        if dev > TAU_HERM * float(np.linalg.norm(a)):
            raise SchemaViolation(
                f"observable must be Hermitian, deviation {dev} exceeds "
                f"{TAU_HERM} times its norm"
            )
    else:
        a = np.eye(spec.dim_single, dtype=complex)

    tol_scale = float(obj.get("tolerances", {}).get("tol_scale", 1.0))
    if tol_scale <= 0:
        raise SchemaViolation("tolerances.tol_scale must be positive")

    tasks: list[str] = []
    for t in obj["tasks"]:
        if t not in tasks:
            tasks.append(t)
    for t in tasks:
        if t.startswith("verify:") and t.split(":", 1)[1] not in SUITE_NAMES:
            raise SchemaViolation(
                f"unknown suite '{t.split(':', 1)[1]}'; "
                f"valid: {', '.join(SUITE_NAMES)}"
            )

    return Scenario(
        spec=spec,
        initial_kind=kind,
        initial=initial,
        times=times,
        tasks=tasks,
        n_max=n_max,
        s_values=s_values,
        quadrature=quadrature,
        observable=a,
        tol_scale=tol_scale,
        output=obj.get("output", {}),
        raw=obj,
    )


def _as_correlation(sc: Scenario) -> CorrelationState:
    if sc.initial_kind == "correlation":
        return sc.initial
    if sc.initial_kind == "density":
        return cluster_invert(sc.initial)
    comps = {1: sc.initial}
    return CorrelationState(
        OperatorSequence(sc.spec.dim_single, sc.n_max, 0.0, comps)
    )


def _as_density(sc: Scenario) -> DensityState:
    if sc.initial_kind == "density":
        return sc.initial
    return cluster_expand(_as_correlation(sc))


def _strict_fp():
    """Floating-point state for tasks: overflow and invalid results raise."""
    return np.errstate(over="raise", invalid="raise")


def _pmap(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]

    def strict(x):
        # numpy's error state is per thread, so each worker sets its own
        with _strict_fp():
            return fn(x)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(strict, items))


def _marginal_record(s: int, t: float, op: ManyBodyOperator) -> dict:
    return {
        "s": s,
        "t": t,
        "matrix": encode_raw_matrix(op.matrix),
        "trace": encode_complex(op.trace),
        "trace_norm": trace_norm(op),
        "min_eig": min_eigenvalue(op),
    }


def _records_csv(records: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        row = []
        for col in columns:
            if col == "trace_re":
                row.append(repr(rec["trace"][0]))
            elif col == "trace_im":
                row.append(repr(rec["trace"][1]))
            elif isinstance(rec[col], float):
                row.append(repr(rec[col]))
            else:
                row.append(rec[col])
        writer.writerow(row)
    return buf.getvalue()


def _task_evolve(sc: Scenario, threads: int) -> dict:
    d0 = _as_density(sc)

    def one(t: float) -> dict:
        seq = evolve_density_sequence(sc.spec, d0.seq, t)
        return encode_sequence(seq, kind="density")

    return {
        "task": "evolve",
        "times": sc.times,
        "states": _pmap(one, sc.times, threads),
    }


def _task_hierarchy(sc: Scenario, threads: int) -> dict:
    g0 = _as_correlation(sc)

    def one(t: float) -> dict:
        return encode_sequence(solve_hierarchy(sc.spec, g0, t).seq, kind="correlation")

    return {
        "task": "hierarchy",
        "times": sc.times,
        "states": _pmap(one, sc.times, threads),
    }


def _task_chaos(sc: Scenario, threads: int) -> dict:
    if sc.initial_kind != "chaos":
        raise SchemaViolation("the chaos task needs one-particle initial data")
    g1 = sc.initial

    def one(t: float) -> dict:
        comps = [
            encode_operator(solve_chaos(sc.spec, g1, n, t))
            for n in range(1, sc.n_max + 1)
        ]
        return {"t": t, "components": comps}

    return {
        "task": "chaos",
        "times": sc.times,
        "solutions": _pmap(one, sc.times, threads),
    }


def _task_bbgky(sc: Scenario, threads: int) -> dict:
    f0 = marginal_state_from_density(_as_density(sc))
    grid = [(s, t) for s in sc.s_values for t in sc.times]

    def one(st) -> dict:
        s, t = st
        return _marginal_record(s, t, solve_bbgky_cumulant(sc.spec, f0, s, t))

    return {"task": "bbgky", "records": _pmap(one, grid, threads)}


def _task_iterate(sc: Scenario, threads: int) -> dict:
    f0 = marginal_state_from_density(_as_density(sc))
    q = sc.quadrature
    grid = [(s, t) for s in sc.s_values for t in sc.times]

    def one(st) -> dict:
        s, t = st
        rec = _marginal_record(s, t, solve_bbgky_iteration(sc.spec, f0, s, t, q))
        return rec

    return {
        "task": "iterate",
        "quadrature": {
            "order": q.order,
            "nodes_per_dim": q.nodes_per_dim,
            "rule": q.rule,
        },
        "records": _pmap(one, grid, threads),
    }


def _task_observables(sc: Scenario, threads: int) -> dict:
    d0 = _as_density(sc)

    def one(t: float) -> dict:
        dt = DensityState(evolve_density_sequence(sc.spec, d0.seq, t))
        f = marginal_state_from_density(dt)
        rec = {
            "t": t,
            "mean_particle_number": average_particle_number(f),
            "observable_mean": additive_observable_moment(dt, sc.observable, 1),
        }
        if f.seq.has(2):
            rec["observable_dispersion"] = additive_dispersion(sc.observable, f)
        else:
            rec["observable_dispersion"] = None
        return rec

    return {
        "task": "observables",
        "records": _pmap(one, sc.times, threads),
    }


_TASK_FNS = {
    "evolve": _task_evolve,
    "hierarchy": _task_hierarchy,
    "chaos": _task_chaos,
    "bbgky": _task_bbgky,
    "iterate": _task_iterate,
    "observables": _task_observables,
}


def run_scenario(sc: Scenario, threads: int = 1) -> tuple[dict[str, str], int]:
    """Execute every task; return {filename: text} plus the exit code."""
    want_json = sc.output.get("format", "both") != "csv"
    want_csv = sc.output.get("format", "both") != "json"

    ordered = [t for t in _TASK_ORDER if t in sc.tasks]
    ordered += [t for t in sc.tasks if t.startswith("verify:")]

    files: dict[str, str] = {}
    exit_code = 0
    for task in ordered:
        if task.startswith("verify:"):
            suite = task.split(":", 1)[1]
            report = run_suite(suite, tol_scale=sc.tol_scale, threads=threads)
            if not report["passed"]:
                exit_code = 1
            files[f"verify-{suite}.json"] = dumps_canonical(report)
            continue
        try:
            with _strict_fp():
                result = _TASK_FNS[task](sc, threads)
        except FloatingPointError as exc:
            raise NumericError(f"task {task}: {exc}") from exc
        if want_json:
            files[f"{task}.json"] = dumps_canonical(result)
        if want_csv and task in ("bbgky", "iterate"):
            files[f"{task}.csv"] = _records_csv(
                result["records"],
                ["s", "t", "trace_re", "trace_im", "trace_norm", "min_eig"],
            )
        if want_csv and task == "observables":
            rows = []
            for rec in result["records"]:
                rows.append(
                    {
                        "t": rec["t"],
                        "mean_particle_number": rec["mean_particle_number"],
                        "observable_mean": rec["observable_mean"],
                        "observable_dispersion": (
                            rec["observable_dispersion"]
                            if rec["observable_dispersion"] is not None
                            else ""
                        ),
                    }
                )
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            cols = [
                "t",
                "mean_particle_number",
                "observable_mean",
                "observable_dispersion",
            ]
            writer.writerow(cols)
            for row in rows:
                writer.writerow(
                    [repr(row[c]) if isinstance(row[c], float) else row[c] for c in cols]
                )
            files["observables.csv"] = buf.getvalue()

    # thread count must not appear here: outputs are byte-identical for a
    # given scenario regardless of how the work was scheduled
    manifest = {
        "scenario": sc.raw,
        "package": {"name": "qcorr", "version": __version__},
        "tol_scale": sc.tol_scale,
        "files": sorted(files),
        "exit_code": exit_code,
    }
    files["manifest.json"] = dumps_canonical(manifest)
    return files, exit_code


def _cmd_run(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    sc = load_scenario(obj, seed_override=args.seed)
    files, exit_code = run_scenario(sc, threads=args.threads)

    out_dir = args.out or sc.output.get("path") or "qcorr-out"
    os.makedirs(out_dir, exist_ok=True)
    for name, text in sorted(files.items()):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"wrote {len(files)} files to {out_dir}")
    return exit_code


def _cmd_verify(args) -> int:
    if args.suite not in SUITE_NAMES:
        print(
            f"unknown suite '{args.suite}'; valid: {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    report = run_suite(args.suite, tol_scale=args.tol_scale, threads=args.threads)
    sys.stdout.write(dumps_canonical(report))
    return 0 if report["passed"] else 1


def _cmd_schema(args) -> int:
    sys.stdout.write(dumps_canonical(ALL_SCHEMAS))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description=(
            "Correlation-operator dynamics for finite quantum systems: "
            "scenario runs, verification suites, and JSON schemas."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=1, help="parallelism bound")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override preset seeds in the scenario"
    )

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("--suite", required=True, help="suite name")
    p_verify.add_argument(
        "--tol-scale", type=float, default=1.0, help="multiply every tolerance"
    )
    p_verify.add_argument("--threads", type=int, default=1, help="parallelism bound")

    p_schema = sub.add_parser("schema", help="emit the JSON schemas")
    p_schema.add_argument(
        "--print", action="store_true", required=True, dest="do_print"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_schema(args)
    except SchemaViolation as exc:
        print(f"schema violation: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except NormalizationError as exc:
        print(f"normalization failure: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
