"""Command-line front end: scenario runner, verification suites, schemas.

`run` executes a scenario's tasks on correlation or density data, given
explicitly or drawn by a preset; chaos data are a correlation sequence that
holds only g_1.  `run --seed` writes the seed into both presets of a copy of
the document before loading it, so the manifest records the seeds that ran.
`verify` runs one suite at its fixed tolerances.

Exit codes: 0 success, 1 contract or numeric failure (a verification check
failed, a normalization degenerated, or a preset draw or a task overflowed
or produced an invalid floating-point result), 2 malformed or
schema-violating input, 3 a capacity guard tripped.  An output path that
is, or lies below, an existing non-directory is refused before any task
runs.  Outputs are written only after every task has computed, so a failing
run leaves no partial files, and all serialization is canonical: rerunning
an identical scenario reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import comb, isfinite

import numpy as np

from . import __version__

# no run path needs cumulants, but bench/layers.py traces it through
# sys.modules["qcorr.cumulants"]; drop this once the tracer loads it itself
from . import cumulants  # noqa: F401
from .bbgky import (
    QuadratureSpec,
    additive_observable_moments,
    marginal_state_from_density,
    reduce_from_density,
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
    solve_hierarchy,
)
from .operators import (
    MAX_OPERATOR_DIM,
    TAU_HERM,
    ManyBodyOperator,
    check_mb_symmetry,
    mb_symmetry_defect,
    min_eigenvalue,
    scaled_hermitian_defect,
    trace_norm,
)
from .presets import random_correlation_state, random_density_state
from .serialize import (
    ALL_SCHEMAS,
    SCENARIO_SCHEMA,
    decode_raw_matrix,
    decode_sequence,
    decode_system,
    dumps_canonical,
    encode_complex,
    encode_raw_matrix,
    encode_sequence,
    validate,
)
from .star_algebra import OperatorSequence

MAX_N_MAX = 4
MAX_TOTAL_DIM = 256
MAX_TIME = 10.0
# bound on max|t| ||H||_2 / hbar: a phase of 1e6 carries about 1e-10 of
# absolute round-off, so the propagator keeps its digits
MAX_PHASE = 1e6


@dataclass
class Scenario:
    """A fully decoded scenario: system, initial data, and work items."""

    spec: SystemSpec
    initial: CorrelationState | DensityState
    times: list[float]
    tasks: list[str]  # in the order of _TASK_FNS, each once
    n_max: int
    s_values: list[int]
    quadrature: QuadratureSpec
    observable: np.ndarray
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


def _build_initial(obj: dict, spec: SystemSpec, n_max: int):
    """Decode the tagged initial-data union into a correlation or density state.

    obj is part of a scenario that load_scenario has validated, as
    decode_sequence requires.
    """
    (tag, body), = obj.items()
    if tag in ("correlation", "density"):
        if body.get("kind", tag) != tag:
            raise SchemaViolation(
                f"initial {tag} sequence is marked kind '{body['kind']}'"
            )
        seq = _fit_sequence(decode_sequence(body), n_max)
        return CorrelationState(seq) if tag == "correlation" else DensityState(seq)
    # the fields each preset reads besides "preset" and "seed"
    reads = {
        "random_correlation": ("norms", "traceless", "symmetric"),
        "random_density": ("trace_scale",),
    }
    name = body["preset"]
    for key in body:
        if key not in ("preset", "seed", *reads[name]):
            raise SchemaViolation(f"initial preset {name} does not read '{key}'")
    seed = int(body["seed"])
    if name == "random_correlation":
        return random_correlation_state(
            seed,
            spec.dim_single,
            n_max,
            norms=body.get("norms", 0.5),
            traceless=bool(body.get("traceless", False)),
            symmetric=bool(body.get("symmetric", False)),
        )
    return random_density_state(
        seed, spec.dim_single, n_max, trace_scale=body.get("trace_scale", 0.8)
    )


def _require_hermitian(m: np.ndarray, what: str) -> None:
    """Refuse m unless ||m - m^dagger||_F <= TAU_HERM ||m||_F."""
    dev, norm, c = scaled_hermitian_defect(m)
    if dev > TAU_HERM * norm:
        raise SchemaViolation(
            f"{what} must be Hermitian, deviation {dev * c} exceeds "
            f"{TAU_HERM} times its norm"
        )


def load_scenario(obj: dict) -> Scenario:
    """Validate, decode, and capacity-check a scenario document."""
    validate(obj, SCENARIO_SCHEMA, "scenario")

    # the dimensions are checked on the document, before decode_system draws
    # a preset's random matrices
    system_obj = obj["system"]
    n_max = int(obj["n_max"])
    if n_max > MAX_N_MAX:
        raise CapacityError(f"n_max={n_max} exceeds the supported {MAX_N_MAX}")
    d = int(system_obj.get("dim_single", 2))
    if d**n_max > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {d}^{n_max} exceeds {MAX_TOTAL_DIM}")
    if "preset" in system_obj:
        for k in map(int, system_obj.get("orders", [2])):
            # d >= 2 exceeds the cap by the power MAX_OPERATOR_DIM.bit_length()
            # already; capping k there keeps the power small to compute
            if d ** min(k, MAX_OPERATOR_DIM.bit_length()) > MAX_OPERATOR_DIM:
                raise CapacityError(
                    f"potential of order {k} has dimension {d}^{k}, "
                    f"above the cap {MAX_OPERATOR_DIM}"
                )
    spec = decode_system(system_obj)

    times = [float(t) for t in obj["times"]]
    for t in times:
        if not isfinite(t) or abs(t) > MAX_TIME:
            raise CapacityError(f"time {t} outside [-{MAX_TIME}, {MAX_TIME}]")
    # n_max ||h||_2 + sum_k C(n_max, k) ||Phi_k||_2 bounds ||H_{n_max}||_2,
    # the largest Hamiltonian any task exponentiates
    h_norm = n_max * float(np.linalg.norm(spec.one_body, 2)) + sum(
        comb(n_max, k) * float(np.linalg.norm(phi, 2))
        for k, phi in spec.potentials.items()
    )
    phase = max(abs(t) for t in times) * h_norm / spec.hbar
    if phase > MAX_PHASE:
        raise CapacityError(
            f"phase bound max|t| * (n_max ||h|| + sum_k C(n_max, k) ||Phi_k||) "
            f"/ hbar = {phase:.3g} exceeds {MAX_PHASE:g}"
        )

    try:
        # a preset draw can overflow, as a task can
        with _strict_fp():
            initial = _build_initial(obj["initial"], spec, n_max)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericError(f"initial data: {exc}") from exc
    if initial.seq.dim_single != spec.dim_single:
        raise SchemaViolation("initial data does not match the system dimension")
    if "observables" in obj["tasks"]:
        # the task writes real numbers, exact only on a Hermitian density
        # sequence, which is the cluster expansion of a Hermitian correlation
        # sequence; the scalar components are 1 and 0 by construction
        kind = "density" if isinstance(initial, DensityState) else "correlation"
        for n, op in sorted(initial.seq.components.items()):
            _require_hermitian(op.matrix, f"initial {kind} component {n}")

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
        # the dispersion is real only for Hermitian A, and would silently
        # drop an imaginary part otherwise
        _require_hermitian(a, "observable")
    else:
        a = np.eye(spec.dim_single, dtype=complex)

    return Scenario(
        spec=spec,
        initial=initial,
        times=times,
        tasks=[t for t in _TASK_FNS if t in obj["tasks"]],
        n_max=n_max,
        s_values=s_values,
        quadrature=quadrature,
        observable=a,
        output=obj.get("output", {}),
        raw=obj,
    )


def _as_correlation(sc: Scenario) -> CorrelationState:
    if isinstance(sc.initial, DensityState):
        return cluster_invert(sc.initial)
    return sc.initial


def _as_density(sc: Scenario) -> DensityState:
    if isinstance(sc.initial, DensityState):
        return sc.initial
    return cluster_expand(sc.initial)


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
    # the eigenvalues of a non-Hermitian F_s are complex, and the lowest one
    # of its Hermitian part is none of them, so min_eig is null there
    dev, norm, _ = scaled_hermitian_defect(op.matrix)
    return {
        "s": s,
        "t": t,
        "matrix": encode_raw_matrix(op.matrix),
        "trace": encode_complex(op.trace),
        "trace_norm": trace_norm(op),
        "min_eig": min_eigenvalue(op) if dev <= TAU_HERM * norm else None,
    }


# columns of the CSV twin of each record-valued task; csv writes None as ""
_MARGINAL_COLUMNS = ["s", "t", "trace_re", "trace_im", "trace_norm", "min_eig"]
_CSV_COLUMNS = {
    "bbgky": _MARGINAL_COLUMNS,
    "iterate": _MARGINAL_COLUMNS,
    "observables": [
        "t",
        "mean_particle_number",
        "observable_mean",
        "observable_dispersion",
    ],
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


def _require_exchange_symmetric(d0: DensityState, s_values: list[int]) -> None:
    """Refuse density data on which the bbgky and iterate formulas fail.

    Both formulas are linear in the density components and equal the
    reduced evolved density for exchange-symmetric data; a component D_n
    with n <= s + 1 gives the same answer either way, so only D_n with
    n >= s + 2 are checked.  The check is sufficient, not necessary.
    """
    for n, op in sorted(d0.seq.components.items()):
        if n >= min(s_values) + 2 and not check_mb_symmetry(op):
            raise ValueError(
                f"density component {n} is not exchange-symmetric (defect "
                f"{mb_symmetry_defect(op):.3e}), so reduced operators for "
                f"s <= {n - 2} would not match the evolved density"
            )


def _marginal_records(sc: Scenario, threads: int, solve) -> list[dict]:
    """A record of solve(spec, f0, s, t) for every s, then t, of the scenario."""
    d0 = _as_density(sc)
    _require_exchange_symmetric(d0, sc.s_values)
    f0 = marginal_state_from_density(d0)
    grid = [(s, t) for s in sc.s_values for t in sc.times]

    def one(st) -> dict:
        s, t = st
        return _marginal_record(s, t, solve(sc.spec, f0, s, t))

    return _pmap(one, grid, threads)


def _task_bbgky(sc: Scenario, threads: int) -> dict:
    records = _marginal_records(sc, threads, solve_bbgky_cumulant)
    return {"task": "bbgky", "records": records}


def _task_iterate(sc: Scenario, threads: int) -> dict:
    q = sc.quadrature

    def solve(spec, f0, s, t):
        return solve_bbgky_iteration(spec, f0, s, t, q)

    return {
        "task": "iterate",
        "quadrature": {
            "order": q.order,
            "nodes_per_dim": q.nodes_per_dim,
            "rule": q.rule,
        },
        "records": _marginal_records(sc, threads, solve),
    }


def _task_observables(sc: Scenario, threads: int) -> dict:
    d0 = _as_density(sc)

    def one(t: float) -> dict:
        dt = DensityState(evolve_density_sequence(sc.spec, d0.seq, t))
        mean, second = additive_observable_moments(dt, sc.observable)
        return {
            "t": t,
            "mean_particle_number": float(reduce_from_density(dt, 1).trace.real),
            "observable_mean": mean,
            "observable_dispersion": second - mean * mean,
        }

    return {
        "task": "observables",
        "records": _pmap(one, sc.times, threads),
    }


_TASK_FNS = {
    "evolve": _task_evolve,
    "hierarchy": _task_hierarchy,
    "bbgky": _task_bbgky,
    "iterate": _task_iterate,
    "observables": _task_observables,
}


def run_scenario(sc: Scenario, threads: int = 1) -> dict[str, str]:
    """Execute every task; return {filename: text}."""
    want_json = sc.output.get("format", "both") != "csv"
    want_csv = sc.output.get("format", "both") != "json"

    files: dict[str, str] = {}
    for task in sc.tasks:
        try:
            with _strict_fp():
                result = _TASK_FNS[task](sc, threads)
        except FloatingPointError as exc:
            raise NumericError(f"task {task}: {exc}") from exc
        if want_json:
            files[f"{task}.json"] = dumps_canonical(result)
        if want_csv and task in _CSV_COLUMNS:
            files[f"{task}.csv"] = _records_csv(result["records"], _CSV_COLUMNS[task])

    # thread count must not appear here: outputs are byte-identical for a
    # given scenario regardless of how the work was scheduled
    manifest = {
        "scenario": sc.raw,
        "package": {"name": "qcorr", "version": __version__},
        "files": sorted(files),
    }
    files["manifest.json"] = dumps_canonical(manifest)
    return files


def _reject_constant(name: str):
    """json hook for NaN, Infinity and -Infinity, which JSON itself lacks."""
    raise ValueError(f"non-standard JSON literal {name} is not allowed")


def _path_error(what: str, path: str, exc: OSError) -> int:
    print(f"{what} {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _non_directory(path: str) -> OSError | None:
    """The error os.makedirs(path) would raise because path, or its nearest
    existing ancestor, is not a directory; None otherwise.  Creates nothing."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if os.path.isdir(probe):
        return None
    code = errno.EEXIST if probe == os.path.abspath(path) else errno.ENOTDIR
    return OSError(code, os.strerror(code), path)


def _with_seed(obj: dict, seed: int) -> dict:
    """A copy of a valid scenario whose system and initial presets draw from seed."""
    obj = dict(obj)
    if "preset" in obj["system"]:
        obj["system"] = dict(obj["system"], seed=seed)
    if "preset" in obj["initial"]:
        obj["initial"] = {"preset": dict(obj["initial"]["preset"], seed=seed)}
    return obj


def _cmd_run(args) -> int:
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        return _path_error("cannot read scenario", args.scenario, exc)
    if args.seed is not None:
        # the seeds go into the document, which the manifest records; a
        # malformed document is refused as written
        validate(obj, SCENARIO_SCHEMA, "scenario")
        obj = _with_seed(obj, args.seed)
    sc = load_scenario(obj)
    out_dir = args.out or sc.output.get("path") or "qcorr-out"
    blocked = _non_directory(out_dir)
    if blocked is not None:
        return _path_error("cannot write output", out_dir, blocked)
    files = run_scenario(sc, threads=args.threads)

    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in sorted(files.items()):
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        return _path_error("cannot write output", exc.filename or out_dir, exc)
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, run_suite

    if args.suite not in SUITE_NAMES:
        print(
            f"unknown suite '{args.suite}'; valid: {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    report = run_suite(args.suite)
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
