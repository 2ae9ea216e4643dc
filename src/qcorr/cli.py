"""Command-line front end: scenario runner, verification suites, schemas.

`run` executes a scenario's tasks on correlation or density data, given
explicitly or drawn by a preset; chaos data are a correlation sequence that
holds only g_1.  `run --seed N` draws the system preset from the seed N and
the initial preset from N + 1 (mod 2^64), in load_scenario; a document with
no preset is refused.  `run` writes into the directory that `--out` names
(default `qcorr-out`): `<task>.json` for every task, the CSV twin of
`bbgky`, `iterate` and `observables`, and the run's record: `scenario.json`,
the bytes it read, and `manifest.json`, which lists the result files and
records the package and the `--seed` value, or null.  So `run --scenario
OUT/scenario.json` with that seed rewrites every file of OUT byte for byte.
`run` reads the scenario with one `orjson.loads`, which refuses `NaN`,
`Infinity`, `-Infinity` and a number literal that no double holds; orjson
is imported there, so importing this module does not load it.
`evolve`, `hierarchy`, `bbgky` and `observables` read one evolved density,
Scenario.flow, and the first three share each D(t) when two of them run
(Scenario.state): `hierarchy` writes its Ln (correlation data as given at
t = 0), and `bbgky` and `observables` divide by the reduction scalar
Scenario.z, which load_scenario sums and judges once.
`verify` runs one suite at its fixed tolerances.
`main` freezes what the process has loaded when the command starts, once
per process (gc.freeze): it lives until exit, so no later collection walks
it again, those at interpreter exit included.

The scenario document is this module's: SCENARIO_SCHEMA takes its task
names from _TASK_FNS and each preset's fields, with their schemas, from
_PRESETS, which also gives each field's default and each preset's builder.
The explicit system is this module's too, and an explicit initial sequence
is decoded once, at the scenario's shape, its header checked first.
`schema --print` prints ALL_SCHEMAS: the scenario, its system and
quadrature parts, and the sequence and report formats of qcorr.serialize.

Exit codes: 0 success, 1 contract or numeric failure (a verification check
failed, a normalization degenerated, a linear-algebra routine did not
converge, or drawing or expanding the initial data or a task overflowed or
produced an invalid floating-point result), 2 malformed or schema-violating
input, 3 a capacity guard tripped.  load_scenario makes every refusal of
the input alone, exchange symmetry and normalization included, and an
output path that is empty, or is, or lies below, an existing non-directory
is refused, before any task runs.  Tasks run one at a time, in one
thread.  Outputs are written only after every task has computed, into a
staging directory beside the output directory, each result encoded piece
by piece as it is written, so a failing task or an error while encoding
or writing leaves the output directory as it was; the files then move into
it, `manifest.json` last.
Every file but scenario.json is canonical compact JSON (or CSV): rerunning
an identical scenario reproduces identical bytes on one CPU family, since
importing this module before numpy sets BLAS to one thread unless a count
is set.  `verify` and `schema` print indented JSON for people to read.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import os
import re
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from math import comb, isfinite

# one BLAS thread unless a count is set: the module docstring says why
_BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _BLAS):
    os.environ.update(dict.fromkeys(_BLAS, "1"))

import numpy as np  # noqa: E402

from . import __version__

# no run path needs cumulants, but bench/layers.py traces it through
# sys.modules["qcorr.cumulants"]; drop this once the tracer loads it itself
from . import cumulants  # noqa: F401
from .bbgky import (
    QuadratureSpec,
    flow_observable_moments,
    marginal_state_from_density,
    require_two_body,
    solve_bbgky_iteration,
)
from .errors import CapacityError, NormalizationError, NumericError, SchemaViolation
from .evolution import DensityFlow
from .hamiltonian import SystemSpec
from .hierarchy import CorrelationState, DensityState, cluster_expand, cluster_invert
from .operators import (
    MAX_OPERATOR_DIM,
    ManyBodyOperator,
    min_eigenvalue,
    require_exchange_symmetric,
    require_hermitian,
    trace_norm,
)
from .partitions import ParticleSet
from .presets import random_correlation_state, random_density_state, random_system
from .serialize import (
    RAW_MATRIX_SCHEMA,
    REPORT_SCHEMA,
    SEQUENCE_SCHEMA,
    check_nesting,
    decode_complex,
    decode_raw_matrix,
    dump_canonical,
    encode_complex,
    encode_raw_matrix,
    encode_sequence,
    validate,
)
from .star_algebra import (
    OperatorSequence,
    annihilation_component,
    annihilation_scalar,
    require_normalizable,
)

MAX_N_MAX = 4
MAX_TOTAL_DIM = 256
MAX_TIME = 10.0
# bound on max|t| ||H||_2 / hbar: a phase of 1e6 carries about 1e-10 of
# absolute round-off, so the propagator keeps its digits
MAX_PHASE = 1e6
# a seed is a non-negative integer of at most 64 bits: orjson reads a larger
# integer literal as a float, which would round the seed
MAX_SEED = 2**64 - 1
_SEED = {"type": "integer", "minimum": 0, "maximum": MAX_SEED}


@dataclass
class Scenario:
    """A fully decoded scenario: system, initial data, and work items."""

    spec: SystemSpec
    initial: CorrelationState | DensityState
    density: DensityState  # the initial data as a density sequence
    # the density's reduction scalar, judged normalizable; None when no task
    # divides by it
    z: complex | None
    times: list[float]
    tasks: list[str]  # in the order of _TASK_FNS, each once
    s_values: list[int]
    quadrature: QuadratureSpec
    observable: np.ndarray

    @cached_property
    def flow(self) -> DensityFlow:
        """The density's evolution, shared by evolve, hierarchy, bbgky and
        observables."""
        return DensityFlow(self.spec, self.density.seq)

    @cached_property
    def states(self) -> dict[float, OperatorSequence]:
        """flow.at(t) for each time, computed once."""
        return {t: self.flow.at(t) for t in self.times}

    def state(self, t: float) -> OperatorSequence:
        """D(t): from states when two or more of evolve, hierarchy and bbgky
        read it, which keeps every D(t) until the run ends; else computed
        afresh.  A lone hierarchy or bbgky reader then holds one D(t) at a
        time, but evolve's result keeps every D(t) until it is written, as
        states view each D(t) through encode_raw_matrix."""
        shared = len({"evolve", "hierarchy", "bbgky"}.intersection(self.tasks)) > 1
        return self.states[t] if shared else self.flow.at(t)


# each preset's builder, and the fields it reads besides "preset" and "seed",
# each with its default and its schema; random_hermitian is the system preset
_PRESETS = {
    "random_hermitian": (random_system, {
        "dim_single": (2, {"type": "integer", "minimum": 2}),
        "orders": ([2], {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 1,
        }),
        "hbar": (1.0, {"type": "number", "exclusiveMinimum": 0}),
        "scale": (1.0, {"type": "number", "exclusiveMinimum": 0}),
    }),
    "random_correlation": (random_correlation_state, {
        "norms": (0.5, {
            "oneOf": [
                {"type": "number", "exclusiveMinimum": 0},
                {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            ]
        }),
        "traceless": (False, {"type": "boolean"}),
        "symmetric": (True, {"type": "boolean"}),
    }),
    "random_density": (random_density_state, {
        "trace_scale": (0.8, {"type": "number", "exclusiveMinimum": 0}),
    }),
}


def _preset(body: dict, what: str, seed: int | None):
    """A validated preset body's builder and keyword arguments: the seed given,
    else the body's, and each field it reads, given or default; refuses others."""
    build, fields = _PRESETS[body["preset"]]
    for key in body:
        if key not in ("preset", "seed", *fields):
            raise SchemaViolation(f"{what} preset {body['preset']} does not read '{key}'")
    values = {key: body.get(key, default) for key, (default, _) in fields.items()}
    return build, {"seed": int(body["seed"]) if seed is None else seed, **values}


def _decode_sequence(tag: str, body: dict, d: int, n_max: int) -> OperatorSequence:
    """The initial sequence tagged tag, at the scenario's single-particle
    dimension d and n_max, from a body already validated against
    SEQUENCE_SCHEMA.  Its header is checked against the tag and the scenario
    before any matrix is decoded."""
    if body.get("kind", tag) != tag:
        raise SchemaViolation(f"initial {tag} sequence is marked kind '{body['kind']}'")
    rows, own_n_max = body["components"], int(body["n_max"])
    if len(rows) > own_n_max:
        raise SchemaViolation(
            f"sequence lists {len(rows)} components but n_max is {own_n_max}"
        )
    if any(entry is not None for entry in rows[n_max:]):
        raise SchemaViolation(f"initial data has components beyond n_max={n_max}")
    if int(body["dim_single"]) != d:
        raise SchemaViolation("initial data does not match the system dimension")
    comps = {}
    for n, entry in enumerate(rows, 1):
        if entry is None:
            continue
        try:
            comps[n] = ManyBodyOperator(ParticleSet.range1(n), d, decode_raw_matrix(entry))
        except ValueError as exc:
            raise SchemaViolation(f"initial {tag} component {n}: {exc}") from exc
    return OperatorSequence(d, n_max, decode_complex(body["scalar0"]), comps)


def _build_initial(obj: dict, spec: SystemSpec, n_max: int, seed: int | None):
    """Decode the tagged initial-data union into a correlation or density state.

    obj is part of a scenario that load_scenario has validated; a preset
    draws from (seed + 1) mod 2^64, or from its own seed when seed is None.
    """
    (tag, body), = obj.items()
    if tag in ("correlation", "density"):
        seq = _decode_sequence(tag, body, spec.dim_single, n_max)
        return CorrelationState(seq) if tag == "correlation" else DensityState(seq)
    if seed is not None:
        seed = (seed + 1) % (MAX_SEED + 1)
    build, kwargs = _preset(body, "initial", seed)
    return build(dim_single=spec.dim_single, n_max=n_max, **kwargs)


def _decode_system(obj: dict) -> SystemSpec:
    """The explicit system of an obj already validated against
    EXPLICIT_SYSTEM_SCHEMA."""
    one = decode_raw_matrix(obj["one_body"], "one_body")
    pots = {
        int(k): decode_raw_matrix(m, f"potential[{k}]")
        for k, m in obj.get("potentials", {}).items()
    }
    try:
        return SystemSpec(int(obj["dim_single"]), one, pots, float(obj.get("hbar", 1.0)))
    except ValueError as exc:
        raise SchemaViolation(str(exc)) from exc


def load_scenario(obj: dict, seed: int | None = None) -> Scenario:
    """Validate, decode, and capacity-check a scenario document, as written;
    a seed N then replaces the system preset's seed, and (N + 1) mod 2^64 the
    initial preset's, so the two never draw from one random stream."""
    validate(obj, SCENARIO_SCHEMA, "scenario")
    if seed is not None:
        if "preset" not in obj["system"] and "preset" not in obj["initial"]:
            raise ValueError(
                "--seed is read by no preset: the system and the initial data are explicit"
            )
        if not 0 <= seed <= MAX_SEED:
            raise SchemaViolation(f"--seed {seed} is outside [0, {MAX_SEED}]")

    # the dimensions are checked on the document, with the preset's defaults
    # filled in, before the preset draws its random matrices
    system_obj, draw = obj["system"], None
    if "preset" in system_obj:
        draw, system_obj = _preset(system_obj, "system", seed)
    # an integer field written as a float, such as 1e300, is quoted as
    # written, not as the hundreds of digits of its int()
    n_max, dim = int(obj["n_max"]), system_obj["dim_single"]
    if n_max > MAX_N_MAX:
        raise CapacityError(f"n_max={obj['n_max']} exceeds the supported {MAX_N_MAX}")
    d = int(dim)
    if d**n_max > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {dim}^{n_max} exceeds {MAX_TOTAL_DIM}")
    for k in system_obj.get("orders", ()):
        # d >= 2 exceeds the cap by the power MAX_OPERATOR_DIM.bit_length()
        # already; capping k there keeps the power small to compute
        if d ** min(int(k), MAX_OPERATOR_DIM.bit_length()) > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"potential of order {k} has dimension {dim}^{k}, "
                f"above the cap {MAX_OPERATOR_DIM}"
            )
    spec = _decode_system(system_obj) if draw is None else draw(**system_obj)

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

    tasks = [t for t in _TASK_FNS if t in obj["tasks"]]
    normalized = {"bbgky", "iterate", "observables"} & set(tasks)
    try:
        # a preset draw, the cluster expansion or a trace can overflow, as a task can
        with _strict_fp():
            initial = _build_initial(obj["initial"], spec, n_max, seed)
            density = initial if isinstance(initial, DensityState) else cluster_expand(initial)
            z = annihilation_scalar(density.seq) if normalized else None
    except (FloatingPointError, OverflowError) as exc:
        # float ** int raises OverflowError((errno, message)), whose text is
        # the tuple: quote the message alone
        raise NumericError(f"initial data: {exc.args[-1]}") from exc
    if "observables" in tasks:
        # the task writes real numbers, exact only on a Hermitian density
        # sequence, which is the cluster expansion of a Hermitian correlation
        # sequence; the scalar components are 1 and 0 by construction
        kind = "density" if isinstance(initial, DensityState) else "correlation"
        for n, op in sorted(initial.seq.components.items()):
            require_hermitian(op.matrix, f"initial {kind} component {n}")

    written = obj.get("s_values", range(1, max(n_max, 2)))
    for i, s in enumerate(written):
        if not 1 <= s <= n_max:
            raise SchemaViolation(f"s={s} outside [1, n_max={n_max}]")
        if s in written[:i]:
            raise SchemaViolation(f"s_values repeats s={s}")
    s_values = [int(s) for s in written]

    q = obj.get("quadrature")
    quadrature = (
        QuadratureSpec(int(q["order"]), int(q["nodes_per_dim"])) if q else QuadratureSpec(2, 16)
    )

    if "observable" in obj:
        a = decode_raw_matrix(obj["observable"], "observable")
        if a.shape != (spec.dim_single, spec.dim_single):
            raise SchemaViolation(
                f"observable must be {spec.dim_single}x{spec.dim_single}"
            )
        # the dispersion is real only for Hermitian A, and would silently
        # drop an imaginary part otherwise
        require_hermitian(a, "observable")
    else:
        a = np.eye(spec.dim_single, dtype=complex)

    if "iterate" in tasks:
        require_two_body(spec)
    if "bbgky" in tasks or "iterate" in tasks:
        # bbgky reduces the evolved density and iterate approximates the BBGKY
        # cumulant solution, which is linear in the D_n and equals that reduction
        # on exchange-symmetric data.  A D_n with n <= s + 1 gives the same
        # answer either way, so only n >= s + 2 is checked: sufficient, not necessary
        for n, op in sorted(density.seq.components.items()):
            if n >= min(s_values) + 2:
                require_exchange_symmetric(op.matrix, d, f"density component {n}")
    if normalized:
        require_normalizable(z)

    return Scenario(
        spec=spec,
        initial=initial,
        density=density,
        z=z,
        times=times,
        tasks=tasks,
        s_values=s_values,
        quadrature=quadrature,
        observable=a,
    )


def _strict_fp():
    """Floating-point state for tasks: overflow and invalid results raise."""
    return np.errstate(over="raise", invalid="raise")


def _marginal_record(s: int, t: float, op: ManyBodyOperator) -> dict:
    # the eigenvalues of a non-Hermitian F_s are complex, and the lowest one
    # of its Hermitian part is none of them, so min_eig is null there
    try:
        require_hermitian(op.matrix, f"F_{s}")
    except ValueError:
        min_eig = None
    else:
        min_eig = min_eigenvalue(op)
    return {
        "s": s,
        "t": t,
        "matrix": encode_raw_matrix(op.matrix),
        "trace": encode_complex(op.trace),
        "trace_norm": trace_norm(op),
        "min_eig": min_eig,
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


def _records_csv(records: list[dict], columns: list[str]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        if "trace" in rec:
            rec = dict(rec, trace_re=rec["trace"][0], trace_im=rec["trace"][1])
        writer.writerow([rec[c] for c in columns])
    return buf.getvalue().encode()


def _task_evolve(sc: Scenario) -> dict:
    states = [encode_sequence(sc.state(t), kind="density") for t in sc.times]
    return {"task": "evolve", "times": sc.times, "states": states}


def _task_hierarchy(sc: Scenario) -> dict:
    # g(t) = Ln of the run's evolved density; correlation data are written
    # back as given at t = 0, as qcorr.hierarchy.solve_hierarchy returns them
    def state(t: float) -> CorrelationState:
        if t == 0.0 and isinstance(sc.initial, CorrelationState):
            return sc.initial
        return cluster_invert(DensityState(sc.state(t)))

    states = [encode_sequence(state(t).seq, kind="correlation") for t in sc.times]
    return {"task": "hierarchy", "times": sc.times, "states": states}


def _marginal_records(sc: Scenario, by_time: list[dict]) -> list[dict]:
    """A record for every s, then t, of the scenario, from {s: F_s(t)} for
    each time."""
    return [
        _marginal_record(s, t, ops[s])
        for s in sc.s_values
        for t, ops in zip(sc.times, by_time)
    ]


def _task_bbgky(sc: Scenario) -> dict:
    # F_s(t) reduces the run's evolved density; the reduction scalar is a
    # sum of traces, which the flow keeps, so load_scenario's z serves every t
    by_time = []
    for t in sc.times:
        dt = sc.state(t)
        by_time.append({s: annihilation_component(dt, s) / sc.z for s in sc.s_values})
    return {"task": "bbgky", "records": _marginal_records(sc, by_time)}


def _task_iterate(sc: Scenario) -> dict:
    f0 = marginal_state_from_density(sc.density)
    by_time = [
        solve_bbgky_iteration(sc.spec, f0, sc.s_values, t, sc.quadrature) for t in sc.times
    ]
    return {
        "task": "iterate",
        "quadrature": asdict(sc.quadrature),
        "records": _marginal_records(sc, by_time),
    }


def _task_observables(sc: Scenario) -> dict:
    moments = flow_observable_moments(sc.flow, sc.observable, sc.times, sc.z)
    records = [
        {
            "t": t,
            "mean_particle_number": number,
            "observable_mean": mean,
            "observable_dispersion": second - mean * mean,
        }
        for t, (number, mean, second) in zip(sc.times, moments)
    ]
    return {"task": "observables", "records": records}


_TASK_FNS = {
    "evolve": _task_evolve,
    "hierarchy": _task_hierarchy,
    "bbgky": _task_bbgky,
    "iterate": _task_iterate,
    "observables": _task_observables,
}


def _preset_schema(names: list[str]) -> dict:
    """The schema of a body of one of the named presets: each field that any
    of them reads, under its _PRESETS schema.  _preset refuses a field that
    the body's own preset does not read."""
    fields = {key: schema for name in names for key, (_, schema) in _PRESETS[name][1].items()}
    return {
        "type": "object",
        "required": ["preset", "seed"],
        "additionalProperties": False,
        "properties": {
            "preset": {"type": "string", "enum": names},
            "seed": _SEED,
            **fields,
        },
    }


EXPLICIT_SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["dim_single", "one_body"],
    "additionalProperties": False,
    "properties": {
        "dim_single": {"type": "integer", "minimum": 2},
        "hbar": {"type": "number", "exclusiveMinimum": 0},
        "one_body": RAW_MATRIX_SCHEMA,
        "potentials": {
            "type": "object",
            "additionalProperties": False,
            "properties": {str(k): RAW_MATRIX_SCHEMA for k in range(2, 10)},
        },
    },
}

SYSTEM_SCHEMA = {"oneOf": [EXPLICIT_SYSTEM_SCHEMA, _preset_schema(["random_hermitian"])]}

QUADRATURE_SCHEMA = {
    "type": "object",
    "required": ["order", "nodes_per_dim"],
    "additionalProperties": False,
    "properties": {
        "order": {"type": "integer", "minimum": 0, "maximum": 3},
        "nodes_per_dim": {"type": "integer", "minimum": 4, "maximum": 64},
        # the one rule's name, still accepted so that older scenarios load
        "rule": {"type": "string", "enum": ["gauss-legendre-simplex"]},
    },
}

# the document `qcorr run` reads; its task names are the keys of _TASK_FNS
SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["system", "initial", "times", "tasks", "n_max"],
    "additionalProperties": False,
    "properties": {
        "system": SYSTEM_SCHEMA,
        "initial": {
            "type": "object",
            "minProperties": 1,
            "maxProperties": 1,
            "additionalProperties": False,
            "properties": {
                "correlation": SEQUENCE_SCHEMA,
                "density": SEQUENCE_SCHEMA,
                "preset": _preset_schema(["random_correlation", "random_density"]),
            },
        },
        "times": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 1,
        },
        "tasks": {
            "type": "array",
            "items": {
                "type": "string",
                "enum": list(_TASK_FNS),
            },
            "minItems": 1,
        },
        "n_max": {"type": "integer", "minimum": 1},
        "s_values": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1},
            "minItems": 1,
        },
        "quadrature": QUADRATURE_SCHEMA,
        "observable": RAW_MATRIX_SCHEMA,
    },
}

# what `qcorr schema --print` publishes
ALL_SCHEMAS = {
    "sequence": SEQUENCE_SCHEMA,
    "system": SYSTEM_SCHEMA,
    "scenario": SCENARIO_SCHEMA,
    "quadrature": QUADRATURE_SCHEMA,
    "report": REPORT_SCHEMA,
}


def run_scenario(sc: Scenario) -> dict[str, dict | bytes]:
    """Execute every task; return {filename: content} of the result files:
    each task's result, which _write_outputs encodes as it writes, and the
    bytes of each CSV twin."""
    files: dict[str, dict | bytes] = {}
    for task in sc.tasks:
        try:
            with _strict_fp():
                result = _TASK_FNS[task](sc)
        except FloatingPointError as exc:
            raise NumericError(f"task {task}: {exc}") from exc
        files[f"{task}.json"] = result
        if task in _CSV_COLUMNS:
            files[f"{task}.csv"] = _records_csv(result["records"], _CSV_COLUMNS[task])
    return files


# a literal, at most 40 characters of it, or else one character
_NEAR = re.compile(r"[^\s,:\[\]{}]{1,40}|.?", re.DOTALL)


def _path_error(what: str, path: str, exc: OSError) -> int:
    print(f"{what} {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _nearest_existing(path: str) -> str:
    """The absolute path, or its nearest ancestor, that exists."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    return probe


def _non_directory(path: str) -> OSError | None:
    """The error os.makedirs(path) would raise because path, or its nearest
    existing ancestor, is not a directory, or names no path at all; None
    otherwise.  Creates nothing."""
    if not path:
        return OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    probe = _nearest_existing(path)
    if os.path.isdir(probe):
        return None
    code = errno.EEXIST if probe == os.path.abspath(path) else errno.ENOTDIR
    return OSError(code, os.strerror(code), path)


def _cmd_run(args) -> int:
    import orjson

    try:
        with open(args.scenario, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        return _path_error("cannot read scenario", args.scenario, exc)
    check_nesting(text, "scenario")
    # decoding first names a byte that is not UTF-8, which orjson does not
    obj = orjson.loads(text.decode("utf-8"))
    # the run records the bytes it read and the seed, so the parsed document,
    # the lists behind an explicit density among it, goes before any task runs
    sc = load_scenario(obj, args.seed)
    del obj
    blocked = _non_directory(args.out)
    if blocked is not None:
        return _path_error("cannot write output", args.out, blocked)
    files = run_scenario(sc)
    # the density, its flow and the initial data go before the writer runs
    del sc
    manifest = {
        "files": sorted(files),
        "package": {"name": "qcorr", "version": __version__},
        "seed": args.seed,
    }
    files["manifest.json"] = manifest
    files["scenario.json"] = text
    try:
        _write_outputs(args.out, files)
    except OSError as exc:
        return _path_error("cannot write output", args.out, exc)
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def _write_outputs(out_dir: str, files: dict[str, dict | bytes]) -> None:
    """Write every file, a dict through dump_canonical, into a staging
    directory in out_dir's nearest existing ancestor, then create out_dir
    and its missing ancestors and move each file into it by os.replace,
    manifest.json last.

    The staging directory is on out_dir's filesystem and is removed
    whatever happens, so an error while encoding or writing leaves out_dir,
    and every ancestor of it, as it was.
    """
    parent = _nearest_existing(os.path.dirname(os.path.abspath(out_dir)))
    staging = tempfile.mkdtemp(prefix=".qcorr-staging-", dir=parent)
    try:
        for name, content in files.items():
            with open(os.path.join(staging, name), "wb") as fh:
                if isinstance(content, dict):
                    dump_canonical(content, fh)
                else:
                    fh.write(content)
        os.makedirs(out_dir, exist_ok=True)
        for name in sorted(files, key=lambda name: name == "manifest.json"):
            os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _print_readable(obj) -> None:
    """Write obj to stdout as indented JSON, for the small outputs people read."""
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _cmd_verify(args) -> int:
    from .verify import SUITE_NAMES, run_suite

    if args.suite not in SUITE_NAMES:
        print(
            f"unknown suite '{args.suite}'; valid: {', '.join(SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    report = run_suite(args.suite)
    _print_readable(report)
    return 0 if report["passed"] else 1


def _cmd_schema(args) -> int:
    _print_readable(ALL_SCHEMAS)
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
    p_run.add_argument("--out", default="qcorr-out", help="output directory (default qcorr-out)")
    # runs are sequential; the flag stays only because the benchmark passes 1
    p_run.add_argument(
        "--threads", type=int, choices=[1], default=1, help="runs are sequential"
    )
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
    # what is loaded by now lives until exit: freezing it spares every later
    # collection, those at interpreter exit included, a walk that finds nothing
    if not gc.get_freeze_count():
        gc.freeze()
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
        # quote the literal the parser stopped at, or the character there
        near = _NEAR.match(exc.doc, exc.pos).group()
        where = f" at {near!r}" if near else ""
        print(f"malformed JSON: {exc}{where}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        # a LinAlgError is a ValueError, but the input is not at fault
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 3
    except NormalizationError as exc:
        print(f"normalization failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
