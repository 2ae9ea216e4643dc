"""Layer tracing for the benchmark, from outside the program.

`install` runs inside a `qcorr run` process (see launch.py).  It wraps the
public functions of the `qcorr` modules in every module namespace that binds
them (modules import names directly, e.g. `from .operators import
tensor_product`), keeps spans (name, start, end, parent) and a few counters
in memory, and `Recorder.dump` writes them when the run ends.
`layer_metrics` turns such a dump into the per-layer metrics.

Every span maps to exactly one reported time metric, except two hidden
spans (`cli._cmd_run`, `cli.run_scenario`) that only delimit the read and
write phases.  So `trace.unattributed_s` -- traced wall time minus every
reported self time -- is interpreter start and exit, glue code outside any
span, and the tracer's own bookkeeping.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

_clock = time.perf_counter

# (module, function) pairs that get a span named "<module>.<function>"
SPANNED = [
    ("cli", "load_scenario"),
    ("cli", "_cmd_run"),
    ("cli", "run_scenario"),
    ("serialize", "validate"),
    ("serialize", "decode_raw_matrix"),
    ("serialize", "encode_raw_matrix"),
    ("serialize", "dumps_canonical"),
    ("presets", "random_hermitian"),
    ("presets", "random_system"),
    ("presets", "free_system"),
    ("presets", "random_operator"),
    ("presets", "random_correlation_state"),
    ("presets", "random_density_state"),
    ("presets", "random_sequence"),
    ("presets", "chaos_one_particle"),
    ("partitions", "enumerate_partitions"),
    ("operators", "tensor_product"),
    ("operators", "tensor_embed"),
    ("operators", "partial_trace"),
    ("operators", "trace_norm"),
    ("operators", "min_eigenvalue"),
    ("hamiltonian", "build_hamiltonian"),
    ("hamiltonian", "interaction_liouvillian_apply"),
    ("evolution", "make_unitary_group"),
    ("evolution", "unitary_matrix"),
    ("evolution", "group_apply"),
    ("evolution", "group_apply_on_subsets"),
    ("evolution", "evolve_density_sequence"),
    ("cumulants", "cumulant_apply"),
    ("star_algebra", "star_product"),
    ("hierarchy", "solve_hierarchy"),
    ("hierarchy", "cluster_expand"),
    ("hierarchy", "cluster_invert"),
    ("bbgky", "solve_bbgky_cumulant"),
    ("bbgky", "solve_bbgky_iteration"),
    ("bbgky", "marginal_state_from_density"),
    ("bbgky", "average_particle_number"),
    ("bbgky", "additive_dispersion"),
    ("bbgky", "additive_observable_moment"),
]

TASKS = ("evolve", "hierarchy", "bbgky", "iterate", "observables")


class Recorder:
    """Spans and counters of one traced process (single-threaded runs)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, None])

    def caller(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name: str, fn, before=None, after=None):
        rec = self

        @wraps(fn)
        def traced(*a, **kw):
            if before is not None:
                before(rec, a)
            idx = len(rec.spans)
            rec.spans.append([name, 0.0, 0.0, rec.stack[-1] if rec.stack else None])
            rec.stack.append(idx)
            rec.active[name] += 1
            start = _clock()
            try:
                out = fn(*a, **kw)
            finally:
                end = _clock()
                rec.stack.pop()
                rec.active[name] -= 1
                rec.spans[idx][1] = start
                rec.spans[idx][2] = end
            if after is not None:
                after(rec, out)
            return out

        return traced

    def conjugation(self, n_particles: int, dim_single: int) -> None:
        self.counts[f"evolution.conjugations.n{n_particles}"] += 1
        self.counts["evolution.conj_flop"] += 16 * (dim_single**n_particles) ** 3
        if self.active["hierarchy.solve_hierarchy"]:
            self.counts["hierarchy.conjugations"] += 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# -- counting hooks; each receives the recorder and the positional args ------


def _group_apply(rec, a):  # (ug, t, f)
    if a[1] != 0.0:
        rec.conjugation(len(a[2].labels), a[2].dim_single)


def _group_apply_on_subsets(rec, a):  # (spec, t, blocks, f)
    if rec.caller() == "cumulants.cumulant_apply":
        rec.counts["cumulants.cumulant_apply.terms"] += 1
    # a single block is delegated to group_apply, which counts it
    if a[1] != 0.0 and len(a[2]) > 1:
        rec.conjugation(len(a[3].labels), a[3].dim_single)


def _embedded_group_conj(rec, a):  # (spec, full, sub_n, tau, x)
    if a[3] != 0.0:
        rec.conjugation(len(a[1]), a[4].dim_single)


def _unitary_matrix(rec, a):
    if rec.active["bbgky.solve_bbgky_iteration"]:
        rec.counts["bbgky.solve_bbgky_iteration.unitary_builds"] += 1


def _partitions_out(rec, out):
    rec.counts["partitions.enumerate_partitions.partitions_out"] += len(out)


def _bytes_out(rec, out):
    rec.counts["serialize.dumps_canonical.bytes"] += len(out.encode("utf-8"))


_BEFORE = {
    "evolution.group_apply": _group_apply,
    "evolution.group_apply_on_subsets": _group_apply_on_subsets,
    "evolution.unitary_matrix": _unitary_matrix,
}
_AFTER = {
    "partitions.enumerate_partitions": _partitions_out,
    "serialize.dumps_canonical": _bytes_out,
}


def _counting(rec: Recorder, fn, hook):
    @wraps(fn)
    def counted(*a, **kw):
        hook(rec, a)
        return fn(*a, **kw)

    return counted


def _rebind(original, replacement) -> None:
    """Point every `qcorr` module name bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname == "qcorr" or modname.startswith("qcorr."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(cli) -> Recorder:
    """Wrap the qcorr layers of an imported `qcorr.cli`; return the recorder."""
    import numpy as np

    from qcorr import bbgky, operators

    rec = Recorder()
    for modname, fname in SPANNED:
        original = getattr(sys.modules[f"qcorr.{modname}"], fname)
        name = f"{modname}.{fname}"
        _rebind(original, rec.span(name, original, _BEFORE.get(name), _AFTER.get(name)))

    for task, fn in list(cli._TASK_FNS.items()):
        cli._TASK_FNS[task] = rec.span(f"cli.task.{task}", fn)

    # the iteration series conjugates through a private helper of bbgky
    bbgky._embedded_group_conj = _counting(
        rec, bbgky._embedded_group_conj, _embedded_group_conj
    )

    # eigh calls inside make_unitary_group are its cache misses
    eigh = np.linalg.eigh

    def counted_eigh(*a, **kw):
        if rec.active["evolution.make_unitary_group"]:
            rec.counts["evolution.eigh.calls"] += 1
        return eigh(*a, **kw)

    np.linalg.eigh = counted_eigh

    post_init = operators.ManyBodyOperator.__post_init__

    def counted_post_init(self):
        rec.counts["operators.ManyBodyOperator.constructed"] += 1
        post_init(self)

    operators.ManyBodyOperator.__post_init__ = counted_post_init
    return rec


# -- per-layer metrics from a dump --------------------------------------------

_CALLS = [
    "serialize.validate",
    "serialize.encode_raw_matrix",
    "partitions.enumerate_partitions",
    "operators.tensor_product",
    "operators.tensor_embed",
    "operators.partial_trace",
    "hamiltonian.build_hamiltonian",
    "hamiltonian.interaction_liouvillian_apply",
    "evolution.make_unitary_group",
    "evolution.unitary_matrix",
    "evolution.group_apply",
    "evolution.group_apply_on_subsets",
    "cumulants.cumulant_apply",
    "star_algebra.star_product",
    "hierarchy.solve_hierarchy",
    "bbgky.solve_bbgky_cumulant",
    "bbgky.solve_bbgky_iteration",
]

# reported self-time metric -> the span names it sums
_SELF = {
    "cli.import.s": ["cli.import"],
    "cli.read.s": ["cli.read"],
    "cli.load_scenario.s": ["cli.load_scenario"],
    **{f"cli.task.{t}.s": [f"cli.task.{t}"] for t in TASKS},
    "cli.write.s": ["cli.write"],
    "serialize.validate.s": ["serialize.validate"],
    "serialize.decode_raw_matrix.s": ["serialize.decode_raw_matrix"],
    "serialize.encode_raw_matrix.s": ["serialize.encode_raw_matrix"],
    "serialize.dumps_canonical.s": ["serialize.dumps_canonical"],
    "presets.s": [f"presets.{f}" for m, f in SPANNED if m == "presets"],
    "partitions.enumerate_partitions.s": ["partitions.enumerate_partitions"],
    "operators.tensor_product.s": ["operators.tensor_product"],
    "operators.tensor_embed.s": ["operators.tensor_embed"],
    "operators.partial_trace.s": ["operators.partial_trace"],
    "operators.trace_norm.s": ["operators.trace_norm"],
    "operators.min_eigenvalue.s": ["operators.min_eigenvalue"],
    "hamiltonian.build_hamiltonian.s": ["hamiltonian.build_hamiltonian"],
    "hamiltonian.interaction_liouvillian_apply.s": [
        "hamiltonian.interaction_liouvillian_apply"
    ],
    "evolution.make_unitary_group.s": ["evolution.make_unitary_group"],
    "evolution.unitary_matrix.s": ["evolution.unitary_matrix"],
    "evolution.group_apply.s": ["evolution.group_apply"],
    "evolution.group_apply_on_subsets.s": ["evolution.group_apply_on_subsets"],
    "evolution.evolve_density_sequence.s": ["evolution.evolve_density_sequence"],
    "cumulants.cumulant_apply.s": ["cumulants.cumulant_apply"],
    "star_algebra.star_product.s": ["star_algebra.star_product"],
    "hierarchy.solve_hierarchy.s": ["hierarchy.solve_hierarchy"],
    "hierarchy.cluster_expand.s": ["hierarchy.cluster_expand"],
    "hierarchy.cluster_invert.s": ["hierarchy.cluster_invert"],
    "bbgky.solve_bbgky_cumulant.s": ["bbgky.solve_bbgky_cumulant"],
    "bbgky.solve_bbgky_iteration.s": ["bbgky.solve_bbgky_iteration"],
    "bbgky.marginal_state_from_density.s": ["bbgky.marginal_state_from_density"],
    "bbgky.observables.s": [
        "bbgky.average_particle_number",
        "bbgky.additive_dispersion",
        "bbgky.additive_observable_moment",
    ],
}

_COUNTS = [
    "serialize.dumps_canonical.bytes",
    "partitions.enumerate_partitions.partitions_out",
    "operators.ManyBodyOperator.constructed",
    "evolution.eigh.calls",
    *(f"evolution.conjugations.n{k}" for k in range(1, 5)),
    "cumulants.cumulant_apply.terms",
    "bbgky.solve_bbgky_iteration.unitary_builds",
]

_LAYER_ORDER = ["cli", "serialize", "presets", "partitions", "operators", "hamiltonian",
                "evolution", "cumulants", "star_algebra", "hierarchy", "bbgky", "trace"]

# every per-layer metric, grouped by layer, with its unit
_UNITS = {
    **{f"{n}.calls": "count" for n in _CALLS},
    **{name: "s" for name in _SELF},
    **{name: ("bytes" if name.endswith(".bytes") else "count") for name in _COUNTS},
    "serialize.encode_mb_per_s": "MB/s",
    "evolution.make_unitary_group.hit_ratio": "ratio",
    "evolution.conj_gflop_computed": "GFLOP",
    "hierarchy.conjugations_per_solve": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
UNITS = dict(sorted(_UNITS.items(), key=lambda kv: _LAYER_ORDER.index(kv[0].split(".")[0])))


def _with_phases(spans: list[list]) -> list[list]:
    """Add `cli.read` and `cli.write`, the untraced parts of `_cmd_run`.

    Reading is from the start of `_cmd_run` to the start of `load_scenario`
    (open + json.load); writing is from the end of `run_scenario` to the end
    of `_cmd_run` (makedirs + file writes).
    """
    first = {}
    for i, s in enumerate(spans):
        first.setdefault(s[0], i)
    out = list(spans)
    cmd = first.get("cli._cmd_run")
    if cmd is None:
        return out
    if "cli.load_scenario" in first:
        out.append(["cli.read", spans[cmd][1], spans[first["cli.load_scenario"]][1], cmd])
    if "cli.run_scenario" in first:
        out.append(["cli.write", spans[first["cli.run_scenario"]][2], spans[cmd][2], cmd])
    return out


def layer_metrics(doc: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run; the trace.* ones need both walls."""
    spans = _with_phases(doc["spans"])
    counts = Counter(doc["counts"])
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), c in zip(spans, child):
        self_time[name] += (end - start) - c
        calls[name] += 1

    m: dict[str, float] = {}
    for n in _CALLS:
        m[f"{n}.calls"] = calls[n]
    for name, members in _SELF.items():
        m[name] = sum(self_time[s] for s in members)
    for n in _COUNTS:
        m[n] = counts[n]
    enc_s = m["serialize.encode_raw_matrix.s"] + m["serialize.dumps_canonical.s"]
    m["serialize.encode_mb_per_s"] = (
        m["serialize.dumps_canonical.bytes"] / 1e6 / enc_s if enc_s > 0 else 0.0
    )
    groups = m["evolution.make_unitary_group.calls"]
    m["evolution.make_unitary_group.hit_ratio"] = (
        (groups - m["evolution.eigh.calls"]) / groups if groups else 0.0
    )
    m["evolution.conj_gflop_computed"] = counts["evolution.conj_flop"] / 1e9
    solves = m["hierarchy.solve_hierarchy.calls"]
    m["hierarchy.conjugations_per_solve"] = (
        counts["hierarchy.conjugations"] / solves if solves else 0.0
    )
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - sum(m[name] for name in _SELF)
    return {name: m[name] for name in UNITS}
