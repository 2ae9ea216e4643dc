"""Benchmark of `qcorr run`: fresh processes on generated scenarios.

    python3 bench/run.py --workload io-d4 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, a table each

Run it from any directory of a source checkout; it uses the checkout's
`src/`.  Per workload it compiles the package's bytecode, writes the
scenario built from `--seed` (see workloads.py) and starts `qcorr run`
processes one after another for about `--seconds` (at least three; a run
starts only if half of a median run still fits).  The first run's
outputs are checked against independent routes (see checks.py); every
later run must exit 0 and write the same bytes, or it counts as failed.
Child processes get one BLAS thread and `--threads 1`.

`--trace 0` reports the end-to-end metrics (medians over the timed runs).
The two timings are CPU seconds scaled to a nominal host speed by a
reference that this process runs on the child's CPU (see reference.py):
  cpu_s         CPU time of one `qcorr run` process
  setup_s       its CPU time from its start to the start of the first task
  peak_rss_mb   maximum resident set size of that process
  output_bytes  total bytes of the files it wrote
`--trace 1` alternates untraced and traced runs, without the reference,
and reports the per-layer metrics of layers.py (medians over the traced
runs).

Human-readable lines come first, with units, sample counts and
`error_rate` (failed runs / attempted runs); the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_SAMPLES = 3
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH", "")) if p
    )
    return env


def _digest(out_dir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        h.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest(), total


def run_qcorr(scenario: Path, work: Path, k: int, traced: bool = False,
              pacer=None) -> dict:
    """One `qcorr run` process: timings, peak RSS, output digest and size.

    With a `reference.Pacer`, the benchmark process runs reference rounds on
    the child's CPU while it lives, and the CPU times come out scaled to the
    nominal host speed (`cpu_s`, `setup_s`).
    """
    out, mark = work / f"out{k}", work / f"mark{k}.json"
    spans = work / f"spans{k}.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), "--mark", str(mark)]
    if traced:
        cmd += ["--spans", str(spans)]
    cmd += ["--", "run", "--scenario", str(scenario), "--out", str(out), "--threads", "1"]
    with open(work / f"stderr{k}.txt", "w+b") as err:
        start = _now()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=work,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            if pacer is None:
                _, status, usage = os.wait4(proc.pid, 0)
            else:
                status, usage = pacer.wait(proc.pid)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    run = {"exit": proc.returncode, "stderr": stderr, "wall_s": end - start,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "out": out}
    if proc.returncode == 0:
        stamp = json.loads(mark.read_text())
        if pacer is not None:
            run["cpu_raw_s"] = usage.ru_utime + usage.ru_stime
            run["host_speed"] = pacer.speed()
            run["cpu_s"] = run["cpu_raw_s"] * run["host_speed"]
            run["setup_s"] = stamp["first_task_cpu"] * pacer.speed(stamp["first_task"])
        run["digest"], run["output_bytes"] = _digest(out)
        if traced:
            run["spans"] = json.loads(spans.read_text())
    return run


def _env_record() -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "jsonschema": importlib.metadata.version("jsonschema"),
        "commit": commit,
        "child_env": PINNED,
        "qcorr_threads": 1,
    }


def bench_workload(name: str, seed: int, seconds: float, trace: bool, dim: int = 4) -> dict:
    """Run one workload; print its table; return the result object."""
    from checks import check_outputs
    from qcorr.serialize import dumps_canonical
    from workloads import build

    # bytecode is compiled up front so that no timed run pays for it
    compileall.compile_dir(str(SRC / "qcorr"), quiet=1)
    compileall.compile_dir(str(BENCH), maxlevels=0, quiet=1)
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpus = os.sched_getaffinity(0)
    try:
        pacer = None
        if not trace:
            from reference import Pacer

            pacer = Pacer()
            # the reference only sees the child's host if it shares the child's
            # CPU; children inherit this affinity
            os.sched_setaffinity(0, {min(cpus)})
        doc = build(name, seed, dim)
        scenario = work / "scenario.json"
        scenario.write_text(dumps_canonical(doc), encoding="utf-8")

        runs = []

        def one(traced: bool) -> dict:
            run = run_qcorr(scenario, work, len(runs), traced, pacer)
            if run["exit"] != 0:
                print(f"run {len(runs)} exited {run['exit']}: {run['stderr'].strip()}",
                      file=sys.stderr)
            if runs:
                run["ok"] = run["exit"] == 0 and run.get("digest") == runs[0].get("digest")
                run["ok"] = run["ok"] and runs[0]["ok"]
            else:
                problems = ["nonzero exit"]
                if run["exit"] == 0:
                    problems = check_outputs(doc, str(run["out"]))
                for p in problems:
                    print(f"check failed: {p}", file=sys.stderr)
                run["ok"] = not problems
            shutil.rmtree(run["out"], ignore_errors=True)
            runs.append(run)
            return run

        pairs, took = [], []
        start = _now()
        # a sample starts only if at least half of it fits in `seconds`, so that
        # one invocation lasts about `seconds` however long a sample takes
        while (len(pairs) < (1 if trace else MIN_SAMPLES)
               or _now() - start + statistics.median(took) / 2 < seconds):
            began = _now()
            if trace:
                pairs.append((one(False), one(True)))
            else:
                pairs.append((one(False), None))
            took.append(_now() - began)
        failed = sum(not r["ok"] for r in runs)
        # timings come from every run that exited 0; wrong outputs only count as failed
        good = [p for p in pairs if all(r["exit"] == 0 for r in p if r is not None)]
        if not good:
            raise RuntimeError(f"{name}: no run exited 0")

        print(f"workload {name}  seed {seed}  d={dim}  seconds {seconds:g}  "
              f"trace {int(trace)}")
        metrics: dict[str, dict] = {}
        if trace:
            import layers

            per_run = [layers.layer_metrics(t["spans"], t["wall_s"], u["wall_s"])
                       for u, t in good]
            for metric, unit in layers.UNITS.items():
                value = statistics.median([m[metric] for m in per_run])
                metrics[metric] = {"value": value, "unit": unit}
                print(f"  {metric:<46} {value:>14.6g} {unit:<6} median of {len(per_run)}")
        else:
            for metric, unit in END_TO_END.items():
                values = [u[metric] for u, _ in good]
                value = statistics.median(values)
                metrics[metric] = {"value": value, "unit": unit}
                print(f"  {metric:<14} {value:>14.6f} {unit:<6} median of {len(values)}"
                      f"  (min {min(values):.6g}, max {max(values):.6g})")
            for label, key in (("unscaled CPU", "cpu_raw_s"), ("host speed", "host_speed"),
                               ("wall, shared", "wall_s")):
                values = [u[key] for u, _ in good]
                print(f"  ({label}: median {statistics.median(values):.6g}, "
                      f"min {min(values):.6g}, max {max(values):.6g})")
        print(f"  {'error_rate':<14} {failed / len(runs):>14.6f} ratio  "
              f"{failed} failed of {len(runs)} runs")
        return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
                "metrics": metrics}
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)


def _terminate(signum, frame):
    # unwinds through run_qcorr, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dim", type=int, default=4,
                        help="single-particle dimension (the smoke test uses 2)")
    args = parser.parse_args(argv)

    if not (SRC / "qcorr" / "cli.py").is_file():
        print(f"bench: no qcorr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(_env_record(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: bench_workload(n, args.seed, args.seconds, bool(args.trace), args.dim)
               for n in names}
    last = results[args.workload] if args.workload != "all" else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
