"""Run `qcorr <args>` in this process, as the `qcorr` console script does.

    python3 bench/launch.py --mark MARK.json [--spans SPANS.json] -- run ...

The only addition to a plain `qcorr run` is one stamp: the time and the
process's CPU time when the first task starts, which the benchmark turns
into `setup_s`.  It is written to MARK.json after the command returns,
together with the exit code.  With `--spans`, the public functions of the
`qcorr` modules are wrapped first (see layers.py) and the recorded spans
and counters go to SPANS.json.

The times are CLOCK_MONOTONIC readings, which are comparable with the
parent's readings on the same machine.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mark", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("qcorr_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.qcorr_args[1:] if args.qcorr_args[:1] == ["--"] else args.qcorr_args

    import_start = time.perf_counter()
    from qcorr import cli

    import_end = time.perf_counter()

    recorder = None
    if args.spans:
        import layers

        recorder = layers.install(cli)
        recorder.add_span("cli.import", import_start, import_end)

    first_task: list[float] = []

    def stamped(fn):
        def run_task(*a, **kw):
            if not first_task:
                first_task.extend((_now(), time.process_time()))
            return fn(*a, **kw)

        return run_task

    # run_scenario looks its task functions up in this table at call time
    for name, fn in list(cli._TASK_FNS.items()):
        cli._TASK_FNS[name] = stamped(fn)

    code = cli.main(argv)
    with open(args.mark, "w", encoding="utf-8") as fh:
        json.dump({"first_task": first_task[0] if first_task else None,
                   "first_task_cpu": first_task[1] if first_task else None,
                   "exit_code": code}, fh)
    if recorder is not None:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
