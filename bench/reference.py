"""Host-speed reference for the end-to-end timings.

The benchmark's host is a shared virtual machine whose speed moves by
20-50 % over minutes with the load of its neighbours, and by more within
seconds, so the wall time of a `qcorr run` process varies by that much
between runs of the same code.  To take the host's speed out of the
timings, the benchmark process runs a fixed piece of reference work on the
same CPU as the `qcorr run` process, interleaved with it at a few
milliseconds, for as long as that process lives.  Both then see the same
host at the same moments.  A timing is reported as the process's CPU time
multiplied by the reference's speed over the same interval, divided by
`NOMINAL_ROUNDS_PER_S`: the CPU time the process would have taken on a host
that runs the reference at the nominal speed.

The reference work is validating a small nested-list document with
jsonschema.  It uses only installed libraries, never `qcorr`, so a change
to the program under test does not move it; like most of the program's
time, it is interpreter-bound.  On a 2-core x86-64 VM, over 11-14 runs per
workload with the reference interleaved, scaling by it brought the
coefficient of variation of one run's CPU time from 0.156 to 0.011
(io-d4), 0.116 to 0.024 (cumulant-d4) and 0.110 to 0.042 (iterate-d4).
References made of json round trips or of small complex matrix products
tracked the host less well.
"""

from __future__ import annotations

import os
import time

import jsonschema

# Reference rounds per CPU-second that define one reported second.  It is
# the reference's typical speed on the VM the benchmark was defined on, so
# that reported times stay close to real CPU seconds; any fixed value gives
# the same comparisons.
NOMINAL_ROUNDS_PER_S = 450.0

# Sleep after each round, so that the reference takes a quarter to a third
# of the shared CPU and the measured process keeps the rest.
_GAP_S = 0.006

_SCHEMA = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {"type": "array", "items": {"type": "number"},
                  "minItems": 2, "maxItems": 2},
    },
}
_DOC = [[[0.1 * i + 0.01 * j, -0.2 * j] for j in range(8)] for i in range(8)]


class Pacer:
    """Runs reference rounds while a child process lives; keeps their speed.

    `marks` holds (monotonic time, rounds so far, CPU seconds spent in
    them) after every round, so that the speed over any interval of the
    child's life can be read back.
    """

    def __init__(self):
        self._validator = jsonschema.Draft202012Validator(_SCHEMA)
        self.marks: list[tuple[float, int, float]] = []

    def wait(self, pid: int) -> tuple[int, object]:
        """Run rounds until `pid` exits; return its wait status and rusage."""
        rounds, busy = 0, 0.0
        self.marks = []
        while True:
            begin = time.thread_time()
            self._validator.validate(_DOC)
            busy += time.thread_time() - begin
            rounds += 1
            self.marks.append((time.clock_gettime(time.CLOCK_MONOTONIC), rounds, busy))
            got, status, usage = os.wait4(pid, os.WNOHANG)
            if got:
                return status, usage
            time.sleep(_GAP_S)

    def speed(self, until: float | None = None) -> float:
        """Reference speed, relative to nominal, from the child's start to `until`."""
        marks = [m for m in self.marks if until is None or m[0] <= until] or self.marks[:1]
        _, rounds, busy = marks[-1]
        return rounds / busy / NOMINAL_ROUNDS_PER_S
