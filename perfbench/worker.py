"""One benchmark process: set up, run whole rounds for a time budget, check.

Started by run.py, never by hand.  Prints one JSON line with its raw
samples.  Modes:

    measure  run rounds untraced
    trace    run rounds untraced for half the budget, then traced

Set-up time runs from the moment run.py started this process (passed in
as a CLOCK_MONOTONIC reading, which is shared by all processes of the
machine) to the moment the first operation could start.

In measure mode the process also gauges the machine's speed: a fixed
calibration kernel runs right after set-up and after every operation,
outside the operation's timed window, and the report gives the kernel's
time per unit around each operation.  run.py divides each time by it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRATCH_ROOT = ROOT / ".perfbench-tmp"
MAX_MESSAGES = 5
# Calibration after an operation lasts at least this share of the operation
# and at least CAL_MIN_UNITS units; right after set-up it lasts CAL_SETUP_S.
CAL_SHARE = 0.25
CAL_MIN_UNITS = 5
CAL_SETUP_S = 0.1
CAL_PHI = 2.0 * math.pi * np.arange(512) / 512


def calibration_unit():
    """About half a millisecond of the three kinds of work helixtm does: numpy
    ufuncs on a 512-point angle grid (geometry and quadrature), scalar
    Python arithmetic (the Jacobi sweeps) and number formatting (the CLI).
    It never calls helixtm, so a change to the program does not change it."""
    acc = 0.0
    for k in range(1, 9):
        s, c = np.sin(k * CAL_PHI), np.cos(k * CAL_PHI)
        w = 1.0 + 0.5 * c
        acc += float(np.sum(np.sqrt(w * w + 0.09 * s * s)))
    x = 0.0
    for i in range(1500):
        x += (i % 7) * 0.5 - x * 1e-3
    return acc + x + len(",".join(f"{v:.12g}" for v in s[:48]))


class Speed:
    """Time per calibration unit, gauged in blocks between operations.

    ``unit_s[i]`` is the mean of the blocks just before and just after
    operation i, so it follows the machine's speed as it drifts during a run.
    """

    def __init__(self):
        calibration_unit()  # first call pays numpy's lazy set-up
        self.blocks = []
        self.unit_s = []

    def _block(self, seconds, min_units):
        units, t0 = 0, time.perf_counter()
        while units < min_units or time.perf_counter() - t0 < seconds:
            calibration_unit()
            units += 1
        self.blocks.append((time.perf_counter() - t0) / units)

    def start(self):
        self._block(CAL_SETUP_S, CAL_MIN_UNITS)

    def after_op(self, op_seconds):
        self._block(CAL_SHARE * op_seconds, CAL_MIN_UNITS)
        self.unit_s.append(0.5 * (self.blocks[-2] + self.blocks[-1]))


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    return ap.parse_args(argv)


class Rounds:
    """Runs whole rounds and keeps what the checks need.

    The first round's outputs are kept for the independent checks; every
    later output must reproduce the first bit for bit, which is compared by
    digest right after the operation, so the benchmark's own bookkeeping
    holds one round of outputs at most and adds little to peak memory.
    """

    def __init__(self, workload):
        self.workload = workload
        self.first, self.digests = [], []
        self.round_seconds, self.op_seconds = [], []
        self.failures = [0] * len(workload.ops)
        self.attempted = 0
        self.messages = []

    def run(self, budget, after_round=None, after_op=None):
        start = time.perf_counter()
        while True:
            first = not self.round_seconds
            seconds = []
            for i, op in enumerate(self.workload.ops):
                t0 = time.perf_counter()
                try:
                    result, error = op.run(), None
                except (Exception, SystemExit) as exc:  # a failing op is counted, not fatal
                    result, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
                seconds.append(time.perf_counter() - t0)
                self._settle(i, op, result, error, first)
                if after_op:
                    after_op(seconds[-1])
            self.round_seconds.append(sum(seconds))
            self.op_seconds += seconds
            self.attempted += len(seconds)
            if after_round:
                after_round()
            if time.perf_counter() - start + self.round_seconds[-1] > budget:
                return

    def _settle(self, i, op, result, error, first):
        """Outside the timed window: keep or compare the op's output."""
        output = None if error else op.collect(result)
        digest = None if error else hashlib.sha256(self.workload.fingerprint(output)).digest()
        if first:
            self.first.append(None if error else op.keep(output))
            self.digests.append(digest)
        if error:
            self._fail(i, error)
        elif self.digests[i] is not None and digest != self.digests[i]:
            self._fail(i, f"{op.name}: output differs from the first round")

    def _fail(self, i, message):
        self.failures[i] += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def check(self):
        """Independent checks of the first round; a failing op counts as
        failed in every round, since later rounds reproduce it."""
        rounds = len(self.round_seconds)
        wrong = 0
        for i, problems in enumerate(self.workload.check(self.first)):
            if problems and self.first[i] is not None:
                wrong += rounds
                self.failures[i] += rounds
                for problem in problems:
                    if len(self.messages) < MAX_MESSAGES:
                        self.messages.append(f"{self.workload.ops[i].name}: {problem}")
        return wrong


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "helixtm" / "__init__.py").is_file():
        print(f"perfbench: no helixtm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import helixtm
    import workloads

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_ROOT)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, helixtm, scratch)
        report = {"setup_s": time.monotonic() - args.spawned_at}
        rounds = Rounds(workload)
        if args.mode == "measure":
            speed = Speed()
            speed.start()
            t0 = time.perf_counter()
            rounds.run(args.budget, after_op=speed.after_op)
            report["measured_s"] = time.perf_counter() - t0
            report["setup_unit_s"] = speed.blocks[0]
            report["op_unit_s"] = speed.unit_s
        else:
            rounds.run(args.budget / 2)
            report["untraced_round_s"] = list(rounds.round_seconds)
            import tracing

            tracer = tracing.Tracer()
            layers = []

            def record():
                layers.append(tracer.snapshot())
                tracer.reset()

            traced_from = len(rounds.round_seconds)
            tracer.install()
            try:
                rounds.run(args.budget / 2, after_round=record)
            finally:
                tracer.uninstall()
            report["traced_round_s"] = rounds.round_seconds[traced_from:]
            report["layers"] = layers
        # Peak memory of the run, read before the checks allocate anything.
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wrong = rounds.check()
        report.update(
            round_s=rounds.round_seconds,
            op_s=rounds.op_seconds,
            attempted=rounds.attempted,
            failed=sum(min(f, len(rounds.round_seconds)) for f in rounds.failures),
            wrong=wrong,
            messages=rounds.messages,
        )
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
