"""helixtm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is basis-ladder, eccentricity-scan, cli-tables, or all (each of the
three in turn).  Run from the root of a checkout; the benchmark imports
helixtm from ./src and writes only under ./.perfbench-tmp, which it removes.

Every process that runs operations is a fresh Python process with one BLAS
thread (closed loop: one caller, no extra threads).  A run starts such
processes one after another, each measuring whole rounds for S / MAX_PROCS
seconds (at least one round), until the next one would take the run past S
seconds of measurement, and reports medians over all of them; several
processes give several set-up times.

The machine's own speed drifts by up to a third, between processes and
within one over seconds to minutes.  So each measuring process also times a
fixed calibration kernel (worker.calibration_unit) right after set-up and
after every operation, and every end-to-end time is given at the reference
speed: the measured time times REFERENCE_UNIT_S over the kernel's time per
unit measured around it.  The raw figures are printed on the line before
the JSON result.

--trace 0 prints the end-to-end metrics; --trace 1 starts TRACE_PROCS
processes that each run half their budget untraced and half traced, and
prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("basis-ladder", "eccentricity-scan", "cli-tables")
MIN_PROCS = 3
MAX_PROCS = 8
TRACE_PROCS = 2
# One BLAS thread, a fixed hash seed, and no bytecode cache, so that set-up
# compiles the same sources in every run whatever the checkout's state.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}
# Time of one calibration unit at the reference speed.  On the 2-vCPU machine
# of the README's figures the unit took 0.39 to 0.62 ms, so reported times
# stay close to the times measured there.  Changing it rescales every time
# metric, and the baseline must then be measured again.
REFERENCE_UNIT_S = 0.0005
# Slack over the budget before a process is stopped as hung.
CHILD_GRACE_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "points": "count", "solves": "count", "elements": "count",
               "rows": "count", "moments": "count", "commands": "count", "bytes_out": "bytes"}


class ChildFailed(RuntimeError):
    pass


def harrell_davis_median(values):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.

    The operations of a round differ in size by design, so their latencies
    form clusters, and the sample median sits in the gap between two of
    them: a small shift in relative speed moves it from one cluster to the
    other (a 45% jump was seen on eccentricity-scan).  This estimate moves
    smoothly instead.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    steps = 4000
    power = (n - 1) / 2  # the density is proportional to (u (1 - u))^power
    density = [math.exp(power * math.log(4.0 * k * (steps - k) / steps**2)) if 0 < k < steps else 0.0
               for k in range(steps + 1)]
    cdf = [0.0]
    for left, right in zip(density, density[1:]):
        cdf.append(cdf[-1] + left + right)  # trapezoid sums, normalised below
    edges = [cdf[round(steps * i / n)] / cdf[-1] for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(edges, edges[1:], x))


def _child(workload, seed, mode, budget):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--budget", repr(budget)]
    env = dict(os.environ, **CHILD_ENV)
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=budget + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} {mode} process ran past {budget + CHILD_GRACE_S:.0f} s")
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode} process exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _totals(reports):
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    messages = [m for r in reports for m in r["messages"]]
    for m in messages[:10]:
        print(f"  check: {m}", file=sys.stderr)
    return {"correct": all(r["wrong"] == 0 for r in reports), "attempted": attempted,
            "failed": min(failed, attempted)}


def measure(workload, seed, seconds):
    reports, spent, last = [], 0.0, 0.0
    while len(reports) < MIN_PROCS or (len(reports) < MAX_PROCS and spent + last <= seconds):
        reports.append(_child(workload, seed, "measure", seconds / MAX_PROCS))
        last = reports[-1]["measured_s"]
        spent += last
    raw = _time_metrics(reports, None)
    values = _time_metrics(reports, REFERENCE_UNIT_S)
    values["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in reports)
    result = _totals(reports)
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["raw"] = dict(raw, unit_ms=1e3 * statistics.median(u for r in reports for u in r["op_unit_s"]))
    return result


def _time_metrics(reports, unit_s):
    """setup_s, wall_s and op_p50_s at the speed where a calibration unit
    takes unit_s seconds, or as measured when unit_s is None."""
    setups, rounds, ops = [], [], []
    for r in reports:
        if unit_s is None:
            setups.append(r["setup_s"])
            scaled = r["op_s"]
        else:
            setups.append(r["setup_s"] * unit_s / r["setup_unit_s"])
            scaled = [t * unit_s / u for t, u in zip(r["op_s"], r["op_unit_s"])]
        per_round = len(scaled) // len(r["round_s"])
        rounds += [sum(scaled[i:i + per_round]) for i in range(0, len(scaled), per_round)]
        ops += scaled
    return {"setup_s": statistics.median(setups), "wall_s": statistics.median(rounds),
            "op_p50_s": harrell_davis_median(ops)}


def trace(workload, seed, seconds):
    import tracing

    budget = seconds / TRACE_PROCS
    reports = [_child(workload, seed, "trace", budget) for _ in range(TRACE_PROCS)]
    layers = [snap for r in reports for snap in r["layers"]]
    metrics = {}
    for name in tracing.METRICS:
        kind = name.split(".", 1)[1]
        metrics[name] = {"value": statistics.median(snap[name] for snap in layers),
                         "unit": LAYER_UNITS.get(kind, "s")}
    traced = statistics.median(s for r in reports for s in r["traced_round_s"])
    untraced = statistics.median(s for r in reports for s in r["untraced_round_s"])
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    result = _totals(reports)
    result["metrics"] = metrics
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "helixtm" / "__init__.py").is_file():
        print(f"perfbench: no helixtm sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    run = trace if args.trace else measure
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run(name, args.seed, args.seconds) for name in names}
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        figures = ", ".join(f"{k} = {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        raw = result.pop("raw", None)
        if raw:
            figures += " (as measured: " + ", ".join(
                f"{k} = {v:.6g}" for k, v in raw.items()) + ")"
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}: {figures}")
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
