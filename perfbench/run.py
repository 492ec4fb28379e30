"""orbitstat benchmark harness (standard library only).

    python3 perfbench/run.py --workload routes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare

Run from the root of a checkout.  A run generates one pass of the workload
from the seed (perfbench/workloads.py), then starts fresh workload processes
(perfbench/worker.py), one after another, each running the whole pass once
with cold caches, until --seconds have gone by and at least MIN_PASSES
passes (and, on routes, 1000 commands) have run.  Before each pass, two
processes that only import orbitstat sample the set-up time.

--trace 0 reports the end-to-end metrics, medians over the run:

    wall_s       sum of the pass's command latencies (first command sent to
                 last returned, less the calibration slices between them)
    setup_s      process spawn until orbitstat.cli is imported and ready
    req_p50_ms   median latency of one command in a pass
    req_p99_ms   99th-percentile latency of one command in a pass; a routes
                 run has at least 1000 commands, 240 per pass, while on the
                 other workloads, with fewer commands, it is close to the
                 slowest one
    peak_rss_mb  peak resident memory of a workload process

Times are scaled to the reference speed of perfbench/calibration.py by
calibration slices timed next to them, because the speed of a shared machine
drifts more within minutes than any bound worth having; the raw pass times
are kept in the results file.

--trace 1 runs one pass untraced and the others under cProfile, and reports
per-layer metrics aggregated by orbitstat module (perfbench/layers.py) plus
trace.overhead, the traced wall time over the untraced one.

Every command's output is checked (perfbench/workloads.py); a command fails
if it exits nonzero, raises out of `cli.main`, or fails its check.  Each pass
records a digest of all stdout, and the passes of a run must agree.  Each
run writes perfbench/results/<time>-<workload>-seed<seed>-trace<t>.json with
the Python version, nproc, commit, seed and sample counts; a digest that
differs from an earlier results file of the same workload and seed fails the
run, and the end-to-end deltas against the newest earlier results file of
the workload are printed.  --compare prints those deltas for every workload
without running anything.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

MIN_PASSES = 3
# routes is a stream of short requests: it runs until at least 10 latencies lie
# beyond req_p99_ms.  The other workloads run a few long commands per pass.
MIN_COMMANDS = {"routes": 1000}
SETUP_SAMPLES_PER_PASS = 2
RUN_LIMIT_S = 160  # a run must end well inside the 180 s a caller allows

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The run cannot produce a result."""


def spawn(commands, trace: bool, deadline: float) -> tuple[float, dict]:
    """Run one workload process; return (raw set-up seconds, its report).
    Processes that run commands untraced calibrate their timings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    calibrate = bool(commands) and not trace
    request = json.dumps({"commands": commands, "trace": trace, "calibrate": calibrate})
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        cwd=ROOT,
        env=env,
        text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(request)
        proc.stdin.close()
        first = proc.stdout.readline()
        setup = time.perf_counter() - t_spawn
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    try:
        if first != "ready\n":
            raise ValueError("no ready line")
        report = json.loads(rest.splitlines()[-1])
    except (ValueError, IndexError):
        raise HarnessError(
            f"workload process failed (exit {proc.returncode}):\n{(first + rest)[-2000:]}"
        ) from None
    return setup, report


def setup_sample(deadline: float) -> float:
    """Set-up time of a process that only imports orbitstat, scaled by the
    calibration slices just before and after it."""
    before = calibration.slice_s()
    setup, _ = spawn([], False, deadline)
    return setup * 2 * calibration.REFERENCE_S / (before + calibration.slice_s())


def check_pass(commands, report) -> tuple[int, list[str], str]:
    """(failed commands, first reasons, stdout digest) of one pass."""
    outs = report["stdouts"]
    failed, reasons = 0, []
    for i, cmd in enumerate(commands):
        if report["errors"][i] is not None:
            reason = f"raised {report['errors'][i]}"
        elif report["codes"][i] != 0:
            reason = f"exit code {report['codes'][i]}"
        else:
            try:
                reason = cmd.check(outs, i)
            except (ValueError, KeyError, IndexError) as exc:
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            failed += 1
            if len(reasons) < 10:
                reasons.append(f"{' '.join(cmd.argv)}: {reason}")
    digest = hashlib.sha256("\0".join(outs).encode()).hexdigest()
    return failed, reasons, digest


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setups) -> dict:
    """Medians over the passes of the run, each with its sample count.  The
    latency percentiles are taken within each pass, then the median across
    passes, so one slow stretch of the machine moves them less."""
    latencies = [p["scaled_latencies_s"] for p in passes]
    samples = sum(map(len, latencies))
    return {
        "wall_s": (statistics.median(map(sum, latencies)), len(passes)),
        "setup_s": (statistics.median(setups), len(setups)),
        "req_p50_ms": (1000 * statistics.median(map(statistics.median, latencies)), samples),
        "req_p99_ms": (1000 * statistics.median(percentile(x, 99) for x in latencies), samples),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), len(passes)),
    }


def per_layer(base, traced) -> dict:
    """Per-layer aggregates, each the lower median over the traced passes."""
    out = {}
    for name in traced[0]["layers"]:
        out[name] = (statistics.median_low(p["layers"][name] for p in traced), len(traced))
    traced_wall = statistics.median(sum(p["latencies_s"]) for p in traced)
    out["trace.overhead"] = (traced_wall / sum(base["latencies_s"]), len(traced))
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "trace.accounted"):
        return "ratio"
    return "count"


def commit() -> str:
    """HEAD of the checkout's git directory, if it has one."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = ROOT / ".git" / ref
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def earlier_results(workload: str) -> list[dict]:
    """Results files of the workload, oldest first."""
    out = []
    for path in sorted(RESULTS.glob(f"*-{workload}-seed*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        data["file"] = path.name
        out.append(data)
    return out


def print_deltas(new: dict, old: dict) -> None:
    print(f"  vs {old['file']} (commit {old['commit'][:12]}, seed {old['seed']}):")
    for name in END_TO_END:
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        if a and b:
            change = (b["value"] - a["value"]) / a["value"] if a["value"] else math.nan
            print(f"    {name:12s} {a['value']:12.6g} -> {b['value']:12.6g} {change:+8.1%}")


def compare() -> int:
    for workload in workloads.WORKLOADS:
        runs = [r for r in earlier_results(workload) if r["trace"] == 0]
        if len(runs) < 2:
            print(f"{workload}: fewer than two results files")
            continue
        print(f"{workload}: {runs[-1]['file']}")
        print_deltas(runs[-1], runs[-2])
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "orbitstat" / "cli.py").is_file():
        raise HarnessError(f"no orbitstat sources under {SRC}")
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    generated, info = workloads.WORKLOADS[workload](random.Random(seed))
    commands = [cmd.argv for cmd in generated]
    spawn([], False, deadline)  # compiles bytecode; not measured
    setups, passes, failed, reasons, digests = [], [], 0, [], set()
    if trace:  # one untraced pass for trace.overhead, then traced ones
        min_passes = 2
    else:
        min_passes = max(MIN_PASSES, math.ceil(MIN_COMMANDS.get(workload, 0) / len(commands)))
    end = time.monotonic() + seconds
    while len(passes) < min_passes or time.monotonic() < end:
        if time.monotonic() > deadline:
            raise HarnessError(f"only {len(passes)} passes in {RUN_LIMIT_S} s")
        if not trace:
            setups += [setup_sample(deadline) for _ in range(SETUP_SAMPLES_PER_PASS)]
        report = spawn(commands, trace and len(passes) > 0, deadline)[1]
        passes.append(report)
        bad, why, digest = check_pass(generated, report)
        failed += bad
        reasons += why[: 10 - len(reasons)]
        digests.add(digest)
    attempted = len(commands) * len(passes)
    correct = failed == 0
    if len(digests) > 1:
        correct = False
        reasons.append("stdout differs between passes of one run")
    digest = sorted(digests)[0]
    for old in earlier_results(workload):
        if old["seed"] == seed and old["digest"] != digest:
            correct = False
            reasons.append(f"stdout digest differs from {old['file']} (same seed)")
            break

    if trace:
        values = per_layer(passes[0], passes[1:])
    else:
        values = end_to_end(passes, setups)
    metrics = {name: {"value": v, "unit": unit_of(name)} for name, (v, _) in values.items()}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "started_utc": started_utc,
        "passes": len(passes),
        "commands_per_pass": len(commands),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": digest,
        "failures": reasons,
        "workload_info": info,
        "metrics": {n: dict(m, samples=values[n][1]) for n, m in metrics.items()},
        "passes_raw_wall_s": [sum(p["latencies_s"]) for p in passes],
    }
    if not trace:
        record["passes_scaled_wall_s"] = [sum(p["scaled_latencies_s"]) for p in passes]
    previous = [r for r in earlier_results(workload) if r["trace"] == int(trace)]
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"{time.time() % 1:.6f}"[1:]
    path = RESULTS / f"{stamp}-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{workload} seed={seed} passes={len(passes)} commands={attempted} "
          f"failed={failed} digest={digest[:16]} ({time.monotonic() - started:.1f} s)")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for reason in reasons:
        print(f"  FAIL {reason}")
    if previous:
        print_deltas(record, previous[-1])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", action="store_true",
                    help="print end-to-end deltas between the two newest results per workload")
    args = ap.parse_args()
    if args.compare:
        return compare()
    if args.workload is None:
        ap.error("--workload is required unless --compare is given")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
