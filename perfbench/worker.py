"""One workload process: import orbitstat, run a command list, report.

run.py starts this script once per pass, with the repository's `src` on
PYTHONPATH, and writes one JSON request to its stdin:

    {"commands": [[argv...], ...], "trace": false, "calibrate": true}

The process prints `ready` once `orbitstat.cli` is imported, which ends the
parent's set-up clock.  It then calls `orbitstat.cli.main(argv)` for each
command in a closed loop, the next after the previous one returned,
capturing stdout and stderr, and finally prints one JSON line: per-command
exit codes, errors, stdout and latencies (raw, and with "calibrate" scaled
to the reference speed of calibration.py), the peak RSS and, with "trace",
the per-layer aggregates of a cProfile run over the loop.

Every exception out of `cli.main` is caught and reported as a failed
command, so one bad command cannot abort the pass.
"""

import contextlib
import io
import json
import resource
import sys
import time

import calibration


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code!r}): {err.getvalue().strip()[-200:]}"
    except Exception as exc:  # noqa: BLE001 - a failed command, counted by the parent
        code = None
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    return code, error, out.getvalue()


def main():
    request = json.load(sys.stdin)
    proto = sys.stdout
    from orbitstat import cli

    proto.write("ready\n")
    proto.flush()
    commands = request["commands"]
    profiler = None
    if request["trace"]:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    codes, errors, stdouts, latencies = [], [], [], []
    # calibrated passes time a calibration slice before the first command and
    # whenever calibration.EVERY_S of commands have run; each command's time
    # is scaled by the mean of the two slices around its stretch
    scaled = []
    slice_before = calibration.slice_s() if request["calibrate"] else None
    stretch = []
    clock = time.perf_counter
    for i, argv in enumerate(commands):
        t0 = clock()
        code, error, text = run_command(cli, argv)
        latencies.append(clock() - t0)
        codes.append(code)
        errors.append(error)
        stdouts.append(text)
        if slice_before is not None:
            stretch.append(latencies[-1])
            if sum(stretch) >= calibration.EVERY_S or i == len(commands) - 1:
                slice_after = calibration.slice_s()
                scale = 2 * calibration.REFERENCE_S / (slice_before + slice_after)
                scaled += [x * scale for x in stretch]
                slice_before, stretch = slice_after, []
    if profiler is not None:
        profiler.disable()
    report = {
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "codes": codes,
        "errors": errors,
        "stdouts": stdouts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if profiler is not None:
        import layers

        report["layers"] = layers.aggregate(profiler.getstats(), sum(latencies))
    proto.write(json.dumps(report) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
