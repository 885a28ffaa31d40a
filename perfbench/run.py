"""Benchmark of the reproduction: four workloads, end to end and per layer.

Run every workload, each in a fresh process, and print its end-to-end
metrics with their units (exits non-zero if any correctness check fails)::

    python3 perfbench/run.py

Run one workload; the last line of standard output is the JSON result::

    python3 perfbench/run.py --workload service-soak --seed 3 --seconds 15 --trace 0

``--trace 1`` reports the per-layer metrics of a traced run instead.  The
workloads, metrics and what each per-layer metric should move are described
in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The benchmark's modules that import NumPy or repro (workloads, tracing,
# calibration) are imported inside functions: the set-up clock starts before
# the first of them, and the thread pinning in main() must come first.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("openloop-eval", "closedloop-sweep", "service-soak", "consensus-churn")

#: End-to-end metric -> unit.
END_TO_END = {
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Seconds between calibration-kernel runs inside a repetition.
SPEED_SAMPLE_S = 0.5

#: Fresh processes that repeat the set-up, next to the run's own.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(Exception):
    """The package under test cannot be imported from this checkout."""


def set_up(name: str, seed: int, trace: bool = False):
    """Import ``repro`` and build the workload's long-lived objects.

    Returns ``(workload, setup, tracer)``: ``setup`` holds the import and
    build seconds (the clock starts before ``import repro``) and the machine
    speed measured right after.  With ``trace`` the build already runs
    under the tracer (the policy solves happen there).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SetupError(f"cannot import repro from {SRC}: {error}") from error
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"repro was imported from {repro.__file__}, not from {SRC}")
    import workloads

    imported = time.perf_counter()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name](seed)
    built = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    import calibration

    setup = {
        "import_s": imported - start,
        "build_s": built - imported,
        "speed": calibration.machine_speed(),
    }
    return workload, setup, tracer


def repetition_count(workload, seconds: int) -> int:
    """A fixed count per run: about ``seconds`` of work on the reference VM."""
    return max(workload.MIN_REPS, round(seconds / workload.NOMINAL_REP_S))


def run_reps(workload, count: int, tracer=None, first: int = 0) -> list:
    """``count`` timed repetitions, each checked outside its timed window.

    The calibration kernel runs just before and just after each one, and
    every :data:`SPEED_SAMPLE_S` seconds during it; the mean of the speeds,
    to the workload's ``SPEED_EXPONENT``, is the repetition's machine speed.
    """
    import calibration

    reps = []
    for index in range(first, first + count):
        gc.collect()
        before = calibration.machine_speed()
        if tracer is not None:
            tracer.rep = index
        with calibration.SpeedSampler(SPEED_SAMPLE_S) as sampler:
            rep = workload.repetition()
        if tracer is not None:
            tracer.rep = tracer.CHECKING
        speeds = [before, *sampler.speeds, calibration.machine_speed()]
        rep.speed = statistics.fmean(speeds) ** workload.SPEED_EXPONENT
        workload.check(rep)
        rep.outputs = None
        reps.append(rep)
    return reps


def run_traced(workload, count: int, tracer) -> tuple[list, list]:
    """Untraced and traced repetitions, alternating so both see the same
    machine; returns ``(untraced, traced)``."""
    plain_encode = getattr(workload, "encode_response", None)
    untraced, traced = [], []
    for index in range(count):
        untraced += run_reps(workload, 1)
        tracer.install()
        if plain_encode is not None:
            workload.encode_response = tracer.traced("serve.encode", plain_encode)
        try:
            traced += run_reps(workload, 1, tracer, first=index)
        finally:
            tracer.uninstall()
            if plain_encode is not None:
                workload.encode_response = plain_encode
    return untraced, traced


def probe_setups(name: str, seed: int) -> list[dict]:
    """The set-ups of :data:`SETUP_PROBES` fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    return [
        json.loads(
            subprocess.run(
                command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
            ).stdout.strip().splitlines()[-1]
        )
        for _ in range(SETUP_PROBES)
    ]


def run_one(args) -> int:
    try:
        workload, setup, tracer = set_up(args.workload, args.seed, args.trace == 1)
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        count = repetition_count(workload, args.seconds)
        if workload.WARM_UP:
            gc.collect()
            workload.repetition()
        if tracer is None:
            reps = run_reps(workload, count)
            measured = reps
        else:
            reps, traced = run_traced(workload, count, tracer)
            measured = reps + traced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()

    if tracer is not None:
        import tracing

        metrics = tracing.layer_metrics(
            tracer,
            traced,
            reps,
            setup,
            getattr(workload, "cache_counts", {}),
        )
        units = dict(tracing.LAYER_METRICS)
        trace_file = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(
            trace_file,
            {"workload": args.workload, "seed": args.seed, "repetitions": count,
             "span": ["name", "start_ns", "end_ns", "parent", "rep"]},
        )
        print(f"# {len(tracer.spans)} spans written to {trace_file.relative_to(HERE.parent)}")
    else:
        setups = [setup] + probe_setups(args.workload, args.seed)
        metrics = {
            "throughput_per_s": statistics.median(r.rate for r in reps),
            "setup_s": statistics.median(
                (s["import_s"] + s["build_s"]) * s["speed"] for s in setups
            ),
            "peak_rss_mb": peak_rss_mb,
        }
        print("# unscaled: throughput_per_s "
              f"{statistics.median(r.work / r.seconds for r in reps):.6g}, machine speed "
              + " ".join(f"{r.speed:.2f}" for r in reps))
        units = END_TO_END
        print(f"# unscaled set-up seconds of {len(setups)} processes: "
              + ", ".join(f"{s['import_s'] + s['build_s']:.3f}" for s in setups))
    print(f"# {args.workload}: {count} repetitions, "
          f"{sum(r.seconds for r in reps):.2f} s measured")
    for message in workload.errors:
        print(f"# check failed: {message}")
    correct = not workload.errors
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a table of the metrics they print."""
    status = 0
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if completed.returncode != 0 or result is None or not result["correct"]:
            status = 1
            print(f"{name}: FAILED (exit {completed.returncode})")
            print("\n".join(lines[-10:]))
            continue
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15,
                        help="sets the repetition count (about this long on the reference VM)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # One BLAS/OpenMP thread, set before anything imports NumPy.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
