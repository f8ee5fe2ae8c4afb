"""Repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload contended-2k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (cProfile folded by ``src/repro/<layer>/``, outside-in probes
and program counters).  The metric names and units are the ones
declared in ``BENCHMARK.json``; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: the metrics declared in ``BENCHMARK.json``: name -> unit.  Per-layer
#: ``*.self_s`` and counts are per unit of the workload (cell, round or block).
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}

#: fresh-process set-ups timed before and after the timed phase;
#: ``setup_s`` is the median of all of them
SETUP_REPEATS = (3, 4)
#: share of a traced run spent untraced, as the overhead reference
REFERENCE_SHARE = 1 / 3


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'repro'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)


# ---------------------------------------------------------------------------
# statistics and the environment stamp
# ---------------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (``q`` in [0, 100]) as a sample value.

    The lower nearest rank, ``sorted(values)[floor((n - 1) q / 100)]``:
    with the few samples of a cell workload, interpolating towards the
    maximum would make p90 the noisiest sample of the run.
    """
    ordered = sorted(values)
    return ordered[int((len(ordered) - 1) * q / 100)]


def describe(samples: List[float]) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    if not samples:
        return {"n": 0}
    return {
        "n": len(samples),
        "q1": percentile(samples, 25),
        "median": percentile(samples, 50),
        "q3": percentile(samples, 75),
    }


def git_head() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_head": git_head(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def host_loop_s() -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed now.

    The stamp records it before and after the timed phase, so that a
    host slowing down during a run can be told apart from a regression.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def setup_replicas(name: str, seed: int, count: int) -> List[float]:
    """Time ``count`` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up replica failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(scenario, setup_samples: List[float], rss_mb: float) -> Dict[str, tuple]:
    """``name -> (value, samples)`` for every end-to-end metric."""
    timed = scenario.end_to_end("timed")
    latencies_ms = [1e3 * s for s in timed["latencies"]]
    ledger = scenario.ledger
    return {
        "setup_s": (statistics.median(setup_samples), setup_samples),
        "cell_wall_s": (statistics.median(timed["cell_walls"]), timed["cell_walls"]),
        "cells_per_s": (statistics.median(timed["rates"]), timed["rates"]),
        "req_p50_ms": (percentile(latencies_ms, 50), latencies_ms),
        "req_p90_ms": (percentile(latencies_ms, 90), latencies_ms),
        "peak_rss_mb": (rss_mb, [rss_mb]),
        "success_ratio": (
            1 - ledger.failed / max(ledger.attempted, 1),
            [1.0] * (ledger.attempted - ledger.failed) + [0.0] * ledger.failed,
        ),
    }


def per_layer(scenario, layers: Dict[str, float], traced_units: int,
              overhead: float, extra: Dict[str, float]) -> Dict[str, tuple]:
    """``name -> (value, samples)`` for every per-layer metric."""
    values = {name: 0.0 for name in PER_LAYER}
    for layer, seconds in layers.items():
        key = "trace.unattributed_s" if layer == "unattributed" else (
            "trace.wait_s" if layer == "wait" else f"{layer}.self_s")
        if key in values:
            values[key] = seconds / traced_units
    values.update(scenario.layer_counts())
    values.update(extra)
    values["trace.overhead_ratio"] = overhead
    return {name: (value, [value]) for name, value in values.items()}


def checked(scenario) -> None:
    """Run the workload's checks; a check that crashes is a failed check."""
    try:
        scenario.check()
    except Exception as error:
        scenario.ledger.fail(f"check crashed: {type(error).__name__}: {error}")


def run_workload(name: str, args, work_dir: str, first: bool) -> dict:
    """Set up, measure, check and close one workload; returns its report.

    ``first`` is whether it is the process's first workload, whose
    set-up includes the interpreter's imports.
    """
    import scenarios
    from tracing import Profiles, Spans, fold

    spans = Spans()
    scenario = scenarios.make(name, args.seed, spans, work_dir)
    setup_start = time.perf_counter()
    setup_samples: List[float] = []
    try:
        scenario.setup()
        own_setup = time.perf_counter() - (START if first else setup_start)
        if not args.trace:
            setup_samples += setup_replicas(name, args.seed, SETUP_REPEATS[0])
        host_loop = [host_loop_s()]
        if not args.trace:
            _elapsed, walls = scenario.measure(args.seconds, "timed")
        else:
            ref_elapsed, ref_walls = scenario.measure(args.seconds * REFERENCE_SHARE, "ref")
            profiles = Profiles()
            profiles.start()
            try:
                _elapsed, walls = scenario.measure(
                    max(args.seconds - ref_elapsed, 0.0), "traced")
            finally:
                stats = profiles.stop()
        host_loop.append(host_loop_s())
        checked(scenario)
        rss_mb = scenario.peak_rss_mb()
        if args.trace:
            extra = scenario.probe()
    finally:
        scenario.close()

    if args.trace:
        layers = fold(stats, str(SRC / "repro"), str(BENCH_DIR))
        overhead = statistics.median(walls) / statistics.median(ref_walls)
        metrics = per_layer(scenario, layers, len(walls), overhead, extra)
    else:
        setup_samples += setup_replicas(name, args.seed, SETUP_REPEATS[1])
        metrics = end_to_end(scenario, setup_samples, rss_mb)
    return {
        "workload": name,
        "unit": scenario.unit,
        "units": len(walls),
        "own_setup_s": own_setup,
        "host_loop_s": host_loop,
        "metrics": metrics,
        "ledger": scenario.ledger,
        "spans": spans.summary(),
    }


def print_report(report: dict, units: Dict[str, str]) -> None:
    ledger = report["ledger"]
    print(f"== {report['workload']}: {report['units']} {report['unit']}(s) measured, "
          f"set-up in this process {report['own_setup_s']:.3f} s")
    for name, (value, samples) in report["metrics"].items():
        stats = describe(samples)
        spread = "" if stats["n"] < 2 else (
            f"  (n={stats['n']}, q1={stats['q1']:.6g}, median={stats['median']:.6g}, "
            f"q3={stats['q3']:.6g})")
        print(f"  {name:<28} {value:<14.6g} {units[name]}{spread}")
    if units is END_TO_END:
        rate = ledger.failed / max(ledger.attempted, 1)
        print(f"  {'error_rate':<28} {rate:<14.6g} fraction  "
              f"({ledger.failed} of {ledger.attempted} calls and checks)")
    for span_name, (count, total) in sorted(report["spans"].items()):
        print(f"  span {span_name:<23} {count} calls, {total:.4f} s")
    for problem in ledger.problems[:20]:
        print(f"  FAIL {problem}")


def make_work_dir(kind: str) -> Path:
    """A fresh scratch directory under ``.perfbench_work/`` in the checkout."""
    work_dir = ROOT / ".perfbench_work" / f"{kind}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    return work_dir


def remove_work_dir(work_dir: Path) -> None:
    """Delete ``work_dir``, and ``.perfbench_work/`` once it is empty."""
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        work_dir.parent.rmdir()
    except OSError:
        pass  # a parent run's directory is still in it


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="contended-2k, cohort-10k, figure-sweep, service-mix or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)

    bootstrap()
    sys.path.insert(0, str(BENCH_DIR))
    import scenarios

    names = scenarios.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in scenarios.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: {', '.join(scenarios.WORKLOADS)} or all")

    if args.setup_only:
        from tracing import Spans

        work_dir = make_work_dir("setup")
        scenario = scenarios.make(names[0], args.seed, Spans(), str(work_dir))
        try:
            scenario.setup()
            print(json.dumps({"setup_s": time.perf_counter() - START}))
        finally:
            scenario.close()
            remove_work_dir(work_dir)
        return 0

    work_dir = make_work_dir("run")
    units = PER_LAYER if args.trace else END_TO_END
    reports = []
    try:
        for index, name in enumerate(names):
            reports.append(run_workload(name, args, str(work_dir), first=index == 0))
            print_report(reports[-1], units)
    finally:
        remove_work_dir(work_dir)

    stamp = environment(args)
    stamp["host_loop_s"] = {r["workload"]: r["host_loop_s"] for r in reports}
    stamp["metrics"] = {
        f"{r['workload']}/{name}": describe(samples)
        for r in reports for name, (_value, samples) in r["metrics"].items()
    }
    print("# stamp " + json.dumps(stamp, sort_keys=True))

    prefix = len(reports) > 1
    attempted = sum(r["ledger"].attempted for r in reports)
    failed = sum(r["ledger"].failed for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): {"value": value, "unit": units[name]}
            for r in reports for name, (value, _samples) in r["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
