"""Benchmark of the simulator: four closed-loop workloads, every output
checked, one JSON result line.

    python3 simbench/run.py --workload coremark --seed 1 --seconds 25 --trace 0
    python3 simbench/run.py --short [--seed N] [--break CHECK]

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer split (see README.md).  ``--short``
runs one round of every workload, for smoke use; ``--break`` plants one
wrong expected value or result so that a check must fail.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
#: what the first statement of a fresh interpreter times: importing
#: the simulator, as this process does before its set-up
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import workloads\n"
    "print(time.perf_counter() - start)\n")
#: which workload owns each layer group, and the metric prefixes of the
#: group: a traced run takes a group it does not reach from one round
#: of its owner
GROUP_OWNER = {"core": "coremark", "smp": "smp-cluster",
               "service": "service-sweep"}
GROUP_PREFIXES = {"core": ("sim.", "uarch.", "mem."), "smp": ("smp.",),
                  "service": ("service.",)}
END_TO_END_UNITS = {"sim_mips": "MIPS", "setup_s": "s", "peak_rss_mb": "MB",
                    "jobs_per_s": "1/s", "job_p50_ms": "ms"}
PER_LAYER = {
    "asm.assemble_s": "s", "sim.compile_s": "s", "sim.functional_s": "s",
    "sim.emulate_s": "s", "sim.record_s": "s",
    "sim.vector_batched_ops": "count", "sim.vector_fallback_ops": "count",
    "uarch.time_s": "s", "uarch.ns_per_inst": "ns",
    "uarch.instructions": "count", "uarch.cycles": "cycles",
    "uarch.mispredicts": "count", "mem.access_s": "s",
    "mem.access_calls": "count", "mem.l1d_misses": "count",
    "mem.l2_misses": "count", "mem.prefetch_useful_ratio": "ratio",
    "smp.functional_s": "s", "smp.timing_s": "s", "smp.trace_peak_mb": "MB",
    "smp.sharing_invalidations": "count", "smp.makespan_cycles": "cycles",
    "service.batch_s": "s", "service.workers_launched": "count",
    "service.cache_hits": "count", "service.overhead_ms_per_job": "ms",
    "service.vet_s": "s", "service.admit_s": "s", "service.retries": "count",
    "service.fallbacks": "count", "trace.overhead_ratio": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one round of every workload, then exit")
    parser.add_argument("--break", dest="broken", choices=workloads.BREAKS,
                        help="plant a fault that one check must catch")
    args = parser.parse_args(argv)
    if not args.short and args.workload is None:
        parser.error("--workload is required unless --short is given")
    return args


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Run:
    """One benchmark process: isolated caches, set-up, timed rounds."""

    def __init__(self, scratch: str, seed: int, broken: str | None) -> None:
        self.scratch = scratch
        self.seed = seed
        self.broken = broken
        self.caches = 0

    def fresh_code_cache(self) -> None:
        """Point the tier-3 code cache at an empty directory of its own."""
        self.caches += 1
        os.environ["REPRO_CODE_CACHE_DIR"] = os.path.join(
            self.scratch, f"code-{self.caches}")

    def set_up(self, name: str, repeats: int) -> tuple[Any, list[dict]]:
        """Build the workload *repeats* times from scratch, each into an
        empty code cache; the last one is kept."""
        bench, timings = None, []
        for _ in range(repeats):
            self.fresh_code_cache()
            start = time.perf_counter()
            bench = workloads.make(name, self.seed, self.broken)
            layer_times = bench.setup()
            layer_times["setup_s"] = time.perf_counter() - start
            timings.append(layer_times)
        return bench, timings


def run_rounds(bench: Any, seconds: float, traced: bool,
               layers: Any) -> list[Any]:
    """Closed loop: whole rounds until *seconds* have passed (at least
    one round)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(bench.traced_round(layers) if traced
                      else bench.round())
    return rounds


def end_to_end(rounds: list[Any], jobs: int, setup_s: float) -> dict:
    wall = statistics.median(r.wall_s for r in rounds)
    instructions = rounds[0].instructions
    return {
        "sim_mips": instructions / wall / 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": jobs / wall,
        "job_p50_ms": statistics.median(
            statistics.median(r.jobs_s) for r in rounds) * 1e3,
    }


def import_seconds() -> float:
    """Median time to import the simulator in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src"),
             HERE], capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def measure(run: Run, name: str, seconds: float) -> tuple[dict, int]:
    import_s = import_seconds()
    bench, timings = run.set_up(name, SETUP_REPEATS)
    setup_s = import_s + statistics.median(t["setup_s"] for t in timings)
    rounds = run_rounds(bench, seconds, False, None)
    bench.finish()
    walls = [r.wall_s for r in rounds]
    if len(walls) > 1:
        low, mid, high = statistics.quantiles(walls, n=4)
        print(f"{name}: {len(walls)} rounds, round seconds median "
              f"{mid:.3f}, quartiles {low:.3f}-{high:.3f}")
    metrics = end_to_end(rounds, bench.jobs_per_round, setup_s)
    return metrics, len(rounds) * bench.jobs_per_round


def layer_split(run: Run, name: str, seconds: float) -> tuple[dict, int]:
    """The traced run: untraced rounds, then traced rounds, then one
    traced round of each workload owning a layer group *name* does not
    reach."""
    bench, timings = run.set_up(name, SETUP_REPEATS)
    layers = workloads.Layers()
    for key in ("asm.assemble_s", "sim.compile_s"):
        if key in timings[0]:
            layers.add(key, statistics.median(t[key] for t in timings))
    plain = run_rounds(bench, seconds / 2, False, None)
    traced = run_rounds(bench, seconds / 2, True, layers)
    bench.finish()
    attempted = (len(plain) + len(traced)) * bench.jobs_per_round
    mips = [plain[0].instructions / statistics.median(r.wall_s for r in rs)
            for rs in (plain, traced)]
    for group in sorted(GROUP_OWNER):
        if group in bench.groups:
            continue
        owner, owner_timings = run.set_up(GROUP_OWNER[group], 1)
        owner_layers = workloads.Layers()
        for key, value in owner_timings[0].items():
            owner_layers.add(key, value)
        run_rounds(owner, 0, False, None)
        run_rounds(owner, 0, True, owner_layers)
        owner.finish()
        attempted += 2 * owner.jobs_per_round
        for key, values in owner_layers.samples.items():
            if key.startswith(GROUP_PREFIXES[group]) and key not in layers:
                layers.samples[key] = values
    if name in ("coremark", "memvec"):
        wall = layers.median("traced_wall_s")
        covered = layers.median("layer_self_s")
        if abs(wall - covered) > 0.1 * wall:
            raise workloads.CheckFailed(
                name, "layer-coverage",
                f"layer self times {covered:.3f}s cover less than 90% of "
                f"the traced wall time {wall:.3f}s")
    metrics = {key: layers.median(key) for key in PER_LAYER
               if key != "trace.overhead_ratio"}
    metrics["trace.overhead_ratio"] = mips[0] / mips[1] - 1
    return metrics, attempted


def short(run: Run) -> int:
    for name in workloads.WORKLOADS:
        bench, _timings = run.set_up(name, 1)
        rounds = run_rounds(bench, 0, False, None)
        bench.finish()
        print(f"{name}: {bench.jobs_per_round} operations checked, "
              f"{rounds[0].instructions} instructions in "
              f"{rounds[0].wall_s:.2f}s")
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    scratch = tempfile.mkdtemp(prefix=".simbench-", dir=ROOT)
    os.environ["REPRO_EXPLORE_CACHE_DIR"] = os.path.join(scratch, "explore")
    run = Run(scratch, args.seed, args.broken)
    try:
        if args.short:
            return short(run)
        if args.trace:
            metrics, attempted = layer_split(run, args.workload,
                                             args.seconds)
            units = PER_LAYER
        else:
            metrics, attempted = measure(run, args.workload, args.seconds)
            units = END_TO_END_UNITS
    except workloads.CheckFailed as failure:
        print(f"simbench: FAILED {failure}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for key, value in metrics.items():
        print(f"{args.workload}: {key} = {value:.6g} {units[key]}")
    print(f"{args.workload}: {attempted} operations attempted, 0 failed")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()}}))
    return 0


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads  # imports repro
    except ImportError as exc:
        print(f"simbench: cannot import the simulator from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        sys.exit(2)
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main(sys.argv[1:]))
