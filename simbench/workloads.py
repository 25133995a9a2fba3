"""The four benchmark workloads: inputs, one closed-loop round, checks.

Each workload class has the same shape:

* ``setup()`` builds the inputs from the seed, assembles them, resolves
  the core configuration and fills the tier-3 code cache; it returns
  the set-up layer times.
* ``round()`` runs one round of operations untraced and checks every
  output; ``traced_round(layers)`` runs the same round with the layer
  wrappers installed and adds per-layer values to *layers*.
* ``finish()`` runs the checks that need an independent computation of
  the program's results; it is called once, after the timed rounds.

A failed check raises :class:`CheckFailed`, naming workload and check.
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis import lint_program
from repro.asm import assemble
from repro.harness.explore import DEPTHS, depth_point
from repro.harness.runner import RunResult, run_on_core
from repro.service import JobService
from repro.service.job import JobSpec, JobState
from repro.sim.emulator import Emulator
from repro.smp.runner import SmpMachine
from repro.smp.timing import run_smp_timing
from repro.uarch import uconfig
from repro.uarch.config import CoreConfig
from repro.uarch.presets import xt910
from repro.workloads import (
    Workload,
    coremark_suite,
    specint_workload,
    stream_kernel,
)
from repro.workloads.vector import (
    scalar_mac16,
    vec_axpy_f32,
    vec_axpy_f64,
    vec_fp16_axpy,
    vec_gather,
    vec_mac16,
    vec_memcpy,
    vec_stencil32,
    vec_strcmp,
)

from layers import (
    CoreTrace,
    capture_emulators,
    capture_smp_machines,
    timed_hierarchy,
    traced_core,
)

perf = time.perf_counter
MASK64 = (1 << 64) - 1
#: faults a self-test can plant, each caught by one named check
BREAKS = ("checksum", "smp-sum", "service-field")


class CheckFailed(Exception):
    """An output of the program under test is wrong."""

    def __init__(self, workload: str, check: str, detail: str) -> None:
        super().__init__(f"{workload}: check {check} failed: {detail}")
        self.workload = workload
        self.check = check


@dataclass
class Round:
    """One round of closed-loop operations (host seconds)."""

    wall_s: float
    jobs_s: list[float]
    instructions: int


@dataclass
class Layers:
    """Per-layer values gathered over traced rounds: one sample per
    round for times, the last value for simulated counts."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def __contains__(self, name: str) -> bool:
        return name in self.samples


def _mispredicts(stats: Any) -> int:
    return (stats.direction_mispredicts + stats.target_mispredicts
            + stats.ras_mispredicts + stats.indirect_mispredicts)


def _cold_compile(programs: list[Any]) -> float:
    """Run each program functionally at tier 3 into an empty code cache;
    returns the seconds spent compiling blocks."""
    compile_s = 0.0
    for program in programs:
        emulator = Emulator(program)
        emulator.run(tier=3)
        compile_s += emulator.counters()["codegen_compile_s"]
    return compile_s


class _Kernel:
    """One program of a core workload with its expected result word."""

    def __init__(self, workload: Workload, expected: int) -> None:
        self.name = workload.name
        self.program = workload.program()
        self.address = self.program.symbol(workload.result_symbol)
        self.expected = expected
        self.comparable: dict[str, int] | None = None


def trace_core_runs(items: list[tuple[Any, CoreConfig]],
                    layers: Layers,
                    check: Callable[[int, RunResult, Emulator], None]
                    ) -> Round:
    """Run each (program, core) through ``run_on_core`` with the layer
    wrappers installed, then once more functionally; add one sample of
    every single-core layer metric to *layers*."""
    trace = CoreTrace()
    sink: list[Emulator] = []
    counts = dict.fromkeys(
        ("instructions", "cycles", "mispredicts", "vector_batched",
         "vector_fallback", "l1d_misses", "l2_misses", "prefetch_hits",
         "prefetch_issued"), 0)
    with traced_core(trace, sink):
        for index, (program, core) in enumerate(items):
            hierarchy = timed_hierarchy(core, trace)
            start = perf()
            run = run_on_core(program, core, hierarchy=hierarchy, tier=3)
            trace.wall_s += perf() - start
            check(index, run, sink.pop())
            stats = run.stats
            hier = run.pipeline.hier
            counts["instructions"] += stats.instructions
            counts["cycles"] += stats.cycles
            counts["mispredicts"] += _mispredicts(stats)
            counts["vector_batched"] += stats.extra.get(
                "vector_batched_ops", 0)
            counts["vector_fallback"] += stats.extra.get(
                "vector_fallback_ops", 0)
            counts["l1d_misses"] += hier.l1d.stats.misses
            counts["l2_misses"] += hier.l2.stats.misses
            counts["prefetch_hits"] += hier.l1d.stats.prefetch_hits
            counts["prefetch_issued"] += hier.l1_prefetcher.stats.issued
    for program, _core in items:
        emulator = Emulator(program)
        start = perf()
        emulator.run(tier=3)
        trace.functional_s += perf() - start
    layers.add("traced_wall_s", trace.wall_s)
    layers.add("sim.functional_s", trace.functional_s)
    layers.add("sim.emulate_s", trace.emulate_s)
    layers.add("sim.record_s", trace.emulate_s - trace.functional_s)
    layers.add("uarch.time_s", trace.uarch_s)
    layers.add("uarch.ns_per_inst",
               trace.uarch_s / counts["instructions"] * 1e9)
    layers.add("mem.access_s", trace.mem_s)
    layers.add("mem.access_calls", trace.mem_calls)
    layers.add("layer_self_s", trace.pipeline_s)
    layers.add("sim.vector_batched_ops", counts["vector_batched"])
    layers.add("sim.vector_fallback_ops", counts["vector_fallback"])
    layers.add("uarch.instructions", counts["instructions"])
    layers.add("uarch.cycles", counts["cycles"])
    layers.add("uarch.mispredicts", counts["mispredicts"])
    layers.add("mem.l1d_misses", counts["l1d_misses"])
    layers.add("mem.l2_misses", counts["l2_misses"])
    layers.add("mem.prefetch_useful_ratio",
               counts["prefetch_hits"] / counts["prefetch_issued"]
               if counts["prefetch_issued"] else 0.0)
    return Round(trace.wall_s, [], counts["instructions"])


# -- coremark and memvec ------------------------------------------------------


def memvec_programs() -> list[Workload]:
    """Streams, a pointer chase/scan larger than the 256 KiB L2, and the
    vector suite with four times its default passes."""
    return [
        stream_kernel("copy", elems=3072),
        stream_kernel("triad", elems=3072),
        specint_workload(chase_nodes=6144, scan_elems=4096,
                         chase_steps=6144, scan_passes=1, hash_ops=1000),
        vec_mac16(unroll_passes=16), scalar_mac16(unroll_passes=16),
        vec_fp16_axpy(passes=128), vec_axpy_f32(passes=128),
        vec_axpy_f64(passes=128), vec_stencil32(passes=128),
        vec_gather(passes=128), vec_memcpy(passes=128),
        vec_strcmp(passes=128),
    ]


class CoreBench:
    """Single-core programs through ``run_on_core`` at tier 3."""

    groups = frozenset({"core"})

    def __init__(self, name: str, programs: Callable[[], list[Workload]],
                 core: Callable[[], CoreConfig], seed: int,
                 broken: str | None) -> None:
        self.name = name
        self._programs = programs
        self._core = core
        self.seed = seed
        self.broken = broken
        self.kernels: list[_Kernel] = []
        self.core: CoreConfig | None = None

    def setup(self) -> dict[str, float]:
        workloads = self._programs()
        assemble_s = 0.0
        for workload in workloads:
            start = perf()
            workload.program()
            assemble_s += perf() - start
        self.core = self._core()
        self.kernels = [_Kernel(w, w.reference()) for w in workloads]
        if self.broken == "checksum":
            self.kernels[0].expected ^= 1
        compile_s = _cold_compile([k.program for k in self.kernels])
        return {"asm.assemble_s": assemble_s, "sim.compile_s": compile_s}

    @property
    def jobs_per_round(self) -> int:
        return len(self.kernels)

    def _check(self, kernel: _Kernel, run: RunResult,
               emulator: Emulator) -> None:
        stats = run.stats
        if run.exit_code != 0:
            raise CheckFailed(self.name, "exit-code",
                              f"{kernel.name} exited {run.exit_code}")
        word = emulator.state.memory.load_int(kernel.address, 8)
        if word != kernel.expected:
            raise CheckFailed(
                self.name, "result-word",
                f"{kernel.name}: {word:#x} != reference "
                f"{kernel.expected:#x}")
        assert self.core is not None
        if stats.cycles * self.core.retire_width < stats.instructions:
            raise CheckFailed(
                self.name, "cycles-bound",
                f"{kernel.name}: {stats.cycles} cycles for "
                f"{stats.instructions} instructions at retire width "
                f"{self.core.retire_width}")
        comparable = stats.as_comparable()
        if kernel.comparable is None:
            kernel.comparable = comparable
        elif comparable != kernel.comparable:
            raise CheckFailed(self.name, "repeatable-stats",
                              f"{kernel.name}: CoreStats differ from "
                              f"the first run")

    def round(self) -> Round:
        sink: list[Emulator] = []
        jobs: list[float] = []
        instructions = 0
        with capture_emulators(sink):
            for kernel in self.kernels:
                start = perf()
                run = run_on_core(kernel.program, self.core, tier=3)
                jobs.append(perf() - start)
                self._check(kernel, run, sink.pop())
                instructions += run.stats.instructions
        return Round(sum(jobs), jobs, instructions)

    def traced_round(self, layers: Layers) -> Round:
        return trace_core_runs(
            [(k.program, self.core) for k in self.kernels], layers,
            lambda index, run, emu: self._check(self.kernels[index],
                                                run, emu))

    def finish(self) -> None:
        """Every round already checked its result words."""


def core_config(l2_kb: int = 2048) -> Callable[[], CoreConfig]:
    """Resolve the xt910 preset through the config-document layer."""
    def resolve() -> CoreConfig:
        doc = uconfig.config_to_doc(xt910())
        doc = uconfig.apply_overrides(doc, {"mem.l2_size": l2_kb << 10})
        return uconfig.resolve_core(doc)
    return resolve


# -- smp-cluster --------------------------------------------------------------

SMP_HARTS = 4
SMP_ELEMS = 1024            # per hart
SMP_CHUNK = 16              # elements between amoadd.d reductions


def _dwords(values: list[int]) -> str:
    return "\n".join("    .dword " + ", ".join(map(str, values[i:i + 8]))
                     for i in range(0, len(values), 8))


def smp_source(table: list[int], data: list[int]) -> str:
    """Each hart folds its slice of *data* through the shared *table*
    and adds partial sums into the shared ``total`` with amoadd.d."""
    return f"""
    .data
    .align 6
total: .dword 0
    .align 6
table:
{_dwords(table)}
    .align 6
data:
{_dwords(data)}
    .text
_start:
    csrr s0, mhartid
    la s1, data
    li t0, {SMP_ELEMS * 8}
    mul t0, s0, t0
    add s1, s1, t0
    la s2, table
    la s3, total
    li s4, {SMP_ELEMS}
    li s5, 0
loop:
    ld t1, 0(s1)
    andi t2, t1, 15
    slli t2, t2, 3
    add t2, s2, t2
    ld t3, 0(t2)
    mul t4, t1, t3
    srli t5, t1, 7
    xor t4, t4, t5
    add s5, s5, t4
    addi s1, s1, 8
    addi s4, s4, -1
    andi t6, s4, {SMP_CHUNK - 1}
    bnez t6, next
    amoadd.d zero, s5, (s3)
    li s5, 0
next:
    bnez s4, loop
    li a0, 0
    li a7, 93
    ecall
"""


def smp_expected(table: list[int], data: list[int]) -> int:
    """The shared reduction, computed apart from the simulator."""
    return sum(((x * table[x & 15]) & MASK64) ^ (x >> 7)
               for x in data) & MASK64


class SmpBench:
    """A seeded 4-hart reduction through ``run_smp_timing``."""

    name = "smp-cluster"
    groups = frozenset({"smp"})
    jobs_per_round = 1

    def __init__(self, seed: int, broken: str | None) -> None:
        self.seed = seed
        self.broken = broken
        self.program: Any = None
        self.core: CoreConfig | None = None
        self.expected = 0
        self.totals: list[int] = []
        self.comparable: list[dict[str, int]] | None = None

    def setup(self) -> dict[str, float]:
        rng = random.Random(self.seed)
        table = [rng.getrandbits(64) for _ in range(16)]
        data = [rng.getrandbits(64) for _ in range(SMP_HARTS * SMP_ELEMS)]
        source = smp_source(table, data)
        start = perf()
        self.program = assemble(source)
        assemble_s = perf() - start
        self.core = core_config()()
        self.expected = smp_expected(table, data)
        if self.broken == "smp-sum":
            self.expected = (self.expected + 1) & MASK64
        self.total_address = self.program.symbol("total")
        return {"asm.assemble_s": assemble_s}

    def _check_sum(self, memory: Any) -> None:
        total = memory.load_int(self.total_address, 8)
        if total != self.expected:
            raise CheckFailed(self.name, "shared-sum",
                              f"{total:#x} != Python sum "
                              f"{self.expected:#x}")

    def _run(self) -> tuple[Any, float]:
        machines: list[SmpMachine] = []
        with capture_smp_machines(machines):
            start = perf()
            result = run_smp_timing(self.program, cores=SMP_HARTS,
                                    config=self.core)
            wall = perf() - start
        if any(code != 0 for code in result.exit_codes):
            raise CheckFailed(self.name, "hart-exit",
                              f"exit codes {result.exit_codes}")
        self._check_sum(machines[-1].memory)
        if result.coherence.sharing_invalidations <= 0:
            raise CheckFailed(self.name, "sharing",
                              "no coherence invalidations")
        comparable = [stats.as_comparable() for stats in result.per_core]
        if self.comparable is None:
            self.comparable = comparable
        elif comparable != self.comparable:
            raise CheckFailed(self.name, "repeatable-stats",
                              "per-core CoreStats differ from the first "
                              "run")
        self.totals.append(result.total_instructions)
        return result, wall

    def round(self) -> Round:
        result, wall = self._run()
        return Round(wall, [wall], result.total_instructions)

    def _functional(self) -> tuple[Any, float]:
        machine = SmpMachine(self.program, cores=SMP_HARTS, interleave=4)
        start = perf()
        result = machine.run()
        return result, perf() - start

    def traced_round(self, layers: Layers) -> Round:
        result, wall = self._run()
        _functional, functional_s = self._functional()
        layers.add("smp.functional_s", functional_s)
        layers.add("smp.timing_s", wall - functional_s)
        layers.add("smp.sharing_invalidations",
                   result.coherence.sharing_invalidations)
        layers.add("smp.makespan_cycles", result.makespan)
        if "smp.trace_peak_mb" not in layers:
            tracemalloc.start()
            try:
                run_smp_timing(self.program, cores=SMP_HARTS,
                               config=self.core)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            layers.add("smp.trace_peak_mb", peak / 2**20)
        return Round(wall, [wall], result.total_instructions)

    def finish(self) -> None:
        result, _seconds = self._functional()
        if not result.all_succeeded:
            raise CheckFailed(self.name, "hart-exit",
                              f"functional exit codes {result.exit_codes}")
        self._check_sum(result.memory)
        steps = sum(result.steps)
        wrong = [total for total in self.totals if total != steps]
        if wrong:
            raise CheckFailed(self.name, "instruction-count",
                              f"timed {wrong[0]} instructions, "
                              f"functional run stepped {steps}")


# -- service-sweep ------------------------------------------------------------

SERVICE_WORKERS = 2
REPEATS_PER_KERNEL = 2


class ServiceBench:
    """One ``JobService`` batch: CoreMark kernels x depth points, with
    seeded repeats placed after their originals."""

    name = "service-sweep"
    groups = frozenset({"service", "core"})

    def __init__(self, seed: int, broken: str | None) -> None:
        self.seed = seed
        self.broken = broken
        self.specs: list[JobSpec] = []
        self.keys: list[tuple[str, int]] = []
        self.originals: dict[tuple[str, int], int] = {}
        self.first: list[dict[str, Any]] | None = None
        self._reference: dict[tuple[str, int], tuple[Any, float]] = {}

    @property
    def jobs_per_round(self) -> int:
        return len(self.specs)

    def setup(self) -> dict[str, float]:
        workloads = coremark_suite()
        assemble_s = 0.0
        for workload in workloads:
            start = perf()
            workload.program()
            assemble_s += perf() - start
        self.programs = {w.name: w.program() for w in workloads}
        base = uconfig.config_to_doc(xt910())
        self.docs = {depth: uconfig.apply_overrides(base, depth_point(depth))
                     for depth in DEPTHS}
        self.cores = {depth: uconfig.resolve_core(doc)
                      for depth, doc in self.docs.items()}
        # Depth-major, like a sweep: every depth point runs all four
        # kernels, so work is spread evenly along the batch and the
        # seeded placement of repeats barely moves the median job.
        specs = {(w.name, depth): JobSpec(source=w.source,
                                          name=f"{w.name}@d{depth}",
                                          uarch=self.docs[depth],
                                          mode="auto")
                 for depth in DEPTHS for w in workloads}
        keys = list(specs)
        rng = random.Random(self.seed)
        for workload in workloads:
            for depth in rng.sample(DEPTHS, REPEATS_PER_KERNEL):
                after = keys.index((workload.name, depth)) + 1
                keys.insert(rng.randint(after, len(keys)),
                            (workload.name, depth))
        self.keys = keys
        self.specs = [specs[key] for key in keys]
        self.originals = {}
        for index, key in enumerate(keys):
            self.originals.setdefault(key, index)
        compile_s = _cold_compile(list(self.programs.values()))
        return {"asm.assemble_s": assemble_s, "sim.compile_s": compile_s}

    def _batch(self) -> tuple[list[Any], float, dict[str, Any]]:
        service = JobService(workers=SERVICE_WORKERS, seed=self.seed)
        start = perf()
        results = service.run(self.specs)
        wall = perf() - start
        if self.broken == "service-field":
            results[0].metrics["cycles"] += 1
        self._check_batch(results)
        return results, wall, service.counters()

    def _check_batch(self, results: list[Any]) -> None:
        for key, result in zip(self.keys, results):
            if result.state is not JobState.COMPLETED or result.downgraded:
                raise CheckFailed(
                    self.name, "job-state",
                    f"{key[0]} at depth {key[1]}: {result.state.value}"
                    f"{' (degraded)' if result.downgraded else ''}")
        for index, key in enumerate(self.keys):
            original = results[self.originals[key]]
            if results[index].metrics != original.metrics:
                raise CheckFailed(
                    self.name, "repeat-metrics",
                    f"{key[0]} at depth {key[1]}: repeat differs from "
                    f"its original")
        cycles: dict[str, list[int]] = {}
        for depth in DEPTHS:
            for name in self.programs:
                index = self.originals[(name, depth)]
                cycles.setdefault(name, []).append(
                    results[index].metrics["cycles"])
        for name, series in cycles.items():
            if any(b < a for a, b in zip(series, series[1:])):
                raise CheckFailed(self.name, "depth-monotone",
                                  f"{name}: cycles {series} fall as "
                                  f"depth rises over {DEPTHS}")
        metrics = [result.metrics for result in results]
        if self.first is None:
            self.first = metrics
        elif metrics != self.first:
            raise CheckFailed(self.name, "repeatable-stats",
                              "batch results differ from the first batch")

    def round(self) -> Round:
        results, wall, _counters = self._batch()
        return Round(wall, [r.duration_s for r in results],
                     sum(r.metrics["instructions"] for r in results))

    def _distinct(self) -> list[tuple[str, int]]:
        return sorted(self.originals, key=self.originals.get)

    def reference(self) -> dict[tuple[str, int], tuple[Any, float]]:
        """In-process ``run_on_core`` of each distinct job, untraced."""
        if not self._reference:
            for key in self._distinct():
                name, depth = key
                start = perf()
                run = run_on_core(self.programs[name], self.cores[depth],
                                  tier=3)
                self._reference[key] = (run.stats, perf() - start)
        return self._reference

    def finish(self) -> None:
        assert self.first is not None
        for key, (stats, _seconds) in self.reference().items():
            metrics = self.first[self.originals[key]]
            if (metrics["instructions"], metrics["cycles"]) != \
                    (stats.instructions, stats.cycles):
                raise CheckFailed(
                    self.name, "in-process-equal",
                    f"{key[0]} at depth {key[1]}: service "
                    f"{metrics['instructions']} instructions/"
                    f"{metrics['cycles']} cycles, in-process "
                    f"{stats.instructions}/{stats.cycles}")

    def traced_round(self, layers: Layers) -> Round:
        results, wall, counters = self._batch()
        layers.add("service.batch_s", wall)
        for name in ("workers_launched", "cache_hits", "retries",
                     "fallbacks"):
            layers.add(f"service.{name}", counters.get(name, 0))
        start = perf()
        for name, program in self.programs.items():
            lint_program(program, name=name)
        layers.add("service.vet_s", perf() - start)
        start = perf()
        for doc in self.docs.values():
            uconfig.validate(doc)
        layers.add("service.admit_s", perf() - start)
        reference = self.reference()
        inprocess_s = sum(reference[key][1] for key in self.keys)
        layers.add("service.overhead_ms_per_job",
                   (wall * SERVICE_WORKERS - inprocess_s)
                   / len(self.keys) * 1e3)
        distinct = self._distinct()

        def check(index: int, run: RunResult, _emulator: Emulator) -> None:
            stats = reference[distinct[index]][0]
            if run.stats.as_comparable() != stats.as_comparable():
                raise CheckFailed(self.name, "traced-equal",
                                  f"{distinct[index]}: traced CoreStats "
                                  f"differ from the untraced run")

        trace_core_runs([(self.programs[name], self.cores[depth])
                         for name, depth in distinct], layers, check)
        return Round(wall, [r.duration_s for r in results],
                     sum(r.metrics["instructions"] for r in results))


WORKLOADS = ("coremark", "memvec", "smp-cluster", "service-sweep")


def make(name: str, seed: int, broken: str | None) -> Any:
    if name == "coremark":
        return CoreBench(name, coremark_suite, core_config(), seed, broken)
    if name == "memvec":
        return CoreBench(name, memvec_programs, core_config(l2_kb=256),
                         seed, broken)
    if name == "smp-cluster":
        return SmpBench(seed, broken)
    if name == "service-sweep":
        return ServiceBench(seed, broken)
    raise ValueError(f"unknown workload {name!r}")
