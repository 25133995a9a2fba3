"""Layer timing measured from outside the simulator.

Every wrapper here is installed around a public entry point for the
length of one round and removed afterwards; nothing in ``repro`` is
edited.  With no wrapper installed the simulator runs exactly as a user
would run it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Any, Iterator

import repro.smp.timing as smp_timing
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.emulator import Emulator
from repro.uarch.core import PipelineModel

perf = time.perf_counter


@dataclass
class CoreTrace:
    """Host seconds of one round of ``run_on_core`` calls, by layer.

    ``emulate_s`` is spent inside the tier-3 trace generator,
    ``mem_s`` inside the run's ``MemoryHierarchy.access_data`` and
    ``access_inst``, and ``pipeline_s`` inside ``PipelineModel.run``,
    which contains both.  ``wall_s`` is the whole ``run_on_core`` call.
    """

    wall_s: float = 0.0
    pipeline_s: float = 0.0
    emulate_s: float = 0.0
    mem_s: float = 0.0
    mem_calls: int = 0
    functional_s: float = 0.0

    @property
    def uarch_s(self) -> float:
        return self.pipeline_s - self.emulate_s - self.mem_s


@contextlib.contextmanager
def capture_emulators(sink: list[Emulator]) -> Iterator[None]:
    """Record every emulator whose tier-3 trace a caller starts, so its
    memory can be read after ``run_on_core`` returns."""
    original = Emulator.codegen_trace

    def codegen_trace(emulator: Emulator, max_steps: int | None = None):
        sink.append(emulator)
        return original(emulator, max_steps)

    Emulator.codegen_trace = codegen_trace  # type: ignore[method-assign]
    try:
        yield
    finally:
        Emulator.codegen_trace = original  # type: ignore[method-assign]


def _timed_batches(batches: Any, trace: CoreTrace) -> Iterator[Any]:
    """Re-yield *batches*, charging the time each ``next`` takes."""
    iterator = iter(batches)
    while True:
        start = perf()
        try:
            batch = next(iterator)
        except StopIteration:
            trace.emulate_s += perf() - start
            return
        trace.emulate_s += perf() - start
        yield batch


@contextlib.contextmanager
def traced_core(trace: CoreTrace, sink: list[Emulator]) -> Iterator[None]:
    """Time the trace generator and ``PipelineModel.run`` (and capture
    emulators as :func:`capture_emulators` does)."""
    original_trace = Emulator.codegen_trace
    original_run = PipelineModel.run

    def codegen_trace(emulator: Emulator, max_steps: int | None = None):
        sink.append(emulator)
        return _timed_batches(original_trace(emulator, max_steps), trace)

    def run(pipeline: PipelineModel, batches: Any):
        start = perf()
        try:
            return original_run(pipeline, batches)
        finally:
            trace.pipeline_s += perf() - start

    Emulator.codegen_trace = codegen_trace  # type: ignore[method-assign]
    PipelineModel.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        Emulator.codegen_trace = original_trace  # type: ignore[method-assign]
        PipelineModel.run = original_run  # type: ignore[method-assign]


def timed_hierarchy(config: Any, trace: CoreTrace) -> MemoryHierarchy:
    """A fresh hierarchy whose two demand entry points charge *trace*.

    The timing core inlines L1 hits, so what lands here is the miss and
    refill path (plus line-crossing and uncommon accesses).
    """
    hierarchy = MemoryHierarchy(config.mem)
    for name in ("access_data", "access_inst"):
        method = getattr(hierarchy, name)

        def timed(*args: Any, _method: Any = method, **kwargs: Any) -> int:
            start = perf()
            try:
                return _method(*args, **kwargs)
            finally:
                trace.mem_s += perf() - start
                trace.mem_calls += 1

        setattr(hierarchy, name, timed)
    return hierarchy


@contextlib.contextmanager
def capture_smp_machines(sink: list[Any]) -> Iterator[None]:
    """Record the functional machine ``run_smp_timing`` builds, so the
    shared memory it leaves behind can be checked."""
    original = smp_timing.SmpMachine

    class RecordingMachine(original):  # type: ignore[misc, valid-type]
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            sink.append(self)

    smp_timing.SmpMachine = RecordingMachine  # type: ignore[misc]
    try:
        yield
    finally:
        smp_timing.SmpMachine = original  # type: ignore[misc]
