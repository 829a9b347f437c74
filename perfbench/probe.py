"""Call recording from outside the program: the meter and the tracer.

The benchmark changes nothing under ``src/``.  It observes the program
by replacing module attributes and class methods with thin wrappers
before anything is compiled (the rvm backend captures the bound
``VM._call_rt`` when it predecodes, so late patching would miss it).

* The *meter* is always on.  It wraps ``compile_program`` and
  ``Program.run`` only -- one clock pair per call, calls that take
  milliseconds -- and keeps a small record of each, from which the
  end-to-end metrics are derived.  It also samples resident memory at
  every call boundary.
* The *tracer* (``--trace 1``) additionally wraps each layer's public
  entry points.  Every call becomes a span ``(name, start, end, parent,
  operation)``; spans stay in memory and are written out when the run
  ends.  Layer self time is span time minus the time child spans cover
  (:func:`stats.self_times`).
"""

from __future__ import annotations

import functools
import gzip
import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import fuzz as fuzz_mod
from repro.backends.base import ExecutionBackend
from repro.backends.pycode import PycodeBackend
from repro.codecache.cache import CodeCache
from repro.machine.vm import VM
from repro.runtime import engine
from repro.runtime.interp import Interpreter
from repro.runtime.stitchqueue import StitchQueue
from repro.runtime.tiering import TierController
from repro.testing import oracle

_clock = time.perf_counter

#: span name -> (owner, attribute) entry points it wraps.  Module-level
#: functions are wrapped where their caller looks them up (the engine
#: and the oracle import them by name).
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[object, str]]] = {
    "frontend": [(engine, "parse"), (engine, "check"),
                 (engine, "build_module"), (oracle, "parse"),
                 (oracle, "check"), (oracle, "build_module")],
    "opt": [(engine, "to_ssa"), (engine, "optimize"),
            (engine, "from_ssa")],
    "splitter": [(engine, "split_module")],
    "codegen": [(engine, "lower_module")],
    "machine.vm_init": [(VM, "__init__")],
    "machine.load": [(engine, "load_program")],
    "backends.prepare": [(ExecutionBackend, "prepare_vm"),
                         (PycodeBackend, "prepare_vm")],
    "backends.execute": [(ExecutionBackend, "execute")],
    "backends.install": [(ExecutionBackend, "entry_installed"),
                         (PycodeBackend, "entry_installed"),
                         (ExecutionBackend, "install_block"),
                         (ExecutionBackend, "block_installed"),
                         (PycodeBackend, "block_installed")],
    "runtime.rt": [(VM, "_call_rt")],
    "runtime.fallback_build": [(engine, "build_fallback")],
    "stitcher": [(engine, "stitch_entry")],
    "codecache": [(CodeCache, "lookup"), (CodeCache, "insert"),
                  (CodeCache, "reserve"), (CodeCache, "compact"),
                  (CodeCache, "invalidate_region")],
    "stitchqueue": [(StitchQueue, "on_entry"), (StitchQueue, "get"),
                    (StitchQueue, "enqueue"), (StitchQueue, "land"),
                    (StitchQueue, "on_land_failure")],
    "tiering": [(TierController, "on_entry"), (TierController, "decide"),
                (TierController, "on_hit"), (TierController, "on_promote")],
    "interp": [(Interpreter, "run")],
    "genprog": [(fuzz_mod, "generate_program")],
    "oracle": [(fuzz_mod, "run_oracle")],
}


@dataclass
class RunRecord:
    """What the meter keeps of one ``Program.run`` call."""

    phase: str
    op: int
    #: the compiled source, as text (shared with the CompileRecord).
    source: str
    mode: str
    backend: str
    first: bool
    seconds: float
    cycles: int
    entries: int
    hits: int
    lookups: int
    evictions: int
    compactions: int
    stitches: int
    instrs: int
    fallbacks: int
    enqueued: int
    landed: int
    land_latencies: List[int] = field(default_factory=list)


@dataclass
class CompileRecord:
    phase: str
    source: str
    mode: str
    seconds: float
    instrs: int


def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Probe:
    """Meter (always) and tracer (when ``traced``) for one process."""

    def __init__(self, traced: bool):
        self.traced = traced
        #: "setup" or "timed": which part of the run a record belongs to.
        self.phase = "setup"
        self.op = 0
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.runs: List[RunRecord] = []
        self.compiles: List[CompileRecord] = []
        #: when a list, every ``(program, RunResult)`` is appended to it.
        self.results: Optional[list] = None
        #: Program -> the source it was compiled from.
        self._sources: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self.peak_rss = _rss_bytes()
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.patch(engine, "compile_program",
                    self._metered_compile(engine.compile_program))
        self.patch(oracle, "compile_program",
                    self._metered_compile(oracle.compile_program))
        self.patch(engine.Program, "run",
                    self._metered_run(engine.Program.run))
        if self.traced:
            for layer, points in LAYER_ENTRY_POINTS.items():
                for owner, attribute in points:
                    if isinstance(owner, type) \
                            and attribute not in vars(owner):
                        continue  # inherited: the base class wraps it
                    self.patch(owner, attribute,
                                self._spanned(layer,
                                              getattr(owner, attribute)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute`` until :meth:`uninstall`."""
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = _clock()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index)
        return wrapper

    # -- the meter ---------------------------------------------------------

    def _sample_rss(self) -> None:
        rss = _rss_bytes()
        if rss > self.peak_rss:
            self.peak_rss = rss

    def _metered_compile(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def compile_program(source, *args, **kwargs):
            index = probe._enter("compile") if probe.traced else -1
            start = _clock()
            try:
                program = fn(source, *args, **kwargs)
            finally:
                seconds = _clock() - start
                if index >= 0:
                    probe._exit(index)
            instrs = sum(len(function.code)
                         for function in program.compiled.values())
            probe._sources[program] = source
            probe.compiles.append(CompileRecord(
                probe.phase, source, program.mode, seconds, instrs))
            probe._sample_rss()
            return program
        return compile_program

    def _metered_run(self, fn: Callable) -> Callable:
        probe = self

        @functools.wraps(fn)
        def run(program, *args, **kwargs):
            first = program._vm is None
            index = probe._enter("run") if probe.traced else -1
            start = _clock()
            try:
                result = fn(program, *args, **kwargs)
            finally:
                seconds = _clock() - start
                if index >= 0:
                    probe._exit(index)
            probe.runs.append(probe._record(program, first, seconds,
                                            result))
            if probe.results is not None:
                probe.results.append((program, result))
            probe._sample_rss()
            return result
        return run

    def _record(self, program, first: bool, seconds: float,
                result) -> RunRecord:
        cache = result.cache_stats
        queue = result.queue_stats
        return RunRecord(
            phase=self.phase, op=self.op,
            source=self._sources.get(program, ""), mode=program.mode,
            backend=result.backend,
            first=first, seconds=seconds, cycles=result.cycles,
            entries=sum(result.region_entries.values()),
            hits=cache.hits if cache is not None else 0,
            lookups=(cache.hits + cache.misses) if cache is not None
            else 0,
            evictions=cache.evictions if cache is not None else 0,
            compactions=cache.compactions if cache is not None else 0,
            stitches=len(result.stitch_reports),
            instrs=sum(r.instrs_emitted for r in result.stitch_reports),
            fallbacks=(len(result.fallbacks) + len(result.cold_entries)
                       + len(result.queued_entries)),
            enqueued=queue.enqueued if queue is not None else 0,
            landed=queue.landed if queue is not None else 0,
            land_latencies=list(queue.land_latencies)
            if queue is not None else [])

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str, origin: float) -> None:
        """Write the spans as gzip-compressed tab-separated lines
        ``name start end parent operation``, times in seconds from
        ``origin``; ``parent`` is a line index, -1 for none."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.writelines(
                "%s\t%.9f\t%.9f\t%d\t%d\n"
                % (name, start - origin, end - origin, parent, op)
                for name, start, end, parent, op in self.spans)


def nonterminating_seconds(spans: List[list], ops: set) -> float:
    """Host seconds of oracle calls made by the operations in ``ops``
    (those whose program hit the interpreter's step limit)."""
    return sum(end - begin for name, begin, end, _parent, op in spans
               if name == "oracle" and op in ops)
