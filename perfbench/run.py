"""Host-time benchmark of the dynamic compiler, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2-warm --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (and writes its spans under
``perfbench/out/``).  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs the four workloads one after
another in this process and prints one such line per workload, each
with an added ``workload`` key.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds every run measures, however long they take, so that each
#: per-kind median rests on at least this many operations.
MIN_ROUNDS = 3
#: Host-speed calibration: a fixed pure-Python loop timed between
#: operations.  Every reported host time is scaled by
#: ``CALIBRATION_REFERENCE_S / median(loop seconds)``, i.e. expressed in
#: seconds of a host on which the loop takes exactly the reference
#: time.  On a shared 2-core host the loop's speed drifts by 10-30%
#: between and within processes; the program's speed drifts with it.
CALIBRATION_ITERATIONS = 30_000
CALIBRATION_REFERENCE_S = 0.003
CALIBRATION_SAMPLES = 3


def calibration_loop() -> float:
    """Seconds for one run of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


WORKLOAD_NAMES = ("table2-warm", "table2-cold", "key-churn", "fuzz-oracle")


class Timed:
    """The timed part of one run: operation ids by kind, and seconds
    per operation."""

    def __init__(self):
        self.kinds = {}
        self.seconds = {}

    def add(self, kind, op: int, seconds: float) -> None:
        self.kinds.setdefault(kind, []).append(op)
        self.seconds[op] = seconds

    @property
    def ops(self) -> int:
        return len(self.seconds)

    def per_round(self, value) -> float:
        """Sum over kinds of the median over each kind's operations of
        ``value(op)``: one typical round, robust to a slow stretch of
        the host that hits some rounds only."""
        import stats
        return sum(stats.median([value(op) for op in ops])
                   for ops in self.kinds.values())


def end_to_end(probe_obj, load, setup_times, timed, scales):
    """End-to-end figures of the untraced run.  Host times are
    multiplied, and host rates divided, by the calibration scale of the
    part of the run (``scales["setup"]`` or ``scales["timed"]``) they
    were measured in."""
    import stats
    # Rates come from reruns of a Program where the timed part has any
    # (a first run also builds and loads the VM); table2-cold has only
    # first runs.
    timed_runs = [r for r in probe_obj.runs
                  if r.phase == "timed" and r.mode == "dynamic"]
    reruns = [r for r in timed_runs if not r.first]
    runs_by_op = {}
    for record in reruns or timed_runs:
        runs_by_op.setdefault(record.op, []).append(record)

    scale = scales["timed"]

    def per_program(records):
        # Geometric mean over distinct sources of the median seconds per
        # source: a pooled median of programs of different sizes would
        # jump between them.  The timed part's records, or the set-up's
        # where the timed part makes no such call (the warm workloads
        # compile and first-run only during set-up).
        mine = [r for r in records if r.phase == "timed"]
        phase = "timed" if mine else "setup"
        by_source = {}
        for record in mine or records:
            by_source.setdefault(record.source, []).append(record.seconds)
        return scales[phase] * stats.geomean(
            stats.median(seconds) for seconds in by_source.values())

    compiles = [c for c in probe_obj.compiles if c.mode == "dynamic"]
    metrics = {
        "setup_s": (scales["setup"] * stats.median(setup_times), "s"),
        "peak_rss_mb": (probe_obj.peak_rss / float(1 << 20), "MB"),
        "compile_s": (per_program(compiles), "s"),
        "programs_per_s": (len(timed.kinds)
                           / (scale * timed.per_round(timed.seconds.get)),
                           "programs/s"),
        "region_speedup": (stats.geomean(load.speedups), "x"),
        "stitch_cycles_per_instr": (
            load.overhead_cycles / load.stitched_instrs, "cycles/instr"),
    }
    for backend in ("rvm", "pycode"):
        firsts = [r for r in probe_obj.runs if r.mode == "dynamic"
                  and r.first and r.backend == backend]
        metrics["first_run_s.%s" % backend] = (per_program(firsts), "s")

        def total(field, op, backend=backend):
            return sum(getattr(r, field) for r in runs_by_op.get(op, ())
                       if r.backend == backend)

        seconds = scale * timed.per_round(lambda op: total("seconds", op))
        metrics["sim_cycles_per_s.%s" % backend] = (
            timed.per_round(lambda op: total("cycles", op)) / seconds,
            "cycles/s")
        metrics["region_entries_per_s.%s" % backend] = (
            timed.per_round(lambda op: total("entries", op)) / seconds,
            "entries/s")
    return metrics


#: per-layer self-time metric -> span name.
SELF_TIME_METRICS = (
    ("engine.compile_self_s", "compile"),
    ("engine.run_self_s", "run"),
    ("frontend.self_s", "frontend"),
    ("opt.self_s", "opt"),
    ("splitter.self_s", "splitter"),
    ("codegen.self_s", "codegen"),
    ("machine.vm_init_s", "machine.vm_init"),
    ("machine.load_s", "machine.load"),
    ("backends.prepare_s", "backends.prepare"),
    ("backends.execute_self_s", "backends.execute"),
    ("backends.install_s", "backends.install"),
    ("runtime.rt_self_s", "runtime.rt"),
    ("runtime.fallback_build_s", "runtime.fallback_build"),
    ("stitcher.self_s", "stitcher"),
    ("codecache.self_s", "codecache"),
    ("stitchqueue.self_s", "stitchqueue"),
    ("tiering.self_s", "tiering"),
    ("interp.self_s", "interp"),
    ("genprog.self_s", "genprog"),
    ("oracle.self_s", "oracle"),
)


def per_layer(probe_obj, load, timed, scale, calibration_s):
    """Per-layer figures of the traced timed part.  Times and counts
    are per operation, so runs of different lengths compare; host
    times are scaled as in :func:`end_to_end`."""
    import stats
    from probe import nonterminating_seconds
    ops = timed.ops
    selfs = {name: scale * seconds
             for name, seconds in stats.self_times(probe_obj.spans).items()}
    metrics = {}
    for metric, span in SELF_TIME_METRICS:
        metrics[metric] = (selfs.get(span, 0.0) / ops, "s")
    runs = [r for r in probe_obj.runs if r.mode == "dynamic"
            and r.phase == "timed"]
    compiles = [c for c in probe_obj.compiles if c.phase == "timed"]
    instrs = sum(r.instrs for r in runs)
    lookups = sum(r.lookups for r in runs)
    enqueued = sum(r.enqueued for r in runs)
    latencies = [lat for r in runs for lat in r.land_latencies]
    nonterminating = load.nonterminating_ops
    metrics.update({
        "codegen.instrs": (sum(c.instrs for c in compiles) / ops, "count"),
        "runtime.region_entries": (sum(r.entries for r in runs) / ops,
                                   "count"),
        "runtime.fallbacks": (sum(r.fallbacks for r in runs) / ops,
                              "count"),
        "stitcher.stitches": (sum(r.stitches for r in runs) / ops,
                              "count"),
        "stitcher.host_us_per_instr": (
            1e6 * selfs.get("stitcher", 0.0) / instrs if instrs else 0.0,
            "us/instr"),
        "codecache.hit_ratio": (
            sum(r.hits for r in runs) / lookups if lookups else 0.0,
            "ratio"),
        "codecache.evictions": (sum(r.evictions for r in runs) / ops,
                                "count"),
        "codecache.compactions": (sum(r.compactions for r in runs) / ops,
                                  "count"),
        "stitchqueue.land_ratio": (
            sum(r.landed for r in runs) / enqueued if enqueued else 0.0,
            "ratio"),
        "stitchqueue.entries_to_land": (
            stats.median(latencies) if latencies else 0.0, "entries"),
        "oracle.nonterminating_s": (
            scale * nonterminating_seconds(probe_obj.spans, nonterminating)
            / ops, "s"),
        "oracle.nonterminating_share": (len(nonterminating) / ops,
                                        "ratio"),
        "trace.programs_per_s": (
            len(timed.kinds) / (scale * timed.per_round(timed.seconds.get)),
            "programs/s"),
        "host.calibration_s": (calibration_s, "s"),
        "trace.spans": (len(probe_obj.spans) / ops, "count"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import probe
    import workloads
    probe_obj = probe.Probe(traced)
    probe_obj.install()
    try:
        load = workloads.WORKLOADS[name](seed, probe_obj)
        setup_times = []
        calibration = {"setup": [], "timed": []}
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the previous set-up's Programs
            calibration["setup"].extend(calibration_loop()
                                        for _ in range(CALIBRATION_SAMPLES))
            start = time.perf_counter()
            load.setup()
            setup_times.append(time.perf_counter() - start)
            calibration["setup"].extend(calibration_loop()
                                        for _ in range(CALIBRATION_SAMPLES))
        probe_obj.phase = "timed"
        probe_obj.spans.clear()  # only the timed part's spans are kept
        timed = Timed()
        failed = 0
        correct = True
        timed_start = time.perf_counter()
        for rounds, ops in enumerate(load.rounds(), 1):
            round_start = time.perf_counter()
            for kind, op in ops:
                probe_obj.op += 1
                start = time.perf_counter()
                try:
                    op()
                except workloads.Failed as exc:
                    failed += 1
                    print("failed: %s" % exc, file=sys.stderr)
                except workloads.WrongAnswer as exc:
                    correct = False
                    failed += 1
                    print("WRONG: %s" % exc, file=sys.stderr)
                timed.add(kind, probe_obj.op, time.perf_counter() - start)
                if load.fresh_programs:
                    # Free this operation's VMs (they sit in reference
                    # cycles) before the next one, so peak memory
                    # measures live data, not collector timing.
                    gc.collect()
                calibration["timed"].extend(
                    calibration_loop() for _ in range(CALIBRATION_SAMPLES))
            # Stop before a round that would end past the deadline.
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and \
                    now - timed_start + (now - round_start) > seconds:
                break
        import stats
        seconds_per_op = list(timed.seconds.values())
        tail = stats.tail_percentile(seconds_per_op)
        print("%s: %d operations, median %.4f s%s (unscaled)"
              % (name, timed.ops, stats.median(seconds_per_op),
                 ", p%g %.4f s" % tail if tail else ""), file=sys.stderr)
        calibration_s = {phase: stats.median(samples)
                         for phase, samples in calibration.items()}
        scales = {phase: CALIBRATION_REFERENCE_S / loop_s
                  for phase, loop_s in calibration_s.items()}
        if traced:
            metrics = per_layer(probe_obj, load, timed, scales["timed"],
                                calibration_s["timed"])
            probe_obj.write_spans(
                os.path.join(HERE, "out", "spans-%s-seed%d.tsv.gz"
                             % (name, seed)), timed_start)
        else:
            metrics = end_to_end(probe_obj, load, setup_times, timed,
                                 scales)
    finally:
        probe_obj.uninstall()
    return {
        "correct": correct,
        "attempted": timed.ops,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no program source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            if args.workload == "all":
                result = dict(result, workload=name)
            print(json.dumps(result, sort_keys=True))
            sys.stdout.flush()
    except Exception:  # the benchmark's boundary: report, print no result
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
