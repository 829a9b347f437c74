"""The benchmark's own arithmetic: summaries, span self time, checks.

Everything here is pure and works on plain numbers, tuples and
duck-typed result objects, so ``selftest.py`` can check it without
compiling or running a single program.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: ``(name, start, end, parent index, operation id)``.
#: ``parent`` is the index of the enclosing span in the same list, or -1.
Span = Tuple[str, float, float, int, int]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, the same rule as ``numpy.percentile``'s default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile %r outside 0..100" % q)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile with at least ten
    samples beyond it, or None with fewer than forty samples (a tail
    estimated from fewer points is no tail)."""
    n = len(values)
    if n < 40:
        return None
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10.0:
            return q, percentile(values, q)
    return None  # unreachable for n >= 40: p75 leaves n/4 >= 10 beyond


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    logs = []
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean of non-positive %r" % value)
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span's duration minus the time
    its direct children cover.  Spans of one thread nest strictly, so a
    child's interval lies inside its parent's and siblings do not
    overlap; the covered time is then the sum of child durations."""
    child_time = [0.0] * len(spans)
    for name, begin, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - begin
    totals: Dict[str, float] = {}
    for index, (name, begin, end, _parent, _op) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - begin) \
            - child_time[index]
    return totals


# -- accounting checks on RunResult-shaped objects ------------------------


def partition_error(result) -> Optional[str]:
    """Every region entry has exactly one outcome:
    ``hits + stitches + fallbacks + cold + queued == entries``.
    Returns a message when the counts disagree, else None."""
    entries = sum(result.region_entries.values())
    served = (len(result.cache_hits) + len(result.stitch_reports)
              + len(result.fallbacks) + len(result.cold_entries)
              + len(result.queued_entries))
    if served != entries:
        return ("entry partition: %d hits + %d stitches + %d fallbacks "
                "+ %d cold + %d queued = %d != %d entries"
                % (len(result.cache_hits), len(result.stitch_reports),
                   len(result.fallbacks), len(result.cold_entries),
                   len(result.queued_entries), served, entries))
    return None


def conservation_error(result) -> Optional[str]:
    """Every admitted stitch job ends in exactly one bucket:
    ``enqueued == landed + expired + cancelled + pending``.  A sync run
    (no queue statistics) has nothing to conserve."""
    stats = result.queue_stats
    if stats is None:
        return None
    cancelled = sum(stats.cancelled.values())
    accounted = stats.landed + stats.expired + cancelled + stats.pending
    if stats.enqueued != accounted:
        return ("job conservation: %d enqueued != %d landed + %d expired "
                "+ %d cancelled + %d pending = %d"
                % (stats.enqueued, stats.landed, stats.expired, cancelled,
                   stats.pending, accounted))
    return None


def observables(result) -> tuple:
    """What two runs of the same program must agree on bit for bit:
    value, float register, printed output and simulated cycles (total
    and per owner)."""
    return (result.value, repr(result.float_value), tuple(result.output),
            result.cycles, tuple(sorted(result.cycles_by_owner.items())))


def region_rows(static_result, dynamic_result) -> List[float]:
    """Per-region static / dynamic simulated cycles for one program run
    in both modes on the same arguments.  Both runs execute each region
    equally often, so the ratio of cycle totals is the ratio of cycles
    per region execution.  The dynamic side counts the stitched code,
    the dispatch glue and any entry served by fallback code; one-time
    set-up and stitcher cycles are the overhead, not the per-execution
    cost.  Regions one of the runs never charged are skipped."""
    rows = []
    static_owners = static_result.cycles_by_owner
    dynamic_owners = dynamic_result.cycles_by_owner
    for owner, static_cycles in sorted(static_owners.items()):
        if not owner.startswith("region:") or static_cycles <= 0:
            continue
        suffix = owner[len("region:"):]
        dynamic_cycles = sum(dynamic_owners.get(kind + suffix, 0)
                             for kind in ("stitched:", "dispatch:",
                                          "fallback:"))
        if dynamic_cycles > 0:
            rows.append(static_cycles / dynamic_cycles)
    return rows


def overhead_cycles(result) -> Tuple[int, int]:
    """``(set-up + stitcher cycles, stitched instructions)`` of one
    dynamic run -- the two sums behind Table 2's cycles per stitched
    instruction."""
    overhead = sum(cycles for owner, cycles in result.cycles_by_owner.items()
                   if owner.startswith(("setup:", "stitcher:")))
    instrs = sum(report.instrs_emitted for report in result.stitch_reports)
    return overhead, instrs
