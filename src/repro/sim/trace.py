"""Lightweight metric collection and request-lifecycle spans.

Every layer of the stack bumps counters and stamps spans; the analysis
layer reads them back to build the paper's breakdowns (e.g. the §IV-B
attribution of 93 % of the latency overhead to the frontend wait
scheme, which :func:`repro.analysis.overhead_breakdown` reads off the
spans).

A :class:`Tracer` holds four stores:

* **counters / accumulators / stats** — always on.  :class:`LatencyStat`
  keeps a sparse geometric histogram alongside min/mean/max, so p50/p95/
  p99 come for free wherever a latency was observed.  A VM's tracer is
  keyed only by the per-op keys a registered
  :class:`~repro.vphi.ops.OpSpec` declares, plus
  :data:`repro.vphi.wait.POLL_CPU_KEY`; every other count is a typed
  attribute of the object that owns it.
* **spans** — one :class:`Span` per request lifecycle, stamped with
  phase timestamps by every layer it crosses (frontend, ring, backend,
  pool, host).  Phase durations telescope — consecutive timestamp
  differences — so they sum to the span's end-to-end latency *exactly*.
  A span is the one record of where a request's simulated time went.
  Completed spans live in a capped ring (drops are counted in
  ``Tracer.dropped_spans``) and export as Chrome trace-event JSON
  (:meth:`Tracer.export_chrome_trace`) loadable in ``chrome://tracing``
  or Perfetto.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from typing import Callable, Optional

from .errors import SimError

__all__ = [
    "DEFAULT_MAX_SPANS",
    "LatencyStat",
    "Span",
    "Tracer",
]

#: generous default cap: a full Fig 4/5 run stays far below it, while an
#: unbounded chaos-soak run tops out instead of eating the heap.
DEFAULT_MAX_SPANS = 65536


#: histogram resolution: geometric buckets, 10 per decade (each bucket
#: spans a ~26 % relative range — plenty for latency percentiles).
BUCKETS_PER_DECADE = 10


class LatencyStat:
    """Streaming accumulator for one named quantity.

    Tracks count/total/min/max plus a sparse geometric histogram, so
    :meth:`percentile` (and the ``p50``/``p95``/``p99`` shorthands) are
    available wherever a bare mean used to be.  Non-positive values
    (zero-duration observations) land in a dedicated underflow bucket.
    """

    __slots__ = ("name", "count", "total", "min", "max", "zeros", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.zeros = 0
        #: sparse histogram: bucket index -> observation count, where
        #: bucket ``i`` covers ``[10^(i/N), 10^((i+1)/N))``.
        self.buckets: dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            idx = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def bucket_bounds(idx: int) -> tuple[float, float]:
        """The ``[lo, hi)`` value range bucket ``idx`` covers."""
        return (10 ** (idx / BUCKETS_PER_DECADE),
                10 ** ((idx + 1) / BUCKETS_PER_DECADE))

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) from the histogram.

        Nearest-rank over the bucket counts, linearly interpolated inside
        the winning bucket and clamped to the exact observed min/max.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q / 100.0 * self.count))
        cum = self.zeros
        if cum >= target:
            return min(0.0, self.max) if self.min <= 0 else self.min
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if cum + n >= target:
                lo, hi = self.bucket_bounds(idx)
                frac = (target - cum) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.min), self.max)
            cum += n
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.count == 0:
            # never leak min=inf / max=-inf from the empty state
            return f"<LatencyStat {self.name} n=0 mean=- min=- max=->"
        return (
            f"<LatencyStat {self.name} n={self.count} mean={self.mean:.3g} "
            f"min={self.min:.3g} max={self.max:.3g} p50={self.p50:.3g} "
            f"p99={self.p99:.3g}>"
        )


class Span:
    """One request's lifecycle: a start time plus phase timestamps.

    Each :meth:`mark` records "phase *ended* now"; a phase's duration is
    the gap back to the previous mark (or the start).  Durations
    therefore telescope — they sum to ``end - start`` exactly, with no
    float drift and no gaps — which is the invariant the span test suite
    holds the whole stack to.

    A span survives tag renewal (frontend retries re-post under a fresh
    tag): ``tags`` accumulates every correlation id the request was
    posted under, and the tracer's active-span table maps each of them
    back here until the span ends.
    """

    __slots__ = ("op", "vm", "start", "marks", "status", "tags")

    def __init__(self, op: str, start: float, vm: str = ""):
        self.op = op
        self.vm = vm
        self.start = start
        #: ``(phase, end_time)`` in mark order; times are monotone.
        self.marks: list[tuple[str, float]] = []
        #: None while open; "ok"/"error"/"timeout"/"stale"/... once ended.
        self.status: Optional[str] = None
        #: every tag this request was posted under (retries append).
        self.tags: list[int] = []

    @property
    def tag(self) -> Optional[int]:
        """The most recent correlation id (None before first posting)."""
        return self.tags[-1] if self.tags else None

    @property
    def closed(self) -> bool:
        return self.status is not None

    @property
    def end(self) -> float:
        return self.marks[-1][1] if self.marks else self.start

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def mark(self, phase: str, time: float) -> None:
        """Stamp "``phase`` ended at ``time``"; times must be monotone."""
        if time < self.end:
            raise SimError(
                f"span {self.op} tag={self.tag}: mark {phase!r} at {time:g} "
                f"precedes previous mark at {self.end:g}"
            )
        self.marks.append((phase, time))

    def phase_durations(self) -> dict[str, float]:
        """Seconds spent per phase (repeated phases accumulate); the
        values sum to :attr:`elapsed` exactly by construction."""
        out: dict[str, float] = {}
        prev = self.start
        for phase, t in self.marks:
            out[phase] = out.get(phase, 0.0) + (t - prev)
            prev = t
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self.status or "open"
        return (
            f"<Span {self.op} tag={self.tag} {state} "
            f"phases={len(self.marks)} elapsed={self.elapsed:.3g}>"
        )


class Tracer:
    """Collects counters, accumulators, latency stats and request spans.

    All four stores are always on.  Callers decide whether to open spans
    (the vPHI frontend opens one per request unless
    ``VPhiConfig(trace_spans=False)``); every span method accepts
    ``None``, so a caller with spans off passes its missing span through.
    """

    def __init__(self):
        self.counters: Counter[str] = Counter()
        self.accumulators: defaultdict[str, float] = defaultdict(float)
        self.stats: dict[str, LatencyStat] = {}
        self._clock: Callable[[], float] = lambda: 0.0
        #: live spans by correlation tag (retried requests map several
        #: tags to one span); a leak here is a bug the tests hunt.
        self.active_spans: dict[int, Span] = {}
        #: completed spans, oldest dropped past the ring's cap.
        self.spans: deque[Span] = deque(maxlen=DEFAULT_MAX_SPANS)
        self.dropped_spans = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator's ``now`` so spans carry simulated time."""
        self._clock = clock

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def accumulate(self, key: str, amount: float) -> None:
        """Add simulated seconds (or bytes, …) to a named bucket."""
        self.accumulators[key] += amount

    def observe(self, key: str, value: float) -> None:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = LatencyStat(key)
        stat.add(value)

    # ------------------------------------------------------------------
    # request-lifecycle spans
    # ------------------------------------------------------------------
    def new_span(self, op: str, vm: str = "") -> Span:
        """Open a span starting now."""
        return Span(op, self._clock(), vm=vm)

    def bind_span(self, tag: int, span: Optional[Span]) -> None:
        """Register ``span`` under a correlation tag so layers that only
        see the wire tag (backend, pool) can stamp it."""
        if span is None:
            return
        span.tags.append(tag)
        self.active_spans[tag] = span

    def unbind_span(self, tag: int) -> None:
        """Drop one tag's active-table entry (the span itself lives on)."""
        self.active_spans.pop(tag, None)

    def span_for(self, tag: int) -> Optional[Span]:
        return self.active_spans.get(tag)

    def mark(self, span: Optional[Span], phase: str) -> None:
        """Stamp "``phase`` ended now" on ``span`` (no-op on None or on
        an already-closed span — batch cleanup paths sweep both)."""
        if span is not None and not span.closed:
            span.mark(phase, self._clock())

    def mark_tag(self, tag: int, phase: str) -> None:
        """Stamp a phase on whatever span ``tag`` correlates to, if any."""
        span = self.active_spans.get(tag)
        if span is not None:
            span.mark(phase, self._clock())

    def end_span(self, span: Optional[Span], status: str = "ok") -> None:
        """Close ``span`` with ``status``; idempotent (the first close
        wins, so cleanup paths can end defensively)."""
        if span is None or span.closed:
            return
        span.status = status
        for tag in span.tags:
            if self.active_spans.get(tag) is span:
                del self.active_spans[tag]
        spans = self.spans
        if len(spans) == spans.maxlen:
            self.dropped_spans += 1
        spans.append(span)

    # ------------------------------------------------------------------
    def export_chrome_trace(self, include_open: bool = False) -> dict:
        """The run as Chrome trace-event JSON (the ``chrome://tracing`` /
        Perfetto "JSON Object Format": a ``traceEvents`` list).

        Each span becomes one enclosing complete ("X") event plus one
        "X" event per phase segment; VMs map to pids (named via "M"
        metadata events) and correlation tags to tids, so one VM's
        requests stack as parallel timeline lanes.  Timestamps are
        microseconds of simulated time.
        """
        events: list[dict] = []
        pids: dict[str, int] = {}

        def pid_for(vm: str) -> int:
            pid = pids.get(vm)
            if pid is None:
                pid = pids[vm] = len(pids) + 1
                events.append({
                    "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": vm or "sim"},
                })
            return pid

        spans: list[Span] = list(self.spans)
        if include_open:
            seen = set()
            for span in self.active_spans.values():
                if id(span) not in seen:
                    seen.add(id(span))
                    spans.append(span)
        for span in spans:
            pid = pid_for(span.vm)
            tid = span.tag or 0
            events.append({
                "name": span.op, "cat": span.op, "ph": "X",
                "ts": span.start * 1e6, "dur": span.elapsed * 1e6,
                "pid": pid, "tid": tid,
                "args": {"status": span.status or "open",
                         "tags": list(span.tags)},
            })
            prev = span.start
            for phase, t in span.marks:
                events.append({
                    "name": phase, "cat": span.op, "ph": "X",
                    "ts": prev * 1e6, "dur": (t - prev) * 1e6,
                    "pid": pid, "tid": tid,
                    "args": {"op": span.op},
                })
                prev = t
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.counters.clear()
        self.accumulators.clear()
        self.stats.clear()
        self.active_spans.clear()
        self.spans.clear()
        self.dropped_spans = 0
