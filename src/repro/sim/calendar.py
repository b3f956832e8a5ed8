"""The DES kernel's pending-firing queue: one heap plus a same-tick lane.

Every firing is a mutable ``[when, seq, thunk]`` entry with a globally
monotonic ``seq``, and :meth:`CalendarQueue.pop` always returns the
globally smallest ``(when, seq)``, so same-timestamp firings run in
FIFO order and every run of a seed fires in the same order.

Most schedules are zero-delay — process starts, event callbacks,
deferred resumptions, ring drains — so entries pushed at the current
instant go to a FIFO **lane** (an append and a popleft, no
comparisons); everything later goes to one ``heapq`` list.  The lane is
already in ``(when, seq)`` order, because ``now`` never moves backwards
and ``seq`` only grows, so the next firing is the smaller of the two
heads.

Cancellation nulls the thunk (a lazy-delete tombstone) and the queue
compacts itself when tombstones outnumber live entries, so abandoned
timeouts from interrupted waiters cannot grow it without bound.

The module and class keep the name of the three-tier calendar queue
this replaced: ``perfbench/layers.py`` times and counts
``repro.sim.calendar.CalendarQueue.push``/``pop``/``cancel``/``peek``
by those qualified names, and its tracer refuses to install when one
of them is missing.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

__all__ = ["CalendarQueue"]

#: entry layout: [when, seq, thunk-or-None]
Entry = list


class CalendarQueue:
    """Time-ordered queue of ``[when, seq, thunk]`` firings."""

    __slots__ = ("_lane", "_heap", "_seq", "_live", "tombstones",
                 "compactions", "compact_threshold")

    def __init__(self, compact_threshold: int = 64):
        #: entries pushed at the current instant, in seq order.
        self._lane: deque = deque()
        #: every later entry.
        self._heap: list = []
        self._seq = 0
        #: live (non-tombstone) entries in the lane and the heap.
        self._live = 0
        #: current number of cancelled-but-unreaped entries.
        self.tombstones = 0
        #: total compaction passes (observability for the chaos suites).
        self.compactions = 0
        self.compact_threshold = compact_threshold

    def __len__(self) -> int:
        return self._live

    def push(self, when: float, thunk: Callable[[], None], now: float) -> Entry:
        """Insert a firing; returns the entry (for :meth:`cancel`)."""
        seq = self._seq
        self._seq = seq + 1
        entry: Entry = [when, seq, thunk]
        self._live += 1
        if when == now:
            self._lane.append(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Entry) -> None:
        """Tombstone one entry (lazy delete); compacts when they pile up."""
        if entry[2] is None:
            return
        entry[2] = None
        self._live -= 1
        self.tombstones += 1
        if (self.tombstones > self.compact_threshold
                and self.tombstones > self._live):
            self.compact()

    def compact(self) -> None:
        """Drop every tombstone from the lane and the heap in one pass."""
        self.compactions += 1
        self._lane = deque(e for e in self._lane if e[2] is not None)
        self._heap = [e for e in self._heap if e[2] is not None]
        heapify(self._heap)
        self.tombstones = 0

    def _head(self) -> Optional[Entry]:
        """The smallest live entry (not removed), reaping dead heads."""
        lane, heap = self._lane, self._heap
        while lane and lane[0][2] is None:
            lane.popleft()
            self.tombstones -= 1
        while heap and heap[0][2] is None:
            heappop(heap)
            self.tombstones -= 1
        # entries compare as (when, seq): seqs are unique, so the
        # thunks are never compared
        if lane and (not heap or lane[0] < heap[0]):
            return lane[0]
        return heap[0] if heap else None

    def peek(self) -> Optional[float]:
        """Time of the next live firing, or None if the queue is empty."""
        head = self._head()
        return None if head is None else head[0]

    def pop(self, limit: Optional[float] = None) -> Optional[Entry]:
        """Remove and return the next live entry; None if empty or if its
        time exceeds ``limit``."""
        head = self._head()
        if head is None or (limit is not None and head[0] > limit):
            return None
        if self._lane and self._lane[0] is head:
            self._lane.popleft()
        else:
            heappop(self._heap)
        self._live -= 1
        return head
