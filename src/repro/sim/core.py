r"""Discrete-event simulation kernel.

Everything in this reproduction — the Xeon Phi card, the PCIe link, the SCIF
transport, virtio rings, QEMU/KVM and vPHI itself — runs as coroutine
*processes* on top of this kernel.  A process is a plain Python generator
that ``yield``\ s *events*; the kernel resumes it when the event fires and
sends the event's value back as the result of the ``yield`` expression.

Design points (all load-bearing for the reproduction):

* **Deterministic.**  Ties in the event queue are broken by a monotonic
  sequence number, so two runs with the same seed produce identical
  schedules.  ``Date``-free: simulated time is a float in **seconds**
  starting at 0.0 (helpers :func:`us`/:func:`ms` convert).
* **Execution domains.**  A :class:`Domain` groups processes that share an
  execution context that can be frozen — the guest side of a VM while QEMU
  handles a blocking request pauses exactly this way (§III, *Blocking vs
  non-blocking mode*).  Resumptions of processes in a paused domain are
  deferred, not lost, and replay in order on resume.
* **Interrupts.**  ``process.interrupt(cause)`` models asynchronous signal
  delivery (used by poll timeouts and connection teardown).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from .calendar import CalendarQueue
from .errors import Interrupted, Killed, SimError, StopProcess

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Domain",
    "Simulator",
    "AllOf",
    "AnyOf",
    "us",
    "ms",
    "SECOND",
    "US",
    "MS",
]

#: One simulated second (the base unit of simulated time).
SECOND = 1.0
#: One simulated millisecond.
MS = 1e-3
#: One simulated microsecond.
US = 1e-6


def us(x: float) -> float:
    """Convert microseconds to simulated seconds."""
    return x * US


def ms(x: float) -> float:
    """Convert milliseconds to simulated seconds."""
    return x * MS


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; exactly one of :meth:`succeed` or
    :meth:`fail` moves it to *triggered*.  The kernel then schedules it and,
    when its turn comes, *fires* it: every registered callback (usually a
    process resumption) runs with the event's value or exception.
    """

    __slots__ = ("sim", "_value", "_exc", "_triggered", "_fired", "callbacks",
                 "name", "_entry")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._fired = False
        self.callbacks: list[Callable[["Event"], None]] = []
        #: the queue entry holding this event's pending firing (set when
        #: scheduled, cleared on fire; a cancelled entry has a None thunk).
        self._entry: Optional[list] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() was called (the outcome is decided)."""
        return self._triggered

    @property
    def fired(self) -> bool:
        """True once callbacks have run (waiters have been resumed)."""
        return self._fired

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimError(f"event {self.name or self!r} not yet triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful; fire after ``delay`` simulated seconds."""
        if self._triggered:
            raise SimError(f"event {self.name or self!r} already triggered")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._triggered = True
        self._value = value
        self.sim._schedule_event(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if self._triggered:
            raise SimError(f"event {self.name or self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._triggered = True
        self._exc = exc
        self.sim._schedule_event(self, delay)
        return self

    # -- kernel internals ---------------------------------------------------
    def _fire(self) -> None:
        if self._fired:
            return
        self._fired = True
        self._entry = None
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._fired:
            # Late subscription to an already-fired event: deliver promptly
            # (next kernel step at the current time) instead of silently
            # dropping the waiter.
            self.sim._call_soon(lambda: cb(self))
        else:
            self.callbacks.append(cb)
            entry = self._entry
            if entry is not None and entry[2] is None:
                # the pending firing was cancelled when the last waiter
                # abandoned it — a new waiter revives it
                self.sim._revive(self, entry[0])

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        try:
            self.callbacks.remove(cb)
        except ValueError:
            pass
        if (not self.callbacks and isinstance(self, Timeout)
                and self._entry is not None and not self._fired):
            # a pure delay nobody waits on anymore: tombstone its queue
            # entry so interrupted sleepers don't pile up until they expire
            self.sim._queue.cancel(self._entry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fired" if self._fired else ("triggered" if self._triggered else "pending")
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = delay
        self.succeed(value, delay=delay)


class Domain:
    """A freezable execution context (e.g. the guest side of one VM).

    While paused, member processes are never resumed: resumptions are
    queued and replayed, in arrival order, when every pause is released.
    Pauses nest (``pause``/``resume`` act like a counting lock).
    """

    __slots__ = ("sim", "name", "_pause_depth", "_deferred", "paused_time", "_paused_at")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._pause_depth = 0
        self._deferred: list[Callable[[], None]] = []
        #: Total simulated seconds this domain has spent frozen (metric for
        #: the blocking-mode cost analysis).
        self.paused_time = 0.0
        self._paused_at = 0.0

    @property
    def paused(self) -> bool:
        return self._pause_depth > 0

    @property
    def paused_seconds(self) -> float:
        """Total frozen time so far, *including* any still-open pause.

        ``paused_time`` only accumulates when the last nested pause is
        released; windowed accounting (occupancy over a sub-interval)
        needs the open pause counted up to now, or a domain frozen
        across a window boundary is invisible to that window.
        """
        open_pause = (self.sim.now - self._paused_at) if self.paused else 0.0
        return self.paused_time + open_pause

    def pause(self) -> None:
        if self._pause_depth == 0:
            self._paused_at = self.sim.now
        self._pause_depth += 1

    def resume(self) -> None:
        if self._pause_depth == 0:
            raise SimError(f"domain {self.name!r} resume() without pause()")
        self._pause_depth -= 1
        if self._pause_depth == 0:
            self.paused_time += self.sim.now - self._paused_at
            deferred, self._deferred = self._deferred, []
            for thunk in deferred:
                self.sim._call_soon(thunk)

    def _defer(self, thunk: Callable[[], None]) -> None:
        self._deferred.append(thunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Domain {self.name!r} depth={self._pause_depth}>"


class Process(Event):
    """A coroutine process.  Also an event: it fires when the process ends,
    with the generator's return value (or its unhandled exception)."""

    __slots__ = ("gen", "domain", "_waiting_on", "_resume_cb", "_started", "_pending_throw")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
        domain: Optional[Domain] = None,
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"Process body must be a generator (got {type(gen).__name__}); "
                "did you forget a 'yield'?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self.gen = gen
        self.domain = domain
        self._waiting_on: Optional[Event] = None
        self._started = False
        #: exception queued for delivery at the next resumption (interrupt).
        self._pending_throw: Optional[BaseException] = None
        self._resume_cb = self._on_event  # stable bound method for discard
        sim._call_soon(self._start)

    # -- public API ---------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: object = None) -> None:
        """Deliver :class:`Interrupted` into the process at the current time.

        Harmless no-op if the process already ended.
        """
        if not self.alive:
            return
        self._pending_throw = Interrupted(cause)
        self._detach()
        self.sim._call_soon(self._step_deliver)

    def kill(self) -> None:
        """Forcibly terminate the process (it fires with ``Killed``)."""
        if not self.alive:
            return
        self._pending_throw = Killed(f"process {self.name!r} killed")
        self._detach()
        self.sim._call_soon(self._step_deliver)

    # -- kernel internals -----------------------------------------------------
    def _detach(self) -> None:
        if self._waiting_on is not None:
            self._waiting_on._discard_callback(self._resume_cb)
            self._waiting_on = None

    def _start(self) -> None:
        if self._started or self._triggered:
            return
        self._started = True
        self._step(None, None)

    def _on_event(self, event: Event) -> None:
        self._waiting_on = None
        if event._exc is not None:
            self._step(None, event._exc)
        else:
            self._step(event._value, None)

    def _step_deliver(self) -> None:
        exc, self._pending_throw = self._pending_throw, None
        if exc is None or self._triggered:
            return
        self._step(None, exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        # Respect domain freeze: requeue the resumption for replay.
        if self.domain is not None and self.domain.paused:
            self.domain._defer(lambda: self._step(value, exc))
            return
        if self._pending_throw is not None and exc is None:
            exc, self._pending_throw = self._pending_throw, None
        self.sim._current = self
        try:
            if exc is not None:
                target = self.gen.throw(exc)
            else:
                target = self.gen.send(value)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except StopProcess:
            self._finish_err(Killed(f"process {self.name!r} killed"))
            return
        except Killed as kexc:
            self._finish_err(kexc)
            return
        except BaseException as err:
            self._finish_err(err)
            return
        finally:
            self.sim._current = None
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish_err(
                TypeError(
                    f"process {self.name!r} yielded {target!r}; processes may "
                    "only yield Event instances (Timeout, Process, ...)"
                )
            )
            return
        if target.sim is not self.sim:
            self._finish_err(SimError("yielded event belongs to a different Simulator"))
            return
        self._waiting_on = target
        target._add_callback(self._resume_cb)

    def _finish_ok(self, value: Any) -> None:
        self.gen.close()
        if not self._triggered:
            self.succeed(value)

    def _finish_err(self, exc: BaseException) -> None:
        self.gen.close()
        if not self._triggered:
            # A process dying with an exception fails its join-event.  If
            # nobody ever joins it, the simulator surfaces the error at the
            # end of run() so failures cannot vanish silently.
            self.sim._note_crash(self, exc)
            self.fail(exc)

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        # Registering a waiter on a process means its outcome is observed;
        # the waiter owns any exception, so run() will not re-raise it.
        self.sim._observed_crash_events.add(id(self))
        super()._add_callback(cb)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._triggered else ("running" if self._started else "new")
        return f"<Process {self.name!r} {state}>"


class AllOf(Event):
    """Succeeds when all child events have fired; value is the list of their
    values (in the given order).  Fails fast on the first child failure."""

    __slots__ = ("_remaining", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        events = list(events)
        self._values: list[Any] = [None] * len(events)
        self._remaining = len(events)
        if self._remaining == 0:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev._add_callback(self._make_cb(i))

    def _make_cb(self, i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self._triggered:
                return
            if ev._exc is not None:
                self.fail(ev._exc)
                return
            self._values[i] = ev._value
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(list(self._values))

        return cb


class AnyOf(Event):
    """Succeeds when the first child fires; value is ``(index, value)``.

    Once decided it unsubscribes from the losing children: a ``Timeout``
    raced against a response and left with no other waiter is then
    tombstoned instead of firing later and holding ``run()`` open.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = [(ev, self._make_cb(i)) for i, ev in enumerate(events)]
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for ev, cb in self._children:
            ev._add_callback(cb)

    def _make_cb(self, i: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self._triggered:
                return
            if ev._exc is not None:
                self.fail(ev._exc)
            else:
                self.succeed((i, ev._value))
            children, self._children = self._children, None
            for child, child_cb in children:
                if child is not ev:
                    child._discard_callback(child_cb)

        return cb


class Simulator:
    """The event loop: a time-ordered queue of pending event firings.

    ``run(until=None)`` executes until the queue drains (or simulated time
    reaches ``until``).  All times are simulated seconds.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue = CalendarQueue()
        self._current: Optional[Process] = None
        self._crashes: list[tuple[Process, BaseException]] = []
        self._observed_crash_events: set[int] = set()

    # -- factory helpers ------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        domain: Optional[Domain] = None,
    ) -> Process:
        return Process(self, gen, name=name, domain=domain)

    def domain(self, name: str = "") -> Domain:
        return Domain(self, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float) -> None:
        event._entry = self._queue.push(self.now + delay, event._fire, self.now)

    def _call_soon(self, thunk: Callable[[], None]) -> None:
        self._queue.push(self.now, thunk, self.now)

    def call_at(self, when: float, thunk: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``."""
        if when < self.now:
            raise SimError(f"call_at({when}) is in the past (now={self.now})")
        self._queue.push(when, thunk, self.now)

    def _revive(self, event: Event, when: float) -> None:
        """Re-queue a cancelled-but-revived event firing (see
        ``Event._add_callback``); past-due firings deliver promptly."""
        event._entry = self._queue.push(max(when, self.now), event._fire, self.now)

    # -- crash bookkeeping ------------------------------------------------
    def _note_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    # -- main loop ----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``now`` would pass ``until``.

        Returns the final simulated time.  Raises the first unhandled
        process exception once the loop stops, so silent failures are
        impossible.
        """
        queue = self._queue
        pop = queue.pop
        while True:
            entry = pop(until)
            if entry is None:
                if until is not None and until > self.now:
                    # stopped on the horizon (or drained short of it)
                    self.now = until
                break
            when = entry[0]
            if when > self.now:
                self.now = when
            entry[2]()
        self.raise_pending_crash()
        return self.now

    def step(self) -> bool:
        """Execute a single queued firing.  Returns False if queue empty."""
        entry = self._queue.pop()
        if entry is None:
            return False
        when = entry[0]
        if when > self.now:
            self.now = when
        entry[2]()
        return True

    def peek(self) -> Optional[float]:
        """Time of the next queued firing, or None if the queue is empty."""
        return self._queue.peek()

    def raise_pending_crash(self) -> None:
        """Re-raise the first process crash that no other process observed."""
        for proc, exc in self._crashes:
            if id(proc) in self._observed_crash_events:
                continue
            self._observed_crash_events.add(id(proc))
            raise SimError(f"process {proc.name!r} died: {exc!r}") from exc
