"""Fixtures shared across the tier-1 suite."""

import collections
import contextlib
import sys

import pytest

from repro.scif import NativeScif


@pytest.fixture
def scif_sends(monkeypatch):
    """Completed ``NativeScif.send`` calls, counted by a spy."""
    sent = []
    real_send = NativeScif.send

    def send(self, *args, **kwargs):
        n = yield from real_send(self, *args, **kwargs)
        sent.append(n)
        return n

    monkeypatch.setattr(NativeScif, "send", send)
    return sent


@pytest.fixture
def reductions():
    """A context manager that counts numpy ``max()`` reductions (calls into
    numpy's ``_amax``) with a profile hook, keyed by the function that
    called ``holds_nonzero`` (or ``max()`` itself)."""

    @contextlib.contextmanager
    def count():
        seen = collections.Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_amax":
                caller = frame.f_back
                if caller is not None and caller.f_code.co_name == "holds_nonzero":
                    caller = caller.f_back
                seen[caller.f_code.co_name if caller is not None else "?"] += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            yield seen
        finally:
            sys.setprofile(previous)

    return count
