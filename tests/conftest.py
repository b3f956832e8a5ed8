"""Fixtures shared across the tier-1 suite."""

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
