"""Shared fixtures."""

import signal
from types import SimpleNamespace

import pytest

from specgraph import exactpoly, mate


@pytest.fixture
def force_modular(monkeypatch):
    """force_modular() makes every matrix fail the float64 pass's
    certificate, so that charpoly_rows sends it to the modular batch."""
    return lambda: monkeypatch.setattr(exactpoly, "_EXACT", 0.0)


@pytest.fixture
def fake_pools(monkeypatch):
    """fake_pools(cpus) makes mate see cpus CPUs and run every pool's tasks
    in this process; it returns the [size, exception type at exit] of each
    pool opened so far, with "open" for a pool not yet exited."""
    pools = []

    class Pool:
        def __init__(self, size):
            self.record = [size, "open"]
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            self.record[1] = exc_type
            return False

        def imap_unordered(self, func, tasks):
            return map(func, tasks)

    def install(cpus):
        monkeypatch.setattr(mate, "get_context",
                            lambda method: SimpleNamespace(Pool=Pool))
        monkeypatch.setattr(mate.os, "cpu_count", lambda: cpus)
        return pools

    return install


@pytest.fixture
def real_pool(monkeypatch):
    """Two real fork workers whatever the CPU count and three graphs per
    stream chunk; an alarm fails a test whose pool never delivers a result
    instead of letting it hang."""
    monkeypatch.setattr(mate.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mate, "_CHUNK", 3)

    def expire(signum, frame):
        raise TimeoutError("no pool result within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
