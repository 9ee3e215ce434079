import struct
import threading

import pytest

from logixscan import cip
from logixscan.cip import CipType
from logixscan.client import PlcClient, PlcEndpoint
from logixscan.plcsim import FaultPlan, PlcSim, TagStore

# Verdict lines from the acceptance tests; shown after the run so they
# survive output capture.
VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance")
        for line in VERDICTS:
            terminalreporter.write_line(line)


def offset_table(items):
    """Item count, offsets and items, packed independently of cip."""
    offsets, pos = [], 2 + 2 * len(items)
    for item in items:
        offsets.append(pos)
        pos += len(item)
    return struct.pack(f"<{1 + len(items)}H", len(items), *offsets) + b"".join(items)


def make_store(limit: int = 500) -> TagStore:
    store = TagStore(limit=limit)
    store.define("TEST", CipType.REAL, [0.0028152466])
    store.define("counts", CipType.DINT, [10, 20, 30, 40, 50])
    store.define("flag", CipType.BOOL, [True])
    return store


@pytest.fixture
def sim():
    with PlcSim(store=make_store()) as running:
        yield running


@pytest.fixture
def client(sim):
    c = PlcClient(PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=2.0))
    c.connect()
    yield c
    c.close()


def connect_to(sim, **endpoint_kwargs) -> PlcClient:
    kwargs = {"request_timeout": 2.0}
    kwargs.update(endpoint_kwargs)
    c = PlcClient(PlcEndpoint("127.0.0.1", port=sim.port, **kwargs))
    c.connect()
    return c


def counted_on(thread, monkeypatch, *names):
    """Calls made on `thread` (not the sim's) of the named functions, in
    order: each name a `cip` function, or an (owner, attribute) pair."""
    calls = []

    def counted(name, fn):
        def call(*args):
            if threading.current_thread() is thread:
                calls.append(name)
            return fn(*args)
        return call

    for name in names:
        owner, attr = (cip, name) if isinstance(name, str) else name
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    return calls
