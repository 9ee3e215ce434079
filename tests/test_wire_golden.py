"""Golden wire transcripts: one sha256 per scenario over every request the
client sends and every reply it reads, compared with `tests/golden/wire.json`.

Each scenario runs against a fresh in-process sim, from a fixed seed, so
its bytes depend on nothing else that ran in the process.  The scenarios
are about 50 cycles of each benchmark workload's shape (built here, not
taken from `bench/`), the C06 scan config driven through `run_due` over 5 s
of fake time, a flush of a list never read, a discovery cycle, and a
reconnect after the sim drops the session.

A change that means to change the wire regenerates the file, and says which
digest changed and why:

    PYTHONPATH=src python tests/test_wire_golden.py --write

With no argument the script prints the digests as JSON, so that they can be
compared under each Python the project supports.  It needs no pytest.
"""

import hashlib
import json
import logging
import random
import string
import sys
from pathlib import Path

from logixscan import encap
from logixscan.cip import CipType
from logixscan.client import PlcClient, PlcEndpoint, PlcError
from logixscan.plcsim import FaultPlan, PlcSim, TagStore
from logixscan.scanner import Direction, TagScanner

from test_schedule import FakeClock, run_until

GOLDEN = Path(__file__).resolve().parent / "golden" / "wire.json"
CYCLES = 50
SEED = 7
PERIOD_S = 1.0
DINT_MIN, DINT_MAX = -(1 << 31), (1 << 31) - 1


class Transcript:
    """A running sha256 of a client's exchanges: each request as sent, and
    each reply frame as read (or the error that ended the exchange)."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, kind: bytes, data: bytes) -> None:
        self.sha.update(kind + len(data).to_bytes(4, "little") + data)

    def attach(self, client: PlcClient) -> PlcClient:
        exchange = client._exchange

        def recorded(packet, context, expect=None):
            self.add(b"request", packet)
            try:
                header, payload = exchange(packet, context, expect)
            except PlcError as exc:
                self.add(b"failed", type(exc).__name__.encode())
                raise
            self.add(b"reply", bytes(client._rx[:encap.HEADER_SIZE]) + payload)
            return header, payload

        client._exchange = recorded
        return client


def scanner_on(sim, transcript, connected=False, **endpoint_kwargs) -> TagScanner:
    """A scanner whose one PLC is `sim`, its client's exchanges recorded."""
    sc = TagScanner()
    endpoint = PlcEndpoint("127.0.0.1", port=sim.port, request_timeout=5.0, **endpoint_kwargs)
    sc.add_plc("plc", endpoint, connected=connected)
    transcript.attach(sc._units["plc"].client)
    return sc


def scalar_names(rng, count=15, length=15):
    names = set()
    tail = string.ascii_letters + string.digits + "_"
    while len(names) < count:
        names.add(rng.choice(string.ascii_letters) + "".join(rng.choices(tail, k=length - 1)))
    return sorted(names)


def single_read(transcript):
    """One DINT scalar read per cycle, unconnected, round robin over 15."""
    rng = random.Random(SEED)
    store = TagStore()
    names = scalar_names(rng)
    for name in names:
        store.define(name, CipType.DINT, [rng.randint(DINT_MIN, DINT_MAX)])
    with PlcSim(store) as sim:
        client = transcript.attach(PlcClient(PlcEndpoint("127.0.0.1", port=sim.port)))
        client.connect()
        try:
            for cycle in range(CYCLES):
                client.read_tag(names[cycle % len(names)])
        finally:
            client.close()


def mixed_scan(transcript):
    """`scan_once` over 15 DINT scalars, a REAL[100] span and 352 BOOL-array
    bits in one list, unconnected; one REAL of the span changes on the PLC
    before each cycle."""
    rng = random.Random(SEED)
    store = TagStore()
    names = scalar_names(rng)
    for name in names:
        store.define(name, CipType.DINT, [rng.randint(DINT_MIN, DINT_MAX)])
    store.define("rspan", CipType.REAL, [rng.uniform(-1e6, 1e6) for _ in range(100)])
    store.define("bits", CipType.BOOL, [rng.random() < 0.5 for _ in range(352)])
    with PlcSim(store) as sim:
        sc = scanner_on(sim, transcript)
        for name in names:
            sc.add_tag("plc", name, PERIOD_S, elem_type=CipType.DINT)
        for i in range(100):
            sc.add_tag("plc", f"rspan[{i}]", PERIOD_S, elem_type=CipType.REAL)
        for i in range(352):
            sc.add_tag("plc", f"bits[{i}]", PERIOD_S, bool_array=True)
        try:
            for _cycle in range(CYCLES):
                store.set_tag(f"rspan[{rng.randrange(100)}]", rng.uniform(-1e6, 1e6))
                sc.scan_once("plc", PERIOD_S)
        finally:
            sc.stop()


def write_cycle(transcript):
    """On a connected session: stage 10 of 40 DINT outputs and 16 of 64
    BOOL-array bit outputs, flush, then read the list back."""
    rng = random.Random(SEED)
    store = TagStore()
    store.define("wout", CipType.DINT, [rng.randint(DINT_MIN, DINT_MAX) for _ in range(40)])
    store.define("bout", CipType.BOOL, [rng.random() < 0.5 for _ in range(64)])
    with PlcSim(store) as sim:
        sc = scanner_on(sim, transcript, connected=True)
        out = Direction.OUTPUT
        wout = [sc.add_tag("plc", f"wout[{i}]", PERIOD_S, out, CipType.DINT) for i in range(40)]
        bout = [
            sc.add_tag("plc", f"bout[{i}]", PERIOD_S, out, bool_array=True) for i in range(64)
        ]
        try:
            sc.scan_once("plc", PERIOD_S)
            for _cycle in range(CYCLES):
                for i in sorted(rng.sample(range(40), 10)):
                    sc.write(wout[i], rng.randint(DINT_MIN, DINT_MAX), immediate=False)
                for i in sorted(rng.sample(range(64), 16)):
                    sc.write(bout[i], rng.random() < 0.5, immediate=False)
                sc.flush("plc")
                sc.scan_once("plc", PERIOD_S)
        finally:
            sc.stop()


def c06_schedule(transcript):
    """The C06 config (352 bits at 0.1 s, three REAL[40] at 0.5 s), each list
    scanned as `run_due` finds it due, over 5 s of fake time."""
    store = TagStore()
    store.define("binp", CipType.BOOL, [i % 7 == 0 for i in range(352)])
    for name in ("ra", "rb", "rc"):
        store.define(name, CipType.REAL, [float(i) / 8 for i in range(40)])
    with PlcSim(store) as sim:
        sc = scanner_on(sim, transcript)
        for i in range(352):
            sc.add_tag("plc", f"binp[{i}]", 0.1, bool_array=True)
        for name in ("ra", "rb", "rc"):
            for i in range(40):
                sc.add_tag("plc", f"{name}[{i}]", 0.5, elem_type=CipType.REAL)
        try:
            # ticks summed from 0.1 land a hair early: stop just short of 5.0
            run_until(sc, FakeClock(), 5.0 - 1e-9)
        finally:
            sc.stop()


def cold_flush(transcript):
    """Outputs written before their list was ever read: the flush reads the
    list first, then writes a DINT span and BOOL-array bits."""
    store = TagStore()
    store.define("counts", CipType.DINT, [10, 20, 30, 40, 50])
    store.define("bits", CipType.BOOL, [i % 3 == 0 for i in range(64)])
    with PlcSim(store) as sim:
        sc = scanner_on(sim, transcript)
        out = Direction.OUTPUT
        staged = [
            (sc.add_tag("plc", "counts[1]", PERIOD_S, out, CipType.DINT), -7),
            (sc.add_tag("plc", "counts[3]", PERIOD_S, out, CipType.DINT), 99),
            (sc.add_tag("plc", "bits[5]", PERIOD_S, out, bool_array=True), True),
            (sc.add_tag("plc", "bits[40]", PERIOD_S, out, bool_array=True), False),
        ]
        try:
            for sub, value in staged:
                sc.write(sub, value, immediate=False)
            sc.flush("plc")
            sc.scan_once("plc", PERIOD_S)
        finally:
            sc.stop()


def discovery(transcript):
    """Members of undeclared type, one naming no tag: the first cycle reads
    their types, the next ones their values."""
    store = TagStore()
    store.define("TEST", CipType.REAL, [0.0028152466])
    store.define("counts", CipType.DINT, [10, 20, 30, 40, 50])
    store.define("small", CipType.INT, [-3, 4])
    with PlcSim(store) as sim:
        sc = scanner_on(sim, transcript)
        for tag in ("TEST", "counts[1]", "counts[2]", "small[1]", "nosuch"):
            sc.add_tag("plc", tag, PERIOD_S)
        try:
            for _cycle in range(3):
                sc.scan_once("plc", PERIOD_S)
        finally:
            sc.stop()


def reconnect(transcript):
    """A connected session that the sim drops on every third data request:
    each drop fails a cycle, and the next cycle registers a new session and
    opens a new connection first."""
    store = TagStore()
    store.define("counts", CipType.DINT, [10, 20, 30, 40, 50])
    with PlcSim(store, FaultPlan(drop_after=3)) as sim:
        # a reconnect is never paced: each cycle after a drop tries again
        sc = scanner_on(sim, transcript, connected=True, reconnect_period=1e-6)
        for i in (0, 2, 4):
            sc.add_tag("plc", f"counts[{i}]", PERIOD_S, elem_type=CipType.DINT)
        try:
            for _cycle in range(8):
                sc.scan_once("plc", PERIOD_S)
        finally:
            sc.stop()


SCENARIOS = {
    fn.__name__: fn
    for fn in (single_read, mixed_scan, write_cycle, c06_schedule, cold_flush, discovery,
               reconnect)
}


def digests() -> dict[str, str]:
    """Each scenario's transcript digest, by name."""
    out = {}
    for name, scenario in SCENARIOS.items():
        transcript = Transcript()
        scenario(transcript)
        out[name] = transcript.sha.hexdigest()
    return out


def test_every_scenario_exchanges_the_golden_bytes():
    assert digests() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    logging.basicConfig(level=logging.ERROR)  # the scenarios' failing lists warn
    found = digests()
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(found, indent=2) + "\n")
    elif sys.argv[1:]:
        sys.exit("usage: test_wire_golden.py [--write]")
    else:
        print(json.dumps(found, indent=2))
