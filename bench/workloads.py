"""Seeded inputs and the three closed-loop workloads.

Every workload runs one cycle at a time from one thread over one TCP
session: the next cycle starts only when the previous one has completed.
The seed decides tag names, tag values and the write schedule; sizes stay
fixed so that every seed plans the same transfers.

- single_read: one DINT scalar per cycle through `PlcClient.read_tag`,
  unconnected.  The smallest packet, where per-round-trip cost dominates;
  the scanner is not used, so a scanner-only change must not move it.
- mixed_scan: `TagScanner.scan_once` over 467 input subscriptions (15
  scalars, a coalesced REAL[100] span, 352 BOOL-array bits), unconnected,
  planned as two Multi-Request transfers.  Fan-out into subscription cells
  dominates the client side.
- write_cycle: on a connected session, stage 10 DINT and 16 bit writes
  into one output list, `flush`, then `scan_once` to read them back.  The
  only workload on the connected path and the only one where the write
  path and the `tags` layer are hot.
"""

from __future__ import annotations

import random
import string
import struct
import time
from dataclasses import dataclass, field

from logixscan.cip import CipType
from logixscan.client import PlcClient, PlcEndpoint
from logixscan.scanner import Direction, Quality, Subscription, TagScanner

SCALARS = 15
SCALAR_NAME_LEN = 15
REAL_SPAN = 100
BITS = 352
WOUT = 40
BOUT = 64
DINT_WRITES = 10
BIT_WRITES = 16
PERIOD_S = 1.0
REQUEST_TIMEOUT_S = 5.0
DINT_MIN, DINT_MAX = -(1 << 31), (1 << 31) - 1


def _float32(x: float) -> float:
    return struct.unpack("<f", struct.pack("<f", x))[0]


def _scalar_names(rng: random.Random) -> list[str]:
    names: set[str] = set()
    tail = string.ascii_letters + string.digits + "_"
    while len(names) < SCALARS:
        names.add(rng.choice(string.ascii_letters)
                  + "".join(rng.choices(tail, k=SCALAR_NAME_LEN - 1)))
    return sorted(names)


@dataclass
class Inputs:
    """Everything generated from one seed."""

    seed: int
    scalars: dict[str, int]
    rspan: list[float]
    bits: list[bool]
    # WOUT DINTs then BOUT bits: the PLC's outputs as the benchmark
    # expects them, updated as each cycle's writes land
    outputs: list
    rng: random.Random = field(repr=False)

    def tag_file(self) -> str:
        """The simulator's tag file for these inputs."""
        lines = [f"{name} DINT = {value}" for name, value in self.scalars.items()]
        lines.append(f"rspan REAL[{REAL_SPAN}] = " + ", ".join(map(repr, self.rspan)))
        lines.append(f"bits BOOL[{BITS}] = " + ", ".join("1" if b else "0" for b in self.bits))
        wout, bout = self.outputs[:WOUT], self.outputs[WOUT:]
        lines.append(f"wout DINT[{WOUT}] = " + ", ".join(map(str, wout)))
        lines.append(f"bout BOOL[{BOUT}] = " + ", ".join("1" if b else "0" for b in bout))
        return "\n".join(lines) + "\n"


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    names = _scalar_names(rng)
    return Inputs(
        seed=seed,
        scalars={name: rng.randint(DINT_MIN, DINT_MAX) for name in names},
        rspan=[_float32(rng.uniform(-1e6, 1e6)) for _ in range(REAL_SPAN)],
        bits=[rng.random() < 0.5 for _ in range(BITS)],
        outputs=[rng.randint(DINT_MIN, DINT_MAX) for _ in range(WOUT)]
        + [rng.random() < 0.5 for _ in range(BOUT)],
        # the write schedule continues from the same generator
        rng=rng,
    )


class Workload:
    """One closed loop.  `cycle` is timed; everything else is not."""

    name = ""
    connected = False
    plan_s = 0.0  # time of the first plan of a fresh scan list

    def __init__(self, inputs: Inputs, port: int):
        self.inputs = inputs
        self.endpoint = PlcEndpoint(
            "127.0.0.1", port=port, request_timeout=REQUEST_TIMEOUT_S
        )

    def setup(self) -> None:
        """Build, connect and complete the first cycle (the timed set-up)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate the next cycle's inputs."""

    def cycle(self) -> None:
        raise NotImplementedError

    def check(self, started_wall: float) -> tuple[int, int]:
        """(cells attempted, cells failed) of the cycle just run."""
        raise NotImplementedError

    def final_check(self) -> tuple[int, int]:
        """Cells attempted and failed by a check after the run."""
        return 0, 0

    @property
    def client(self) -> PlcClient:
        raise NotImplementedError

    def plan(self) -> list[int]:
        """Reads per transfer of the workload's scan list."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SingleRead(Workload):
    name = "single_read"

    def setup(self) -> None:
        self.names = list(self.inputs.scalars)
        self.next = 0
        self.value = None
        self._client = PlcClient(self.endpoint)
        self._client.connect()
        self.prepare()
        self.cycle()

    def prepare(self) -> None:
        self.tag = self.names[self.next % SCALARS]
        self.next += 1

    def cycle(self) -> None:
        self.value = None
        self.value = self._client.read_tag(self.tag)

    def check(self, started_wall: float) -> tuple[int, int]:
        value = self.value
        ok = (
            value is not None and value.type is CipType.DINT
            and value.elements == (self.inputs.scalars[self.tag],)
        )
        return 1, 0 if ok else 1

    @property
    def client(self) -> PlcClient:
        return self._client

    def plan(self) -> list[int]:
        return [1]

    def close(self) -> None:
        self._client.close()


class _ScanWorkload(Workload):
    """One scan list on one PLC; each cell must match `expected[index]`."""

    def setup(self) -> None:
        self.scanner = TagScanner()
        self.scanner.add_plc("plc", self.endpoint, connected=self.connected)
        # (subscription, expected type, index into self.expected)
        self.cells: list[tuple[Subscription, CipType, int]] = []
        self.expected: list = []
        self.subscribe()
        started = time.perf_counter()
        self.planned = self.scanner.plan_info("plc", PERIOD_S)
        self.plan_s = time.perf_counter() - started
        self.prepare()
        self.cycle()

    def subscribe(self) -> None:
        raise NotImplementedError

    def _add(self, tag: str, elem_type: CipType, want, direction=Direction.INPUT,
             bool_array: bool = False) -> Subscription:
        sub = self.scanner.add_tag(
            "plc", tag, PERIOD_S, direction, elem_type=elem_type, bool_array=bool_array
        )
        self.cells.append((sub, elem_type, len(self.expected)))
        self.expected.append(want)
        return sub

    def cycle(self) -> None:
        self.scanner.scan_once("plc", PERIOD_S)

    def failed_cells(self, started_wall: float) -> set[int]:
        """Indices of cells not read OK, in this cycle, with the expected value."""
        failed = set()
        for sub, elem_type, index in self.cells:
            value = sub.value
            if (
                sub.quality is not Quality.OK
                or sub.timestamp is None or sub.timestamp < started_wall
                or value is None or value.type is not elem_type
                or value.elements != (self.expected[index],)
            ):
                failed.add(index)
        return failed

    def check(self, started_wall: float) -> tuple[int, int]:
        return len(self.cells), len(self.failed_cells(started_wall))

    @property
    def client(self) -> PlcClient:
        return self.scanner._units["plc"].client

    def plan(self) -> list[int]:
        return self.planned

    def close(self) -> None:
        self.scanner.stop()


class MixedScan(_ScanWorkload):
    name = "mixed_scan"

    def subscribe(self) -> None:
        inputs = self.inputs
        for name, value in inputs.scalars.items():
            self._add(name, CipType.DINT, value)
        for i, value in enumerate(inputs.rspan):
            self._add(f"rspan[{i}]", CipType.REAL, value)
        for i, value in enumerate(inputs.bits):
            self._add(f"bits[{i}]", CipType.BOOL, value, bool_array=True)


class WriteCycle(_ScanWorkload):
    name = "write_cycle"
    connected = True

    def subscribe(self) -> None:
        out, outputs = Direction.OUTPUT, self.inputs.outputs
        self.wout = [
            self._add(f"wout[{i}]", CipType.DINT, outputs[i], out) for i in range(WOUT)
        ]
        self.bout = [
            self._add(f"bout[{i}]", CipType.BOOL, outputs[WOUT + i], out, bool_array=True)
            for i in range(BOUT)
        ]
        # share the model, so the next set-up starts from what has landed
        self.expected = outputs
        self.staged: list[tuple[Subscription, int, object]] = []

    def prepare(self) -> None:
        rng = self.inputs.rng
        self.staged = [
            (self.wout[i], i, rng.randint(DINT_MIN, DINT_MAX))
            for i in sorted(rng.sample(range(WOUT), DINT_WRITES))
        ] + [
            (self.bout[i], WOUT + i, rng.random() < 0.5)
            for i in sorted(rng.sample(range(BOUT), BIT_WRITES))
        ]

    def cycle(self) -> None:
        scanner = self.scanner
        for sub, _index, value in self.staged:
            scanner.write(sub, value, immediate=False)
        scanner.flush("plc")
        scanner.scan_once("plc", PERIOD_S)

    def check(self, started_wall: float) -> tuple[int, int]:
        """Every output reads back the model; every write also left no dirt."""
        for _sub, index, value in self.staged:
            self.expected[index] = value
        failed = self.failed_cells(started_wall)
        failed_writes = sum(
            1 for sub, index, _v in self.staged if sub.dirty or index in failed
        )
        return len(self.cells) + len(self.staged), len(failed) + failed_writes

    def final_check(self) -> tuple[int, int]:
        """Read the outputs back through a separate client."""
        oracle = PlcClient(self.endpoint)
        oracle.connect()
        try:
            words = oracle.read_tag("wout[0]", WOUT).elements
            packed = oracle.read_tag("bout[0]", BOUT // 32).elements
        finally:
            oracle.close()
        bits = [bool((packed[i // 32] >> (i % 32)) & 1) for i in range(BOUT)]
        landed = list(words) + bits
        return len(self.expected), sum(a != b for a, b in zip(landed, self.expected))


WORKLOADS = {w.name: w for w in (SingleRead, MixedScan, WriteCycle)}
