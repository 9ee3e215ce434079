"""The scan schedule: `TagScanner.run_due` driven by a fake clock, and the
worker that only waits for it.

A stub scan stands in for each list's cycle: it records which list ran and
when, and advances the fake clock by the list's cost, as a slow transfer
would.  So these tests open no socket, start no thread and never sleep,
except the last, which watches the real worker wait.
"""

import threading
import time

from logixscan.cip import CipType
from logixscan.client import PlcEndpoint
from logixscan.scanner import TagScanner


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def stub_scanner(costs=None, now=0.0):
    """A scanner on one PLC whose cycles touch no wire: each appends
    (period, start time) to `scans` and advances the clock by its list's
    cost in `costs` (none by default)."""
    costs = costs or {}
    sc = TagScanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    clock = FakeClock(now)
    scans = []

    def scan_list(unit, sl):
        scans.append((sl.period_s, clock.now))
        clock.now += costs.get(sl.period_s, 0.0)

    sc._scan_list = scan_list
    return sc, clock, scans


def add_list(sc, period_s):
    sc.add_tag("plc", "counts[0]", period_s, elem_type=CipType.DINT)


def run_until(sc, clock, horizon, calls=1000):
    """Call `run_due` at each time it names, from the clock's time, until
    the next list comes due at `horizon` or later (within `calls` calls: a
    schedule that stops moving fails here rather than spinning)."""
    due = sc.run_due("plc", clock)
    for _call in range(calls):
        if due >= horizon:
            return
        clock.now = max(clock.now, due)
        due = sc.run_due("plc", clock)
    raise AssertionError(f"the schedule stuck at {due} short of {horizon}")


def test_a_plc_with_no_list_has_nothing_due():
    sc, clock, scans = stub_scanner()
    assert sc.run_due("plc", clock) is None
    assert scans == []


def test_the_first_tick_is_the_first_call_that_sees_the_list():
    sc, clock, scans = stub_scanner(now=100.0)
    add_list(sc, 0.25)
    assert sc.run_due("plc", clock) == 100.25
    assert scans == [(0.25, 100.0)]


def test_a_list_is_due_at_its_tick_and_not_before():
    sc, clock, scans = stub_scanner()
    add_list(sc, 0.25)
    sc.run_due("plc", clock)
    clock.now = 0.125
    assert sc.run_due("plc", clock) == 0.25  # not due: nothing scanned
    assert scans == [(0.25, 0.0)]
    clock.now = 0.25
    assert sc.run_due("plc", clock) == 0.5  # due at its tick exactly
    assert scans == [(0.25, 0.0), (0.25, 0.25)]
    assert sc.stats("plc", 0.25).overruns == 0


def test_a_slow_cycle_counts_each_tick_it_missed_and_skips_them():
    sc, clock, scans = stub_scanner({0.25: 0.625})
    add_list(sc, 0.25)
    # ends at 0.625: the ticks at 0.25 and 0.5 passed while it ran
    assert sc.run_due("plc", clock) == 0.75
    assert sc.stats("plc", 0.25).overruns == 2
    clock.now = 0.75
    sc.run_due("plc", clock)
    assert [start for _period, start in scans] == [0.0, 0.75]  # none at 0.25 or 0.5
    assert sc.stats("plc", 0.25).overruns == 4


def test_a_cycle_that_ends_on_its_next_tick_overruns_it():
    sc, clock, _scans = stub_scanner({0.25: 0.25})
    add_list(sc, 0.25)
    assert sc.run_due("plc", clock) == 0.5
    assert sc.stats("plc", 0.25).overruns == 1


def test_an_overrun_counted_from_the_clock_read_after_each_list():
    # the first list's cycle makes the second late, but only the second's
    # own cycle, timed from its own finish, counts against it
    sc, clock, scans = stub_scanner({0.5: 0.375, 1.0: 0.0625})
    add_list(sc, 0.5)
    add_list(sc, 1.0)
    assert sc.run_due("plc", clock) == 0.5
    assert scans == [(0.5, 0.0), (1.0, 0.375)]
    assert sc.stats("plc", 0.5).overruns == 0
    assert sc.stats("plc", 1.0).overruns == 0


def test_a_list_added_between_ticks_is_due_at_once():
    sc, clock, scans = stub_scanner()
    add_list(sc, 1.0)
    assert sc.run_due("plc", clock) == 1.0
    clock.now = 0.375
    add_list(sc, 0.25)
    assert sc.run_due("plc", clock) == 0.625  # the new list's next tick
    assert scans == [(1.0, 0.0), (0.25, 0.375)]
    clock.now = 0.625
    assert sc.run_due("plc", clock) == 0.875
    assert scans[-1] == (0.25, 0.625)


def test_the_c06_periods_meet_with_no_overrun():
    # the C06 lists: 0.1 s (one 5 ms round trip) and 0.5 s (two).  Ticks
    # summed from 0.1 land a hair under 1.0, so the run stops just short
    # of 1.0, before the eleventh fast tick
    sc, clock, scans = stub_scanner({0.1: 0.005, 0.5: 0.010})
    add_list(sc, 0.1)
    add_list(sc, 0.5)
    run_until(sc, clock, 1.0 - 1e-9)
    fast = [start for period, start in scans if period == 0.1]
    slow = [start for period, start in scans if period == 0.5]
    assert (len(fast), len(slow)) == (10, 2)
    assert slow == [0.005, 0.505]  # each right after the fast cycle it meets
    assert sc.stats("plc", 0.1).overruns == sc.stats("plc", 0.5).overruns == 0


class CountingWake(threading.Event):
    """A worker's wake event that records the timeout of each wait."""

    def __init__(self):
        super().__init__()
        self.timeouts = []

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        return super().wait(timeout)


def test_an_idle_worker_waits_once_with_no_timeout():
    sc = TagScanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    unit = sc._units["plc"]
    wake = unit.wake = CountingWake()
    scanned = threading.Event()
    sc._scan_list = lambda unit, sl: scanned.set()
    sc.start()
    worker = unit.thread
    try:
        time.sleep(0.5)
        assert wake.timeouts == [None]  # no poll while the PLC has no list
        add_list(sc, 10.0)
        assert scanned.wait(1.0), "the new list was not scanned at once"
    finally:
        sc.stop()
    assert not worker.is_alive()
    assert len(wake.timeouts) == 2 and 9.0 < wake.timeouts[1] <= 10.0


class StopAtFirstClear(threading.Event):
    """A worker's wake event at whose first `clear()` a `stop()` lands, just
    before the clear."""

    def __init__(self, unit):
        super().__init__()
        self.unit = unit
        self.stopped = False

    def clear(self):
        if not self.stopped:
            self.stopped = True
            self.unit.running = False  # what stop() does, in its order
            self.set()
        super().clear()


def test_a_stop_that_lands_as_the_worker_clears_its_wake_ends_it():
    # a worker that cleared its wake after it last read `running` would
    # wait out the list's 10 s period with the stop lost
    sc = TagScanner()
    sc.add_plc("plc", PlcEndpoint("127.0.0.1"))
    unit = sc._units["plc"]
    unit.wake = StopAtFirstClear(unit)
    sc._scan_list = lambda unit, sl: None
    add_list(sc, 10.0)  # sets the wake, as a list added before start() does
    sc.start()
    worker = unit.thread
    try:
        worker.join(2.0)
        assert not worker.is_alive(), "the worker missed the stop and waits on"
    finally:
        sc.stop()
