#!/usr/bin/env python3
"""Scan-cycle benchmark of logixscan against its simulator.

Starts `python -m logixscan sim` in a separate process on a loopback port
the OS assigns, then drives one closed-loop workload (see workloads.py)
from this process over one TCP session and prints its metrics.

    python3 bench/run.py                       # every workload, untraced and traced
    python3 bench/run.py --workload mixed_scan --seed 7 --seconds 10 --trace 0

With `--trace 0` the cycles are timed without instrumentation and the
end-to-end metrics are reported.  With `--trace 1` half of the time runs
untraced and half with span wrappers around every layer's entry points,
and the per-layer metrics are reported.  Wrappers are removed before the
run ends.  Every cycle's outputs are checked; the last line of output is a
JSON object {"correct", "attempted", "failed", "metrics"} and the exit
status is 1 when any check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = Path(__file__).resolve().parent / ".run"

SETUP_REPS = 31       # set-up is timed this many times per run; the median is reported
WARMUP_CYCLES = 50
COUNT_CYCLES = 20     # cycles of the wire-counting pass
SAMPLE_CAPACITY = 1 << 15  # cycle wall times kept per phase (see WallSamples)
SIM_START_TIMEOUT_S = 30.0
SIM_STOP_TIMEOUT_S = 10.0
TOPOLOGY = "loopback, sim in separate process"

# name -> unit; BENCHMARK.json lists the same names and units
END_TO_END = {
    "setup_s": "s",
    "cycle_ms_p50": "ms",
    "client_cpu_us_per_cycle": "us",
    "round_trips_per_cycle": "count",
    "wire_bytes_per_cycle": "bytes",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cycle_ms_p90": "ms",
    "scanner.self_us_per_cycle": "us",
    "scanner.self_ns_per_cell": "ns",
    "scanner.plan_us": "us",
    "cip.encode_us_per_cycle": "us",
    "cip.decode_us_per_cycle": "us",
    "cip.calls_per_cycle": "count",
    "encap.frame_us_per_cycle": "us",
    "client.round_trip_us_p50": "us",
    "client.wait_us_per_cycle": "us",
    "client.errors": "count",
    "client.reconnects": "count",
    "tags.calls_per_cycle": "count",
    "tags.us_per_cycle": "us",
    "plcsim.cpu_us_per_cycle": "us",
    "trace.overhead_share": "share",
    "cli.sim_launch_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


# ---------------------------------------------------------------------------
# the simulator process

class Sim:
    """`python -m logixscan sim` in a child process; always stopped on exit."""

    def __init__(self, tag_path: Path, workdir: Path):
        self.tag_path = tag_path
        self.err_path = workdir / "sim.err"
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.launch_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Sim":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        started = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "logixscan", "sim", str(self.tag_path), "--port", "0"],
                stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
                cwd=ROOT, env=env,
            )
        try:
            line = self._first_line()
            match = re.fullmatch(r"listening on (\S+):(\d+)", line)
            if match is None:
                raise BenchError(f"simulator did not start: {line!r}\n{self._stderr()}")
        except BaseException:
            self.stop()
            raise
        self.port = int(match.group(2))
        self.launch_s = time.perf_counter() - started

    def _first_line(self) -> str:
        fd = self.proc.stdout.fileno()
        os.set_blocking(fd, False)
        deadline = time.monotonic() + SIM_START_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            try:
                chunk = os.read(fd, 4096)
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise BenchError("simulator printed no address in time") from None
                time.sleep(0.005)
                continue
            if not chunk:
                break  # exited
            buf += chunk
        return buf.decode(errors="replace").strip()

    def _stderr(self) -> str:
        return self.err_path.read_text(errors="replace")[-2000:]

    def stop(self) -> None:
        """Interrupt, wait, and take the child's CPU time from its rusage."""
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        try:
            proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + SIM_STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.cpu_s = usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


class WallSamples:
    """Cycle wall times in a buffer of fixed size, so that the benchmark's
    memory does not grow with the number of cycles it runs.

    When the buffer is full every other sample is dropped and from then on
    only every second cycle is kept (then every fourth, ...), which leaves
    an even subsample of the whole phase.
    """

    def __init__(self, capacity: int = SAMPLE_CAPACITY):
        self.buf = array("q", bytes(8 * capacity))
        self.kept = 0
        self.stride = 1
        self.count = 0  # cycles seen, kept or not

    def add(self, ns: int) -> None:
        if self.count % self.stride == 0:
            if self.kept == len(self.buf):
                self.kept = len(self.buf) // 2
                self.buf[:self.kept] = self.buf[::2]
                self.stride *= 2
            self.buf[self.kept] = ns
            self.kept += 1
        self.count += 1

    def values(self) -> array:
        return self.buf[:self.kept]


@dataclass
class Phase:
    """Cycles of one measured phase."""

    wall_ns: WallSamples = field(default_factory=WallSamples)
    cpu_ns: int = 0
    cells: int = 0
    reconnects: int = 0

    @property
    def cycles(self) -> int:
        return self.wall_ns.count

    def wall_ms(self, q: float) -> float:
        """Cycle wall time at quantile q (0.5 is the median)."""
        values = self.wall_ns.values()
        if q == 0.5:
            return statistics.median(values) / 1e6
        return statistics.quantiles(values, n=100)[round(q * 100) - 1] / 1e6


def run_cycles(wl, tally: Tally, cycles: int | None = None, seconds: float | None = None) -> Phase:
    """Run closed-loop cycles, timing each and checking its outputs."""
    from logixscan import CipError, PlcError

    phase = Phase()
    reconnects = wl.client.reconnect_attempts
    gc.collect()
    deadline = time.perf_counter_ns() + int((seconds or 0) * 1e9)
    while True:
        wl.prepare()
        started_wall = time.time()
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            wl.cycle()
        except (PlcError, CipError) as exc:  # the check below counts the damage
            print(f"cycle failed: {exc}", file=sys.stderr)
        t1 = time.perf_counter_ns()
        phase.cpu_ns += time.process_time_ns() - cpu0
        phase.wall_ns.add(t1 - t0)
        attempted, failed = wl.check(started_wall)
        phase.cells += attempted
        tally.add((attempted, failed))
        if (cycles is not None and phase.cycles >= cycles) or (
            cycles is None and t1 >= deadline
        ):
            break
    phase.reconnects = wl.client.reconnect_attempts - reconnects
    return phase


@dataclass
class Run:
    workload: str
    seed: int
    trace: int
    plan: list[int]
    tally: Tally
    metrics: dict[str, float]
    samples: dict[str, int]  # measured cycles per phase


def run_workload(name: str, seed: int, seconds: float, trace: int) -> Run:
    from spans import Tracer, count_wire, wrap_layers
    from workloads import WORKLOADS, make_inputs

    inputs = make_inputs(seed)
    tally = Tally()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RUN_DIR))
    try:
        tag_path = workdir / "tags.txt"
        tag_path.write_text(inputs.tag_file())
        with Sim(tag_path, workdir) as sim:
            setup_s, plan_s = [], []
            tracer = Tracer()
            wl = None
            try:
                for _ in range(SETUP_REPS):
                    if wl is not None:
                        wl.close()
                    wl = WORKLOADS[name](inputs, sim.port)
                    started_wall = time.time()
                    started = time.perf_counter()
                    wl.setup()
                    setup_s.append(time.perf_counter() - started)
                    tally.add(wl.check(started_wall))
                    plan_s.append(wl.plan_s)
                total_cycles = SETUP_REPS
                total_cycles += run_cycles(wl, tally, cycles=WARMUP_CYCLES).cycles
                if trace:
                    untraced = run_cycles(wl, tally, seconds=seconds / 2)
                    wrap_layers(tracer)
                    traced = run_cycles(wl, tally, seconds=seconds / 2)
                    tracer.restore()
                    total_cycles += untraced.cycles + traced.cycles
                else:
                    timed = run_cycles(wl, tally, seconds=seconds)
                    # before any statistics, whose temporaries grow with the cycles run
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                    wire = count_wire(tracer)
                    run_cycles(wl, tally, cycles=COUNT_CYCLES)
                    tracer.restore()
                tally.add(wl.final_check())
            finally:
                tracer.restore()
                if wl is not None:
                    wl.close()
        if trace:
            with Sim(tag_path, workdir) as idle:
                pass
            sim_cpu_s = (sim.cpu_s - idle.cpu_s) / total_cycles
            metrics = layer_metrics(tracer, traced, untraced, plan_s, sim, sim_cpu_s)
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "cycle_ms_p50": timed.wall_ms(0.5),
                "client_cpu_us_per_cycle": timed.cpu_ns / timed.cycles / 1e3,
                "round_trips_per_cycle": wire.round_trips / COUNT_CYCLES,
                "wire_bytes_per_cycle": (wire.request_bytes + wire.reply_bytes) / COUNT_CYCLES,
                "ok_share": 1.0 - tally.failed / tally.attempted,
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    samples = (
        {"untraced": untraced.cycles, "traced": traced.cycles} if trace
        else {"timed": timed.cycles}
    )
    return Run(name, seed, trace, wl.plan(), tally, metrics, samples)


def layer_metrics(tracer, traced: Phase, untraced: Phase, plan_s, sim: Sim,
                  sim_cpu_s: float) -> dict[str, float]:
    """Per-layer numbers of the traced phase, per measured cycle."""
    cycles = traced.cycles
    stats = tracer.stats
    scanner = tracer.layer("scanner")
    cip_decode = ("decode_", "parse_", "split_", "unpack_")
    round_trips = stats["client.round_trip"].durations_ns
    return {
        "cycle_ms_p90": untraced.wall_ms(0.9),
        "scanner.self_us_per_cycle": scanner.self_ns / cycles / 1e3,
        "scanner.self_ns_per_cell": scanner.self_ns / traced.cells,
        "scanner.plan_us": statistics.median(plan_s) * 1e6,
        "cip.encode_us_per_cycle":
            tracer.layer("cip", lambda fn: not fn.startswith(cip_decode)).self_ns / cycles / 1e3,
        "cip.decode_us_per_cycle":
            tracer.layer("cip", lambda fn: fn.startswith(cip_decode)).self_ns / cycles / 1e3,
        "cip.calls_per_cycle": tracer.layer("cip").calls / cycles,
        "encap.frame_us_per_cycle": tracer.layer("encap").self_ns / cycles / 1e3,
        "client.round_trip_us_p50": statistics.median(round_trips) / 1e3,
        "client.wait_us_per_cycle": stats["client._exchange"].self_ns / cycles / 1e3,
        "client.errors": stats["client.round_trip"].errors,
        "client.reconnects": traced.reconnects,
        "tags.calls_per_cycle": tracer.layer("tags").calls / cycles,
        "tags.us_per_cycle": tracer.layer("tags").self_ns / cycles / 1e3,
        "plcsim.cpu_us_per_cycle": sim_cpu_s * 1e6,
        "trace.overhead_share": traced.wall_ms(0.5) / untraced.wall_ms(0.5) - 1.0,
        "cli.sim_launch_s": sim.launch_s,
    }


# ---------------------------------------------------------------------------
# command line

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="single_read, mixed_scan, write_cycle or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per run (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every result with its context to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated benchmark still stops its simulator
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "logixscan" / "__init__.py").is_file():
        print(f"error: no logixscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from logixscan import CipError, PlcError
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = []
    try:
        for name in names:
            for trace in traces:
                runs.append(run_workload(name, args.seed, args.seconds, trace))
    except (BenchError, OSError, PlcError, CipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    single = len(runs) == 1
    context = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "topology": TOPOLOGY,
        "plans": {run.workload: run.plan for run in runs},
        "cycles": {f"{run.workload}/trace{run.trace}": run.samples for run in runs},
    }
    metrics = {}
    for run in runs:
        units = PER_LAYER if run.trace else END_TO_END
        cycles = ", ".join(f"{n} {phase}" for phase, n in run.samples.items())
        for metric, value in run.metrics.items():
            print(f"{run.workload:<12} {metric:<28} {value:>14.6g} {units[metric]:<6}"
                  f" (seed {run.seed}; cycles: {cycles})")
            key = metric if single else f"{run.workload}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    print("context " + json.dumps(context))
    result = {
        "correct": all(run.tally.failed == 0 for run in runs),
        "attempted": sum(run.tally.attempted for run in runs),
        "failed": sum(run.tally.failed for run in runs),
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.write_text(json.dumps({"context": context, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
