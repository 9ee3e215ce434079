"""CLI behavior: output formats, exit codes, scan loop, sim subcommand."""

import csv
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from logixscan.cli import EXIT_TIMEOUT, _parse_faults, main
from logixscan.client import PlcClient, PlcEndpoint, PlcError
from logixscan.plcsim import FaultPlan, PlcSim

from conftest import make_store


def run_cli(sim, *argv, capsys=None):
    code = main([argv[0], "127.0.0.1", "--port", str(sim.port), *argv[1:]])
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_prints_product_name(sim, capsys):
    code, out, _err = run_cli(sim, "info", capsys=capsys)
    assert code == 0
    assert out == "1756-ENET/A \n"


def test_read_real_output(sim, capsys):
    code, out, _err = run_cli(sim, "read", "TEST", capsys=capsys)
    assert code == 0
    assert out == "REAL[1] 0.00281525\n"


def test_read_array_slice(sim, capsys):
    code, out, _err = run_cli(sim, "read", "counts[1]", "2", capsys=capsys)
    assert code == 0
    assert out == "DINT[2] 20 30\n"


def test_read_bool_output(sim, capsys):
    code, out, _err = run_cli(sim, "read", "flag", capsys=capsys)
    assert code == 0
    assert out == "BOOL[1] 1\n"


def test_write_uses_existing_type(sim, capsys):
    assert run_cli(sim, "write", "counts[0]", "-12") == 0
    code, out, _err = run_cli(sim, "read", "counts[0]", capsys=capsys)
    assert code == 0
    assert out == "DINT[1] -12\n"
    assert sim.store.get_tag("counts[0]").scalar == -12


def test_write_real_value(sim, capsys):
    assert run_cli(sim, "write", "TEST", "1.5") == 0
    code, out, _err = run_cli(sim, "read", "TEST", capsys=capsys)
    assert out == "REAL[1] 1.5\n"


def test_write_multiple_values(sim):
    assert run_cli(sim, "write", "counts[1]", "8", "9") == 0
    assert sim.store.get_tag("counts").elements == (10, 8, 9, 40, 50)


def test_unknown_tag_is_cip_error(sim, capsys):
    code, _out, err = run_cli(sim, "read", "missing", capsys=capsys)
    assert code == 3
    assert err.startswith("error:")


def test_bad_tag_syntax_is_usage_error(sim, capsys):
    code, _out, err = run_cli(sim, "read", "1bad[", capsys=capsys)
    assert code == 1
    assert err.startswith("error:")


def test_bad_write_value_is_usage_error(sim, capsys):
    code, _out, err = run_cli(sim, "write", "counts[0]", "twelve", capsys=capsys)
    assert code == 1
    assert err.startswith("error:")


def test_connection_refused_exit_code(capsys):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["read", "127.0.0.1", "TEST", "--port", str(port), "--timeout-ms", "300"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_timeout_exit_code(capsys):
    with PlcSim(make_store(), FaultPlan(latency_s=0.5)) as sim:
        code = main([
            "read", "127.0.0.1", "TEST",
            "--port", str(sim.port), "--timeout-ms", "100",
        ])
    assert code == EXIT_TIMEOUT == 4
    assert capsys.readouterr().err.startswith("error:")


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["scan", "scan.conf", "--limit", "20"],
    ["scan", "scan.conf", "--timeout-ms", "1"],
    ["scan", "scan.conf", "--connected"],
    ["sim", "--connected"],
    ["sim", "--no-coalesce"],
    ["read", "127.0.0.1", "TEST", "--no-coalesce"],
])
def test_option_a_subcommand_does_not_read_is_usage_error(argv, capsys):
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "read" in capsys.readouterr().out


def test_scan_missing_config_file(capsys, tmp_path):
    code = main(["scan", str(tmp_path / "absent.conf")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_scan_bad_config(capsys, tmp_path):
    bad = tmp_path / "scan.conf"
    bad.write_text("plc main 1.2.3.4\n")  # missing slot
    code = main(["scan", str(bad)])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_scan_end_to_end(sim, capsys, tmp_path):
    config = tmp_path / "scan.conf"
    config.write_text(
        f"plc plc 127.0.0.1:{sim.port} slot=0\n"
        "tag plc counts period=100 dir=in type=DINT elements=5\n"
        "tag plc TEST period=500 dir=in type=REAL\n"
    )
    samples = tmp_path / "samples.csv"
    code = main(["scan", str(config), "--duration", "1.1", "--samples-out", str(samples)])
    assert code == 0

    out = capsys.readouterr().out
    fast = re.search(
        r"plc/100ms count=(\d+) errors=(\d+) overruns=\d+ "
        r"last=[\d.]+ms min=[\d.]+ms max=[\d.]+ms", out,
    )
    assert fast, out
    assert int(fast.group(1)) >= 5
    assert int(fast.group(2)) == 0
    assert re.search(r"plc/500ms count=\d+", out)

    with open(samples) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["timestamp_ms", "list_period_ms", "transfer_ms"]
    assert len(rows) >= 8
    periods = {row[1] for row in rows[1:]}
    assert periods == {"100", "500"}
    for ts_ms, _period, transfer_ms in rows[1:]:
        assert int(ts_ms) > 0
        assert float(transfer_ms) > 0


def test_parse_faults():
    faults = _parse_faults("refuse-sessions, drop-after=3, close-idle-ms=250", 10.0)
    assert faults.refuse_sessions
    assert faults.drop_after == 3
    assert faults.close_idle_after_s == 0.25
    assert faults.latency_s == 0.01
    with pytest.raises(ValueError):
        _parse_faults("jitter=5", 0.0)


def start_sim_child(tag_file):
    """`logixscan sim` in a child process with faulthandler on, so that a
    SIGABRT makes it write every thread's stack to its stderr."""
    return subprocess.Popen(
        [sys.executable, "-X", "faulthandler", "-m", "logixscan", "sim", str(tag_file),
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def wait_or_dump(proc, timeout: float) -> None:
    """Wait for the child to exit; one still running after `timeout` is
    sent SIGABRT, then killed, and the test fails with the child's stderr,
    its threads' stacks included."""
    try:
        proc.wait(timeout=timeout)
        return
    except subprocess.TimeoutExpired:
        pass
    proc.send_signal(signal.SIGABRT)
    try:
        _out, err = proc.communicate(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        _out, err = proc.communicate()
    pytest.fail(f"sim still running {timeout} s after SIGINT; its stderr:\n{err}")


def test_sim_subcommand_serves_clients(tmp_path):
    tag_file = tmp_path / "tags.txt"
    tag_file.write_text("speed REAL = 2.5\ncounts DINT[3] = 7\n")
    proc = start_sim_child(tag_file)
    try:
        line = proc.stdout.readline().strip()
        if not line:
            pytest.fail(f"sim produced no output: {proc.stderr.read()}")
        match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)", line)
        assert match, line
        client = PlcClient(PlcEndpoint(
            "127.0.0.1", port=int(match.group(1)), request_timeout=2.0
        ))
        client.connect()
        assert client.read_tag("speed").scalar == 2.5
        assert client.read_tag("counts", count=3).elements == (7, 7, 7)
        client.close()
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            wait_or_dump(proc, timeout=5)
        finally:
            proc.stdout.close()
            proc.stderr.close()
    assert proc.returncode == 0


def test_sim_subcommand_stops_at_sigint_with_sessions_open(tmp_path):
    # one session registered and idle, one client reading without pause,
    # and one TCP peer that never registers: SIGINT still stops the sim at
    # once, and every peer sees its session end
    tag_file = tmp_path / "tags.txt"
    tag_file.write_text("counts DINT[3] = 7\n")
    proc = start_sim_child(tag_file)
    endpoint = None
    stop = threading.Event()
    reads = []

    def busy():
        client = PlcClient(endpoint)
        try:
            client.connect()
            while not stop.is_set():
                reads.append(client.read_tag("counts", count=3).elements)
        except (PlcError, OSError):
            pass  # the sim went away under it
        finally:
            client.close()

    try:
        match = re.fullmatch(r"listening on 127\.0\.0\.1:(\d+)", proc.stdout.readline().strip())
        assert match, proc.stderr.read()
        port = int(match.group(1))
        endpoint = PlcEndpoint("127.0.0.1", port=port, request_timeout=2.0)
        idle = PlcClient(endpoint)
        idle.connect()
        peer = socket.create_connection(("127.0.0.1", port), timeout=5)
        reader = threading.Thread(target=busy)
        reader.start()
        deadline = time.monotonic() + 5
        while not reads and time.monotonic() < deadline:
            time.sleep(0.01)
        assert reads, "the busy client read nothing"
        proc.send_signal(signal.SIGINT)
        wait_or_dump(proc, timeout=5)  # the same bound as the test above
        assert peer.recv(1) == b""
        stop.set()
        reader.join(5)
        assert not reader.is_alive()
        peer.close()
        idle.close()
    finally:
        stop.set()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0
