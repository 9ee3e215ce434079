"""CLI behavior: output formats, exit codes, scan loop, sim subcommand."""

import csv
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from logixscan.cli import EXIT_TIMEOUT, _parse_faults, main
from logixscan.client import PlcClient, PlcEndpoint
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


def test_sim_subcommand_serves_clients(tmp_path):
    tag_file = tmp_path / "tags.txt"
    tag_file.write_text("speed REAL = 2.5\ncounts DINT[3] = 7\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "logixscan", "sim", str(tag_file), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
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
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert proc.returncode == 0
