"""CLI: every subcommand runs and prints sensible output."""

import pytest

from repro.cli import main


def test_micinfo(capsys):
    assert main(["micinfo"]) == 0
    out = capsys.readouterr().out
    assert "mic0" in out and "3120P" in out


def test_fig4_table(capsys):
    assert main(["fig4", "--sizes", "1,1024"]) == 0
    out = capsys.readouterr().out
    assert "native(us)" in out
    # the two anchors appear in the table
    assert "7.0" in out
    assert "382" in out


def test_fig4_csv(capsys):
    assert main(["fig4", "--sizes", "1", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("size_bytes,native_s,vphi_s")


def test_fig5_table(capsys):
    assert main(["fig5", "--sizes", "268435456"]) == 0
    out = capsys.readouterr().out
    assert "6.40" in out
    assert "73%" in out or "72%" in out


def test_dgemm_host_and_vm(capsys):
    assert main(["dgemm", "--n", "128", "--threads", "56"]) == 0
    host_out = capsys.readouterr().out
    assert "from host: status=0" in host_out
    assert "c_checksum" in host_out
    assert main(["dgemm", "--n", "128", "--threads", "56", "--vm"]) == 0
    vm_out = capsys.readouterr().out
    assert "from VM (vPHI): status=0" in vm_out


def test_stream(capsys):
    assert main(["stream", "--n", "16384", "--iters", "2"]) == 0
    out = capsys.readouterr().out
    assert "triad_gbps" in out


def test_trace_exports_valid_chrome_json(tmp_path, capsys):
    import json

    from repro.analysis import validate_chrome_trace

    out_path = tmp_path / "trace.json"
    assert main(["trace", "--sizes", "1,1024", "--out", str(out_path),
                 "--check"]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out
    assert "request lifecycle" in out
    assert "span invariants hold" in out
    doc = json.loads(out_path.read_text())
    assert validate_chrome_trace(doc) == []
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["warp"])


def test_qos_smoke_runs_and_renders(capsys):
    assert main(["qos", "--tenants", "4", "--duration", "0.004",
                 "--policy", "wfq"]) == 0
    out = capsys.readouterr().out
    assert "QoS report: policy=wfq" in out
    assert "Jain's index" in out
    assert "tenant-0" in out


def test_qos_check_plan_file_round_trip(tmp_path, capsys):
    import json as _json

    from repro.traffic import TrafficPlan

    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "slo.txt"
    plan_path.write_text(_json.dumps(
        TrafficPlan.smoke(tenants=4, duration=0.004).to_dict()))
    assert main(["qos", "--plan", str(plan_path),
                 "--out", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "plan ok: 4 tenants" in out
    assert "QoS report" in report_path.read_text()


def test_qos_invalid_plan_fails(tmp_path, capsys):
    plan_path = tmp_path / "bad.json"
    plan_path.write_text('{"tenants": [], "policy": "warp"}')
    assert main(["qos", "--plan", str(plan_path)]) == 1
    err = capsys.readouterr().err
    assert "FAIL invalid plan" in err


def test_qos_conservation_violation_fails(monkeypatch, capsys):
    import repro.traffic

    real_run_plan = repro.traffic.run_plan

    def run_plan_losing_an_arrival(plan):
        result = real_run_plan(plan)
        result.loads[0].offered += 1  # one arrival never settled
        return result

    monkeypatch.setattr(repro.traffic, "run_plan", run_plan_losing_an_arrival)
    assert main(["qos", "--tenants", "2", "--duration", "0.004"]) == 1
    assert "stranded 1 of" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "cluster", "profile fig4", "qos --check", "qos --assert-jain 0.95",
    "qos --assert-shed", "pepc --check",
])
def test_removed_commands_and_flags_rejected(argv):
    with pytest.raises(SystemExit):
        main(argv.split())
