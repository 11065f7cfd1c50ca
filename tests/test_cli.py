import json

import pytest

from gripsim.cli import main


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD = "[object]\nshape = circle\ndiameter = 60\ny = -40\n"


def test_run_writes_a_report_and_frames(tmp_path, capsys):
    scn = _write(tmp_path, "demo.scn", GOOD)
    out = tmp_path / "demo.json"
    svg = tmp_path / "frames"
    rc = main(["run", str(scn), "--out", str(out), "--svg", str(svg)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["result"]["mode"] == 2
    assert (svg / "summary.svg").exists()


def test_run_prints_to_stdout_without_out(tmp_path, capsys):
    scn = _write(tmp_path, "demo.scn", GOOD)
    rc = main(["run", str(scn)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["provenance"]["scenario"] == "demo"


def test_parse_failure_exits_two(tmp_path, capsys):
    scn = _write(tmp_path, "bad.scn", "[object]\nshape = circle\ndiameter = -5\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scn)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bad.scn:3" in err


def test_missing_file_exits_three(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tmp_path / "nope.scn")])
    assert exc.value.code == 3


def test_multiple_files_run_as_parallel_jobs(tmp_path):
    a = _write(tmp_path, "a.scn", GOOD)
    b = _write(tmp_path, "b.scn", "[object]\nshape = rectangle\nwidth = 40\n"
                                  "height = 40\ny = -150\n")
    out = tmp_path / "reports"
    rc = main(["run", str(a), str(b), "--out", str(out)])
    assert rc == 0
    pa = json.loads((out / "a.report.json").read_text())
    pb = json.loads((out / "b.report.json").read_text())
    assert pa["result"]["mode"] == 2
    assert pb["result"]["mode"] == 1


def test_a_failing_file_still_lets_the_batch_finish(tmp_path, capsys):
    a = _write(tmp_path, "a.scn", "[gripper]\nL1_min = 80\n" + GOOD)
    b = _write(tmp_path, "b.scn", GOOD)
    out = tmp_path / "reports"
    rc = main(["run", str(a), str(b), "--out", str(out)])
    assert rc == 2
    assert "L1_min" in capsys.readouterr().err
    assert (out / "b.report.json").exists()
    assert not (out / "a.report.json").exists()


@pytest.mark.parametrize("args, kind", [
    (["--out", "d", "--svg", "d"], "report"),
    (["--svg", "d"], "SVG directory"),
], ids=["report", "svg"])
def test_two_files_with_one_stem_exit_two_before_running(tmp_path, capsys, args, kind):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _write(tmp_path / "a", "x.scn", GOOD)
    b = _write(tmp_path / "b", "x.scn", "[object]\nshape = rectangle\nwidth = 40\n"
                                        "height = 40\ny = -150\n")
    d = tmp_path / "d"
    rc = main(["run", str(a), str(b), *[str(d) if v == "d" else v for v in args]])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(a) in err and str(b) in err and f"both write the {kind}" in err
    # nothing ran: no report and no frame was written
    assert not (d / "x.report.json").exists() and not (d / "x").exists()
    assert not (tmp_path / "a" / "x.report.json").exists()


@pytest.mark.parametrize("value, exit_code, where", [
    ("-5", 2, ":2:"),   # a parse diagnostic at its line and column
    ("80", 2, "base_translation"),
    ("50", 0, None),
])
def test_base_translation_outside_the_travel_exits_two(tmp_path, capsys, value, exit_code,
                                                      where):
    scn = _write(tmp_path, "t.scn", f"[gripper]\nbase_translation = {value}\n")
    out = tmp_path / "t.json"
    if value.startswith("-"):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scn), "--out", str(out)])
        rc = exc.value.code
    else:
        rc = main(["run", str(scn), "--out", str(out)])
    assert rc == exit_code
    if where is None:
        assert json.loads(out.read_text())["result"]["base_translation"] == 50.0
    else:
        assert where in capsys.readouterr().err
        assert not out.exists()


def test_sweep_prints_all_five_ranges(capsys):
    assert main(["sweep"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + five modes
    assert "[0.0, 127.0]" in lines[1]
    assert "[34.0, 176.5]" in lines[5]


def test_sweep_with_zero_travel_reports_unreachable(tmp_path, capsys):
    cfgfile = _write(tmp_path, "cfg.scn", "[gripper]\nbase_shift_max = 0\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert out.count("unreachable") == 3


def test_sweep_with_a_palm_wider_than_the_proximal_bar(tmp_path, capsys):
    # the fingertips cannot meet at home: mode 1 closes to the end stop
    cfgfile = _write(tmp_path, "cfg.scn", "[gripper]\nL1_rest = 50\naperture_max = 130\n"
                     "envelope_floor = 50\nrest_lean_deg = 5\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


def test_modes_lists_the_five_definitions(capsys):
    assert main(["modes"]) == 0
    out = capsys.readouterr().out
    for n in range(1, 6):
        assert f"Mode {n}" in out


CALIBRATED = """resolved constants:
  L1c            = 30.000000 mm
  L2c            = 29.900000 mm
  kappa          = 46.589969 deg
  palm half width= 33.916722 mm
  theta1 rest    = 4.023517 deg
  theta1 vertical= 29.023517 deg
  envelope fold  = 50.753867 deg
  alpha at rest  = 6.710160 deg
  distal stop    = 69.828909 deg of wrap
  bar end stops  = (46.0, 36.0, 36.0) mm
"""


def test_calibrate_prints_resolved_constants(capsys):
    assert main(["calibrate"]) == 0
    assert capsys.readouterr().out == CALIBRATED


def test_calibrate_resolves_the_overridden_stop(tmp_path, capsys):
    cfgfile = _write(tmp_path, "cfg.scn", "[gripper]\nL2_min = 30\n")
    assert main(["calibrate", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == (
        CALIBRATED.replace("69.828909", "87.188837").replace("(46.0, 36.0", "(46.0, 30.0"))
