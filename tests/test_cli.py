"""CLI behavior: exit codes, formats, and the verify grid."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drincoh
from drincoh import cli
from drincoh.cohomology import h_of_y, hc_of_x, h_of_x
from drincoh.tables import CohomologyTable


def run(argv):
    return cli.main(argv)


def test_cohomology_text(capsys):
    assert run(["cohomology", "--n", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "Hc(X)  n=2 q=2" in out
    assert "v(1,1,1)(0)^8" in out
    assert "all cross-checks passed" in out


def test_cohomology_json_round_trips(capsys):
    assert run(["cohomology", "--n", "1", "--q", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    tables = [CohomologyTable.from_json_dict(d) for d in data]
    assert tables == [h_of_y(1, 2), hc_of_x(1, 2), h_of_x(1, 2)]


def test_cohomology_multiple_q(capsys):
    assert run(["cohomology", "--n", "1", "--q", "2,3"]) == 0
    out = capsys.readouterr().out
    assert "q=2" in out and "q=3" in out


def test_usage_errors(capsys):
    assert run(["cohomology", "--n", "0", "--q", "2"]) == 1
    assert run(["cohomology", "--n", "2", "--q", "4"]) == 1
    assert run(["verify", "--n-max", "1", "--q", "2", "--m-max", "0"]) == 1
    with pytest.raises(SystemExit) as exc:
        run(["cohomology", "--n", "2"])  # missing --q
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["cohomology", "--n", "1", "--q", "2", "--cache-dir", "/tmp/x"])
    assert exc.value.code == 1


def test_dims_table(capsys):
    assert run(["dims", "--n", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines() if ln.strip().startswith("{")]
    dims = [int(r[-1]) for r in rows]
    assert dims == [8, 6, 6, 1]


def test_dims_json(capsys):
    assert run(["dims", "--n", "1", "--q", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rows"][0]["steinberg_dim"] == 3


def test_verify_small_grid(capsys):
    assert run(["verify", "--suite", "all", "--n-max", "1", "--q", "2", "--m-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_json(capsys):
    assert (
        run(["verify", "--suite", "lefschetz", "--n-max", "1", "--q", "2,3",
             "--m-max", "2", "--format", "json"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert all(r["status"] == "pass" for r in payload["results"])
    assert len(payload["results"]) == 4


def test_verify_skips_oversize_grid_points(capsys):
    # n = 3, m = 3 pushes the point enumeration over the size guard: SKIP
    assert run(["verify", "--suite", "lefschetz", "--n-max", "3", "--q", "5",
                "--m-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    def broken(n, q, m, seed):
        raise AssertionError("deliberately broken")

    monkeypatch.setitem(cli._JOBS, "lefschetz", broken)
    assert run(["verify", "--suite", "lefschetz", "--n-max", "1", "--q", "2"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "deliberately broken" in out


def test_verify_parallel_jobs(capsys):
    assert run(["verify", "--suite", "steinberg", "--n-max", "2", "--q", "2,3",
                "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_seed_is_configurable(capsys):
    def stripped():
        out = capsys.readouterr().out
        return [ln.rsplit("(", 1)[0] for ln in out.splitlines()]

    assert run(["verify", "--suite", "pullbacks", "--n-max", "2", "--q", "2",
                "--seed", "7"]) == 0
    first = stripped()
    assert run(["verify", "--suite", "pullbacks", "--n-max", "2", "--q", "2",
                "--seed", "7"]) == 0
    assert stripped() == first


def test_table_diff_renders_per_degree():
    got = h_of_y(2, 2)
    want = h_of_y(2, 3)  # wrong on purpose: different dims, same shape
    lines = cli._table_diff("H(Y) test", got, want)
    assert lines[0].startswith("MISMATCH in H(Y) test")
    assert any("degree 1" in ln and "computed" in ln and "expected" in ln
               for ln in lines)
    assert cli._table_diff("same", got, h_of_y(2, 2)) == []


def test_checks_hold_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(drincoh.__file__).parents[1]))

    def run_O(*argv):
        return subprocess.run([sys.executable, "-O", *argv], env=env,
                              capture_output=True, text=True)

    proc = run_O("-c", "from drincoh.qarith import _exact_div; _exact_div(3, 2)")
    assert proc.returncode != 0 and "ExactnessError" in proc.stderr
    proc = run_O("-m", "drincoh.cli", "verify", "--suite", "steinberg",
                 "--n-max", "2", "--q", "2")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "2 passed, 0 failed" in proc.stdout
