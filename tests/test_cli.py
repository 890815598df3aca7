"""CLI behavior: exit codes, formats, and the verify grid."""

import itertools
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import drincoh
from drincoh import cli, plan
from drincoh.cohomology import h_of_y, hc_of_x, h_of_x
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType
from oracles import from_dict


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
    hy = h_of_y(1, 2)
    hc = hc_of_x(hy)
    tables = [hy, hc, h_of_x(hc)]
    assert json.loads(capsys.readouterr().out) == [t.to_json_dict() for t in tables]


def test_cohomology_builds_each_e2_page_once(monkeypatch, capsys):
    from drincoh import cohomology

    calls = []
    real = cohomology.e2_page

    def counting(n, q):
        calls.append((n, q))
        return real(n, q)

    monkeypatch.setattr(cohomology, "e2_page", counting)
    assert run(["cohomology", "--n", "2", "--q", "2,3"]) == 0
    assert calls == [(2, 2), (2, 3)]


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


def test_cohomology_over_the_flag_guard_is_a_usage_error(capsys):
    assert run(["cohomology", "--n", "5", "--q", "2"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("drincoh: error: full flag variety of GL_6(F_2)")


def test_dims_table(capsys):
    assert run(["dims", "--n", "2", "--q", "2"]) == 0
    out = capsys.readouterr().out
    rows = [ln.split() for ln in out.splitlines() if ln.strip().startswith("{")]
    dims = [int(r[-1]) for r in rows]
    assert dims == [8, 6, 6, 1]


def test_dims_over_the_subset_guard_is_a_usage_error(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("subsets listed before the guard")

    monkeypatch.setattr(cli, "subsets_of_size", refuse)
    assert run(["dims", "--n", "11", "--q", "2"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "drincoh: error: dims lists 2^11 subsets, over the n <= 10 guard\n"


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


def grid_jobs(argv: str) -> list[tuple]:
    cfg = cli.build_parser().parse_args(["verify", *argv.split()])
    return [(s, n, q, m, cfg.seed) for s, n, q, m in cli._grid(cfg)]


PLAN_GRIDS = [
    pytest.param("--n-max 3 --q 2,3 --m-max 2", id="desk"),
    pytest.param("--n-max 4 --q 2 --m-max 1", id="n4q2"),
    pytest.param("--n-max 2 --q 5,7 --m-max 2", id="q57"),
    pytest.param("--suite steinberg --n-max 2 --q 2,3", id="steinberg"),
    pytest.param("--suite e2 --n-max 1 --q 2", id="one-group"),
    # n >= 4 is over the flag guard at q = 3: four groups that SKIP
    pytest.param("--suite steinberg --n-max 7 --q 3", id="guarded"),
]


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("grid", PLAN_GRIDS)
def test_queue_runs_every_job_once_as_one_process_does(grid, workers, capsys):
    def records(jobs):
        assert run(["verify", *grid.split(), "--format", "json", "--jobs", jobs]) == 0
        payload = json.loads(capsys.readouterr().out)
        for r in payload["results"]:
            del r["seconds"]
        return payload

    forked = records(str(workers))
    assert forked == records("1")
    assert len(forked["results"]) == len(grid_jobs(grid))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("grid", PLAN_GRIDS)
def test_queue_runs_each_resolution_group_in_one_worker(grid, workers, monkeypatch, capsys):
    # each record names the process that ran it, through the _run_job that
    # cmd_verify hands to the workers
    for suite in cli.SUITES:
        monkeypatch.setitem(cli._JOBS, suite, lambda n, q, m, seed: "fine")
    real = cli._run_job
    monkeypatch.setattr(cli, "_run_job", lambda job: {**real(job), "pid": os.getpid()})
    assert run(["verify", *grid.split(), "--format", "json", "--jobs", str(workers)]) == 0
    pid_of = {(r["suite"], r["n"], r["q"], r["m"]): r["pid"]
              for r in json.loads(capsys.readouterr().out)["results"]}
    grouped = plan.groups(grid_jobs(grid))
    for group in grouped:
        assert len({pid_of[job[:4]] for job in group}) == 1, group
    pids = set(pid_of.values())
    if len(grouped) == 1:  # a grid of one group runs in this process
        assert pids == {os.getpid()}
    else:  # the parent runs no job
        assert os.getpid() not in pids and len(pids) <= min(workers, len(grouped))


def test_groups_are_the_resolution_readers_of_one_n_q_largest_first():
    jobs = grid_jobs("--n-max 3 --q 2,3 --m-max 2")
    grouped = plan.groups(jobs)
    assert sorted(job for group in grouped for job in group) == sorted(jobs)
    assert grouped[0] == [("steinberg", 3, 3, 1, 2024), ("e2", 3, 3, 1, 2024),
                          ("cohomology", 3, 3, 1, 2024), ("cohomology", 3, 3, 2, 2024)]
    for group in grouped:
        readers = group[0][0] in plan.READS_RESOLUTIONS
        assert all((job[0] in plan.READS_RESOLUTIONS) == readers for job in group)
        assert len(group) == 1 or readers and len({job[1:3] for job in group}) == 1
    # |G/B| of (n, q), then m, never rises: 2080 flags at (3,3), 315 at (3,2)
    sizes = [max((parabolic_index(ParabolicType.empty(n), q), m) for _, n, q, m, _ in g)
             for g in grouped]
    assert sizes == sorted(sizes, reverse=True)
    # ties keep grid order: the readers of (3,3) come before orlik (3,3,2)
    assert grouped[1] == [("orlik", 3, 3, 2, 2024)]


def _trivial_record(job):
    suite, n, q, m, _ = job
    return {"suite": suite, "n": n, "q": q, "m": m, "status": "pass", "detail": "fine",
            "seconds": 0.0}


def test_queue_takes_the_largest_group_first():
    # one worker takes the groups in queue order; its count of jobs run is
    # its own, copied at the fork
    grouped = plan.groups(grid_jobs("--n-max 3 --q 2,3 --m-max 2"))
    taken = itertools.count()
    results = plan.run_forked(grouped, 1, lambda job: {**_trivial_record(job), "seq": next(taken)})
    assert [r["seq"] for r in results] == list(range(len(results)))
    assert [job[:4] for job in grouped[0]] == [
        (r["suite"], r["n"], r["q"], r["m"]) for r in results[:len(grouped[0])]
    ]
    assert next(taken) == 0  # the parent ran nothing


def test_queue_longer_than_a_pipe_buffer_finishes():
    # 20,000 indices of 4 bytes are more than one 64 KiB pipe buffer holds
    grouped = [[("lefschetz", 1, 2, m, 0)] for m in range(20000)]
    results = plan.run_forked(grouped, 2, _trivial_record)
    assert results == [_trivial_record(job) for group in grouped for job in group]


def test_queue_fails_the_groups_no_worker_took():
    # the one worker dies in group 5: groups 0-4 keep the records it wrote,
    # group 5 fails naming its status, and the parent's feed meets a pipe
    # with no reader, so groups 6 on stay untaken
    def dying(job):
        if job[3] == 5:
            os._exit(3)
        return _trivial_record(job)

    grouped = [[("lefschetz", 1, 2, m, 0)] for m in range(20000)]
    results = plan.run_forked(grouped, 1, dying)
    assert results[:5] == [_trivial_record(group[0]) for group in grouped[:5]]
    assert results[5]["detail"] == "no record from its worker, which exited with status 3"
    assert all(r["status"] == "fail" for r in results[5:])
    assert {r["detail"] for r in results[6:]} == {"no record from any worker"}


# past 4300 digits, the default int-to-str limit of 3.10.7 and later, str()
# raises ValueError; past 640, the lowest limit a setting may choose, the
# guards show a size as the power of 2 it reaches
GUARDED = {
    ("lefschetz", 1, 2, 7143): "q^(m(n+1)) = at least 2^14286 exceeds the 100000000 vector guard",
    ("cohomology", 1, 2, 7143): "q^(m(n+1)) = at least 2^14286 exceeds the 100000000 vector guard",
    ("orlik", 1, 2, 14400): "function complex dimension at least 2^14400 exceeds 20000",
    ("steinberg", 200, 2, 1):
        "full flag variety of GL_201(F_2) has at least 2^20299 flags, over the 10000 guard",
    # 2^2126 has 640 digits, 2^2128 has 641
    ("lefschetz", 1, 2, 1063): f"q^(m(n+1)) = {2**2126} exceeds the 100000000 vector guard",
    ("lefschetz", 1, 2, 1064): "q^(m(n+1)) = at least 2^2128 exceeds the 100000000 vector guard",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_guards_skip_sizes_past_the_int_to_str_limit(workers):
    jobs = [(*key, 2024) for key in GUARDED]
    if workers == 1:
        results = list(map(cli._run_job, jobs))
    else:
        results = plan.run_forked(plan.groups(jobs), workers, cli._run_job)
    assert {(r["suite"], r["n"], r["q"], r["m"]): (r["status"], r["detail"]) for r in results} == {
        key: ("skip", detail) for key, detail in GUARDED.items()
    }


@pytest.mark.parametrize(
    "how, why",
    [
        ("exit", "exited with status 7"),
        ("kill", "exited with status -9"),
        ("unreadable", "exited with status 0 and sent unreadable records"),
    ],
    ids=["exit", "kill", "unreadable"],
)
def test_verify_fails_the_jobs_of_a_dying_worker(monkeypatch, capsys, how, why):
    def dying(n, q, m, seed):
        if (n, q, m) == (1, 2, 1) and how == "exit":
            os._exit(7)
        if (n, q, m) == (1, 2, 1) and how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return "fine"

    def garbage(records):
        if any((r["suite"], r["n"], r["q"], r["m"]) == ("cohomology", 1, 2, 1) for r in records):
            return "[{not json"
        return json.dumps(records)

    for suite in cli.SUITES:
        monkeypatch.setitem(cli._JOBS, suite, lambda n, q, m, seed: "fine")
    monkeypatch.setitem(cli._JOBS, "cohomology", dying)
    if how == "unreadable":
        monkeypatch.setattr(plan, "json", SimpleNamespace(dumps=garbage, loads=json.loads))
    argv = "--n-max 2 --q 2,3 --m-max 2"
    assert run(["verify", *argv.split(), "--jobs", "2", "--format", "json"]) == 2
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 36
    # the dying job's group, among the last queued, is lost, the jobs that
    # ran before it included; every other group passes, those the dead
    # worker finished among them
    lost = {("steinberg", 1, 2, 1), ("e2", 1, 2, 1), ("cohomology", 1, 2, 1), ("cohomology", 1, 2, 2)}
    for r in results:
        if (r["suite"], r["n"], r["q"], r["m"]) in lost:
            assert r["status"] == "fail"
            assert r["detail"] == f"no record from its worker, which {why}"
        else:
            assert r["status"] == "pass" and r["detail"] == "fine"


def test_verify_without_fork_runs_in_one_process(monkeypatch, capsys):
    def no_groups(jobs):
        raise AssertionError("grouped without fork")

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(plan, "groups", no_groups)
    assert run(["verify", "--suite", "steinberg", "--n-max", "2", "--q", "2,3",
                "--jobs", "2"]) == 0
    assert capsys.readouterr().out.count("PASS") == 4


def test_verify_runs_a_grid_of_one_group_in_this_process(monkeypatch, capsys):
    def no_fork(grouped, workers, run_job):
        raise AssertionError("forked for one group")

    monkeypatch.setattr(plan, "run_forked", no_fork)
    assert run(["verify", "--suite", "e2", "--n-max", "1", "--q", "2", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.count("PASS") == 1


def test_verify_with_workers_prints_what_one_process_prints():
    # a fresh interpreter, so the workers fork a plain CLI process; -W error
    # turns the warning of a fork in a threaded process into a failure
    grid = "verify --suite all --n-max 2 --q 2,3 --m-max 2".split()
    out = {}
    for fmt in ("json", "text"):
        for jobs in ("1", "2"):
            proc = fresh_python("-W", "error", "-m", "drincoh.cli", *grid,
                                "--format", fmt, "--jobs", jobs)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            out[fmt, jobs] = proc.stdout
    records = {}
    for jobs in ("1", "2"):
        payload = json.loads(out["json", jobs])
        for r in payload["results"]:
            del r["seconds"]
        records[jobs] = payload
    assert records["1"] == records["2"] and len(records["1"]["results"]) == 36
    lines = {jobs: [ln.rsplit("  (", 1)[0] for ln in out["text", jobs].splitlines()]
             for jobs in ("1", "2")}
    assert lines["1"] == lines["2"]
    assert sum("passed," in ln for ln in lines["2"]) == 1
    assert lines["2"][-1] == "36 passed, 0 failed, 0 skipped"


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


def test_cohomology_and_verify_run_the_same_duality_checks(monkeypatch, capsys):
    # twists shifted by one in every dual table: H(X) still equals its
    # closed form, so only the twist-sum check of duality can fail
    from drincoh import cohomology
    from drincoh.tables import CohomologyTable, Summand, TwistedModule

    def shifted(table, theorem, _dual=cohomology.dual_table):
        out = _dual(table, theorem)
        entries = {d: TwistedModule.of(*(Summand(s.kind, s.subset, s.dim, s.twist + 1)
                                         for s in mod.summands))
                   for d, mod in out.entries.items()}
        return CohomologyTable(out.n, out.q, out.theorem, entries, out.metadata)

    monkeypatch.setattr(cohomology, "dual_table", shifted)
    assert run(["cohomology", "--n", "2", "--q", "2"]) == 2
    assert "twist sum != -n at degree 2 (q=2)" in capsys.readouterr().err
    assert run(["verify", "--suite", "cohomology", "--n-max", "2", "--q", "2", "--m-max", "1"]) == 2
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == 2 and all("AssertionError: twist sum != -n at degree" in ln for ln in fails)


def test_table_diff_renders_per_degree():
    got = h_of_y(2, 2)
    want = h_of_y(2, 3)  # wrong on purpose: different dims, same shape
    lines = cli._table_diff("H(Y) test", got, want)
    assert lines[0].startswith("MISMATCH in H(Y) test")
    assert any("degree 1" in ln and "computed" in ln and "expected" in ln
               for ln in lines)
    assert cli._table_diff("same", got, h_of_y(2, 2)) == []


def fresh_python(*argv):
    """Run a new interpreter with this checkout's drincoh on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(drincoh.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_import_loads_no_pool_or_dataclass_machinery():
    # every CLI run pays for what importing the CLI loads; only a run with
    # workers loads the plan, and that loads no pool module either
    heavy = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "drincoh.plan")
    proc = fresh_python("-c", "import sys, drincoh.cli; "
                              f"print([m for m in {heavy!r} if m in sys.modules]); "
                              "import drincoh.plan; "
                              f"print([m for m in {heavy[2:4]!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_plan_import_loads_no_cli():
    # the CLI imports the plan, never the other way round
    proc = fresh_python("-c", "import sys, drincoh.plan; print('drincoh.cli' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_loads_no_matching():
    # the function complex imports its matching check when it is built, so
    # a run that builds none never compiles it
    proc = fresh_python("-c", "import sys, drincoh.cli; print('drincoh.matching' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_checks_hold_under_python_O():
    def run_O(*argv):
        return fresh_python("-O", *argv)

    proc = run_O("-c", "from drincoh.qarith import _exact_div; _exact_div(3, 2)")
    assert proc.returncode != 0 and "ExactnessError" in proc.stderr
    proc = run_O("-m", "drincoh.cli", "verify", "--suite", "steinberg",
                 "--n-max", "2", "--q", "2")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "2 passed, 0 failed" in proc.stdout


@pytest.mark.parametrize(
    "row_a, message",
    [({"a": 2, "b": -1}, "one-nonzero-per-row"), ({"b": 1}, "column sums")],
)
def test_pullback_shape_checks_catch_what_functoriality_misses(monkeypatch, row_a, message):
    # I = J = ∅ at (2,2): P_IJ is the identity on the 21 full flags.  Rows a
    # and b of P_JL send two flags to the same flag of type L, so rewriting
    # row a of P_IJ as a combination of e_a and e_b with sum 1 keeps
    # P_IJ @ P_JL == P_IL; only the shape checks can see it.
    from drincoh.gmodules import pullback_matrix
    from drincoh.rootdata import ParabolicType

    I, L = ParabolicType.empty(2), ParabolicType.of(2, [0])
    image = pullback_matrix(I, L, 2).indices
    a = 0
    b = image.index(image[a], a + 1)
    cols = {"a": a, "b": b}

    def tampered(X, Y, q):
        P = pullback_matrix(X, Y, q)
        if X != Y:
            return P
        entries = dict(P.entries)
        del entries[(a, a)]
        entries.update({(a, cols[k]): v for k, v in row_a.items()})
        return from_dict(P.rows, P.cols, entries)

    cli._check_triple({}, I, I, L, 2)
    monkeypatch.setattr(cli, "pullback_matrix", tampered)
    with pytest.raises(AssertionError, match=message):
        cli._check_triple({}, I, I, L, 2)


@pytest.mark.parametrize(
    "factor, keep, message",
    [
        ("JL", True, "one-nonzero-per-row"),
        ("IL", True, "one-nonzero-per-row"),
        ("JL", False, "functoriality"),
        ("IL", False, "functoriality"),
    ],
)
def test_pullback_checks_see_every_factor(monkeypatch, factor, keep, message):
    # I = ∅ ⊂ J = {a0} ⊂ L = {a0, a1} at (3,2) give three distinct pullbacks.
    # Row 0 of P_JL or P_IL gains a second 1 in the next column, or its 1
    # moves there, which keeps the shape but breaks the composite.
    from drincoh.gmodules import pullback_matrix
    from drincoh.rootdata import ParabolicType

    I, J, L = ParabolicType.empty(3), ParabolicType.of(3, [0]), ParabolicType.of(3, [0, 1])
    pair = {"JL": (J, L), "IL": (I, L)}[factor]

    def tampered(X, Y, q):
        P = pullback_matrix(X, Y, q)
        if (X, Y) != pair:
            return P
        entries = dict(P.entries)
        j = P.indices[0]
        if not keep:
            del entries[(0, j)]
        entries[(0, (j + 1) % P.cols)] = 1
        return from_dict(P.rows, P.cols, entries)

    cli._check_triple({}, I, J, L, 2)
    monkeypatch.setattr(cli, "pullback_matrix", tampered)
    with pytest.raises(AssertionError, match=message):
        cli._check_triple({}, I, J, L, 2)


def test_pullback_job_builds_each_pair_once_and_checks_each_triple_once(monkeypatch):
    import random

    from drincoh.gmodules import pullback_matrix

    built, checked = [], []

    def counting_pullback(X, Y, q):
        built.append((X, Y))
        return pullback_matrix(X, Y, q)

    def counting_check(pullbacks, I, J, L, q, _check=cli._check_triple):
        checked.append((I, J, L))
        return _check(pullbacks, I, J, L, q)

    monkeypatch.setattr(cli, "pullback_matrix", counting_pullback)
    monkeypatch.setattr(cli, "_check_triple", counting_check)
    for n, q, seed in [(2, 2, 2024), (3, 2, 0), (3, 3, 7)]:
        built.clear()
        checked.clear()
        assert cli._job_pullbacks(n, q, 1, seed) == "20 sampled triples pass"
        rng = random.Random(seed + 1000 * n + q)
        triples = list(dict.fromkeys(cli.sample_nested_triple(rng, n) for _ in range(20)))
        pairs = {p for I, J, L in triples for p in ((I, J), (J, L), (I, L))}
        assert checked == triples and len(triples) < 20
        assert len(built) == len(set(built)) and set(built) == pairs
