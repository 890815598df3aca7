"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Golden gate: the tables_n3 output passes against its golden copy, and a
   copy with one Steinberg dimension changed makes exactly that operation
   fail.  The same holds for one corrupted `verify` job of desk_grid, and
   for a `verify` output with one job FAILed and exit code 2.
2. Counter repeatability: two traced desk_grid runs with the same seed give
   identical counts for every counter in run.REPEATABLE, and the points
   counted from projective_points match projective_count over the grid.

Exits 0 when every check holds, 1 otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def check(ok: bool, what: str, problems: list[str]):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        cli_args, name, _ = run.WORKLOADS["tables_n3"]
        golden = run.load_golden(name)
        sample = run.invoke([sys.executable, "-c", run.ENTRY] + cli_args, work, run.DEADLINE_S)
        attempted, failed = run.check_ops("cohomology", sample, golden)
        check(attempted == 6 and failed == 0, f"tables_n3 matches golden ({failed}/{attempted})", problems)
        bad = copy.deepcopy(golden)
        bad[0]["entries"][1]["summands"][1]["dim"] += 1
        attempted, failed = run.check_ops("cohomology", sample, bad)
        check(failed == 1, f"corrupted tables_n3 golden gives fail_frac {failed}/{attempted} > 0", problems)

        cli_args, name, workers = run.WORKLOADS["desk_grid"]
        golden = run.load_golden(name)
        args = cli_args + ["--seed", "7"]
        counts = []
        for attempt in range(2):
            spans = work / f"spans{attempt}"
            traced = run.invoke([sys.executable, str(run.BENCH / "tracer.py"), str(spans)] + args,
                                work, run.DEADLINE_S)
            attempted, failed = run.check_ops("verify", traced, golden)
            check(traced.code == 0 and failed == 0,
                  f"traced desk_grid run {attempt + 1} matches golden ({failed}/{attempted})", problems)
            m = run.layer_metrics(run.read_chunks(spans), traced.stdout, "verify", workers, traced.wall)
            counts.append({k: m[k] for k in run.REPEATABLE})
            check(m["ffgeom.points.enumerated"] == m["ffgeom.points.expected"],
                  f"points enumerated {m['ffgeom.points.enumerated']} == "
                  f"{m['ffgeom.points.expected']} from projective_count", problems)
        bad = copy.deepcopy(golden)
        bad[0]["detail"] += " (corrupted)"
        attempted, failed = run.check_ops("verify", traced, bad)
        check(failed == 1, f"corrupted desk_grid golden gives fail_frac {failed}/{attempted} > 0", problems)
        out = json.loads(traced.stdout)
        out["ok"], out["results"][0]["status"] = False, "fail"
        attempted, failed = run.check_ops("verify", run.Sample(0, 0, 0, 2, json.dumps(out)), golden)
        check(failed == 1, f"one FAILed job with exit code 2 gives fail_frac {failed}/{attempted}", problems)
        for k in run.REPEATABLE:
            a, b = counts[0][k], counts[1][k]
            check(a == b and a > 0, f"{k} repeats exactly: {a} == {b}", problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if not problems else f"selftest FAILED: {len(problems)} check(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
