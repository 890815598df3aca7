"""The drincoh benchmark: real CLI runs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each invocation of a workload is
the real `drincoh` CLI in a fresh interpreter (PYTHONPATH=src), and every
output is compared with the golden copy in bench/golden/.  An operation is
one `verify` grid job or one (table, q) of `cohomology`; it fails on FAIL,
SKIP, a nonzero exit or any difference from the golden copy.

--trace 0 times untraced invocations for S seconds and reports the
end-to-end metrics; set-up samples (a fresh interpreter importing the
CLI) are taken between them, so they see the same host-speed drift.
--trace 1 alternates an untraced and a traced invocation
(bench/tracer.py) for S seconds and reports the per-layer metrics.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  The lines before it print every metric with its unit,
the samples behind it, and run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))
from tracer import LAYER_OF  # noqa: E402

DESK = ["verify", "--suite", "all", "--n-max", "3", "--q", "2,3", "--m-max", "2", "--format", "json"]

# name -> (CLI arguments, golden copy, worker processes)
WORKLOADS = {
    "desk_grid": (DESK, "desk_grid", 1),
    "tables_n3": (["cohomology", "--n", "3", "--q", "2,3", "--format", "json"], "tables_n3", 1),
    "points_q2": (
        ["verify", "--suite", "lefschetz", "--n-max", "3", "--q", "2", "--m-max", "5", "--format", "json"],
        "points_q2",
        1,
    ),
    "desk_grid_par": (DESK + ["--jobs", "2"], "desk_grid", 2),
}

ENTRY = "import sys; from drincoh.cli import main; sys.exit(main())"
# set-up samples are taken after every invocation until they add up to this
# share of its wall time (at least one), and at least SETUP_MIN per run
SETUP_SHARE = 0.1
SETUP_MIN = 9
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "pass_frac": "ratio",
}
PER_LAYER_UNITS = {
    "homalg.rank.self_s": "s", "homalg.rank.calls": "count", "homalg.rank.nnz_in": "count",
    "homalg.rank.max_s": "s", "homalg.rank.max_dim": "count",
    "ffgeom.points.self_s": "s", "ffgeom.points.calls": "count",
    "ffgeom.points.enumerated": "count", "ffgeom.points.per_s": "1/s",
    "ffgeom.flags.self_s": "s", "ffgeom.flags.calls": "count", "ffgeom.flags.returned": "count",
    "ffgeom.flags.hit_ratio": "ratio", "ffgeom.forget.calls": "count",
    "gmodules.assembly.self_s": "s", "gmodules.pullback.calls": "count",
    "gmodules.pullback.nnz": "count", "orlik.assembly.self_s": "s",
    "homalg.from_blocks.self_s": "s", "homalg.from_blocks.nnz": "count",
    "homalg.ddcheck.self_s": "s", "homalg.ddcheck.products": "count",
    "homalg.ddcheck.nnz_in": "count",
    "orlik.e2.self_s": "s", "orlik.e2.calls": "count", "orlik.e2.distinct": "count",
    "orlik.e2.redundant_ratio": "ratio", "cohomology.tables.self_s": "s",
    "cli.jobs.busy_s": "s", "cli.jobs.critical_s": "s", "cli.pool.efficiency": "ratio",
    "cli.pool.idle_s": "s", "cli.residual_s": "s", "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
POINT_COUNTS = ("drinfeld_points", "hyperplane_union_points")
# counts that two traced runs of the same code and seed must reproduce exactly
REPEATABLE = (
    "homalg.rank.calls", "homalg.rank.nnz_in", "ffgeom.flags.returned",
    "ffgeom.points.enumerated", "orlik.e2.calls",
)


class Fatal(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str


def invoke(argv: list[str], work: Path, timeout: float) -> Sample:
    """Run argv from ROOT with src on the path; time it and reap its whole tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = work / "stdout"
    with open(out_path, "w") as out, open(work / "stderr", "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(timeout, 0.1), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # a killed command can leave pool workers behind
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text())


def normalize(kind: str, text: str) -> list:
    """The output's operations as stored in a golden copy: one record per
    verify grid job without its seconds, or one record per cohomology table."""
    data = json.loads(text)
    if kind == "cohomology":
        return data
    for r in data["results"]:
        r.pop("seconds", None)
    return data["results"]


def check_ops(kind: str, sample: Sample, want: list) -> tuple[int, int]:
    """(attempted, failed) operations of one invocation against its golden copy.

    Every golden record has status pass, so a FAIL or SKIP never matches.
    `verify` exits nonzero when a job fails but still prints every record,
    so the output is compared record by record whatever the exit code; a
    nonzero exit fails at least one operation, and output that cannot be
    read fails them all."""
    try:
        got = normalize(kind, sample.stdout)
    except (json.JSONDecodeError, KeyError, TypeError):
        got = []
    attempted = max(len(want), len(got))
    failed = attempted - sum(1 for r in want if r in got)
    if sample.code != 0:
        failed = max(failed, 1)
    return attempted, failed


def probe_s() -> float:
    """A fixed pure-Python loop; its time shows host-speed drift within a run."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def metadata() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_lines": src_lines}


def quantile_summary(values: list[float]) -> str:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n >= 11:
        pct = 100 * (n - 10) // n
        return f"median {med:.4f} n={n} p{pct} {sorted(values)[n - 11]:.4f}"
    return f"median {med:.4f} n={n} (no percentile has 10 samples beyond it; max {max(values):.4f})"


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def run_end_to_end(workload: str, seed: int, seconds: float, work: Path, deadline: float):
    cli_args, golden_name, _ = WORKLOADS[workload]
    kind = cli_args[0]
    golden = load_golden(golden_name)
    argv = [sys.executable, "-c", ENTRY] + cli_args + (["--seed", str(seed)] if kind == "verify" else [])

    # setup: a fresh interpreter plus `import drincoh.cli`; the first import
    # writes the bytecode cache, which users pay once, so it is not timed
    setup_argv = [sys.executable, "-c", "import drincoh.cli"]
    setups = []

    def take_setups(budget: float):
        """Set-up samples until they add up to `budget` seconds; at least one."""
        spent = 0.0
        while True:
            s = invoke(setup_argv, work, deadline - perf_counter())
            if s.code != 0:
                raise Fatal(f"import drincoh.cli failed: {(work / 'stderr').read_text()[-500:]}")
            setups.append(s.wall)
            spent += s.wall
            if spent >= budget:
                return

    t_start = perf_counter()
    invoke(setup_argv, work, deadline - perf_counter())
    samples, attempted, failed = [], 0, 0
    while True:
        s = invoke(argv, work, deadline - perf_counter())
        a, f = check_ops(kind, s, golden)
        attempted, failed = attempted + a, failed + f
        samples.append(s)
        take_setups(SETUP_SHARE * s.wall)
        elapsed = perf_counter() - t_start
        if elapsed + 0.5 * s.wall >= seconds or perf_counter() + 2 * s.wall > deadline:
            break
    while len(setups) < SETUP_MIN:
        take_setups(0.0)
    walls = [s.wall for s in samples]
    print(f"wall_s samples: {[round(w, 4) for w in walls]}")
    print(f"wall_s: {quantile_summary(walls)}")
    print(f"setup_s samples: {[round(w, 4) for w in setups]}")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "pass_frac": 1.0 - failed / attempted,
    }
    return metrics, END_TO_END_UNITS, attempted, failed


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------


def read_chunks(spans_path: Path) -> list[dict]:
    chunks = []
    for path in sorted(spans_path.parent.glob(spans_path.name + "*")):
        with open(path) as fh:
            chunks += [json.loads(line) for line in fh if line.strip()]
    return chunks


def layer_metrics(chunks: list[dict], stdout: str, kind: str, workers: int, wall: float) -> dict:
    """Per-layer self times and counts from one traced invocation's spans."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(int)
    keys = defaultdict(set)  # (pid, span name) -> distinct argument keys
    rank_max_s = rank_max_dim = 0
    candidates = 0  # points listed by projective_points for a point count
    job_spans, in_jobs = [], 0.0
    for chunk in chunks:
        spans = chunk["spans"]
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, *_ in filter(None, spans):
            if parent >= 0:
                covered[parent] += t1 - t0
        for idx, span in enumerate(spans):
            if span is None:  # a span still open when the process ended
                continue
            name, t0, t1, parent, job, info = span
            own = (t1 - t0) - covered[idx]
            calls[name] += 1
            if name == "cli.job":
                job_spans.append(t1 - t0)
            layer = LAYER_OF.get(name)
            if layer is None:
                continue
            self_s[layer] += own
            if job is not None:
                in_jobs += own
            for field, v in (info or {}).items():
                if field == "key":
                    keys[(chunk["pid"], name)].add(v)
                else:
                    total[(name, field)] += v
            if name == "projective_points" and parent >= 0 and spans[parent] \
                    and spans[parent][0] in POINT_COUNTS:
                candidates += info["candidates"]
            if name == "rank":
                rank_max_s = max(rank_max_s, t1 - t0)
                rank_max_dim = max(rank_max_dim, info["dim"])

    if kind == "verify":
        job_seconds = [r["seconds"] for r in json.loads(stdout)["results"]]
    else:
        job_seconds = job_spans
    busy = sum(job_seconds)
    layers_total = sum(self_s.values())

    def distinct(name):
        return sum(len(v) for (pid, n), v in keys.items() if n == name)

    flag_calls = calls["enumerate_flags"] + calls["enumerate_subspaces"]
    points_self = self_s["ffgeom.points"]
    enumerated = candidates + total[("subspace_points", "enumerated")]
    expected = sum(total[(n, "expected")] for n in POINT_COUNTS) \
        + total[("subspace_points", "enumerated")]
    e2_calls = calls["e2_page"]
    return {
        "homalg.rank.self_s": self_s["homalg.rank"],
        "homalg.rank.calls": calls["rank"],
        "homalg.rank.nnz_in": total[("rank", "nnz")],
        "homalg.rank.max_s": rank_max_s,
        "homalg.rank.max_dim": rank_max_dim,
        "ffgeom.points.self_s": points_self,
        "ffgeom.points.calls": sum(calls[n] for n in
                                   ("drinfeld_points", "hyperplane_union_points", "subspace_points")),
        "ffgeom.points.enumerated": enumerated,
        "ffgeom.points.expected": expected,  # cross-check only, not reported
        "ffgeom.points.per_s": enumerated / points_self if points_self else 0.0,
        "ffgeom.flags.self_s": self_s["ffgeom.flags"],
        "ffgeom.flags.calls": flag_calls,
        "ffgeom.flags.returned": total[("enumerate_flags", "returned")]
        + total[("enumerate_subspaces", "returned")],
        "ffgeom.flags.hit_ratio": (1 - (distinct("enumerate_flags") + distinct("enumerate_subspaces"))
                                   / flag_calls) if flag_calls else 0.0,
        "ffgeom.forget.calls": calls["forget"],
        "gmodules.assembly.self_s": self_s["gmodules.assembly"],
        "gmodules.pullback.calls": calls["pullback_matrix"],
        "gmodules.pullback.nnz": total[("pullback_matrix", "nnz")],
        "orlik.assembly.self_s": self_s["orlik.assembly"],
        "homalg.from_blocks.self_s": self_s["homalg.from_blocks"],
        "homalg.from_blocks.nnz": total[("from_blocks", "nnz")],
        "homalg.ddcheck.self_s": self_s["homalg.ddcheck"],
        "homalg.ddcheck.products": total[("ddcheck", "products")],
        "homalg.ddcheck.nnz_in": total[("ddcheck", "nnz")],
        "orlik.e2.self_s": self_s["orlik.e2"],
        "orlik.e2.calls": e2_calls,
        "orlik.e2.distinct": distinct("e2_page"),
        "orlik.e2.redundant_ratio": (1 - distinct("e2_page") / e2_calls) if e2_calls else 0.0,
        "cohomology.tables.self_s": self_s["cohomology.tables"],
        "cli.jobs.busy_s": busy,
        "cli.jobs.critical_s": max(job_seconds, default=0.0),
        "cli.pool.efficiency": busy / (workers * wall),
        "cli.pool.idle_s": workers * wall - busy,
        # with a pool, the capacity is workers x wall, so pool idle time counts here too
        "cli.residual_s": workers * wall - layers_total,
        "trace.coverage": in_jobs / sum(job_spans) if job_spans else 0.0,
    }


def run_per_layer(workload: str, seed: int, seconds: float, work: Path, deadline: float):
    cli_args, golden_name, workers = WORKLOADS[workload]
    kind = cli_args[0]
    golden = load_golden(golden_name)
    args = cli_args + (["--seed", str(seed)] if kind == "verify" else [])
    spans_path = work / "spans"
    pairs, attempted, failed = [], 0, 0
    t_start = perf_counter()
    while True:
        plain = invoke([sys.executable, "-c", ENTRY] + args, work, deadline - perf_counter())
        for old in work.glob("spans*"):
            old.unlink()
        traced = invoke([sys.executable, str(BENCH / "tracer.py"), str(spans_path)] + args,
                        work, deadline - perf_counter())
        for s in (plain, traced):
            a, f = check_ops(kind, s, golden)
            attempted, failed = attempted + a, failed + f
        if traced.code != 0:
            raise Fatal(f"traced run failed: {(work / 'stderr').read_text()[-500:]}")
        try:
            m = layer_metrics(read_chunks(spans_path), traced.stdout, kind, workers, traced.wall)
        except (json.JSONDecodeError, KeyError) as exc:
            raise Fatal(f"unreadable traced run: {exc!r}")
        m["trace.overhead_s"] = traced.wall - plain.wall
        pairs.append((m, traced.wall))
        elapsed = perf_counter() - t_start
        pair_s = plain.wall + traced.wall
        if elapsed + 0.5 * pair_s >= seconds or perf_counter() + 2 * pair_s > deadline:
            break

    first = pairs[0][0]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [m[name] for m, _ in pairs]
        metrics[name] = statistics.median(values) if unit in ("s", "1/s", "ratio") else first[name]
    for m, _ in pairs:
        if m["ffgeom.points.enumerated"] != m["ffgeom.points.expected"]:
            print(f"WARNING: {m['ffgeom.points.enumerated']} points enumerated, "
                  f"{m['ffgeom.points.expected']} expected from the grid")
    if workers == 1:
        for m, _ in pairs[1:]:
            for name in REPEATABLE:
                if m[name] != first[name]:
                    print(f"WARNING: {name} differs between traced runs: {first[name]} vs {m[name]}")
    wall = statistics.median(w for _, w in pairs)
    layers = sum(metrics[k] for k in PER_LAYER_UNITS if k.endswith(".self_s"))
    print(f"traced pairs: {len(pairs)}; traced wall {wall:.4f} s x {workers} worker(s) = "
          f"{layers:.4f} s layer self time + {metrics['cli.residual_s']:.4f} s cli.residual_s")
    verdict = "ok" if metrics["trace.coverage"] >= 0.9 else "WARNING: below 0.90"
    print(f"layer self time covers {metrics['trace.coverage']:.1%} of job time ({verdict})")
    return metrics, PER_LAYER_UNITS, attempted, failed


# ---------------------------------------------------------------------------


def load_golden(name: str):
    path = GOLDEN / f"{name}.json"
    if not path.is_file():
        raise Fatal(f"missing golden copy {path}")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "drincoh" / "cli.py").is_file():
        print(f"error: no drincoh source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        meta = metadata()
        meta["probe_start_s"] = probe_s()
        run = run_per_layer if args.trace else run_end_to_end
        metrics, units, attempted, failed = run(args.workload, args.seed, args.seconds, work, deadline)
        meta["probe_end_s"] = probe_s()
        meta.update(workload=args.workload, seed=args.seed, trace=args.trace)
        print("meta: " + json.dumps(meta))
        for name, value in metrics.items():
            print(f"{name:<28} {value:>16.6g} {units[name]}")
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
