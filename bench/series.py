"""Run the benchmark twice over ten seeds and record medians and quartiles.

    python3 bench/series.py --label NAME

Makes two sets of runs, one after the other.  Each set runs every workload
in BENCHMARK.json end to end with seeds 1-10, and the first set also makes
two traced (per-layer) runs per workload.  Every run uses the file's
run_seconds.  Writes bench/BENCH_<NAME>.json: run metadata (commit,
Python, nproc, src line count, host-speed probe) and, per set, workload
and metric, every run's value with their median, quartiles
(statistics.quantiles, n=4) and spread (quartile distance / median).
Prints, per workload and end-to-end metric, the two spreads and how far
the second median moved from the first, against the metric's bound.
Compare two labels measured on the same machine, not across machines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10
TRACED = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    meta = next(json.loads(line[6:]) for line in lines if line.startswith("meta: "))
    return json.loads(lines[-1]), meta


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values, "median": med}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[name] = entry
    return out


def series(workload: str, seconds: int, trace: int, count: int, report: dict) -> dict:
    runs, probes = [], []
    for seed in range(1, count + 1):
        result, meta = one_run(workload, seed, seconds, trace)
        runs.append(result)
        probes.append((meta["probe_start_s"], meta["probe_end_s"]))
        report["meta"] = {k: meta[k] for k in ("commit", "python", "nproc", "src_lines")}
        shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                 if k in ("wall_s", "cpu_s", "setup_s")}
        print(f"{workload} trace={trace} seed={seed} correct={result['correct']} {shown}",
              flush=True)
    return {
        "metrics": summarize(runs),
        "probe_s": probes,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--label", required=True)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    report = {"label": args.label, "run_seconds": seconds, "sets": [], "per_layer": {}}
    for _ in range(SETS):
        report["sets"].append({w: series(w, seconds, 0, RUNS, report) for w in names})
    for w in names:
        report["per_layer"][w] = series(w, seconds, 1, TRACED, report)

    ok = True
    for w in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first, second = (s[w]["metrics"][name] for s in report["sets"])
            worse = (second["median"] - first["median"]) / first["median"]
            if m["better"] == "higher":
                worse = -worse
            spreads = [first["spread"], second["spread"]]
            fits = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and fits
            print(f"{w:<14} {name:<12} median {first['median']:.4f} -> {second['median']:.4f} "
                  f"({worse:+.3f})  spread {spreads[0]:.3f} {spreads[1]:.3f}  bound {bound}"
                  f"{'' if fits else '  OUT OF BOUND'}")
    path = BENCH / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
