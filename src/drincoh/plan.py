"""The plan of a `verify --jobs N` run, and its forked workers.

The grid jobs are split into groups.  The jobs that read the Steinberg
resolutions of one (n, q) (steinberg, e2, cohomology) form one group, so
those resolutions are built in one worker; every other job is its own
group.  A group's cost is the closed-form number of nonzeros it builds:
each distinct resolution once (gmodules.lattice_nnz), each function complex
(orlik.function_complex_nnz), each distinct pullback of the sampled
triples, and one per candidate point it tests.  A job over the flag guard
builds nothing.  Groups are placed largest first, each on the least-loaded
of min(workers, #groups) bins (Graham's LPT rule), ties going to the bin
with fewer jobs, then to the lower bin, so the plan is deterministic.

run_forked forks one child per bin.  A child runs its jobs, writes their
records to a pipe as one JSON list and leaves through os._exit, with status
0 only after the whole list is written.  The parent runs no job: it reads
every pipe, then reaps every child with waitpid, so the children's CPU time
counts as the CLI's.  A job that its child did not report gets a fail
record naming the child's exit status.
"""

from __future__ import annotations

import json
import os
import sys

from .cli import sampled_triples
from .errors import DeskScaleExceeded
from .ffgeom import check_flag_guard
from .gmodules import lattice_nnz
from .orlik import function_complex_nnz
from .qarith import parabolic_index, projective_count
from .rootdata import standard_subset, subsets_of_size

READS_RESOLUTIONS = ("steinberg", "e2", "cohomology")
TESTS_POINTS = ("orlik", "cohomology", "lefschetz")


def groups(jobs: list[tuple]) -> list[list[tuple]]:
    """The jobs (suite, n, q, m, seed) grouped: one group per (n, q) for the
    resolution readers, one per job otherwise, in order of first job."""
    out: dict = {}
    for job in jobs:
        key = job[1:3] if job[0] in READS_RESOLUTIONS else job
        out.setdefault(key, []).append(job)
    return list(out.values())


def group_cost(group: list[tuple]) -> int:
    """Closed-form nonzeros that the group's jobs build; see the module docstring."""
    resolutions, cost = set(), 0
    for suite, n, q, m, seed in group:
        if suite != "lefschetz":  # every other suite lists flags first
            try:
                check_flag_guard(n, q)
            except DeskScaleExceeded:
                continue
        if suite == "steinberg":
            resolutions.update(J for c in range(n) for J in subsets_of_size(n, c, proper=True))
        elif suite in READS_RESOLUTIONS:
            resolutions.update(standard_subset(n, j) for j in range(n))
        elif suite == "orlik":
            cost += function_complex_nnz(n, q, m)
        elif suite == "pullbacks":
            triples = sampled_triples(n, q, seed)
            pairs = {pair for I, J, L in triples for pair in ((I, J), (J, L), (I, L))}
            cost += sum(parabolic_index(I, q) for I, _ in pairs)
        if suite in TESTS_POINTS:
            cost += projective_count(n, q, m)
    return cost + sum(lattice_nnz(J, q) for J in resolutions)


def place(jobs: list[tuple], workers: int) -> list[list[tuple]]:
    """min(workers, #groups) bins of jobs, none empty: the groups largest
    first, each on the least-loaded bin."""
    grouped = groups(jobs)
    bins: list[list[tuple]] = [[] for _ in range(min(workers, len(grouped)))]
    loads = [0] * len(bins)
    # sorted is stable, so groups of equal cost keep grid order
    for cost, group in sorted(((group_cost(g), g) for g in grouped), key=lambda cg: -cg[0]):
        k = min(range(len(bins)), key=lambda b: (loads[b], len(bins[b])))
        bins[k] += group
        loads[k] += cost
    return bins


def _child(w: int, jobs: list[tuple], run_job) -> None:
    """Run the jobs, send their records down the pipe w and exit; never returns."""
    status = 1
    try:
        records = list(map(run_job, jobs))
        with open(w, "w") as fh:
            json.dump(records, fh)
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()  # the parent sees only the exit status
        raise
    finally:
        sys.stderr.flush()
        os._exit(status)


def run_forked(bins: list[list[tuple]], run_job) -> list[dict]:
    """The records of every job, each bin run by run_job in its own forked
    child.  A job its child did not report fails, naming the exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    for jobs in bins:
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            _child(w, jobs, run_job)
        os.close(w)
        children.append((pid, r, jobs))
    sent = []
    for _, r, _ in children:
        with open(r, "rb") as fh:
            sent.append(fh.read())
    results = []
    for (pid, _, jobs), data in zip(children, sent):
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        why = f"no record from its worker, which exited with status {code}"
        reported = {}
        if code == 0:
            try:
                reported = {(r["suite"], r["n"], r["q"], r["m"]): r for r in json.loads(data)}
            except (ValueError, TypeError, KeyError):
                why += " and sent unreadable records"
        for suite, n, q, m, _ in jobs:
            results.append(reported.get((suite, n, q, m)) or {
                "suite": suite, "n": n, "q": q, "m": m,
                "status": "fail", "detail": why, "seconds": 0.0,
            })
    return results
