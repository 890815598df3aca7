"""The forked workers of a `verify --jobs N` run, fed from one queue.

The grid jobs are split into groups.  The jobs that read the Steinberg
resolutions of one (n, q) (steinberg, e2, cohomology) form one group, so
those resolutions are built in one worker; every other job is its own
group.  Groups are ordered largest first by |G/B| of (n, q), then m, ties
keeping grid order.

run_forked forks min(workers, #groups) children and writes the group
indices, 4 bytes each, into one pipe that every child reads, so a free child
takes the next group (Graham's list scheduling; on this order, his LPT
rule).  A child writes each index it takes, then that group's records as one
JSON line, to its own unnamed temporary file, so it never waits on the
parent.  The parent runs no job: it feeds the queue, reaps every child with
waitpid, so their CPU time counts as the CLI's, then reads their files.  A
group taken but not reported fails, naming its child's exit status.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from .qarith import parabolic_index
from .rootdata import ParabolicType

READS_RESOLUTIONS = ("steinberg", "e2", "cohomology")


def groups(jobs: list[tuple]) -> list[list[tuple]]:
    """The jobs (suite, n, q, m, seed) grouped: one group per (n, q) for the
    resolution readers, one per job otherwise, largest first."""
    out: dict = {}
    for job in jobs:
        key = job[1:3] if job[0] in READS_RESOLUTIONS else job
        out.setdefault(key, []).append(job)

    def size(group):
        return max((parabolic_index(ParabolicType.empty(n), q), m) for _, n, q, m, _ in group)

    return sorted(out.values(), key=size, reverse=True)  # stable, also reversed


def _child(r: int, out, grouped: list[list[tuple]], run_job) -> None:
    """Run the groups whose indices come down the pipe r, reporting each to
    the file out, until the pipe is empty and closed; never returns."""
    status = 1
    try:
        while len(taken := os.read(r, 4)) == 4:
            i = int.from_bytes(taken, "little")
            os.write(out.fileno(), b"%d " % i)
            records = list(map(run_job, grouped[i]))
            os.write(out.fileno(), json.dumps(records).encode() + b"\n")
        status = 0
    except BaseException:
        import traceback

        traceback.print_exc()  # the parent sees only the exit status
        raise
    finally:
        sys.stderr.flush()
        os._exit(status)


def run_forked(grouped: list[list[tuple]], workers: int, run_job) -> list[dict]:
    """The records of every job, each group run by run_job in whichever
    forked child takes it.  A job its child did not report fails, naming the
    exit status."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    children = []
    for _ in range(min(workers, len(grouped))):
        out = tempfile.TemporaryFile()
        pid = os.fork()
        if pid == 0:
            os.close(w)
            _child(r, out, grouped, run_job)
        children.append((pid, out))
    os.close(r)  # once every child has exited, feeding it raises
    try:
        with open(w, "wb") as fh:
            fh.write(b"".join(i.to_bytes(4, "little") for i in range(len(grouped))))
    except BrokenPipeError:  # the groups no child took fail below
        pass
    reported, lost = {}, {}
    for pid, out in children:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        why = f"no record from its worker, which exited with status {code}"
        with out:
            out.seek(0)
            *done, running = out.read().split(b"\n")
        for line in done:
            i, _, sent = line.partition(b" ")
            try:
                reported.update({(x["suite"], x["n"], x["q"], x["m"]): x for x in json.loads(sent)})
            except (ValueError, TypeError, KeyError):
                lost[int(i)] = why + " and sent unreadable records"
        if running:  # the group it took last and did not report
            lost[int(running.split()[0])] = why
    return [
        reported.get((suite, n, q, m)) or {
            "suite": suite, "n": n, "q": q, "m": m, "status": "fail",
            "detail": lost.get(i, "no record from any worker"), "seconds": 0.0,
        }
        for i, group in enumerate(grouped) for suite, n, q, m, _ in group
    ]
