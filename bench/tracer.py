"""Run the drincoh CLI with spans around the public calls at each module boundary.

    python3 bench/tracer.py SPANS_OUT CLI_ARGS...

The wrappers are installed from outside the package: every module that
imported a wrapped function by name gets the wrapper, so calls across
module boundaries are all timed.  The CLI's stdout and exit code are
unchanged.  Spans are kept in memory and written to SPANS_OUT as JSON
lines when the command ends; a pool worker writes its own file,
SPANS_OUT.<pid>, after each grid job.

A span is (name, start, end, parent, job, info): `parent` indexes the
chunk's span list (-1 for none), `job` names the grid job the span ran
in, and `info` carries the counts the benchmark aggregates (nnz, points
enumerated, cache keys).  Candidate points are counted from what
`projective_points` returns under `drinfeld_points` and
`hyperplane_union_points`; its call under `rational_forms` lists the
hyperplanes, not candidates.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# span name -> layer; names absent here (cli.*) are the CLI's own time
LAYER_OF = {
    "drinfeld_points": "ffgeom.points",
    "hyperplane_union_points": "ffgeom.points",
    "subspace_points": "ffgeom.points",
    "projective_points": "ffgeom.points",
    "rational_forms": "ffgeom.points",
    "enumerate_subspaces": "ffgeom.flags",
    "enumerate_flags": "ffgeom.flags",
    "forget": "ffgeom.flags",
    "pullback_matrix": "gmodules.assembly",
    "lattice_differential": "gmodules.assembly",
    "steinberg_resolution": "gmodules.assembly",
    "build_function_complex": "orlik.assembly",
    "from_blocks": "homalg.from_blocks",
    "ddcheck": "homalg.ddcheck",
    "rank": "homalg.rank",
    "e2_page": "orlik.e2",
    "build_e1_row": "orlik.e2",
    "h_of_y": "cohomology.tables",
    "hc_of_x": "cohomology.tables",
    "h_of_x": "cohomology.tables",
    "closed_form_h_of_y": "cohomology.tables",
    "expected_hc_of_x": "cohomology.tables",
    "expected_h_of_x": "cohomology.tables",
    "lefschetz_count": "cohomology.tables",
}


class Recorder:
    """Per-process span buffer; a forked worker starts its own."""

    def __init__(self, out_path: str):
        self.out_path = out_path
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list[int] = []
        self.job: str | None = None

    def ensure_own_process(self):
        if os.getpid() != self.pid:  # forked: drop the parent's buffer
            self.pid = os.getpid()
            self.spans, self.stack, self.job = [], [], None

    def wrap(self, fn, name, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = done = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = info(args, result) if info and done else None
                spans[idx] = (name, t0, t1, parent, self.job, extra)
            return result

        return wrapper

    def wrap_job(self, fn, label_of):
        """Wrap a CLI job runner: tags the spans under it and flushes workers."""
        inner = self.wrap(fn, "cli.job")

        @functools.wraps(fn)
        def job(*args, **kwargs):
            self.ensure_own_process()
            self.job = label_of(args)
            try:
                return inner(*args, **kwargs)
            finally:
                self.job = None
                if not self.stack and self.pid != MAIN_PID:
                    self.flush(f"{self.out_path}.{self.pid}")

        return job

    def flush(self, path: str):
        with open(path, "a") as fh:
            fh.write(json.dumps({"pid": self.pid, "spans": self.spans}) + "\n")
        self.spans = []


MAIN_PID = os.getpid()


def _expected_points_info(args, result):
    """drinfeld_points(n, q, m) and hyperplane_union_points(n, q, m) should
    test every point of P^n(F_{q^m}); kept as a cross-check of the count."""
    from drincoh.qarith import projective_count

    n, q, m = args[:3]
    return {"expected": projective_count(n, q, m)}


def _len_info(field):
    def info(args, result):
        return {field: len(result)}

    return info


def _key_info(name):
    def info(args, result):
        return {"key": repr((name, args)), "returned": len(result)}

    return info


def _nnz_info(args, result):
    return {"nnz": result.nnz}


def _rank_info(args, result):
    m = args[0]
    return {"nnz": m.nnz, "dim": max(m.rows, m.cols)}


def _ddcheck_info(args, result):
    diffs = args[0].diffs
    pairs = range(len(diffs) - 1)
    return {
        "products": len(pairs),
        "nnz": sum(diffs[i].nnz + diffs[i + 1].nnz for i in pairs),
    }


def _e2_info(args, result):
    return {"key": repr(args[:2])}


def install(rec: Recorder):
    """Patch the public calls of every layer in all drincoh modules."""
    from drincoh import cli, cohomology, ffgeom, gmodules, homalg, orlik

    modules = [m for k, m in sys.modules.items() if k == "drincoh" or k.startswith("drincoh.")]
    functions = [
        (ffgeom, "drinfeld_points", _expected_points_info),
        (ffgeom, "hyperplane_union_points", _expected_points_info),
        (ffgeom, "subspace_points", _len_info("enumerated")),
        (ffgeom, "projective_points", _len_info("candidates")),
        (ffgeom, "rational_forms", None),
        (ffgeom, "enumerate_subspaces", _key_info("subspaces")),
        (ffgeom, "enumerate_flags", _key_info("flags")),
        (ffgeom, "forget", None),
        (gmodules, "pullback_matrix", _nnz_info),
        (gmodules, "lattice_differential", None),
        (gmodules, "steinberg_resolution", None),
        (orlik, "build_function_complex", None),
        (orlik, "e2_page", _e2_info),
        (orlik, "build_e1_row", None),
        (cohomology, "h_of_y", None),
        (cohomology, "hc_of_x", None),
        (cohomology, "h_of_x", None),
        (cohomology, "closed_form_h_of_y", None),
        (cohomology, "expected_hc_of_x", None),
        (cohomology, "expected_h_of_x", None),
        (cohomology, "lefschetz_count", None),
    ]
    for home, name, info in functions:
        orig = getattr(home, name)
        wrapped = rec.wrap(orig, name, info)
        for mod in modules:
            if getattr(mod, name, None) is orig:
                setattr(mod, name, wrapped)

    M, C = homalg.ExactMatrix, homalg.ChainComplex
    M.rank = rec.wrap(M.rank, "rank", _rank_info)
    M.from_blocks = staticmethod(rec.wrap(M.from_blocks, "from_blocks", _nnz_info))
    C.__post_init__ = rec.wrap(C.__post_init__, "ddcheck", _ddcheck_info)

    cli._run_job = rec.wrap_job(cli._run_job, lambda a: "{}:n={}:q={}:m={}".format(*a[0][:4]))
    cli.cmd_cohomology = rec.wrap_job(cli.cmd_cohomology, lambda a: f"cohomology:n={a[0].n}")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder(out_path)
    install(rec)
    from drincoh import cli

    main_fn = rec.wrap(cli.main, "cli.main")
    try:
        code = main_fn(cli_args)
    finally:
        sys.stdout.flush()
        rec.flush(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
