"""Command-line front end.

Three subcommands:

  cohomology   print H*(Y), H*_c(X), H*(X) for each (n, q), cross-checked
               against their closed forms
  verify       run the invariant battery over a (n, q, m) grid, with
               --jobs N on forked workers fed from one queue (drincoh.plan)
  dims         print parabolic indices and Steinberg dimensions for all I

Exit codes: 0 success, 1 usage error or size guard, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import cohomology as coh
from .errors import DeskScaleExceeded
from .ffgeom import drinfeld_points
from .gmodules import clear_resolutions, pullback_matrix, steinberg_dim, steinberg_resolution
from .orlik import build_function_complex, e2_page
from .qarith import is_prime, parabolic_index, projective_count
from .rootdata import ParabolicType, subsets_of_size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2

SUBSET_GUARD = 10  # rank n of the dims table, about 4^n subset visits

SUITES = ("steinberg", "orlik", "e2", "cohomology", "lefschetz", "pullbacks")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_q_list(text: str) -> list[int]:
    try:
        qs = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse q list {text!r}")
    if not qs:
        raise argparse.ArgumentTypeError("empty q list")
    return qs


def build_parser() -> _Parser:
    p = _Parser(prog="drincoh", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, n_flag):
        sp.add_argument(n_flag, type=int, required=True, dest="n")
        sp.add_argument("--q", type=_parse_q_list, required=True,
                        help="comma-separated list of primes")
        sp.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    sp = sub.add_parser("cohomology", help="print and cross-check the three tables")
    common(sp, "--n")
    sp.set_defaults(m_max=1, jobs=1)

    sp = sub.add_parser("verify", help="run verification suites over a grid")
    common(sp, "--n-max")
    sp.add_argument("--suite", default="all", choices=("all",) + SUITES)
    sp.add_argument("--m-max", type=int, default=2)
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--jobs", type=int, default=1,
                    help="forked workers, at most one per job group; 0 = one per cpu")

    sp = sub.add_parser("dims", help="Steinberg dimension and index tables")
    common(sp, "--n")
    sp.set_defaults(m_max=1, jobs=1)
    return p


def _validate(cfg: argparse.Namespace) -> str | None:
    if cfg.n < 1:
        return f"n must be >= 1, got {cfg.n}"
    for q in cfg.q:
        if not is_prime(q):
            return f"q must be prime, got {q}"
    if cfg.m_max < 1:
        return f"m bound must be >= 1, got {cfg.m_max}"
    if cfg.jobs < 0:
        return f"jobs must be >= 0, got {cfg.jobs}"
    return None


# ---------------------------------------------------------------------------
# cohomology command
# ---------------------------------------------------------------------------


def _table_diff(name: str, got, want) -> list[str]:
    if got == want:
        return []
    lines = [f"MISMATCH in {name}:"]
    for d in sorted(set(got.degrees()) | set(want.degrees())):
        g, w = got.module(d), want.module(d)
        if g != w:
            lines.append(f"  degree {d}: computed {g}, expected {w}")
    return lines


def _check_tables(n: int, q: int, hy, hc, hx) -> list[str]:
    """The failures of H(Y), Hc(X) and H(X) against their closed forms, and
    of Poincaré duality between H(X) and Hc(X): dimensions and twist sums."""
    failures = _table_diff(f"H(Y) n={n} q={q}", hy, coh.closed_form_h_of_y(n, q))
    failures += _table_diff(f"Hc(X) n={n} q={q}", hc, coh.expected_hc_of_x(n, q))
    failures += _table_diff(f"H(X) n={n} q={q}", hx, coh.expected_h_of_x(n, q))
    for j in range(0, 2 * n + 1):
        a, b = hx.module(j), hc.module(2 * n - j)
        if a.dim != b.dim:
            failures.append(f"duality dim failure at degree {j} (q={q})")
        for s, t in zip(a.summands, b.summands):
            if s.twist + t.twist != -n:
                failures.append(f"twist sum != -n at degree {j} (q={q})")
    return failures


def cmd_cohomology(cfg: argparse.Namespace) -> int:
    failures: list[str] = []
    payload = []
    for q in cfg.q:
        hy = coh.h_of_y(cfg.n, q)
        hc = coh.hc_of_x(hy)
        hx = coh.h_of_x(hc)
        failures += _check_tables(cfg.n, q, hy, hc, hx)
        payload += [hy, hc, hx]
    if cfg.fmt == "json":
        print(json.dumps([t.to_json_dict() for t in payload], indent=2))
    else:
        for t in payload:
            print(t.render_text())
            print()
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return EXIT_FAIL
    if cfg.fmt == "text":
        print("all cross-checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def _job_steinberg(n: int, q: int, m: int, seed: int) -> str:
    for c in range(n):
        for J in subsets_of_size(n, c, proper=True):
            # raises unless exact with the inclusion-exclusion cokernel dim
            steinberg_resolution(J, q)
    width = parabolic_index(ParabolicType.empty(n), q)
    return f"all J exact, |G/B|={width}"

def _job_orlik(n: int, q: int, m: int, seed: int) -> str:
    cx = build_function_complex(n, q, m)  # raises unless its hull matching certifies it
    return f"terms {cx.terms} acyclic"

def _job_e2(n: int, q: int, m: int, seed: int) -> str:
    page = e2_page(n, q)  # raises on any closed-form mismatch
    return f"{len(page)} nonzero entries match"

def _job_cohomology(n: int, q: int, m: int, seed: int) -> str:
    hy = coh.h_of_y(n, q)
    hc = coh.hc_of_x(hy)
    failures = _check_tables(n, q, hy, hc, coh.h_of_x(hc))
    if failures:
        raise AssertionError("; ".join(line.strip() for line in failures))
    trace = hy.euler_trace(m)
    expected = projective_count(n, q, m) - drinfeld_points(n, q, m)
    if trace != expected:
        raise AssertionError(f"H(Y) trace {trace} != point count {expected} at m={m}")
    return "tables and traces match"

def _job_lefschetz(n: int, q: int, m: int, seed: int) -> str:
    lc = coh.lefschetz_count(n, q, m)
    dp = drinfeld_points(n, q, m)
    if lc != dp:
        raise AssertionError(f"lefschetz {lc} != enumeration {dp}")
    return f"both sides {lc}"

def sample_nested_triple(rng, n: int):
    """A random nested triple I ⊆ J ⊆ L of simple-root subsets; rng is a
    random.Random."""
    L = [r for r in range(n) if rng.random() < 0.7]
    J = [r for r in L if rng.random() < 0.7]
    I = [r for r in J if rng.random() < 0.7]
    return ParabolicType.of(n, I), ParabolicType.of(n, J), ParabolicType.of(n, L)


def _check_triple(built: dict, I, J, L, q: int):
    # a pair missing from `built` (one job's pullbacks) is built and shape-checked
    for pair in ((I, J), (J, L), (I, L)):
        if pair not in built:
            P = built[pair] = pullback_matrix(*pair, q)
            if P.indptr != list(range(P.rows + 1)) or P.data.count(1) != P.nnz:
                raise AssertionError("pullback is not one-nonzero-per-row")
    PIJ, PJL, PIL = built[I, J], built[J, L], built[I, L]
    composite = PIJ.cols == PJL.rows and list(map(PJL.indices.__getitem__, PIJ.indices))
    if composite != PIL.indices or PJL.cols != PIL.cols:
        raise AssertionError(f"functoriality fails for {I}, {J}, {L}")
    fiber = parabolic_index(I, q) // parabolic_index(J, q)
    if sorted(PIJ.indices) != sorted(list(range(PIJ.cols)) * fiber):
        raise AssertionError("pullback column sums are not the fiber size")


def _job_pullbacks(n: int, q: int, m: int, seed: int) -> str:
    import random  # only this suite samples

    rng = random.Random(seed + 1000 * n + q)
    built: dict = {}  # one pullback per distinct pair, one check per distinct triple
    for I, J, L in dict.fromkeys(sample_nested_triple(rng, n) for _ in range(20)):
        _check_triple(built, I, J, L, q)
    return "20 sampled triples pass"


_JOBS = {
    "steinberg": _job_steinberg,
    "orlik": _job_orlik,
    "e2": _job_e2,
    "cohomology": _job_cohomology,
    "lefschetz": _job_lefschetz,
    "pullbacks": _job_pullbacks,
}

_PER_M = {"orlik", "lefschetz", "cohomology"}


def _grid(cfg: argparse.Namespace) -> list[tuple[str, int, int, int]]:
    suites = SUITES if cfg.suite == "all" else (cfg.suite,)
    jobs = []
    for suite in suites:
        for n in range(1, cfg.n + 1):
            for q in cfg.q:
                ms = range(1, cfg.m_max + 1) if suite in _PER_M else (1,)
                for m in ms:
                    jobs.append((suite, n, q, m))
    return jobs


def _run_job(args) -> dict:
    suite, n, q, m, seed = args
    t0 = time.perf_counter()
    try:
        detail = _JOBS[suite](n, q, m, seed)
        status = "pass"
    except DeskScaleExceeded as exc:
        status, detail = "skip", str(exc)
    except Exception as exc:  # report, don't crash the whole battery
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return {
        "suite": suite, "n": n, "q": q, "m": m,
        "status": status, "detail": detail, "seconds": round(time.perf_counter() - t0, 3),
    }


def cmd_verify(cfg: argparse.Namespace) -> int:
    jobs = [(s, n, q, m, cfg.seed) for (s, n, q, m) in _grid(cfg)]
    workers, grouped = cfg.jobs or os.cpu_count() or 1, [jobs]
    if workers > 1 and hasattr(os, "fork"):  # where fork is missing, one worker
        from . import plan  # only a run with workers pays for this import

        grouped = plan.groups(jobs)
    # one group runs in this process
    results = (plan.run_forked(grouped, workers, _run_job) if len(grouped) > 1
               else [_run_job(j) for j in jobs])
    results.sort(key=lambda r: (r["suite"], r["n"], r["q"], r["m"]))
    ok = all(r["status"] != "fail" for r in results)
    if cfg.fmt == "json":
        print(json.dumps({"ok": ok, "results": results}, indent=2))
    else:
        for r in results:
            tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r["status"]]
            grid = f"n={r['n']} q={r['q']}" + (f" m={r['m']}" if r["suite"] in _PER_M else "")
            print(f"{tag}  {r['suite']:<11} {grid:<16} {r['detail']}  ({r['seconds']}s)")
        counts = {s: sum(1 for r in results if r["status"] == s) for s in ("pass", "fail", "skip")}
        print(f"{counts['pass']} passed, {counts['fail']} failed, {counts['skip']} skipped")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# dims command
# ---------------------------------------------------------------------------


def cmd_dims(cfg: argparse.Namespace) -> int:
    if cfg.n > SUBSET_GUARD:  # before any subset is listed
        raise DeskScaleExceeded(f"dims lists 2^{cfg.n} subsets, over the n <= {SUBSET_GUARD} guard")
    payload = []
    for q in cfg.q:
        rows = []
        for c in range(cfg.n + 1):
            for I in subsets_of_size(cfg.n, c, proper=False):
                rows.append({
                    "subset": I.subset_str(),
                    "composition": I.composition_str(),
                    "index": parabolic_index(I, q),
                    "steinberg_dim": steinberg_dim(I, q),
                })
        payload.append({"n": cfg.n, "q": q, "rows": rows})
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for block in payload:
            print(f"n={block['n']} q={block['q']}")
            print(f"  {'I':<14}{'type':<12}{'[G:P_I]':>10}{'dim v':>8}")
            for r in block["rows"]:
                print(f"  {r['subset']:<14}{r['composition']:<12}{r['index']:>10}{r['steinberg_dim']:>8}")
            print()
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    clear_resolutions()  # each run builds its own resolutions, whatever ran earlier in this process
    cfg = build_parser().parse_args(argv)
    problem = _validate(cfg)
    if problem:
        print(f"drincoh: error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    handler = {"cohomology": cmd_cohomology, "verify": cmd_verify, "dims": cmd_dims}
    try:
        return handler[cfg.command](cfg)
    except DeskScaleExceeded as exc:  # verify turns these into SKIPs itself
        print(f"drincoh: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
