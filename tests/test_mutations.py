"""Injected bugs must make `verify` fail, in the suites that should catch them.

Each case patches one deliberate bug into every module that imported the
name, runs the verify battery in-process and expects exit code 2 with FAIL
lines naming exactly the suites listed.  This shows the battery is not vacuous.
One injected sign flip also shows that a d∘d failure names its complex.
"""

import pytest

from drincoh import cli, cohomology, ffgeom, gmodules, matching, orlik, qarith, rootdata
from drincoh.errors import ExactnessError
from drincoh.homalg import ExactMatrix
from drincoh.tables import CohomologyTable, Summand, TwistedModule

VERIFY = ["verify", "--n-max", "2", "--q", "2", "--m-max", "1"]
VERIFY_N3 = ["verify", "--n-max", "3", "--q", "2", "--m-max", "1"]


def _failures(capsys) -> list[tuple[str, str]]:
    """(suite, line) of each FAIL line of the captured output."""
    out = capsys.readouterr().out
    return [(ln.split()[1], ln) for ln in out.splitlines() if ln.startswith("FAIL")]


def _patch_everywhere(monkeypatch, name, fn, modules):
    for mod in modules:
        assert hasattr(mod, name), (mod.__name__, name)
        monkeypatch.setattr(mod, name, fn)


def _flipped_cover_sign(I, a):
    # one edge only: flipping a root everywhere is a basis change, not a bug
    sign = rootdata.cover_sign(I, a)
    return -sign if I.mask == 0 and a == 0 else sign


def _steinberg_dim_plus_one(J, q, _orig=qarith.steinberg_dim):
    return _orig(J, q) + 1


def _shifted_h_of_y(n, q, _orig=cohomology.closed_form_h_of_y):
    table = _orig(n, q)
    entries = dict(table.entries)
    entries[0] = TwistedModule.of(
        *(Summand(s.kind, s.subset, s.dim, s.twist - 1) for s in entries[0].summands)
    )
    return CohomologyTable(table.n, table.q, table.theorem, entries, table.metadata)


def _flag_keys_missing_one(I, q, _orig=ffgeom.flag_keys):
    # drops one summand of build_function_complex: the last full-flag key
    keys = _orig(I, q)
    return keys[:-1] if I.mask == 0 else keys


def _forget_map_one_wrong(I, J, q, _orig=ffgeom.forget_map):
    # the first full flag goes to the next image instead of its own
    image = _orig(I, J, q)
    if I.mask == 0 and max(image) > 0:
        image = ((image[0] + 1) % (max(image) + 1),) + image[1:]
    return image


def _superspaces_missing_one(N, small, big, q, _orig=ffgeom._superspaces):
    # subspace 0 loses its last superspace, so every chain through it is lost
    supers = _orig(N, small, big, q)
    return (supers[0][:-1],) + supers[1:]


def _point_positions_two_swapped(d, q, m, _orig=ffgeom.point_positions):
    # the first two points of every plane trade positions
    positions = dict(_orig(d, q, m))
    if d == 2:
        a, b = list(positions)[:2]
        positions[a], positions[b] = positions[b], positions[a]
    return positions


def _digits_top_zeroed(q, m, _orig=ffgeom._digits):
    # every element of F_{q^m} loses its top digit, so at m = 2 every point
    # looks F_q-rational to the block pass
    return tuple(d[:-1] + (0,) for d in _orig(q, m))


def _rational_forms_missing_one(n, q, _orig=ffgeom.rational_forms):
    return _orig(n, q)[1:]


def _rank_one_short(self, _orig=ExactMatrix.rank, **kwargs):
    r = _orig(self, **kwargs)
    return r - 1 if r > 0 else r


def _clearing_one_too_many(self, *, skip_cols=(), pivot_rows=None, _orig=ExactMatrix.rank):
    # besides the pivot rows of the previous differential, clear the first
    # nonzero column that is not one of them
    if skip_cols:
        skip = set(skip_cols)
        columns = (j for block in self.covers for _, _, image in block for j in image)
        extra = min((j for j in columns if j not in skip), default=None)
        if extra is not None:
            skip_cols = [*skip_cols, extra]
    return _orig(self, skip_cols=skip_cols, pivot_rows=pivot_rows)


def _hull_mask_one_flipped(d, q, m, _orig=matching.hull_mask):
    # the first point of every plane has the wrong rational hull
    mask = _orig(d, q, m)
    return bytes([1 - mask[0]]) + mask[1:] if d == 2 else mask


def _augmentation_without_covers(*args, _orig=orlik._augmentation):
    # every row block of d_0 loses its one cover, so d_0 = 0, d∘d stays 0
    # and H_0 = Fun(Y)
    return [[] for _ in _orig(*args)]


def _lattice_last_scaled(sources, targets, q, _orig=gmodules.lattice_differential):
    # the function complex's last differential, into the full flags, has
    # its signs doubled: d∘d stays 0 and every rank over Q is unchanged,
    # but its matched minor is no longer a signed permutation over Z
    d = _orig(sources, targets, q)
    if targets[0].mask == 0:
        d = ExactMatrix(d.row_blocks, d.col_blocks,
                        [[(b, 2 * sign, image) for b, sign, image in row] for row in d.covers])
    return d


def _lattice_float_signs(sources, targets, q, _orig=gmodules.lattice_differential):
    # every sign of the function complex's covers is a float: equal to the
    # int it stands for, so every check that compares values passes, but
    # the ExactMatrix constructor takes only int entries (set past this
    # layer's own constructor, so the function complex's rejects them)
    d = _orig(sources, targets, q)
    d.covers = [[(b, float(sign), image) for b, sign, image in row] for row in d.covers]
    return d


def _first_cover_rows_swapped(sources, targets, q, _orig=gmodules.lattice_differential):
    # rows 0 and 1 of the first cover of every row block of at least 4 rows
    # trade columns: rank and homology miss it, the d∘d check does not
    d = _orig(sources, targets, q)
    covers = []
    for (_, size), row in zip(d.row_blocks, d.covers):
        if size >= 4:
            (b, sign, image), *rest = row
            row = [(b, sign, [image[1], image[0], *image[2:]]), *rest]
        covers.append(row)
    return ExactMatrix(d.row_blocks, d.col_blocks, covers)


CASES = {
    "cover_sign": (
        _flipped_cover_sign,
        (gmodules,),
        {"steinberg", "orlik", "e2", "cohomology"},
    ),
    "steinberg_dim": (
        _steinberg_dim_plus_one,
        (qarith, gmodules, orlik, cohomology),
        {"steinberg", "e2", "lefschetz", "cohomology"},
    ),
    "closed_form_h_of_y": (_shifted_h_of_y, (cohomology,), {"cohomology"}),
    "flag_keys": (_flag_keys_missing_one, (orlik,), {"orlik"}),
    # the enumeration itself disagrees with the closed form parabolic_index
    "flag_count": (
        _flag_keys_missing_one,
        (ffgeom, gmodules, orlik),
        {"steinberg", "e2", "cohomology", "orlik", "pullbacks"},
    ),
    "forget_map": (_forget_map_one_wrong, (gmodules,), {"orlik", "pullbacks"}),
    "superspaces": (
        _superspaces_missing_one,
        (ffgeom,),
        {"steinberg", "orlik", "e2", "cohomology", "pullbacks"},
    ),
    "point_positions": (_point_positions_two_swapped, (orlik,), {"orlik"}),
    "digits": (_digits_top_zeroed, (ffgeom,), {"orlik", "cohomology", "lefschetz"}),
    "rational_forms": (
        _rational_forms_missing_one,
        (ffgeom,),
        {"orlik", "cohomology", "lefschetz"},
    ),
    "rank": (_rank_one_short, (ExactMatrix,), {"steinberg", "e2", "cohomology"}),
    "clearing": (_clearing_one_too_many, (ExactMatrix,), {"steinberg", "e2", "cohomology"}),
    "hull_mask": (_hull_mask_one_flipped, (matching,), {"orlik"}),
    "augmentation": (_augmentation_without_covers, (orlik,), {"orlik"}),
    "unit_partners": (_lattice_last_scaled, (orlik,), {"orlik"}),
    "int_signs": (_lattice_float_signs, (orlik,), {"orlik"}),
    "lattice_differential": (
        _first_cover_rows_swapped,
        (gmodules,),
        {"steinberg", "e2", "cohomology"},
    ),
}
# cases that patch a name other than their own
PATCHED_NAME = {
    "clearing": "rank",
    "superspaces": "_superspaces",
    "digits": "_digits",
    "flag_count": "flag_keys",
    "augmentation": "_augmentation",
    "unit_partners": "lattice_differential",
    "int_signs": "lattice_differential",
}
# cases whose bug shows only past m = 1 (at m = 1 the top digit is the only
# one), or only past n = 2, where the d∘d check first sees the swapped rows
ARGV = {"digits": [*VERIFY[:-1], "2"], "lattice_differential": VERIFY_N3}
# cases whose FAIL lines must say what failed, per suite: a helper that
# raised TypeError on a stale signature would fail the same suites
DETAIL = {
    "unit_partners": {"orlik": "not ±1"},
    "int_signs": {"orlik": "entry 1.0 is not an int"},
    "lattice_differential": dict.fromkeys(("steinberg", "e2", "cohomology"), "d∘d != 0"),
    # a layer that fails its own constructor names its complex
    "flag_count": {**dict.fromkeys(("steinberg", "e2", "cohomology"), "lattice complex J="),
                   "orlik": "function complex (n, q, m) = "},
}


# the caches themselves: the steinberg_dim, flag_count, digits and hull_mask
# cases replace the module's name
STEINBERG_DIM, FLAG_KEYS = qarith.steinberg_dim, ffgeom.flag_keys
DIGITS, HULL_MASK = ffgeom._digits, matching.hull_mask


def _clear_tables():
    for table in (FLAG_KEYS, ffgeom.forget_map, ffgeom.point_positions,
                  ffgeom._coordinate, ffgeom._digit_planes, qarith.parabolic_index,
                  STEINBERG_DIM, DIGITS, HULL_MASK):
        table.cache_clear()
    gmodules.clear_resolutions()


@pytest.mark.parametrize("name", sorted(CASES))
def test_injected_bug_fails_verify(name, monkeypatch, capsys):
    fn, modules, suites = CASES[name]
    _patch_everywhere(monkeypatch, PATCHED_NAME.get(name, name), fn, modules)
    # earlier tests leave flag and point tables and resolution records
    # cached, which would hide a bug below the caches, and a patched run must
    # not leave its own behind
    _clear_tables()
    try:
        assert cli.main(ARGV.get(name, VERIFY)) == cli.EXIT_FAIL
    finally:
        _clear_tables()
    failures = _failures(capsys)
    failed = {suite for suite, _ in failures}
    assert failed == suites, (name, failed)
    for suite, line in failures:
        assert DETAIL.get(name, {}).get(suite, "") in line, (name, line)


def test_unpatched_battery_passes(capsys):
    assert cli.main(VERIFY) == cli.EXIT_OK
    assert _failures(capsys) == []


def test_dd_failure_names_the_complex(monkeypatch):
    _patch_everywhere(monkeypatch, "cover_sign", _flipped_cover_sign, (gmodules,))
    gmodules.clear_resolutions()  # a record from correct code would hide the flip
    where = r"^lattice complex J=\{\}, q=2: d∘d"
    with pytest.raises(ExactnessError, match=where) as exc:
        gmodules.steinberg_resolution(rootdata.ParabolicType.empty(2), 2)
    assert isinstance(exc.value.__cause__, ExactnessError)
    where = r"^function complex \(n, q, m\) = \(2, 2, 1\): d∘d"
    with pytest.raises(ExactnessError, match=where) as exc:
        orlik.build_function_complex(2, 2, 1)
    assert isinstance(exc.value.__cause__, ExactnessError)
