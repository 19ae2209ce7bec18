"""verify_schwartz and calibrate_schwartz against the full-grid reference.

The reference finds D_eps, the points with 0 < |f| <= eps, by evaluating
the form on every point of the (2 box + 1)^2 grid.  It takes p3 from the
whole grid and p2, p4 from D_eps, and checks both sides at p3 by
evaluating f, so it assumes no range for the sides.
"""

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lampgeo as lg
from lampgeo import quads
from lampgeo.quads import SolFamily, VerifyReport, _sol_seed_box, _sol_small_points

# the benchmark's three matrices, then hyperbolic ones with |c| > 1 in the
# form, a negative trace and a large trace
MATRICES = [((2, 1), (1, 1)), ((1, 1), (1, 2)), ((5, 2), (2, 1)),
            ((3, 1), (2, 1)), ((-3, -1), (-5, -2)), ((0, -1), (1, 5)), ((7, 3), (2, 1))]
EPSILONS = [1, 2, 4]
BOXES = [1, 2, 7, 25]


def grid_small_points(form, eps, box):
    a, b, c = form
    return sorted((x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
                  if 0 < abs(a * x * x + b * x * y + c * y * y) <= eps)


@functools.cache
def reference_scan(matrix, eps, box):
    """(p2, p3, p4, min_diagonal_delta, is_parallelogram) for every
    side-satisfying quadruple (0, p2, p3, p4) in the box."""
    a, b, c = lg.sol_invariant_form(matrix).form

    def f(x, y):
        return abs(a * x * x + b * x * y + c * y * y)

    d_eps = grid_small_points((a, b, c), eps, box)
    out = []
    for p3 in itertools.product(range(-box, box + 1), repeat=2):
        if p3 == (0, 0):
            continue
        corners = [q for q in d_eps if q != p3 and f(p3[0] - q[0], p3[1] - q[1]) <= eps]
        for p2 in corners:
            for p4 in corners:
                if p4 == p2:
                    continue
                diag = min(f(*p3), f(p2[0] - p4[0], p2[1] - p4[1]))
                out.append((p2, p3, p4, diag, p3 == (p2[0] + p4[0], p2[1] + p4[1])))
    return out


def _report(ctx, eps, M, box, checked, violations, extras=None):
    fam = SolFamily(ctx)
    return VerifyReport(
        params={"matrix": [list(r) for r in ctx.a], "form": list(ctx.form),
                "epsilon": eps, "M": M},
        search_space={"box_halfwidth": box},
        count_checked=checked,
        violations=sorted(violations),
        vacuous=checked == 0,
        elapsed_ms=0,
        family=fam.name,
        extras=extras or {},
        point_fmt=fam.fmt,
    )


def reference_verify(matrix, eps, M, box):
    ctx = lg.sol_invariant_form(matrix)
    quads = [q for q in reference_scan(matrix, eps, box) if q[3] >= M]
    violations = [((0, 0), p2, p3, p4) for p2, p3, p4, _, par in quads if not par]
    return _report(ctx, eps, M, box, len(quads), violations)


def reference_calibrate(matrix, eps, box):
    ctx = lg.sol_invariant_form(matrix)
    quads = reference_scan(matrix, eps, box)
    worst = max((d for *_, d, par in quads if not par), default=0)
    par_diags = [d for *_, d, par in quads if par]
    m_star = worst + 1
    return _report(ctx, eps, m_star, box, sum(1 for d in par_diags if d >= m_star), [],
                   {"M_star": m_star, "max_nonparallelogram_min_diagonal": worst,
                    "max_parallelogram_min_diagonal": max(par_diags, default=0)})


CASES = [(m, eps, box) for m in MATRICES for eps in EPSILONS for box in BOXES]


@pytest.mark.parametrize("matrix, eps, box", CASES)
def test_schwartz_matches_grid_reference(matrix, eps, box):
    ctx = lg.sol_invariant_form(matrix)
    want = reference_calibrate(matrix, eps, box)
    assert lg.calibrate_schwartz(ctx, eps, box).to_jsonable() == want.to_jsonable()
    m_star = want.extras["M_star"]
    # below, at and above the calibrated threshold
    for M in (m_star - 1, m_star, m_star + 3):
        got = lg.verify_schwartz(ctx, eps, M, box)
        assert got.to_jsonable() == reference_verify(matrix, eps, M, box).to_jsonable()


def test_schwartz_reference_cases_are_not_vacuous():
    # the comparison above means something only if the reference finds both
    # parallelograms and non-parallelograms, so that M* splits them
    for matrix in MATRICES:
        quads = reference_scan(matrix, 4, 25)
        assert any(par for *_, par in quads) and any(not par for *_, par in quads), matrix
    split = [case for case in CASES if reference_calibrate(*case).extras["M_star"] > 1]
    assert len(split) >= len(CASES) // 2


@given(st.integers(-6, 6).filter(bool), st.integers(-12, 12), st.integers(-6, 6).filter(bool),
       st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_row_lister_matches_grid(a, b, c, eps, box):
    # any indefinite form: f(x, .) has real roots in every row
    assume(b * b - 4 * a * c > 0)
    got = _sol_small_points((a, b, c), eps, box)
    assert got == grid_small_points((a, b, c), eps, box)


# MATRICES, then negative traces down to -26, traces up to 29 and forms with
# alpha up to 13
SEED_MATRICES = MATRICES + [((-2, -1), (-1, -1)), ((4, 3), (5, 4)), ((13, 4), (3, 1)),
                            ((-7, -4), (-12, -7)), ((29, 1), (-1, 0)), ((21, 8), (13, 5)),
                            ((-25, -12), (-2, -1)), ((-15, -4), (-11, -3))]


def orbit_within(matrix, v, radius):
    """v and the points A^i v reached from it, both ways, before the first
    one with a coordinate past radius."""
    (a, b), (c, d) = matrix
    out = [v]
    for m in (((a, b), (c, d)), ((d, -b), (-c, a))):
        x, y = v
        while True:
            x, y = m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y
            if max(abs(x), abs(y)) > radius:
                break
            out.append((x, y))
    return out


@pytest.mark.parametrize("matrix", SEED_MATRICES)
def test_every_small_orbit_meets_the_seed_box(matrix):
    # along an orbit each coordinate is p lambda^i + q lambda^-i in absolute
    # value, so the walk from a grid point to the seed box stays in the grid
    ctx = lg.sol_invariant_form(matrix)
    for eps in range(1, 13):
        seed = _sol_seed_box(ctx, eps)
        radius = 4 * seed
        for v in _sol_small_points(ctx.form, eps, radius):
            assert any(max(abs(x), abs(y)) <= seed for x, y in orbit_within(matrix, v, radius)), \
                (eps, v)


@pytest.mark.parametrize("matrix", SEED_MATRICES)
def test_orbit_lister_matches_row_lister(matrix, monkeypatch):
    # the steps are the small points of the doubled box and D_eps those of
    # the box, with the seed box inside the doubled box, at it and clipped
    ctx = lg.sol_invariant_form(matrix)
    lists = []
    monkeypatch.setattr(quads, "_corner_index", lambda d_eps, step_count, *_: lists.append(
        ([q for q, _ in d_eps], [s for _, s in d_eps], step_count)) or {})
    for eps in range(1, 13):
        seed = _sol_seed_box(ctx, eps)
        for box in sorted({max(1, seed // 4), max(1, seed // 2), (seed + 1) // 2, seed, 2 * seed}):
            lists.clear()
            assert list(quads._sol_scan(ctx, eps, box)) == []
            steps = _sol_small_points(ctx.form, eps, 2 * box)
            box_points = [(x, y) for x, y in steps if max(abs(x), abs(y)) <= box]
            assert lists == [(box_points, [steps] * len(box_points), len(steps))]


@pytest.mark.parametrize("matrix, m_star", [(((-3, -1), (-5, -2)), 6), (((0, -1), (1, 5)), 8)])
def test_calibration_counts_sides_past_the_box(matrix, m_star):
    # at box 1 the non-parallelograms that set M* have a side with a
    # coordinate of 2; a scan that took p3 - p2 from the box found M* = 1 and 6
    ctx = lg.sol_invariant_form(matrix)
    assert lg.calibrate_schwartz(ctx, 4, 1).extras["M_star"] == m_star
    report = lg.verify_schwartz(ctx, 4, m_star - 1, 1)
    assert report.violations and not report.vacuous
    for quad in report.violations:
        kind = lg.classify(lg.Quad(SolFamily(ctx), *quad), lg.QuadParams(4, m_star - 1)).kind
        assert kind is lg.Classification.QUADRILATERAL


def ordered_pair_scan(ctx, eps, box):
    """The ordered-pair scan that _sol_scan replaced: every ordered pair
    (p2, p4) of distinct entries of near[p3] is decided on its own."""
    a, b, c = ctx.form
    sides = _sol_small_points(ctx.form, eps, 2 * box)
    d_eps = [(x, y) for x, y in sides if -box <= x <= box and -box <= y <= box]
    near = {}
    for x, y in d_eps:
        for sx, sy in sides:
            x3, y3 = x + sx, y + sy
            if (x3 or y3) and -box <= x3 <= box and -box <= y3 <= box:
                near.setdefault((x3, y3), []).append((x, y))
    for (x3, y3), corners in near.items():
        diag1 = abs(a * x3 * x3 + b * x3 * y3 + c * y3 * y3)
        for x2, y2 in corners:
            for x4, y4 in corners:
                if x2 != x4 or y2 != y4:
                    dx, dy = x2 - x4, y2 - y4
                    diag2 = abs(a * dx * dx + b * dx * dy + c * dy * dy)
                    yield ((x2, y2), (x3, y3), (x4, y4), min(diag1, diag2),
                           x3 == x2 + x4 and y3 == y2 + y4)


@pytest.mark.parametrize("matrix, eps, box", CASES)
def test_schwartz_matches_ordered_pair_scan(matrix, eps, box):
    # counting each unordered pair twice and listing both orders of its
    # violations gives the reports of the ordered-pair scan
    ctx = lg.sol_invariant_form(matrix)
    quads = list(ordered_pair_scan(ctx, eps, box))
    worst = max((d for *_, d, par in quads if not par), default=0)
    par_diags = [d for *_, d, par in quads if par]
    want = _report(ctx, eps, worst + 1, box, sum(1 for d in par_diags if d > worst), [],
                   {"M_star": worst + 1, "max_nonparallelogram_min_diagonal": worst,
                    "max_parallelogram_min_diagonal": max(par_diags, default=0)})
    assert lg.calibrate_schwartz(ctx, eps, box).to_jsonable() == want.to_jsonable()
    for M in (worst, worst + 1, worst + 4):
        kept = [q for q in quads if q[3] >= M]
        want = _report(ctx, eps, M, box, len(kept),
                       [((0, 0), p2, p3, p4) for p2, p3, p4, _, par in kept if not par])
        assert lg.verify_schwartz(ctx, eps, M, box).to_jsonable() == want.to_jsonable()


def test_box_budget():
    # the benchmark's boxes, 50 to 100, lie inside it
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    assert lg.calibrate_schwartz(ctx, 1, 100).extras["M_star"] == 5
    for box in (0, lg.quads.MAX_SOL_BOX + 1):
        with pytest.raises(lg.DomainError, match="box_halfwidth"):
            lg.calibrate_schwartz(ctx, 1, box)
        with pytest.raises(lg.DomainError, match="box_halfwidth"):
            lg.verify_schwartz(ctx, 1, 5, box)
