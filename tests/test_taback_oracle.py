"""verify_taback against an independent Fraction-arithmetic reference.

The reference enumerates the same search space with every point held as a
``Fraction`` and every valuation computed by its own n-adic normalizer, so
it shares no arithmetic with the integer-only verifier.
"""

import math
import random
from fractions import Fraction

import pytest

import lampgeo as lg
from lampgeo import BSFamily, BSNumber, DomainError, quads
from lampgeo.base_groups import bs_normalize, nadic_split
from lampgeo.quads import VerifyReport


def _nadic(value: Fraction, n: int) -> tuple[int, int]:
    # normalized (r, k) with value = r * n^k and n not dividing r; (0, 0) for zero
    num, den = value.numerator, value.denominator
    k = 0
    while den != 1:
        g = math.gcd(den, n)
        if g == 1:
            raise DomainError(f"{value} is not an element of Z[1/{n}]")
        num *= n // g
        den //= g
        k -= 1
    if num == 0:
        return 0, 0
    while num % n == 0:
        num //= n
        k += 1
    return num, k


def reference_taback(n, eps, M, numerator_bound, exp_range):
    kmin, kmax = exp_range
    nf = Fraction(n)

    def in_space(value: Fraction) -> bool:
        r, k = _nadic(value, n)
        return r != 0 and abs(r) <= numerator_bound and kmin <= k <= kmax

    small_rs = [r for r in range(-min(eps, numerator_bound), min(eps, numerator_bound) + 1)
                if r and r % n]
    d_eps = sorted(r * nf ** k for r in small_rs for k in range(kmin, kmax + 1))
    jmax = kmax + max(1, math.ceil(math.log(numerator_bound + eps, n)))
    steps = sorted(s * nf ** j for s in [r for r in range(-eps, eps + 1) if r and r % n]
                   for j in range(kmin, jmax + 1))

    violations = []
    side_relation_failures = []
    samples = []
    checked = 0
    zero = Fraction(0)
    for p2 in d_eps:
        for u in steps:
            p3 = p2 + u
            if p3 == zero or p3 == p2 or not in_space(p3):
                continue
            r3, _ = _nadic(p3, n)
            if abs(r3) < M:
                continue
            for p4 in d_eps:
                if p4 == p2 or p4 == p3:
                    continue
                rs, _ = _nadic(p3 - p4, n)
                if abs(rs) > eps:
                    continue
                rd, _ = _nadic(p2 - p4, n)
                if abs(rd) < M:
                    continue
                checked += 1
                sides = [_nadic(p2, n), _nadic(p3 - p2, n), _nadic(p4 - p3, n), _nadic(-p4, n)]
                if len(samples) < 5:
                    samples.append({"points": ["0", str(p2), str(p3), str(p4)],
                                    "sides_rk": sides})
                (r1, k1), (r2, k2), (r3s, k3s), (r4, k4) = sides
                if not (k1 == k3s and k2 == k4 and r1 == -r3s and r2 == -r4):
                    side_relation_failures.append((zero, p2, p3, p4))
                if p3 != p2 + p4:
                    violations.append((zero, p2, p3, p4))

    fam = BSFamily(n)
    return VerifyReport(
        params={"n": n, "epsilon": eps, "M": M},
        search_space={"numerator_bound": numerator_bound, "exp_range": list(exp_range),
                      "side_candidates": len(d_eps), "step_candidates": len(steps)},
        count_checked=checked,
        violations=[tuple(BSNumber.from_fraction(x, n) for x in quad)
                    for quad in sorted(violations)],
        vacuous=checked == 0,
        elapsed_ms=0,
        family=fam.name,
        extras={"sample_decompositions": samples,
                "side_relation_failures": [[str(x) for x in quad]
                                           for quad in sorted(side_relation_failures)]},
        point_fmt=fam.fmt,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("exp_range", [(-3, 3), (1, 3), (-4, -1)])
@pytest.mark.parametrize("eps, M, bound", [(1, 2, 16), (2, 5, 40), (3, 10, 64)])
def test_taback_matches_fraction_reference(n, exp_range, eps, M, bound):
    got = lg.verify_taback(n, eps, M, bound, exp_range)
    want = reference_taback(n, eps, M, bound, exp_range)
    assert got.to_jsonable() == want.to_jsonable()


def test_taback_reference_grid_is_not_vacuous():
    # the comparison above means something only if quadrilaterals are found
    for n in (2, 3, 4):
        for exp_range in ((-3, 3), (1, 3), (-4, -1)):
            assert reference_taback(n, 1, 2, 16, exp_range).count_checked > 0


def ordered_pair_taback(n, eps, M, numerator_bound, exp_range):
    """The ordered-pair scan that verify_taback replaced: each ordered pair
    (p2, p4) of near[p3] is decided, and its sides split, on its own.  Its
    float exponent bound agrees with the exact one on every grid below."""
    kmin, kmax = exp_range
    span = kmax - kmin
    small_rs = [r for r in range(-min(eps, numerator_bound), min(eps, numerator_bound) + 1)
                if r and r % n]
    d_eps = sorted(r * n ** k for r in small_rs for k in range(span + 1))
    jmax = kmax + max(1, math.ceil(math.log(numerator_bound + eps, n)))
    steps = sorted(s * n ** j for s in [r for r in range(-eps, eps + 1) if r and r % n]
                   for j in range(jmax - kmin + 1))
    near: dict[int, list[int]] = {}
    for q in d_eps:
        for s in steps:
            near.setdefault(q + s, []).append(q)

    quads = []
    for p3, corners in near.items():
        r3, v3 = nadic_split(p3, n)
        if not M <= abs(r3) <= numerator_bound or v3 > span:
            continue
        quads.extend((0, p2, p3, p4) for p2 in corners for p4 in corners
                     if p2 != p4 and abs(nadic_split(p2 - p4, n)[0]) >= M)
    quads.sort()

    violations = []
    side_relation_failures = []
    samples = []
    for quad in quads:
        _, p2, p3, p4 = quad
        sides = [nadic_split(p2, n), nadic_split(p3 - p2, n),
                 nadic_split(p4 - p3, n), nadic_split(-p4, n)]
        if len(samples) < 5:
            samples.append((quad, sides))
        (r1, v1), (r2, v2), (r3s, v3s), (r4, v4) = sides
        if not (v1 == v3s and v2 == v4 and r1 == -r3s and r2 == -r4):
            side_relation_failures.append(quad)
        if p3 != p2 + p4:
            violations.append(quad)

    fam = BSFamily(n)
    to_bs = lambda x: bs_normalize(x, kmin, n)
    to_str = lambda x: str(to_bs(x).value())
    return VerifyReport(
        params={"n": n, "epsilon": eps, "M": M},
        search_space={"numerator_bound": numerator_bound, "exp_range": list(exp_range),
                      "side_candidates": len(d_eps), "step_candidates": len(steps)},
        count_checked=len(quads),
        violations=[tuple(map(to_bs, quad)) for quad in violations],
        vacuous=not quads,
        elapsed_ms=0,
        family=fam.name,
        extras={"sample_decompositions": [
                    {"points": [to_str(x) for x in quad],
                     "sides_rk": [(r, v + kmin) for r, v in sides]}
                    for quad, sides in samples],
                "side_relation_failures": [[to_str(x) for x in quad]
                                           for quad in side_relation_failures]},
        point_fmt=fam.fmt,
    )


# the grid above, then the grid of the benchmark's taback jobs
ORDERED_GRID = ([(n, eps, M, bound, kr) for n in (2, 3, 4) for kr in ((-3, 3), (1, 3), (-4, -1))
                 for eps, M, bound in ((1, 2, 16), (2, 5, 40), (3, 10, 64))]
                + [(n, eps, M, bound, kr) for n, eps in ((2, 3), (3, 2), (3, 3))
                   for M in (32, 64) for bound in (512, 1024) for kr in ((-4, 4), (-5, 5))])


@pytest.mark.parametrize("n, eps, M, bound, exp_range", ORDERED_GRID)
def test_taback_matches_ordered_pair_scan(n, eps, M, bound, exp_range):
    # deciding each pair {p2, p4} once and deriving its mirror's sides
    # changes no count, sample, failure or violation
    got = lg.verify_taback(n, eps, M, bound, exp_range)
    want = ordered_pair_taback(n, eps, M, bound, exp_range)
    assert got.to_jsonable() == want.to_jsonable()


def test_ordered_grid_finds_violations_and_side_failures():
    # the comparison above covers the mirrored sides only if some quads fail
    reports = [lg.verify_taback(*point) for point in ORDERED_GRID]
    assert any(rep.violations for rep in reports)
    assert any(rep.extras["side_relation_failures"] for rep in reports)


@pytest.mark.parametrize("n, eps, M, bound", [(2, 3, 10, 2 ** 49 - 2), (3, 2, 5, 3 ** 31 - 1),
                                               (7, 3, 10, 7 ** 18 - 2), (2, 3, 10, 2 ** 29 - 3)])
def test_exact_exponent_bound_changes_only_the_step_count(n, eps, M, bound):
    # bound + eps is n^k + 1 or 2^29, where the float log is off by one: the
    # step list gains or loses one exponent that no side needs
    got = lg.verify_taback(n, eps, M, bound, (-2, 2)).to_jsonable()
    want = ordered_pair_taback(n, eps, M, bound, (-2, 2)).to_jsonable()
    assert got["search_space"].pop("step_candidates") != want["search_space"].pop("step_candidates")
    assert got == want and got["count_checked"] > 0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_side_relations_hold_exactly_at_the_corner_relation(n):
    # verify_taback holds each point as an integer and reports the quads that
    # fail p3 = p2 + p4 as its side relation failures: k1 = k3, k2 = k4,
    # r1 = -r3, r2 = -r4 of (0, p2, p3, p4), by the reference normalizer, must
    # hold exactly when the corner relation does
    rng = random.Random(f"taback-sides:{n}")
    draw = lambda: rng.randint(-99, 99) * n ** rng.randint(0, 5)
    holds = 0
    for _ in range(2000):
        p2, p4 = draw(), draw()
        p3 = p2 + p4 if rng.random() < 0.5 else draw()
        (r1, k1), (r2, k2), (r3, k3), (r4, k4) = (_nadic(Fraction(x), n)
                                                  for x in (p2, p3 - p2, p4 - p3, -p4))
        assert (k1 == k3 and k2 == k4 and r1 == -r3 and r2 == -r4) == (p3 == p2 + p4), (p2, p3, p4)
        holds += p3 == p2 + p4
    assert 0 < holds < 2000  # non-parallelograms included


# (eps, M, bound) on three exponent ranges for n = 2, 3, 4; then bounds at
# which n^c - eps = bound for the largest gap c that lands, and M at which
# eps * (n^c + 1) = M for the least gap c >= 1 that lands
BOUND_EDGES = [(2, 3, 10, 2 ** 5 - 3, (-2, 2)), (3, 2, 5, 3 ** 3 - 2, (-2, 2)), (4, 1, 2, 4 ** 3 - 1, (0, 3))]
M_EDGES = [(2, 1, 2 ** 3 + 1, 16, (-2, 2)), (3, 2, 2 * (3 + 1), 40, (-2, 2))]
WINDOW_CASES = ([(n, eps, M, bound, kr) for n in (2, 3, 4) for kr in ((-3, 3), (1, 3), (-4, -1))
                 for eps, M, bound in ((1, 2, 16), (2, 5, 40), (3, 10, 64), (3, 64, 1024))]
                + BOUND_EDGES + M_EDGES)


@pytest.mark.parametrize("n, eps, M, bound, exp_range", WINDOW_CASES)
def test_taback_step_windows_match_the_whole_step_list(monkeypatch, n, eps, M, bound, exp_range):
    # each side point tries only the steps at the exponent gaps that can
    # land; the index over every step of the list is the same, key by key
    # and corner by corner
    calls, corner_index = [], quads._corner_index
    monkeypatch.setattr(quads, "_corner_index", lambda *args: calls.append(args) or corner_index(*args))
    lg.verify_taback(n, eps, M, bound, exp_range)
    (d_eps, step_count, add, in_space), = calls
    kmin, kmax = exp_range
    jmax = kmax + max(1, quads._ceil_log(bound + eps, n))
    steps = [t * n ** j for t in range(-eps, eps + 1) if t and t % n for j in range(jmax - kmin + 1)]
    assert len(steps) == step_count
    whole = corner_index([(q, steps) for q, _ in d_eps], step_count, add, in_space)
    assert corner_index(d_eps, step_count, add, in_space) == whole
    # the exponent gaps of the landing sides, to show the edges are reached
    gaps = {abs(nadic_split(q, n)[1] - nadic_split(p3 - q, n)[1]) for p3, corners in whole.items() for q in corners}
    if 2 * eps >= M and n > 2:  # eps = 1, M = 2; at n = 2, r + t = +-2 splits to r3 = +-1 < M
        assert 0 in gaps
    if (n, eps, M, bound, exp_range) in BOUND_EDGES:
        assert n ** max(gaps) - eps == bound
    if (n, eps, M, bound, exp_range) in M_EDGES:
        assert eps * (n ** min(gaps - {0}) + 1) == M
