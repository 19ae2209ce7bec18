import copy
import json
import pickle
import random
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest

import lampgeo as lg
from lampgeo import base_groups, quads
from lampgeo import (
    BSFamily,
    BSNumber,
    Classification,
    DecompositionError,
    DomainError,
    GeneratorSet,
    LampConfig,
    LampFamily,
    Quad,
    QuadParams,
    SolFamily,
    classify,
)

L = LampConfig.of
LAMP2 = LampFamily(2)
BS2 = BSFamily(2)


def B(v):
    return BSNumber.from_fraction(Fraction(v), 2)


def lamp_quad(*dicts):
    return Quad(LAMP2, *(L(2, d) for d in dicts))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_lamp_parallelogram():
    q = lamp_quad({}, {0: 1}, {0: 1, 9: 1}, {9: 1})
    assert classify(q, QuadParams(2, 2 ** 8)).kind is Classification.PARALLELOGRAM
    res = classify(q, QuadParams(2, 2 ** 20))
    assert res.kind is Classification.NOT_QUADRILATERAL
    assert "diagonal" in res.reason


def test_classify_bs_parallelogram():
    q = Quad(BS2, B(0), B(1), B(65), B(64))
    assert classify(q, QuadParams(1, 63)).kind is Classification.PARALLELOGRAM


@pytest.mark.parametrize("n", [0, 1, -3])
def test_bs_family_refuses_a_base_below_2(n):
    # refused by the family itself, before any literal is read against the base
    with pytest.raises(DomainError, match="base must be >= 2"):
        BSFamily(n)


def test_taback_refuses_a_negative_bound():
    # bound -5 admitted no side point and printed a vacuous report; bound 0 stays admitted
    with pytest.raises(DomainError, match="numerator bound must be >= 0, got -5"):
        lg.verify_taback(2, 3, 64, -5, (-2, 2))
    assert lg.verify_taback(2, 3, 64, 0, (-2, 2)).vacuous


def test_classify_sol():
    fam = SolFamily(lg.sol_invariant_form(((2, 1), (1, 1))))
    # corners 0, v, v+w, w for v=(1,0), w=(34,21): sides have |f| = 1
    q = Quad(fam, (0, 0), (1, 0), (35, 21), (34, 21))
    assert classify(q, QuadParams(1, 45)).kind is Classification.PARALLELOGRAM
    assert classify(q, QuadParams(1, 46)).kind is Classification.NOT_QUADRILATERAL


def test_classify_duplicates():
    q = lamp_quad({}, {0: 1}, {}, {9: 1})
    res = classify(q, QuadParams(2, 4))
    assert res.kind is Classification.NOT_QUADRILATERAL
    assert "duplicate" in res.reason


def test_classify_genuine_quadrilateral_not_parallelogram():
    # boundary object: sides within 2^1, diagonals exactly 2^2, corner fails
    q = lamp_quad({}, {0: 1}, {0: 1, 1: 1, 2: 1}, {2: 1})
    res = classify(q, QuadParams(2, 4))
    assert res.kind is Classification.QUADRILATERAL


def test_classify_translation_invariant():
    params = QuadParams(2, 2 ** 8)
    q = lamp_quad({}, {0: 1}, {0: 1, 9: 1}, {9: 1})
    c = L(2, {-4: 1, 2: 1})
    shifted = Quad(LAMP2, *(p + c for p in q.points))
    assert classify(shifted, params).kind is Classification.PARALLELOGRAM


# Quad as it was, a frozen dataclass of the same fields
OldQuad = make_dataclass("Quad", ["family", "p1", "p2", "p3", "p4"], frozen=True)


@pytest.mark.parametrize("fam, points", [
    (BS2, [B(0), B(1), B(Fraction(5, 2)), B(Fraction(3, 2))]),
    (LAMP2, [L(2, d) for d in ({}, {0: 1}, {0: 1, 9: 1}, {9: 1})]),
    (SolFamily(lg.sol_invariant_form(((2, 1), (1, 1)))), [(0, 0), (1, 0), (35, 21), (34, 21)]),
])
def test_quad_is_the_value_of_its_field_tuple(fam, points):
    q, old = Quad(fam, *points), OldQuad(fam, *points)
    assert hash(q) == hash(old) == hash((fam, *points))
    assert repr(q) == repr(old)
    assert q == Quad(family=fam, p1=points[0], p2=points[1], p3=points[2], p4=points[3])
    assert q != Quad(fam, *points[::-1]) and q != (fam, *points) and q != old
    assert len({q, Quad(fam, *points), Quad(fam, *points[::-1])}) == 2
    for w in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(w) is Quad and w == q and hash(w) == hash(q) and repr(w) == repr(q)
    for name in ("p1", "family", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(q, name, points[0])
    assert q.points == tuple(points)


def test_quad_params_validation():
    with pytest.raises(DomainError):
        QuadParams(4, 4)
    with pytest.raises(DomainError):
        QuadParams(0, 4)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def test_lamp_claim_small():
    rep = lg.verify_lamp_claim(1, 6)
    assert rep.violations == [] and not rep.vacuous and rep.count_checked > 0


def test_lamp_claim_relaxed_finds_spec_witness():
    rep = lg.verify_lamp_claim(2, 10, hypotheses="relaxed")
    witness = (L(2, {}), L(2, {0: 1}), L(2, {0: 1, 2: 1, 5: 1}), L(2, {5: 1}))
    quads = [tuple(v) for v in rep.violations]
    assert witness in quads
    # independently validate a violation against the boundary metrics
    a, b, d, c = witness
    assert lg.lamp_delta(b, a)[1] < 2 and lg.lamp_delta(c, a)[1] < 2
    assert lg.lamp_delta(d, a)[1] > 4 and lg.lamp_delta(b, c)[1] > 4
    assert a + d != b + c


def test_lamp_claim_n3():
    rep = lg.verify_lamp_claim(2, 10, n=3)
    assert rep.violations == [] and not rep.vacuous


def test_lamp_claim_rejects_bad_modes():
    with pytest.raises(DomainError):
        lg.verify_lamp_claim(0, 6)
    with pytest.raises(DomainError):
        lg.verify_lamp_claim(1, 6, hypotheses="weird")


def test_taback_small():
    rep = lg.verify_taback(2, 1, 4, 64, (-3, 3))
    assert rep.violations == [] and not rep.vacuous
    assert rep.extras["side_relation_failures"] == []
    rep3 = lg.verify_taback(3, 2, 32, 100, (-2, 2))
    assert rep3.violations == [] and not rep3.vacuous


def test_taback_requires_separation():
    with pytest.raises(DomainError):
        lg.verify_taback(2, 3, 9, 64, (-2, 2))  # M = eps^2 rejected


@pytest.mark.parametrize("n, k", [(2, 49), (3, 31), (7, 18), (2, 29)])
def test_taback_step_exponent_bound_is_exact(n, k):
    # the steps are +-n^j for j up to kmax + the least j with n^j >= bound + eps;
    # a float log gives k, not k + 1, at n^k + 1 for the first three, and
    # k + 1, not k, at 2^29
    at_power = lg.verify_taback(n, 1, 2, n ** k - 1, (0, 0))
    past_power = lg.verify_taback(n, 1, 2, n ** k, (0, 0))
    assert at_power.search_space["step_candidates"] == 2 * (k + 1)
    assert past_power.search_space["step_candidates"] == 2 * (k + 2)


def test_ceil_log_is_the_least_power_at_or_above():
    for n in range(2, 8):
        for x in range(1, n ** 4 + 2):
            j = quads._ceil_log(x, n)
            assert n ** j >= x and (j == 0 or n ** (j - 1) < x)


def test_taback_sample_decompositions_recorded():
    rep = lg.verify_taback(2, 1, 4, 64, (-3, 3))
    assert rep.extras["sample_decompositions"]
    for sample in rep.extras["sample_decompositions"]:
        (r1, k1), (r2, k2), (r3, k3), (r4, k4) = [tuple(s) for s in sample["sides_rk"]]
        assert r1 == -r3 and r2 == -r4 and k1 == k3 and k2 == k4


def test_schwartz_small():
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    rep = lg.verify_schwartz(ctx, 1, 40, 25)
    assert rep.violations == [] and not rep.vacuous
    vac = lg.verify_schwartz(ctx, 1, 1000, 2)
    assert vac.vacuous and vac.count_checked == 0


def test_schwartz_below_threshold_is_informational():
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    rep = lg.verify_schwartz(ctx, 4, 5, 15)
    assert rep.count_checked > 0
    assert rep.violations  # below the rigidity threshold, so witnesses exist


def test_schwartz_calibration():
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    cal = lg.calibrate_schwartz(ctx, 1, 25)
    m_star = cal.extras["M_star"]
    assert m_star == cal.extras["max_nonparallelogram_min_diagonal"] + 1
    assert cal.violations == [] and not cal.vacuous
    if m_star > 1:
        below = lg.verify_schwartz(ctx, 1, m_star - 1, 25)
        assert below.violations  # M* is sharp


@pytest.mark.parametrize("mat", [((2, 1), (1, 1)), ((1, 1), (1, 2)), ((5, 2), (2, 1))])
def test_schwartz_calibration_matches_verification_at_m_star(mat):
    # the single calibration pass must report what a separate run at M* finds
    ctx = lg.sol_invariant_form(mat)
    cal = lg.calibrate_schwartz(ctx, 1, 25)
    check = lg.verify_schwartz(ctx, 1, cal.extras["M_star"], 25)
    for attr in ("params", "search_space", "count_checked", "violations", "vacuous"):
        assert getattr(cal, attr) == getattr(check, attr)


def test_lamp_claim_full_mode_lists_no_points():
    # full mode never reads the set of all nonzero window points, so its
    # peak memory stays far below a list of that size
    for n, width in ((2, 18), (3, 10)):
        tracemalloc.start()
        try:
            rep = lg.verify_lamp_claim(1, width, n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.count_checked > 0
        assert peak < sys.getsizeof([None] * n ** width) // 16


def test_corner_budget_is_exact(monkeypatch):
    # the corner work of an input is its |D_eps| * |steps| index candidates
    # plus the pairs {p2, p4} that its index holds; Taback and full
    # lamp-claim count their candidates in closed form, and lamp-claim its
    # pairs too, so they refuse before any list is built
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    cases = [
        # criterion 7: 44 side points times 88 steps, then 240 pairs
        (lambda: lg.verify_taback(2, 3, 64, 1024, (-5, 5)), 44 * 88, 240,
         "44 side points times 88 steps pass"),
        # criterion 8: 36 side points times 44 steps, then 1344 pairs
        (lambda: lg.calibrate_schwartz(ctx, 1, 50), 36 * 44, 1344,
         "36 side points times 44 steps pass"),
        # full lamp-claim: 19 sides as both lists, then 60 pairs
        (lambda: lg.verify_lamp_claim(2, 10), 19 * 19, 60,
         "19 side points times 19 side points pass"),
    ]
    for run, candidates, pairs, refused in cases:
        want = run().to_jsonable()
        monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", candidates + pairs)
        assert run().to_jsonable() == want
        monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", candidates + pairs - 1)
        with pytest.raises(DomainError, match=f"{candidates} index candidates"):
            run()
        monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", candidates - 1)
        with pytest.raises(DomainError, match=refused):
            run()
        monkeypatch.undo()


@pytest.mark.parametrize("n, S, W", [(2, 1, 8), (2, 2, 12), (2, 3, 18), (2, 4, 20), (3, 2, 10),
                                     (4, 1, 6), (5, 2, 9), (2, 1, 70)])
def test_full_lamp_claim_counts_its_corner_pairs_in_closed_form(monkeypatch, n, S, W):
    # every large d holds exactly two sides, each pair is checked in both
    # orders, so count_checked / 2 is the index's pair count; the closed form
    # refused first must equal it, or the budget would move
    rep = lg.verify_lamp_claim(S, W, n=n)
    sides, pairs = rep.search_space["side_candidates"], rep.count_checked // 2
    assert pairs > 0
    monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", sides * sides + pairs)
    assert lg.verify_lamp_claim(S, W, n=n).to_jsonable() == rep.to_jsonable()
    monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", sides * sides + pairs - 1)
    with pytest.raises(DomainError, match=f"{sides * sides} index candidates and {pairs} corner pairs"):
        lg.verify_lamp_claim(S, W, n=n)


def test_relaxed_lamp_claim_budget_is_exact(monkeypatch):
    want = lg.verify_lamp_claim(2, 10, hypotheses="relaxed").to_jsonable()
    assert want["count_checked"] == 109_440
    monkeypatch.setattr(quads, "MAX_RELAXED_TUPLES", 109_440)
    assert lg.verify_lamp_claim(2, 10, hypotheses="relaxed").to_jsonable() == want
    monkeypatch.setattr(quads, "MAX_RELAXED_TUPLES", 109_439)
    with pytest.raises(DomainError, match="MAX_RELAXED_TUPLES"):
        lg.verify_lamp_claim(2, 10, hypotheses="relaxed")


def test_full_lamp_claim_adds_once_per_checked_pair(monkeypatch):
    # the rows are summed with |, as the sides of a large d share no field,
    # so digit_sum runs in the corner relation alone, once per pair {b, c};
    # the whole index added each of its 56^2 candidates with it
    calls, digit_sum = [], base_groups.digit_sum
    monkeypatch.setattr(base_groups, "digit_sum", lambda *args, **kw: calls.append(args) or digit_sum(*args, **kw))
    rep = lg.verify_lamp_claim(2, 10, n=3)
    assert rep.count_checked > 0
    assert len(calls) == rep.count_checked // 2


def test_full_lamp_claim_budget_is_exact(monkeypatch):
    # full mode's budget is the corner budget (its exact boundary is a case
    # of test_corner_budget_is_exact); relaxed mode is bounded by its tuple
    # budget, not by the corner budget
    assert lg.verify_lamp_claim(2, 10).search_space["side_candidates"] == 19
    monkeypatch.setattr(quads, "MAX_CORNER_PAIRS", 0)
    with pytest.raises(DomainError, match="19 side points times 19 side points pass"):
        lg.verify_lamp_claim(2, 10)
    assert lg.verify_lamp_claim(1, 6, hypotheses="relaxed").count_checked > 0


@pytest.mark.parametrize("n, W", [(2, 70), (3, 40)])
def test_full_lamp_claim_wide_window_in_closed_form(n, W):
    # past 61 packed bits, where an int key hashes modulo 2^61 - 1; at S = 1 the
    # sides are the single lamps, and each large d holds two of them, at
    # fields at least 3 apart: one pair {b, c}, checked in both orders
    far = (n - 1) ** 2 * (W - 3) * (W - 2) // 2  # the large d
    rep = lg.verify_lamp_claim(1, W, n=n)
    assert rep.search_space["side_candidates"] == (n - 1) * W
    assert rep.count_checked == 2 * far and not rep.violations
    assert rep.search_space["tuples_enumerated"] == 2 * far * (n - 1) * W


def test_relaxed_lamp_claim_refusal_draws_interiors_lazily():
    # the large points of window 28 have 2^26 interiors; drawn lazily, the
    # refusal holds the 69,631 sides and about 2^17 large points at most
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MAX_RELAXED_TUPLES"):
            lg.verify_lamp_claim(13, 28, hypotheses="relaxed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("S, W", [(18, 38), (20, 42)])
def test_relaxed_lamp_claim_refusal_lists_no_sides(S, W):
    # S = 18 at window 38 has 2,883,583 sides, which took about 115 MB of RSS
    # listed, and S = 20 at window 42 has 12,582,911: the refusal draws a few
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MAX_RELAXED_TUPLES"):
            lg.verify_lamp_claim(S, W, hypotheses="relaxed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_sol_corner_refusal_stops_the_step_lister():
    # listed whole, the steps at eps 10^6 and box 300 are 1,442,400 points,
    # about 145 MB; the lister stops a few rows in, once the budget is passed
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="steps pass"):
            lg.verify_schwartz(ctx, 10 ** 6, 5, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_sol_step_lister_rows_do_not_grow_with_the_box(monkeypatch):
    # the lister reads the rows of the seed box, which depends on A and eps
    # alone, and walks the orbits out to the doubled box from their points
    ctx = lg.sol_invariant_form(((2, 1), (1, 1)))
    row, calls = quads._sol_row, []
    monkeypatch.setattr(quads, "_sol_row", lambda *args: calls.append(args) or row(*args))
    counts = []
    for box in (50, 10 ** 4):
        calls.clear()
        lg.calibrate_schwartz(ctx, 1, box)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2 * quads._sol_seed_box(ctx, 1) + 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_taback_counts_its_lists_in_closed_form(n):
    # the report's counts are read before the lists are built; they are the
    # lengths of the lists the index is built from
    for e in range(-3, 12):
        assert quads._nonmultiples(e, n) == sum(1 for r in range(-e, e + 1) if r and r % n)
    for eps, M, bound, exp_range in ((1, 2, 7, (0, 0)), (2, 5, 1, (-2, 2)), (3, 64, 300, (-5, 5)),
                                     (3, 10, 64, (3, 4))):
        space = lg.verify_taback(n, eps, M, bound, exp_range).search_space
        kmin, kmax = exp_range
        small_rs = [r for r in range(-min(eps, bound), min(eps, bound) + 1) if r and r % n]
        jmax = kmax + max(1, quads._ceil_log(bound + eps, n))
        steps = [r for r in range(-eps, eps + 1) if r and r % n]
        assert space["side_candidates"] == len(small_rs) * (kmax - kmin + 1)
        assert space["step_candidates"] == len(steps) * (jmax - kmin + 1)


@pytest.mark.parametrize("args, error", [
    # listed first, these lists traced about 210 MB before the same refusal
    ((2, 3, 64, 1024, (-10_000, 10_000)), "80004 side points times 80048 steps pass"),
    # no side point, so nothing to refuse: its 22 M steps traced 1.25 GB listed
    ((2, 10 ** 6, 10 ** 12 + 1, 0, (-5, 5)), None),
], ids=["refused", "no-sides"])
def test_taback_lists_nothing_it_cannot_use(args, error):
    tracemalloc.start()
    try:
        if error:
            with pytest.raises(DomainError, match=error):
                lg.verify_taback(*args)
        else:
            rep = lg.verify_taback(*args)
            assert rep.vacuous and rep.search_space["side_candidates"] == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n, width", [(2, 8192), (3, 4096), (2 ** 4096 - 1, 2)],
                         ids=["n2", "n3", "n-of-4096-bits"])
def test_lamp_claim_window_budget_prints_every_admitted_count(n, width):
    # a window of MAX_LAMP_WINDOW_BITS bits is admitted, and its side count
    # (thousands of digits) prints; one field more is refused
    assert width << quads.digit_shift(n) == quads.MAX_LAMP_WINDOW_BITS
    rep = lg.verify_lamp_claim(width, width, n=n, hypotheses="relaxed")
    assert rep.vacuous and len(json.dumps(rep.to_jsonable())) > 1000
    with pytest.raises(DomainError, match="MAX_LAMP_WINDOW_BITS"):
        lg.verify_lamp_claim(width + 1, width + 1, n=n, hypotheses="relaxed")


def test_relaxed_lamp_claim_refusal_lists_no_large_points():
    # the first 2^17 large points of window 8192 are ints of up to 8192 bits,
    # which took about 60 MB to list before the tuple budget refused them
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MAX_RELAXED_TUPLES"):
            lg.verify_lamp_claim(1, 8192, hypotheses="relaxed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_report_jsonable_shape():
    rep = lg.verify_lamp_claim(1, 6)
    payload = rep.to_jsonable()
    assert list(payload)[:5] == ["params", "search_space", "count_checked", "violations", "vacuous"]
    assert "elapsed_ms" not in payload
    assert "elapsed_ms" in rep.to_jsonable(include_timing=True)
    json.dumps(payload)  # JSON-safe


# ---------------------------------------------------------------------------
# telescoping
# ---------------------------------------------------------------------------

def test_telescope_bs_example():
    q = Quad(BS2, B(0), B(1), B(4), B(3))
    sigma = GeneratorSet(BS2, (B(1), B(2)))
    chain = lg.telescope_decompose(q, sigma)
    values = [[p.value() for p in (c.p1, c.p2, c.p3, c.p4)] for c in chain]
    assert values == [[0, 1, 2, 1], [1, 2, 4, 3]]
    assert all(c.corner_holds() for c in chain)
    assert lg.telescoping_identity_holds(q, chain)


def test_telescope_lamp_single_step():
    q = Quad(LAMP2, L(2, {}), L(2, {0: 1}), L(2, {0: 1, 5: 1}), L(2, {5: 1}))
    chain = lg.telescope_decompose(q, GeneratorSet(LAMP2, (L(2, {5: 1}),)))
    assert chain == [q]
    assert lg.telescoping_identity_holds(q, chain)


def test_telescope_errors():
    q = Quad(BS2, B(0), B(1), B(4), B(3))
    with pytest.raises(DecompositionError) as exc:
        lg.telescope_decompose(q, GeneratorSet(BS2, ()))
    assert exc.value.residual == B(3)
    with pytest.raises(DecompositionError):
        lg.telescope_decompose(q, GeneratorSet(BS2, (B(2),)))  # residual 1 unreachable
    not_par = Quad(BS2, B(0), B(1), B(5), B(3))
    with pytest.raises(DomainError):
        lg.telescope_decompose(not_par, GeneratorSet(BS2, (B(1),)))


def test_telescope_longer_chain():
    q = Quad(BS2, B(2), B(3), B(14), B(13))  # c - a = 11 = 8 + 2 + 1
    sigma = GeneratorSet(BS2, tuple(B(2 ** j) for j in range(4)))
    chain = lg.telescope_decompose(q, sigma)
    assert len(chain) == 3
    assert all(c.corner_holds() for c in chain)
    assert lg.telescoping_identity_holds(q, chain)
    assert chain[-1].p3 == q.p3 and chain[-1].p4 == q.p4


def test_greedy_sum_duplicates_rejected():
    with pytest.raises(DomainError):
        GeneratorSet(BS2, (B(1), B(1)))


# ---------------------------------------------------------------------------
# generating sets
# ---------------------------------------------------------------------------

def test_sigma_admissible_bs():
    sigma = GeneratorSet(BS2, (B(1), B(2 ** 10)))
    assert lg.sigma_admissible(sigma, QuadParams(1, 2 ** 9)) is True


def test_sigma_admissible_lamp_witness():
    sigma = GeneratorSet(LAMP2, (L(2, {0: 1}), L(2, {1: 1})))
    witness = lg.sigma_admissible(sigma, QuadParams(2, 2 ** 4))
    assert witness == (L(2, {0: 1}), L(2, {1: 1}))


def test_sigma_admissible_singleton_vacuous():
    assert lg.sigma_admissible(GeneratorSet(BS2, (B(1),)), QuadParams(1, 4)) is True


def _sigma_admissible_ordered_pairs(sigma, params):
    # reference: every ordered pair v != w
    f = sigma.family
    elems = sigma.sorted_elements()
    for v in elems:
        for w in elems:
            if v == w:
                continue
            quad = Quad(f, f.zero, v, f.add(v, w), w)
            if classify(quad, params).kind is not Classification.PARALLELOGRAM:
                return (v, w)
    return True


def _random_point(rng, family):
    # mostly points at delta 1 from zero on many scales, so that whole sets
    # can be admissible and witnesses can sit late in the scan
    k = rng.randint(-6, 6)
    if isinstance(family, LampFamily):
        lamps = {k: rng.randrange(1, family.n)}
        if rng.random() < 0.2:
            lamps[rng.randint(-6, 6)] = rng.randrange(family.n)
        return L(family.n, lamps)
    if isinstance(family, BSFamily):
        return BSNumber.from_fraction(rng.choice((1, -1, 2)) * Fraction(family.n) ** k, family.n)
    v = (1, 0) if rng.random() < 0.8 else (rng.randint(-3, 3), rng.randint(-3, 3))
    for _ in range(abs(k) // 2):
        # A = (2, 1; 1, 1) or its inverse (1, -1; -1, 2)
        v = (2 * v[0] + v[1], v[0] + v[1]) if k > 0 else (v[0] - v[1], 2 * v[1] - v[0])
    return v


@pytest.mark.parametrize("family", [
    LampFamily(2), LampFamily(3), LampFamily(5), BSFamily(2), BSFamily(3), BSFamily(10),
    SolFamily(lg.sol_invariant_form(((2, 1), (1, 1)))),
], ids=lambda f: f"{f.name}-{getattr(f, 'n', 'A')}")
def test_sigma_admissible_matches_ordered_pair_scan(family):
    rng = random.Random(83)
    outcomes = set()
    for _ in range(60):
        points = {family.sort_key(p): p for p in
                  (_random_point(rng, family) for _ in range(rng.randint(1, 5)))}
        sigma = GeneratorSet(family, tuple(points.values()))
        eps = rng.randint(1, 2)
        params = QuadParams(eps, eps + rng.randint(1, 60))
        want = _sigma_admissible_ordered_pairs(sigma, params)
        assert lg.sigma_admissible(sigma, params) == want
        outcomes.add(want is True)
    assert outcomes == {True, False}


def test_sigma_obstruction_single_lamps():
    sigma = GeneratorSet(LAMP2, tuple(L(2, {i: 1}) for i in range(8)))
    v, w = lg.lamp_sigma_obstruction(sigma, QuadParams(2, 32), (0, 8))
    quad = Quad(LAMP2, L(2, {}), v, v + w, w)
    assert classify(quad, QuadParams(2, 32)).kind is not Classification.PARALLELOGRAM


def test_sigma_obstruction_gap_one_generators():
    elems = [L(2, {i: 1, i + 1: 1}) for i in range(7)] + [L(2, {7: 1})]
    sigma = GeneratorSet(LAMP2, tuple(elems))
    v, w = lg.lamp_sigma_obstruction(sigma, QuadParams(2, 32), (0, 8))
    assert {v, w} <= set(elems)


def test_sigma_obstruction_errors():
    sigma = GeneratorSet(LAMP2, tuple(L(2, {i: 1}) for i in range(7)))
    with pytest.raises(DomainError, match="index 7"):
        lg.lamp_sigma_obstruction(sigma, QuadParams(2, 32), (0, 8))
    full = GeneratorSet(LAMP2, tuple(L(2, {i: 1}) for i in range(8)))
    with pytest.raises(DomainError, match="2\\*eps\\^2"):
        lg.lamp_sigma_obstruction(full, QuadParams(2, 8), (0, 8))
    outside = GeneratorSet(LAMP2, (L(2, {9: 1}),))
    with pytest.raises(DomainError, match="supported"):
        lg.lamp_sigma_obstruction(outside, QuadParams(2, 32), (0, 8))


def test_sigma_obstruction_n3_generation_check():
    fam3 = LampFamily(3)
    sigma = GeneratorSet(fam3, (L(3, {0: 1}), L(3, {1: 1})))
    v, w = lg.lamp_sigma_obstruction(sigma, QuadParams(3, 81), (0, 2))
    assert {v, w} == {L(3, {0: 1}), L(3, {1: 1})}


def test_sigma_obstruction_sweep_every_n():
    # the index-gap argument at M > n*eps^2: every generating set of a
    # window yields a witness pair, and M = n*eps^2 is refused
    rng = random.Random(2024)
    witnesses = 0
    for _ in range(3000):
        n, width, lo = rng.randint(2, 7), rng.randint(2, 4), rng.randint(-2, 2)
        elems = {}
        for _ in range(rng.randint(width, width + 2)):
            span = rng.randint(1, width)
            start = lo + rng.randint(0, width - span)
            elems[L(n, {start + i: rng.randrange(1, n) for i in range(span)})] = None
        fam = LampFamily(n)
        sigma = GeneratorSet(fam, tuple(elems))
        window = (lo, lo + width)
        if lg.quads._lamp_generates_window(sigma, window) is not None:
            continue
        eps = rng.randint(1, 3)
        with pytest.raises(DomainError, match="eps\\^2"):
            lg.lamp_sigma_obstruction(sigma, QuadParams(eps, n * eps * eps), window)
        params = QuadParams(eps, n * eps * eps + rng.choice([1, 2, rng.randint(1, n ** 4)]))
        v, w = lg.lamp_sigma_obstruction(sigma, params, window)
        assert classify(Quad(fam, fam.zero, v, v + w, w), params).kind \
            is not Classification.PARALLELOGRAM
        witnesses += 1
    assert witnesses >= 1500


def bfs_generated(sigma, window):
    # every window vector reachable from 0 by adding generators: the subgroup
    # they generate, since (Z_n)^w is finite
    n = sigma.family.n
    lo, hi = window
    width = hi - lo
    vecs = [tuple(p.value_at(lo + i) for i in range(width)) for p in sigma.elements]
    seen = {(0,) * width}
    frontier = [(0,) * width]
    while frontier:
        nxt = []
        for x in frontier:
            for vec in vecs:
                y = tuple((a + b) % n for a, b in zip(x, vec))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12])
def test_lamp_generation_matches_bfs_oracle_composite(n):
    from lampgeo.quads import _lamp_generates_window
    rng = random.Random(n)
    fam = LampFamily(n)
    for _ in range(150):
        width = rng.randint(1, 3)
        lo = rng.randint(-3, 3)
        elems = tuple(dict.fromkeys(L(n, {lo + i: rng.randrange(n) for i in range(width)})
                                    for _ in range(rng.randint(1, width + 2))))
        sigma = GeneratorSet(fam, elems)
        reached = bfs_generated(sigma, (lo, lo + width))
        missing = _lamp_generates_window(sigma, (lo, lo + width))
        assert (missing is None) == (len(reached) == n ** width)
        if missing is not None:
            assert lo <= missing < lo + width
            unit = tuple(int(i == missing - lo) for i in range(width))
            assert unit not in reached


@pytest.mark.parametrize("n, gens, window, missing", [
    (2, [{0: 1, 1: 1}], (0, 3), 1),
    (2, [{0: 1, 1: 1}, {1: 1, 2: 1}], (0, 3), 2),
    (2, [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], (0, 3), 2),
    (3, [{0: 1, 1: 2}, {0: 2, 1: 1}], (0, 2), 1),
    (3, [{1: 1, 2: 1}, {0: 1, 1: 2}], (0, 3), 2),
    (5, [{-1: 1, 0: 1}, {0: 1, 1: 4}], (-1, 2), 1),
    (5, [{0: 2, 2: 3}, {1: 1}, {0: 1, 2: 4}], (0, 3), 2),
    (5, [{0: 2}, {1: 3}, {2: 4}], (0, 3), None),
])
def test_lamp_generation_prime_witness(n, gens, window, missing):
    # the first non-pivot column of the elimination mod n
    from lampgeo.quads import _lamp_generates_window
    sigma = GeneratorSet(LampFamily(n), tuple(L(n, g) for g in gens))
    assert _lamp_generates_window(sigma, window) == missing


def test_sigma_obstruction_composite_wide_window():
    # 4^9 > 2^16 window vectors: decided by elimination mod 2, not by search
    fam4 = LampFamily(4)
    sigma = GeneratorSet(fam4, tuple(L(4, {i: 1}) for i in range(9)))
    v, w = lg.lamp_sigma_obstruction(sigma, QuadParams(2, 32), (0, 9))
    quad = Quad(fam4, L(4, {}), v, v + w, w)
    assert classify(quad, QuadParams(2, 32)).kind is not Classification.PARALLELOGRAM
    short = GeneratorSet(fam4, tuple(L(4, {i: 2 if i == 4 else 1}) for i in range(9)))
    with pytest.raises(DomainError, match="index 4"):
        lg.lamp_sigma_obstruction(short, QuadParams(2, 32), (0, 9))


def test_lamp_generation_decides_any_modulus_without_factoring():
    # n = 10000019 * 10000079 was refused on a 2^40 bound for trial division;
    # an elimination over Z_n takes only gcds: each column needs a unit pivot
    from lampgeo.quads import _lamp_generates_window
    n = 10000019 * 10000079
    fam = LampFamily(n)
    units = GeneratorSet(fam, (L(n, {0: 1}), L(n, {1: 1})))
    assert _lamp_generates_window(units, (0, 2)) is None
    coprime = GeneratorSet(fam, (L(n, {0: 10000019, 1: 1}), L(n, {0: 10000079, 1: 1})))
    assert _lamp_generates_window(coprime, (0, 2)) is None  # determinant -60, a unit mod n
    half = GeneratorSet(fam, (L(n, {0: 10000019, 1: 1}), L(n, {0: 10000079})))
    assert _lamp_generates_window(half, (0, 2)) == 1  # determinant -10000079
    shared = GeneratorSet(fam, (L(n, {0: 10000019, 1: 1}), L(n, {0: 3 * 10000019})))
    assert _lamp_generates_window(shared, (0, 2)) == 0
    with pytest.raises(DomainError, match="need M > "):
        lg.lamp_sigma_obstruction(units, QuadParams(2, 32), (0, 2))


@pytest.mark.parametrize("gens, missing", [
    ([{0: 1}, {1: 1}, {2: 1}], 3),
    ([{0: 1, 1: 1}, {1: 1}], 2),
    ([{2: 1}, {5: 1}], 0),
])
def test_lamp_generation_reads_at_most_one_column_past_the_generators(gens, missing, monkeypatch):
    # k generators give at most k unit pivots, so a wide window is decided
    # from its first k + 1 columns, with no dense row across it
    from lampgeo.quads import _lamp_generates_window
    sigma = GeneratorSet(LAMP2, tuple(L(2, g) for g in gens))
    read = set()
    value_at = LampConfig.value_at
    monkeypatch.setattr(LampConfig, "value_at", lambda p, i: read.add(i) or value_at(p, i))
    assert _lamp_generates_window(sigma, (0, 10 ** 4)) == missing
    assert read <= set(range(len(gens) + 1))
