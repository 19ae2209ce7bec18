import copy
import itertools
import math
import pickle
import random
import time
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lampgeo as lg
from lampgeo import (
    BSNumber,
    DomainError,
    LampConfig,
    bs_normalize,
    lamp_delta,
    lamp_dl,
    lamp_du,
    sol_delta,
    sol_invariant_form,
)
from lampgeo.base_groups import diff_span, nadic_split

L = LampConfig.of


def window_configs(n, lo, hi):
    width = hi - lo
    out = []
    for digits in itertools.product(range(n), repeat=width):
        out.append(L(n, {lo + i: v for i, v in enumerate(digits) if v}))
    return out


# ---------------------------------------------------------------------------
# lamp configurations
# ---------------------------------------------------------------------------

def test_lamp_add_examples():
    assert L(2, {0: 1}) + L(2, {0: 1}) == L(2, {})
    assert L(2, {0: 1}) + L(2, {3: 1}) == L(2, {0: 1, 3: 1})
    assert L(3, {0: 2}) + L(3, {0: 2}) == L(3, {0: 1})


def test_lamp_add_modulus_mismatch():
    with pytest.raises(DomainError):
        L(2, {0: 1}) + L(3, {0: 1})


@pytest.mark.parametrize("fn", [lamp_delta, lamp_dl, lamp_du])
def test_lamp_metrics_modulus_mismatch(fn):
    with pytest.raises(DomainError, match="modulus mismatch"):
        fn(L(2, {0: 1}), L(3, {0: 1}))
    with pytest.raises(DomainError, match="modulus mismatch"):
        fn(L(2, {}), L(3, {}))


def test_lamp_config_canonical():
    assert L(2, [(0, 1), (0, 1)]) == L(2, {})
    assert L(3, [(5, 2), (5, 2)]) == L(3, {5: 1})
    with pytest.raises(DomainError):
        LampConfig(2, ((0, 0),))
    with pytest.raises(DomainError):
        LampConfig(2, ((1, 1), (0, 1)))
    with pytest.raises(DomainError):
        LampConfig(1, ())


@pytest.mark.parametrize("n", [2, 3])
def test_lamp_group_laws_exhaustive(n):
    window = window_configs(n, 0, 3)
    zero = L(n, {})
    for p in window:
        assert p + zero == p
        assert p + (-p) == zero
    for p, q in itertools.product(window, repeat=2):
        assert p + q == q + p
    for p, q, r in itertools.islice(itertools.product(window, repeat=3), 2000):
        assert (p + q) + r == p + (q + r)


@given(st.dictionaries(st.integers(-20, 20), st.integers(1, 2), max_size=6),
       st.dictionaries(st.integers(-20, 20), st.integers(1, 2), max_size=6))
@settings(max_examples=150)
def test_lamp_add_commutes_hypothesis(d1, d2):
    p, q = L(3, d1), L(3, d2)
    assert p + q == q + p
    assert (p + q) - q == p


def test_supp_gap_examples():
    # the disagreement interval (l_plus, l_minus) and its gap l_minus - l_plus
    assert diff_span(L(2, {0: 1}), L(2, {})) == (0, 0)
    assert lamp_delta(L(2, {0: 1}), L(2, {}))[1] == 0
    assert diff_span(L(2, {0: 1, 3: 1}), L(2, {})) == (0, 3)
    assert lamp_delta(L(2, {0: 1, 3: 1}), L(2, {}))[1] == 3
    assert diff_span(L(2, {1: 1}), L(2, {1: 1})) is None


@given(st.sampled_from([2, 3, 5, 10]), st.data())
@settings(max_examples=200)
def test_supp_gap_matches_difference_oracle(n, data):
    configs = st.dictionaries(st.integers(-8, 8), st.integers(1, n - 1), max_size=6)
    p = L(n, data.draw(configs))
    q = data.draw(st.one_of(st.just(p), configs.map(lambda d: L(n, d))))
    diff = lg.lamp_add(p, lg.lamp_neg(q)).entries
    span = diff_span(p, q)
    if not diff:
        assert span is None
    else:
        assert span == (diff[0][0], diff[-1][0])


def test_lamp_delta_examples():
    assert lamp_delta(L(2, {0: 1}), L(2, {})) == (1, 0)
    assert lamp_delta(L(2, {0: 1, 3: 1}), L(2, {})) == (8, 3)
    assert lamp_delta(L(2, {5: 1}), L(2, {5: 1})) == (0, None)


def test_lamp_boundary_metric_examples():
    z = L(2, {})
    assert lamp_dl(L(2, {0: 1}), z) == 1 and lamp_du(L(2, {0: 1}), z) == 1
    assert lamp_dl(L(2, {-2: 1}), z) == 4
    assert lamp_du(L(2, {-2: 1}), z) == Fraction(1, 4)
    assert lamp_dl(L(2, {0: 1, 3: 1}), L(2, {3: 1})) == 1
    assert lamp_du(L(2, {0: 1, 3: 1}), L(2, {3: 1})) == 1
    with pytest.raises(DomainError):
        lamp_dl(z, z)
    with pytest.raises(DomainError):
        lamp_du(z, z)


@pytest.mark.parametrize("n", [2, 3])
def test_boundary_metrics_are_ultrametrics(n):
    window = window_configs(n, -1, 2)
    for p, q, r in itertools.islice(itertools.product(window, repeat=3), 3000):
        if p == q or p == r or q == r:
            continue
        assert lamp_dl(p, q) <= max(lamp_dl(p, r), lamp_dl(r, q))
        assert lamp_du(p, q) <= max(lamp_du(p, r), lamp_du(r, q))


def test_delta_is_product_of_boundary_metrics():
    window = window_configs(2, -2, 3)
    for p, q in itertools.combinations(window, 2):
        assert lamp_delta(p, q)[0] == lamp_dl(p, q) * lamp_du(p, q)


def test_lamp_delta_translation_invariant():
    window = window_configs(2, 0, 3)
    shifts = [L(2, {}), L(2, {-3: 1}), L(2, {1: 1, 4: 1})]
    for p, q in itertools.combinations(window, 2):
        base = lamp_delta(p, q)
        for c in shifts:
            assert lamp_delta(p + c, q + c) == base


# ---------------------------------------------------------------------------
# Z[1/n]
# ---------------------------------------------------------------------------

def test_bs_normalize_examples():
    assert bs_normalize(12, 0, 2) == BSNumber(3, 2, 2)
    assert bs_normalize(3, -2, 2) == BSNumber(3, -2, 2)
    assert bs_normalize(0, 5, 2) == BSNumber(0, 0, 2)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 300), st.sampled_from([2, 3, 4, 6, 10, 2 ** 31 + 1]))
@settings(max_examples=300)
def test_nadic_split_matches_one_division_at_a_time(r, v, n):
    x, want_v = r * n ** v, 0
    while x and x % n == 0:
        x, want_v = x // n, want_v + 1
    assert nadic_split(r * n ** v, n) == ((x, want_v) if x else (0, 0))


def test_nadic_split_divides_about_8_log_v_times():
    # one factor n at a time, 3^5000 * 7 took 5,001 reductions mod 3
    reductions = 0

    class Counted(int):
        def __mod__(self, other):
            nonlocal reductions
            reductions += 1
            return int(self) % other

        def __floordiv__(self, other):
            return Counted(int(self) // other)

    assert nadic_split(Counted(7 * 3 ** 5000), 3) == (7, 5000)
    assert reductions < 200


def test_bs_invariants_enforced():
    with pytest.raises(DomainError):
        BSNumber(4, 0, 2)
    with pytest.raises(DomainError):
        BSNumber(0, 3, 2)


def test_bs_from_fraction():
    assert BSNumber.from_fraction(Fraction(3, 4), 2) == BSNumber(3, -2, 2)
    assert BSNumber.from_fraction(12, 2) == BSNumber(3, 2, 2)
    with pytest.raises(DomainError):
        BSNumber.from_fraction(Fraction(1, 3), 2)


def per_factor_from_fraction(value, n):
    # the loop from_fraction ran before: one factor of n per turn
    value = Fraction(value)
    num, den = value.numerator, value.denominator
    k = 0
    while den != 1:
        g = math.gcd(den, n)
        if g == 1:
            raise DomainError(f"{value} is not an element of Z[1/{n}]")
        num *= n // g
        den //= g
        k -= 1
    return bs_normalize(num, k, n)


def _from_fraction_outcome(fn, value, n):
    try:
        return fn(value, n)
    except DomainError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 10, 12])
def test_from_fraction_matches_the_per_factor_loop(n):
    # denominators over the primes of n and some others, with exponents up
    # to 80, so that both the admitted values and those outside Z[1/n] occur
    rng = random.Random(f"from_fraction:{n}")
    seen = Counter()
    for _ in range(500):
        den = math.prod(rng.choice((2, 3, 5, 7)) ** rng.randint(0, 80) for _ in range(rng.randint(0, 3)))
        num = rng.choice((0, 1, -1, rng.randint(-10 ** 9, 10 ** 9))) * n ** rng.randint(0, 40)
        value = Fraction(num, den)
        got = _from_fraction_outcome(BSNumber.from_fraction, value, n)
        assert got == _from_fraction_outcome(per_factor_from_fraction, value, n)
        seen[isinstance(got, str), value.denominator > 1] += 1
    assert seen[True, True] and seen[False, True] and seen[False, False], seen


def test_from_fraction_takes_logarithmic_steps_in_the_exponent():
    # the per-factor loop would strip a million factors of 2 one at a time
    start = time.perf_counter()
    assert BSNumber.from_fraction(Fraction(3, 2 ** 1_000_000), 2) == BSNumber(3, -1_000_000, 2)
    with pytest.raises(DomainError, match="not an element"):
        BSNumber.from_fraction(Fraction(1, 3 * 2 ** 14_000), 2)
    with pytest.raises(DomainError, match="not an element"):
        BSNumber.from_fraction(Fraction(1, 10 ** 4299), 2)
    # past the int-to-string limit the refusal names the denominator's size
    with pytest.raises(DomainError, match="a 1000002-bit denominator is not an element"):
        BSNumber.from_fraction(Fraction(1, 3 * 2 ** 1_000_000), 2)
    assert time.perf_counter() - start < 2


def test_bs_delta_examples():
    zero = bs_normalize(0, 0, 2)
    assert lg.bs_delta(bs_normalize(12, 0, 2), zero) == 3
    assert lg.bs_delta(BSNumber.from_fraction(Fraction(3, 4), 2), zero) == 3
    assert lg.bs_delta(zero, zero) == 0


@given(st.integers(-500, 500), st.integers(-4, 4),
       st.integers(-500, 500), st.integers(-4, 4), st.integers(-3, 3))
@settings(max_examples=200)
def test_bs_delta_invariances(a, ka, b, kb, j):
    n = 2
    p = bs_normalize(a, ka, n)
    q = bs_normalize(b, kb, n)
    c = bs_normalize(7, j, n)
    d = lg.bs_delta(p, q)
    assert d == lg.bs_delta(q, p)
    assert d == lg.bs_delta(p + c, q + c)
    # scaling by n^j preserves the prime-to-n part
    scaled_p = BSNumber.from_fraction(p.value() * Fraction(n) ** j, n)
    scaled_q = BSNumber.from_fraction(q.value() * Fraction(n) ** j, n)
    assert d == lg.bs_delta(scaled_p, scaled_q)
    assert (d == 0) == (p == q)


BS_BASES = (2, 3, 4, 6, 10)


@st.composite
def bs_pairs(draw):
    """Two elements of Z[1/n]; q is sometimes p itself, -p, or chosen so
    that p + q or p - q carries more factors of n than either operand."""
    n = draw(st.sampled_from(BS_BASES))
    p = bs_normalize(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(-8, 8)), n)
    kind = draw(st.sampled_from(("free", "same", "negated", "sum_deep", "difference_deep")))
    if kind == "same":
        return p, p
    if kind == "negated":
        return p, -p
    if kind == "free":
        return p, bs_normalize(draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(-8, 8)), n)
    # target t = c * n^j with j past both operands' exponents, then q = +-(t - p)
    t = Fraction(draw(st.integers(-50, 50))) * Fraction(n) ** draw(st.integers(9, 14))
    q = BSNumber.from_fraction(t - p.value(), n)
    return p, (q if kind == "sum_deep" else -q)


@given(bs_pairs())
@settings(max_examples=400)
def test_bs_integer_arithmetic_matches_fraction_oracle(pair):
    p, q = pair
    n = p.n
    pv, qv = p.value(), q.value()
    total = BSNumber.from_fraction(pv + qv, n)
    diff = BSNumber.from_fraction(pv - qv, n)
    assert p + q == total
    assert p - q == diff
    assert lg.bs_delta(p, q) == abs(diff.r)
    assert lg.bs_delta(p, p) == 0 and (p - p) == BSNumber(0, 0, n)
    fam = lg.BSFamily(n)
    for v, residual in ((p, q), (q, p), (p, total), (diff, p)):
        vv, rv = v.value(), residual.value()
        expected = vv != 0 and rv != 0 and (vv > 0) == (rv > 0) and abs(vv) <= abs(rv)
        assert fam.fits(v, residual) == expected


def test_bs_arithmetic_examples():
    # 3/4 + 5/4 = 2 carries more factors of 2 than either operand
    assert bs_normalize(3, -2, 2) + bs_normalize(5, -2, 2) == BSNumber(1, 1, 2)
    assert bs_normalize(7, 3, 6) - bs_normalize(7, 3, 6) == BSNumber(0, 0, 6)
    assert bs_normalize(1, -3, 10) + bs_normalize(-1, 5, 10) == BSNumber.from_fraction(
        Fraction(1, 1000) - 100000, 10)
    # n = 4: 2 * 4^-1 = 1/2 and 1/2 + 1/2 = 1
    half = BSNumber.from_fraction(Fraction(1, 2), 4)
    assert half == BSNumber(2, -1, 4) and half + half == BSNumber(1, 0, 4)
    with pytest.raises(DomainError):
        bs_normalize(1, 0, 2) + bs_normalize(1, 0, 3)


def test_bs_constructor_keeps_its_checks_and_messages():
    for args, message in (((1, 0, 1), "base must be >= 2, got 1"),
                          ((0, 3, 2), "zero is normalized as r=0, k=0"),
                          ((-12, 1, 3), "-12 is divisible by 3; not normalized")):
        with pytest.raises(DomainError) as err:
            BSNumber(*args)
        assert str(err.value) == message
    with pytest.raises(DomainError, match="base must be >= 2, got 0"):
        bs_normalize(1, 0, 0)
    with pytest.raises(DomainError, match="base mismatch: 2 != 3"):
        bs_normalize(1, 0, 2) - bs_normalize(1, 0, 3)


@pytest.mark.parametrize("n", BS_BASES)
def test_bs_every_construction_is_equal_and_hashes_equal(n):
    # the value 5 * n^-2 built each way the package builds a BSNumber
    x = Fraction(5, n * n)
    built = [BSNumber(5, -2, n), bs_normalize(5, -2, n), bs_normalize(5 * n ** 3, -5, n),
             BSNumber.normalize(5 * n, -3, n), BSNumber.from_fraction(x, n),
             BSNumber.from_fraction(x + 1, n) - bs_normalize(1, 0, n),
             bs_normalize(2, -2, n) + bs_normalize(3, -2, n), -bs_normalize(-5, -2, n),
             lg.BSFamily(n).parse("5/" + str(n * n))]
    for v in built:
        assert v == built[0] and hash(v) == hash(built[0]) == hash((5, -2, n))
        assert (v.r, v.k, v.n) == (5, -2, n)
    zeros = [BSNumber(0, 0, n), bs_normalize(0, 7, n), lg.BSFamily(n).zero,
             built[0] - built[1], -BSNumber(0, 0, n), BSNumber.from_fraction(0, n)]
    for z in zeros:
        assert z == zeros[0] and hash(z) == hash(zeros[0]) and z.is_zero()
    assert len({*built, *zeros}) == 2
    assert BSNumber(1, 0, 2) != BSNumber(1, 0, 3) and BSNumber(1, 0, n) != BSNumber(1, 1, n)


def test_bs_repr_keeps_the_dataclass_form():
    assert repr(BSNumber(-3, -2, 2)) == "BSNumber(r=-3, k=-2, n=2)"
    assert repr(bs_normalize(0, 4, 3)) == "BSNumber(r=0, k=0, n=3)"


def test_bs_comparing_with_other_types_returns_not_implemented():
    v = BSNumber(3, 1, 2)
    for other in (None, 6, Fraction(6), (3, 1, 2), "6", L(2, {0: 1})):
        assert v.__eq__(other) is NotImplemented
        assert v != other
    with pytest.raises(TypeError):
        v < v  # noqa: B015 -- Z[1/n] elements are not ordered as objects


def test_bs_attribute_assignment_raises():
    v = BSNumber(3, 1, 2)
    for name in ("r", "k", "n", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name, 1)
    with pytest.raises(FrozenInstanceError):
        del v.r
    assert v == BSNumber(3, 1, 2)


def test_bs_copy_and_pickle_round_trip():
    v = BSNumber(-7, -3, 10)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w == v and hash(w) == hash(v) and repr(w) == repr(v)


# ---------------------------------------------------------------------------
# SOL contexts
# ---------------------------------------------------------------------------

def independent_invariant_form(a):
    # the fixed-form ray of a Mobius matrix [[a,b],[c,d]] is (c, d-a, -b)
    (pa, pb), (pc, pd) = a
    alpha, beta, gamma = pc, pd - pa, -pb
    g = math.gcd(alpha, beta, gamma)
    alpha, beta, gamma = alpha // g, beta // g, gamma // g
    if alpha < 0:
        alpha, beta, gamma = -alpha, -beta, -gamma
    return alpha, beta, gamma


@pytest.mark.parametrize("mat", [
    ((2, 1), (1, 1)),
    ((3, 1), (2, 1)),
    ((5, 2), (2, 1)),
    ((7, 12), (4, 7)),
])
def test_sol_invariant_form_matches_independent_oracle(mat):
    ctx = sol_invariant_form(mat)
    assert ctx.form == independent_invariant_form(mat)
    for v in ((1, 0), (0, 1), (1, 1), (2, -3)):
        assert ctx.f(ctx.apply_a(v)) == ctx.f(v)


_UNIPOTENT = (((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((1, 0), (-1, 1)))


def _matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


@given(st.lists(st.sampled_from(_UNIPOTENT), min_size=2, max_size=10), st.booleans())
@settings(max_examples=200)
def test_sol_invariant_form_characterized(word, negate):
    # the A-invariant forms of a hyperbolic A are one line, so a primitive
    # invariant form with alpha > 0 is unique
    a = ((1, 0), (0, 1))
    for g in word:
        a = _matmul(a, g)
    if negate:
        a = tuple(tuple(-x for x in row) for row in a)
    assume(abs(a[0][0] + a[1][1]) > 2)
    ctx = sol_invariant_form(a)
    alpha, beta, gamma = ctx.form
    assert math.gcd(alpha, beta, gamma) == 1 and alpha > 0
    for v in ((1, 0), (0, 1), (1, 1)):
        assert ctx.f(ctx.apply_a(v)) == ctx.f(v)


def test_sol_invariant_form_examples():
    assert sol_invariant_form(((2, 1), (1, 1))).form == (1, -1, -1)
    assert sol_invariant_form(((3, 1), (2, 1))).form == (2, -2, -1)
    with pytest.raises(DomainError):
        sol_invariant_form(((1, 1), (1, 0)))  # det -1
    with pytest.raises(DomainError):
        sol_invariant_form(((1, 1), (0, 1)))  # parabolic
    with pytest.raises(DomainError):
        sol_invariant_form(((0, -1), (1, 0)))  # elliptic


def test_sol_delta_examples():
    ctx = sol_invariant_form(((2, 1), (1, 1)))
    z = (0, 0)
    assert sol_delta(ctx, (1, 0), z) == 1
    assert sol_delta(ctx, (1, 2), z) == 5
    assert sol_delta(ctx, (5, 3), z) == 1


def test_sol_delta_invariances():
    ctx = sol_invariant_form(((2, 1), (1, 1)))
    pts = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    for p, q in itertools.islice(itertools.combinations(pts, 2), 500):
        d = sol_delta(ctx, p, q)
        assert d == sol_delta(ctx, ctx.apply_a(p), ctx.apply_a(q))
        c = (4, -7)
        assert d == sol_delta(ctx, (p[0] + c[0], p[1] + c[1]), (q[0] + c[0], q[1] + c[1]))
        assert (d == 0) == (p == q)
