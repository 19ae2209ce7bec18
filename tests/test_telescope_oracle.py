"""greedy_sum and telescoping_identity_holds against the code they replaced.

The one-pass greedy is compared with the rescanning greedy, which looks
for the first fitting element from the start after every pick, and the
signed tally with the positive/negative ``Counter`` cancellation.  Each
family's ``take``, which counts a whole run at once, is compared with
exact rationals and with one ``fits`` and one ``sub`` per pick.  The
inputs are seeded and drawn from small pools, so that failures, step
limits, cancellations and shared points all occur.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import lampgeo as lg
from lampgeo import (
    BSFamily,
    BSNumber,
    DecompositionError,
    GeneratorSet,
    LampConfig,
    LampFamily,
    Quad,
    SolFamily,
)
from lampgeo import quads


def rescanning_greedy_sum(family, sigma, target):
    residual = target
    picked = []
    by_pref = sorted(sigma.elements, key=family.magnitude_key, reverse=True)
    steps = 0
    while residual != family.zero:
        choice = next((v for v in by_pref if family.fits(v, residual)), None)
        if choice is None:
            raise DecompositionError(
                f"residual {family.fmt(residual)} not expressible over the generator set",
                residual=residual)
        picked.append(choice)
        residual = family.sub(residual, choice)
        steps += 1
        if steps > quads.MAX_TELESCOPE_STEPS:
            raise DecompositionError(
                f"decomposition exceeded MAX_TELESCOPE_STEPS = {quads.MAX_TELESCOPE_STEPS}", residual=residual)
    return sorted(picked, key=family.sort_key)


def counter_identity_holds(q, chain):
    left: Counter = Counter()
    right: Counter = Counter()
    for p in chain:
        left[p.p1] += 1
        left[p.p3] += 1
        right[p.p2] += 1
        right[p.p4] += 1
    common = left & right
    left -= common
    right -= common
    return left == Counter([q.p1, q.p3]) and right == Counter([q.p2, q.p4])


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except DecompositionError as exc:
        return str(exc), exc.residual


def random_bs(rng, n):
    r = rng.choice([0] + [x for x in range(-40, 41) if x])
    return BSNumber.normalize(r, rng.randint(-3, 3) if r else 0, n)


def random_lamp(rng, n, width=5):
    return LampConfig.of(n, {i: rng.randrange(n) for i in range(width) if rng.random() < 0.5})


def random_sol(rng, sx, sy):
    return (sx * rng.randint(0, 12), sy * rng.randint(0, 12))


SOL = SolFamily(lg.sol_invariant_form(((2, 1), (1, 1))))


def draws(seed, count=300):
    """(family, generator set, target) triples over all three families."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(["bs2", "bs3", "lamp2", "lamp3", "sol"])
        if kind.startswith("bs"):
            fam = BSFamily(int(kind[2]))
            point = lambda: random_bs(rng, fam.n)
        elif kind.startswith("lamp"):
            fam = LampFamily(int(kind[4]))
            point = lambda: random_lamp(rng, fam.n)
        else:
            signs = rng.choice([1, -1]), rng.choice([1, -1])  # one orthant per draw
            fam, point = SOL, lambda: random_sol(rng, *signs)
        elements = {fam.sort_key(p): p for p in (point() for _ in range(rng.randint(0, 6)))}
        target = point()
        if elements and rng.random() < 0.5:  # a sum of elements, which often decomposes
            target = fam.zero
            for v in rng.choices(list(elements.values()), k=rng.randint(1, 6)):
                target = fam.add(target, v)
        out.append((fam, GeneratorSet(fam, tuple(elements.values())), target))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_greedy_sum_matches_rescanning_greedy(seed):
    seen = Counter()
    for fam, sigma, target in draws(seed):
        got = outcome(lg.greedy_sum, fam, sigma, target)
        assert got == outcome(rescanning_greedy_sum, fam, sigma, target)
        seen[fam.name, got[0] == "ok"] += 1
    # every family both decomposes and fails
    assert len(seen) == 6, seen


@pytest.mark.parametrize("limit", [0, 1, 2, 5])
def test_greedy_sum_step_limit_matches_rescanning_greedy(limit, monkeypatch):
    monkeypatch.setattr(quads, "MAX_TELESCOPE_STEPS", limit)
    hit = 0
    for fam, sigma, target in draws(99, 200):
        got = outcome(lg.greedy_sum, fam, sigma, target)
        assert got == outcome(rescanning_greedy_sum, fam, sigma, target)
        hit += got[0] == f"decomposition exceeded MAX_TELESCOPE_STEPS = {limit}"
    assert hit


def chains(seed, count=400):
    """(quad, chain) pairs: telescoped parallelograms, mutated chains and
    quads on a pool of five points, degenerate ones included."""
    rng = random.Random(seed)
    fam = BSFamily(2)
    sigma = GeneratorSet(fam, tuple(BSNumber.from_fraction(2 ** j, 2) for j in range(4)))
    pool = [BSNumber.from_fraction(v, 2) for v in range(5)]
    out = []
    while len(out) < count:
        a, w = random_bs(rng, 2), random_bs(rng, 2)
        v = BSNumber.from_fraction(rng.randint(1, 40), 2)
        q = Quad(fam, a, a + w, a + w + v, a + v)
        if len(set(q.points)) < 4:
            continue
        chain = lg.telescope_decompose(q, sigma)
        out.append((q, chain))
        mutated = list(chain)
        i = rng.randrange(len(mutated))
        match rng.randrange(3):
            case 0:
                del mutated[i]
            case 1:
                c = mutated[i]
                mutated[i] = Quad(fam, c.p2, c.p1, c.p3, c.p4)
            case 2:
                mutated.append(mutated[i])
        out.append((q, mutated))
        small = Quad(fam, *rng.choices(pool, k=4))
        out.append((small, [Quad(fam, *rng.choices(pool, k=4)) for _ in range(rng.randint(0, 3))]))
        out.append((small, [small]))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_identity_matches_counter_cancellation(seed):
    seen = Counter()
    for q, chain in chains(seed):
        got = lg.telescoping_identity_holds(q, chain)
        assert got == counter_identity_holds(q, chain)
        seen[got, len(set(q.points)) < 4] += 1
    assert seen[True, False] and seen[False, False] and seen[False, True]


@pytest.mark.parametrize("points", [(0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 2, 0), (2, 2, 2, 2)])
def test_identity_fails_when_the_diagonals_share_a_point(points):
    # {p1, p3} meets {p2, p4}, so the cancelled remainder, which has no
    # point on both sides, is never {p1, p3} = {p2, p4}
    fam = LampFamily(2)
    pts = [LampConfig.of(2, {i: 1}) for i in points]
    q = Quad(fam, *pts)
    for chain in ([], [q], [q, q]):
        assert lg.telescoping_identity_holds(q, chain) is False
        assert counter_identity_holds(q, chain) is False


def test_identity_on_sol_and_lamp_chains():
    for fam, points in ((SOL, [(0, 0), (1, 0), (3, 2), (2, 2)]),
                        (LampFamily(3), [LampConfig.of(3, d) for d in
                                         ({}, {0: 1}, {0: 1, 4: 2}, {4: 2})])):
        q = Quad(fam, *points)
        target = fam.sub(q.p4, q.p1)
        sigma = GeneratorSet(fam, (target,))
        chain = lg.telescope_decompose(q, sigma)
        assert lg.telescoping_identity_holds(q, chain) and counter_identity_holds(q, chain)
        rotated = [Quad(c.family, c.p2, c.p3, c.p4, c.p1) for c in chain]
        assert lg.telescoping_identity_holds(q, rotated) == counter_identity_holds(q, rotated)


def coordinates(fam, p, v):
    # the numbers take divides: the value (BS), the components (SOL), or
    # the digits at v's support (lamplighter)
    if isinstance(fam, BSFamily):
        return [p.value()]
    if isinstance(fam, SolFamily):
        return list(p)
    return [p.value_at(i) for i, _ in v.entries]


def fraction_take(fam, v, residual, limit):
    # min over v's nonzero coordinates of floor(residual / v) in exact
    # rationals, clipped to [0, limit], and residual - count * v
    counts = [math.floor(Fraction(r) / c) for r, c in zip(coordinates(fam, residual, v), coordinates(fam, v, v)) if c]
    count = max(0, min(min(counts, default=0), limit))
    if isinstance(fam, BSFamily):
        return count, BSNumber.from_fraction(residual.value() - count * v.value(), fam.n)
    if isinstance(fam, SolFamily):
        return count, (residual[0] - count * v[0], residual[1] - count * v[1])
    return count, LampConfig.of(fam.n, list(residual.entries) + [(i, -count * val) for i, val in v.entries])


def repeated_take(fam, v, residual, limit):
    # one fits and one sub per pick, as the greedy took a run before
    count = 0
    while count < limit and fam.fits(v, residual):
        residual = fam.sub(residual, v)
        count += 1
    return count, residual


def take_cases(seed):
    """(family, v, residual) triples: every element of every drawn generator
    set against its target, and long runs that limits cut short."""
    for fam, sigma, target in draws(seed):
        for v in sigma.elements:
            yield fam, v, target
    for fam, v, residual in ((BSFamily(2), BSNumber(1, -3, 2), BSNumber(1001, 0, 2)),
                             (BSFamily(3), BSNumber(-2, 1, 3), BSNumber(-7, 4, 3)),
                             (SOL, (2, -3), (41, -70)),
                             (LampFamily(7), LampConfig.of(7, {0: 1, 3: 2}), LampConfig.of(7, {0: 6, 3: 5, 9: 1}))):
        yield fam, v, residual


@pytest.mark.parametrize("seed", range(3))
def test_take_matches_fraction_oracle_and_repeated_fits(seed):
    seen = Counter()
    for fam, v, residual in take_cases(seed):
        for limit in (1, 2, 3, 5, 1000):
            got = fam.take(v, residual, limit)
            assert got == fraction_take(fam, v, residual, limit) == repeated_take(fam, v, residual, limit)
            full = fam.take(v, residual, 10 ** 6)[0]
            seen[fam.name, "cut" if full > limit else "run" if got[0] else "none"] += 1
    # every family takes nothing, takes a whole run, and has a run cut short by the limit
    assert len(seen) == 9, seen


@pytest.mark.parametrize("fam, sigma, target", [
    (BSFamily(2), [BSNumber(1, k, 2) for k in range(-2, 9)], BSNumber.normalize(10 ** 6 + 3, -2, 2)),
    (LampFamily(5), [LampConfig.of(5, {i: 1}) for i in range(6)], LampConfig.of(5, {i: 4 for i in range(6)})),
    (SOL, [(1, 0), (0, 1), (3, 5)], (10 ** 6, 10 ** 6)),
])
def test_greedy_subtracts_at_most_once_per_generator(fam, sigma, target, monkeypatch):
    subtractions = Counter()
    take = type(fam).take

    def counting_take(self, v, residual, limit):
        count, after = take(self, v, residual, limit)
        subtractions[v] += after != residual
        return count, after

    def no_pick_by_pick(*args):
        raise AssertionError("the greedy subtracts one pick at a time")

    monkeypatch.setattr(quads, "MAX_TELESCOPE_STEPS", 10 ** 7)
    monkeypatch.setattr(type(fam), "take", counting_take)
    monkeypatch.setattr(type(fam), "sub", no_pick_by_pick)
    for cls in (BSNumber, LampConfig):
        monkeypatch.setattr(cls, "__sub__", no_pick_by_pick)
    terms = lg.greedy_sum(fam, GeneratorSet(fam, tuple(sigma)), target)
    assert len(terms) > 3 * len(sigma) and max(subtractions.values()) == 1
    monkeypatch.undo()
    monkeypatch.setattr(quads, "MAX_TELESCOPE_STEPS", 10 ** 7)
    assert terms == rescanning_greedy_sum(fam, GeneratorSet(fam, tuple(sigma)), target)
