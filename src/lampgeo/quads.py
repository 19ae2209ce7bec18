"""(epsilon, M)-quadrilateral machinery and brute-force verifiers.

A quadrilateral is four distinct base-group points with small cyclic side
deltas and large diagonal deltas; a parallelogram additionally satisfies
the exact corner relation p1 + p3 = p2 + p4.  The verifiers enumerate
bounded search spaces exhaustively and report every hypothesis-satisfying
quadruple that fails the corner relation.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .base_groups import (
    BSNumber,
    Frozen,
    LampConfig,
    Matrix2,
    SolContext,
    SolVector,
    bs_delta,
    bs_normalize,
    digit_shift,
    lamp_align,
    lamp_delta,
    nadic_split,
    packed_add,
    packed_lamp,
    sol_delta,
)
from .errors import DecompositionError, DomainError, InternalError
from .formats import format_bs, format_config, format_vector, parse_bs, parse_config, parse_vector

Scalar = int | Fraction


# ---------------------------------------------------------------------------
# family adapters: one point algebra per base group
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LampFamily:
    """Point algebra of the lamplighter base group ⊕ Z_n."""

    n: int

    name = "lamplighter"

    @property
    def zero(self) -> LampConfig:
        return LampConfig.zero(self.n)

    def delta(self, p: LampConfig, q: LampConfig) -> int:
        return lamp_delta(p, q)[0]

    def add(self, p, q):
        return p + q

    def sub(self, p, q):
        return p - q

    def sort_key(self, p: LampConfig):
        return p.entries

    def fmt(self, p: LampConfig) -> str:
        return format_config(p)

    def parse(self, text: str) -> LampConfig:
        return parse_config(text, self.n)

    def fits(self, v: LampConfig, residual: LampConfig) -> bool:
        # digitwise v <= residual, so subtraction never wraps mod n
        return not v.is_zero() and all(val <= residual.value_at(i) for i, val in v.entries)

    def take(self, v: LampConfig, residual: LampConfig, limit: int) -> tuple[int, LampConfig]:
        # the digitwise min of residual // v, at most limit: below it no digit
        # wraps mod n, so the packed fields subtract as one int
        count = min(min((residual.value_at(i) // val for i, val in v.entries), default=0), limit)
        if not count:
            return 0, residual
        a, b, low = lamp_align(residual, v)
        return count, packed_lamp(self.n, a - count * b, low)

    def magnitude_key(self, v: LampConfig):
        sg = lamp_delta(self.zero, v)[1]
        return (sg if sg is not None else -1, len(v.entries))


@dataclass(frozen=True)
class BSFamily:
    """Point algebra of Z[1/n]."""

    n: int

    name = "baumslag-solitar"

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"base must be >= 2, got {self.n}")

    @property
    def zero(self) -> BSNumber:
        return BSNumber(0, 0, self.n)

    def delta(self, p: BSNumber, q: BSNumber) -> int:
        return bs_delta(p, q)

    def add(self, p, q):
        return p + q

    def sub(self, p, q):
        return p - q

    def sort_key(self, p: BSNumber):
        return p.value()

    def fmt(self, p: BSNumber) -> str:
        return format_bs(p)

    def parse(self, text: str) -> BSNumber:
        return parse_bs(text, self.n)

    def fits(self, v: BSNumber, residual: BSNumber) -> bool:
        if v.is_zero() or residual.is_zero() or (v.r > 0) != (residual.r > 0):
            return False
        # |v| <= |residual|, both sides scaled to integers at the smaller exponent
        dk = residual.k - v.k
        if dk >= 0:
            return abs(v.r) <= abs(residual.r) * self.n ** dk
        return abs(v.r) * self.n ** -dk <= abs(residual.r)

    def take(self, v: BSNumber, residual: BSNumber, limit: int) -> tuple[int, BSNumber]:
        # residual // v at the smaller exponent, which is negative when the signs differ
        if not v.r:
            return 0, residual
        n, e = self.n, min(v.k, residual.k)
        x, y = residual.r * n ** (residual.k - e), v.r * n ** (v.k - e)
        count = min(max(x // y, 0), limit)
        return count, (bs_normalize(x - count * y, e, n) if count else residual)

    def magnitude_key(self, v: BSNumber):
        # (delta from zero, |v|): among equal |r| > 0, |v| = |r| * n^k grows with k
        return (abs(v.r), v.k)


@dataclass(frozen=True)
class SolFamily:
    """Point algebra of Z^2 with the delta of an A-invariant form."""

    ctx: SolContext

    name = "sol"

    @property
    def zero(self) -> SolVector:
        return (0, 0)

    def delta(self, p: SolVector, q: SolVector) -> int:
        return sol_delta(self.ctx, p, q)

    def add(self, p, q):
        return (p[0] + q[0], p[1] + q[1])

    def sub(self, p, q):
        return (p[0] - q[0], p[1] - q[1])

    def sort_key(self, p: SolVector):
        return p

    def fmt(self, p: SolVector) -> str:
        return format_vector(p)

    def parse(self, text: str) -> SolVector:
        return parse_vector(text)

    def fits(self, v: SolVector, residual: SolVector) -> bool:
        if v == (0, 0):
            return False
        return all(vi * ri >= 0 and abs(vi) <= abs(ri) for vi, ri in zip(v, residual))

    def take(self, v: SolVector, residual: SolVector, limit: int) -> tuple[int, SolVector]:
        # the componentwise min of residual // v over v's nonzero components,
        # each negative when its signs differ
        count = min(max(min((ri // vi for vi, ri in zip(v, residual) if vi), default=0), 0), limit)
        if not count:
            return 0, residual
        return count, (residual[0] - count * v[0], residual[1] - count * v[1])

    def magnitude_key(self, v: SolVector):
        return (self.delta(self.zero, v), abs(v[0]) + abs(v[1]))


Family = LampFamily | BSFamily | SolFamily


# ---------------------------------------------------------------------------
# quadrilaterals
# ---------------------------------------------------------------------------

class Classification(Enum):
    NOT_QUADRILATERAL = "not_quadrilateral"
    QUADRILATERAL = "quadrilateral"
    PARALLELOGRAM = "parallelogram"


@dataclass(frozen=True)
class ClassifyResult:
    kind: Classification
    reason: str | None = None


class Quad(Frozen):
    """Four base-group points, arranged as the matrix [[p1, p2], [p4, p3]].

    A slotted value: equality, hash and repr are those of a frozen
    dataclass of the fields (family, p1, p2, p3, p4)."""

    __slots__ = _fields = ("family", "p1", "p2", "p3", "p4")

    def __new__(cls, family: Family, p1, p2, p3, p4):
        q = object.__new__(cls)
        _set_family(q, family)
        _set_p1(q, p1)
        _set_p2(q, p2)
        _set_p3(q, p3)
        _set_p4(q, p4)
        return q

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _quad_fields(self) == _quad_fields(other)

    def __hash__(self) -> int:
        return hash(_quad_fields(self))

    @property
    def points(self) -> tuple:
        return (self.p1, self.p2, self.p3, self.p4)

    def corner_holds(self) -> bool:
        f = self.family
        return f.add(self.p1, self.p3) == f.add(self.p2, self.p4)


_set_family, _set_p1, _set_p2, _set_p3, _set_p4 = (getattr(Quad, name).__set__ for name in Quad.__slots__)
_quad_fields = operator.attrgetter(*Quad._fields)


@dataclass(frozen=True)
class QuadParams:
    """Side bound epsilon and diagonal bound M, exact scalars with M > epsilon."""

    epsilon: Scalar
    M: Scalar

    def __post_init__(self):
        if self.epsilon <= 0 or self.M <= 0:
            raise DomainError("epsilon and M must be positive")
        if self.M <= self.epsilon:
            raise DomainError(f"M must exceed epsilon, got M={self.M}, epsilon={self.epsilon}")


def classify(q: Quad, params: QuadParams) -> ClassifyResult:
    """Three-way classification against the side/diagonal thresholds."""
    pts = q.points
    for i, j in itertools.combinations(range(4), 2):
        if pts[i] == pts[j]:
            return ClassifyResult(Classification.NOT_QUADRILATERAL,
                                  f"duplicate points p{i + 1} and p{j + 1}")
    f = q.family
    sides = ((q.p1, q.p2), (q.p2, q.p3), (q.p3, q.p4), (q.p4, q.p1))
    for idx, (x, y) in enumerate(sides, start=1):
        d = f.delta(x, y)
        if d > params.epsilon:
            return ClassifyResult(Classification.NOT_QUADRILATERAL,
                                  f"side {idx} has delta {d} > epsilon")
    for label, (x, y) in (("p1p3", (q.p1, q.p3)), ("p2p4", (q.p2, q.p4))):
        d = f.delta(x, y)
        if d < params.M:
            return ClassifyResult(Classification.NOT_QUADRILATERAL,
                                  f"diagonal {label} has delta {d} < M")
    if q.corner_holds():
        return ClassifyResult(Classification.PARALLELOGRAM)
    return ClassifyResult(Classification.QUADRILATERAL)


@dataclass(frozen=True)
class GeneratorSet:
    """Finite list of base-group points used to telescope parallelograms."""

    family: Family
    elements: tuple
    # the elements in the family's canonical order, and (canonical rank,
    # element) pairs in greedy_sum's preference order: the largest
    # magnitude_key first, ties in the order given
    canonical: tuple = field(init=False, repr=False, compare=False)
    preference: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam, elements = self.family, self.elements
        keys = list(map(fam.sort_key, elements))
        if len(set(keys)) != len(keys):
            raise DomainError("generator set contains duplicates")
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank = {i: r for r, i in enumerate(order)}
        object.__setattr__(self, "canonical", tuple(elements[i] for i in order))
        object.__setattr__(self, "preference", tuple(sorted(
            ((rank[i], v) for i, v in enumerate(elements)), key=lambda rv: fam.magnitude_key(rv[1]), reverse=True)))

    def sorted_elements(self) -> list:
        return list(self.canonical)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """Outcome of an exhaustive verifier run.

    ``violations`` holds hypothesis-satisfying quadruples (as point tuples)
    that fail the corner relation, sorted lexicographically; ``vacuous``
    flags a run during which no quadrilateral was checked at all.
    """

    params: dict
    search_space: dict
    count_checked: int
    violations: list
    vacuous: bool
    elapsed_ms: int
    family: str
    extras: dict = field(default_factory=dict)
    point_fmt: Callable[[object], str] = field(default=str, repr=False, compare=False)

    def to_jsonable(self, include_timing: bool = False) -> dict:
        out = {
            "params": self.params,
            "search_space": self.search_space,
            "count_checked": self.count_checked,
            "violations": [[self.point_fmt(p) for p in quad] for quad in self.violations],
            "vacuous": self.vacuous,
        }
        if include_timing:
            out["elapsed_ms"] = self.elapsed_ms
        if self.extras:
            out["extras"] = self.extras
        out["family"] = self.family
        return out


# ---------------------------------------------------------------------------
# lamplighter large-quadrilateral verifier
# ---------------------------------------------------------------------------

def _packed_with_gap(n: int, width: int, shift: int, gmin: int, gmax: int):
    """Packed points of a width-digit window, index i's digit at bit i << shift,
    whose support spans a gap (last minus first nonzero index) in gmin..gmax.
    The interior digits 1..g-1 are drawn lazily, the highest one slowest."""
    for g in range(gmin, min(gmax, width - 1) + 1):
        ends = (range(1, n) if g == 0 else
                [a | b << (g << shift) for a in range(1, n) for b in range(1, n)])
        places = [[v << (j << shift) for v in range(n)] for j in range(g - 1, 0, -1)]
        for lo in range(width - g):
            for e in ends:
                for digits in itertools.product(*places):
                    yield (e | sum(digits)) << (lo << shift)


def _side_count(n: int, width: int, S: int) -> int:
    """How many points _packed_with_gap lists for gaps 0..S-1: a gap g has
    width - g positions, n - 1 nonzero values at each end (one end at g = 0)
    and n^(g-1) interiors."""
    return sum((width - g) * (n - 1) ** min(g + 1, 2) * n ** max(g - 1, 0) for g in range(min(S, width)))


# the side count is below 2W * n^W, so a window of at most 2^13 packed bits
# keeps it, and every other count of the report, under 2,500 decimal digits,
# inside Python's 4,300-digit int-to-string limit
MAX_LAMP_WINDOW_BITS = 1 << 13

# full lamp-claim cuts each row into slices of at most this many sums, each a
# key of the slice's corner index, so that a slice takes a few MB (a whole
# row of 162,000 sums took 79 MB at n = 6, S = 3, window 12); no field has
# more lower sides, as the corner budget admits at most 2^11 sides
_ROW_KEYS = 1 << 14

# relaxed mode records almost every tuple it checks as a witness: window 10
# at S = 2 checks 109,440 and writes 9 MB of JSON, so 2^17 tuples keep a
# report near 11 MB; window 12 would check 885,248
MAX_RELAXED_TUPLES = 1 << 17


def verify_lamp_claim(
    S: int,
    window_width: int,
    n: int = 2,
    hypotheses: str = "full",
) -> VerifyReport:
    """Check that every large lamplighter quadrilateral is a parallelogram.

    Enumerates quadruples (a,b,c,d) supported in [0, window_width) with
    a = 0 (translation invariance).  The hypotheses are the strict ones of
    the support lemma: side gaps < S and diagonal gaps > 2S (non-strict
    thresholds admit boundary counterexamples, e.g. a={}, b={0:1},
    d={0:1,1:1,2:1}, c={2:1} at S=1).  ``hypotheses="full"`` imposes all
    four cyclic side conditions; ``"relaxed"`` imposes only the two on
    (b-a) and (c-a), the literal printed form, which admits witnesses.

    Full mode runs on _corner_index, its work refused on the corner budget
    before any side is listed: near[d] holds every side b with d - b a
    side, for each large d, and each pair {b, c} of near[d] with a long
    diagonal (b, c) is checked once and counted in both orders.
    ``tuples_enumerated`` is the sum of |near[d]| * side_count.

    The index is built, checked and dropped one row at a time: row L pairs
    the sides whose lowest field is L with the sides whose highest field is
    L + 2S + 1 or more, in both orders, and sums them with ``|``.  It holds
    near[d] whole for every large d with lowest field L, and nothing else:

    * a side's hull, lowest to highest nonzero field, spans at most S
      fields.  If the hulls of two sides q, s meet, q + s lies in their
      union, at most 2S - 1 fields, so its gap is at most 2S - 2 and it is
      not large.
    * So the sides of a large d = q + s have disjoint hulls: no field is
      summed twice, d = q | s for every n, and d spans from the lower
      side's lowest field to the upper side's highest.  Then d is large
      exactly when the upper side ends 2S + 1 fields or more above L, the
      lower side's lowest field, and such a side starts above the lower
      side's hull.  Every q with d - q a side is thus paired in row L.
    * The lower side lies in fields L .. L + S - 1 and the upper side in
      the S fields below d's highest, which start above them, so the lower
      side is d's digits in fields L .. L + S - 1: each large d has one
      pair of sides.  A row is therefore cut into slices of _ROW_KEYS
      sums at most, each pairing the lower sides with a run of the upper
      ones, and each d lies in the one slice that pairs its two sides.
    """
    if S < 1:
        raise DomainError("S must be >= 1")
    if window_width < 2:
        raise DomainError("window_width must be >= 2")
    if hypotheses not in ("full", "relaxed"):
        raise DomainError(f"unknown hypotheses mode {hypotheses!r}")
    # Points are packed ints, index i's digit at bit i << shift: two points
    # differ exactly at the fields where their XOR is nonzero.
    shift = digit_shift(n)
    if window_width << shift > MAX_LAMP_WINDOW_BITS:
        raise DomainError(f"a window of {window_width} fields of {1 << shift} bits each is above "
                          f"the budget of MAX_LAMP_WINDOW_BITS = {MAX_LAMP_WINDOW_BITS} bits")
    start = time.perf_counter()

    def gap(d: int) -> int:
        # d != 0; width of the disagreement interval of a packed difference
        return ((d.bit_length() - 1) >> shift) - (((d & -d).bit_length() - 1) >> shift)

    add = packed_add(n)

    @functools.cache  # relaxed witnesses repeat few distinct points
    def to_config(p: int) -> LampConfig:
        return packed_lamp(n, p, 0)

    def side_points():
        return _packed_with_gap(n, window_width, shift, 0, S - 1)

    side_count = _side_count(n, window_width, S)
    min_diag = 2 * S + 1  # strict: |supp| > 2S
    violations = []
    checked = 0
    enumerated = 0

    if hypotheses == "relaxed":
        # every (b, c, d) with b, c far apart and d large is checked, so the
        # count is known first: the large points are counted in closed form
        # (every nonzero point has some gap), the far pairs are listed only
        # until the product passes the budget, and the large points only once
        # the budget admits them
        large_count = n ** window_width - 1 - _side_count(n, window_width, min_diag)
        # with no large d nothing is checked, and the scan is skipped; the
        # sides are drawn afresh for each b, so none is listed unread
        far = list(itertools.islice(
            ((b, c) for b in side_points() for c in side_points()
             if c != b and gap(b ^ c) >= min_diag),  # diagonal (b, c)
            MAX_RELAXED_TUPLES // large_count + 1)) if large_count else []
        enumerated = checked = len(far) * large_count
        if checked > MAX_RELAXED_TUPLES:
            raise DomainError(f"relaxed mode would check more than MAX_RELAXED_TUPLES = "
                              f"{MAX_RELAXED_TUPLES} tuples (b, c, d) at S = {S}, window {window_width}")
        large = list(_packed_with_gap(n, window_width, shift, min_diag, window_width - 1)) if far else []
        for b, c in far:
            bc = add(b, c)
            violations.extend((b, c, d) for d in large if d != bc)
    else:
        # the corners of (a = 0, b, d, c) are d and two entries b, c of near[d];
        # the side count is refused alone first, as its square can pass
        # Python's 4,300-digit int-to-string limit
        _check_corner_work(side_count ** 2, f"{side_count} side points times {side_count} side points")
        # b + s is large iff the sides b, s lie 2S + 1 fields or more apart end
        # to end: m (m + 1) placements, m = W - 2S - 1, of each pair of the
        # (n - 1) n^(S - 1) side shapes at a lowest field.  Each large d holds
        # b and s (no more, by the support lemma), so the index counts at least
        # half as many pairs, and no input it would admit is refused on them
        m = max(window_width - min_diag, 0)
        pairs = m * (m + 1) // 2 * ((n - 1) * n ** (S - 1)) ** 2 if m else 0
        _check_corner_work(side_count ** 2 + pairs, f"{side_count ** 2} index candidates and {pairs} corner pairs")
        # the rows and slices of the docstring, from the highest L down, so
        # that the upper sides only grow
        by_lo, by_hi = [[] for _ in range(window_width)], [[] for _ in range(window_width)]
        for p in side_points():
            by_lo[((p & -p).bit_length() - 1) >> shift].append(p)
            by_hi[(p.bit_length() - 1) >> shift].append(p)
        upper = []
        for low in range(window_width - min_diag - 1, -1, -1):
            upper += by_hi[low + min_diag]  # the sides ending min_diag fields or more above low
            lower = by_lo[low]
            run = max(1, _ROW_KEYS // len(lower))
            for chunk in (upper[i:i + run] for i in range(0, len(upper), run)):
                near = _corner_index([(q, chunk) for q in lower] + [(s, lower) for s in chunk],
                                     side_count, operator.or_, None)
                for d, corners in near.items():
                    enumerated += len(corners) * side_count
                    for b, c in itertools.combinations(corners, 2):
                        if gap(b ^ c) >= min_diag:  # diagonal (b, c)
                            checked += 2
                            if d != add(b, c):  # corner relation a + d = b + c
                                violations += [(b, c, d), (c, b, d)]

    zero = LampConfig.zero(n)
    viol_quads = sorted(
        ((zero, to_config(b), to_config(d), to_config(c)) for b, c, d in violations),
        key=lambda quad: tuple(p.entries for p in quad),
    )
    fam = LampFamily(n)
    return VerifyReport(
        params={"S": S, "n": n, "hypotheses": hypotheses,
                "sides": f"|supp| < {S}", "diagonals": f"|supp| > {2 * S}"},
        search_space={"window": [0, window_width], "side_candidates": side_count,
                      "tuples_enumerated": enumerated},
        count_checked=checked,
        violations=viol_quads,
        vacuous=checked == 0,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
        family=fam.name,
        point_fmt=fam.fmt,
    )


# ---------------------------------------------------------------------------
# the corner index of all three verifiers, and the Baumslag-Solitar verifier
# ---------------------------------------------------------------------------

# One corner index may examine at most this many (q, s) candidates and
# pairs {p2, p4} in all; larger inputs exit 2 before the first pair.  Near
# it, on a 2-vCPU VM, Schwartz eps 30 at box 100 takes 1.7 s and 26 MB of
# RSS, and full lamp-claim S = 1 at window 1671 3 to 4 s and 19 MB; the README
# lists the Taback inputs
MAX_CORNER_PAIRS = 1 << 22


def _check_corner_work(work: int, what: str) -> None:
    """Raise DomainError, saying what the work is, when it passes MAX_CORNER_PAIRS."""
    if work > MAX_CORNER_PAIRS:
        raise DomainError(f"{what} pass the corner budget MAX_CORNER_PAIRS = {MAX_CORNER_PAIRS}")


def _corner_index(d_eps: list, step_count: int, add: Callable, in_space: Callable | None) -> dict:
    """near[p3] = the points q of D_eps one step from p3, for each p3 in the space.

    d_eps lists each side point q with the steps tried at q, a window of
    the step list: it must hold every step s with add(q, s) in the space,
    which each caller proves for its window (Schwartz's window is every
    step).  The corners p2 and p4 of a quadrilateral (0, p2, p3, p4) with
    small sides are two entries of near[p3], distinct as q = p3 - s with
    s != 0.  The index is built as add(q, s); the steps are closed under
    negation, so p3 - q is a step exactly when q - p3 is.  in_space runs on
    every candidate p3 that is not yet a key, so it must be cheap; nothing
    is kept for the p3 it rejects, and None admits every candidate.
    Callers decide each unordered pair {p2, p4} once and emit both orders:
    the mirror (0, p4, p3, p2) walks the same sides backwards.

    The work is the |D_eps| * step_count candidates of the whole product,
    however few the windows try, plus the pairs, the sum of
    C(|near[p3]|, 2) counted while the index is built; so a window moves
    no refusal.  Past MAX_CORNER_PAIRS it raises DomainError before any
    pair is decided; callers that count the work in closed form refuse it
    before listing.
    """
    candidates = len(d_eps) * step_count
    _check_corner_work(candidates, f"{len(d_eps)} side points times {step_count} steps")
    near: dict = {}
    pairs = 0
    for q, steps in d_eps:
        for p3 in map(add, itertools.repeat(q), steps):
            corners = near.get(p3)
            if corners is not None:
                pairs += len(corners)
                corners.append(q)
            elif in_space is None or in_space(p3):
                near[p3] = [q]
        if candidates + pairs > MAX_CORNER_PAIRS:
            _check_corner_work(candidates + pairs, f"{candidates} index candidates and their corner pairs")
    return near


def _nonmultiples(e: int, n: int) -> int:
    """How many r with 0 < |r| <= e are not multiples of n."""
    return 2 * (e - e // n) if e > 0 else 0


def _ceil_log(x: int, n: int) -> int:
    """The least j >= 0 with n^j >= x; a float log misses near powers of n."""
    j, power = 0, 1
    while power < x:
        j, power = j + 1, power * n
    return j


def verify_taback(
    n: int,
    eps: int,
    M: int,
    numerator_bound: int,
    exp_range: tuple[int, int],
) -> VerifyReport:
    """Check that every (eps, M)-quadrilateral in Z[1/n] within bounds is a parallelogram.

    The search space is {r * n^k : |r| <= numerator_bound, k in exp_range}
    with p1 pinned to 0.  Requires numerator_bound >= 0 (bound 0 admits no
    side point) and M > eps^2 (the separation the valuation argument
    needs).  The first five quadrilaterals are reported with their side
    decompositions (r_i, k_i); the parallelogram side relations
    k1=k3, k2=k4, r1=-r3, r2=-r4 fail exactly where the corner relation does.

    The corners come from _corner_index over D_eps and the steps t * n^j;
    the steps hold every side at p3, because |p3 - q| <= (bound + eps) *
    n^kmax keeps the side's exponent within its range.  Both lists are
    counted in closed form, and refused on the corner budget, before either
    is built.

    A side point q = r * n^a (n does not divide r, |r| <= eps) tries only
    the steps t * n^b (n does not divide t, |t| <= eps) whose exponent gap
    c = |a - b| can give p3 = q + t * n^b = r3 * n^k3 with M <= |r3| <= bound:

    * c = 0: p3 = (r + t) * n^a, so |r3| <= |r + t| <= 2 eps, and the gap
      needs 2 eps >= M.  M > eps^2 does not exclude it: eps = 1, M = 2.
    * c >= 1: p3 = (u + w * n^c) * n^min(a, b) with {u, w} = {r, t}, and n
      does not divide u, so r3 = u + w * n^c and n^c - eps <= |r3| <=
      eps * (n^c + 1).  The gap needs eps * (n^c + 1) >= M and
      n^c - eps <= bound.

    in_space still decides every candidate tried.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    if numerator_bound < 0:
        raise DomainError(f"numerator bound must be >= 0, got {numerator_bound}")
    if eps < 1 or M <= eps * eps:
        raise DomainError(f"need M > eps^2 for the valuation argument, got eps={eps}, M={M}")
    kmin, kmax = exp_range
    if kmin > kmax:
        raise DomainError("empty exponent range")
    start = time.perf_counter()

    # Every candidate has exponent >= kmin, so each point is held as the
    # integer x standing for x * n^kmin: sums, differences, equality and
    # order are exact integer operations, and nadic_split(x) = (r, k - kmin).
    span = kmax - kmin
    # p3 - q ranges over s * n^j; j is bounded because p3 must lie in the space
    jmax = kmax + max(1, _ceil_log(numerator_bound + eps, n))
    side_count = _nonmultiples(min(eps, numerator_bound), n) * (span + 1)
    step_count = _nonmultiples(eps, n) * (jmax - kmin + 1)
    _check_corner_work(side_count * step_count, f"{side_count} side points times {step_count} steps")
    small_rs = [r for r in range(-min(eps, numerator_bound), min(eps, numerator_bound) + 1)
                if r and r % n]
    d_eps = []
    if small_rs:  # with no side point there is no corner, so no step is listed
        jspan = jmax - kmin
        # the exponent gaps c = |a - b| at which a side point r * n^a and a
        # step t * n^b can land (see the docstring); n^c - eps only grows
        gaps = [0] if 2 * eps >= M else []
        c, power = 1, n
        while c <= jspan and power - eps <= numerator_bound:
            if eps * (power + 1) >= M:
                gaps.append(c)
            c, power = c + 1, power * n
        by_exp = [[t * n ** b for t in range(-eps, eps + 1) if t and t % n] for b in range(jspan + 1)]
        windows = [[s for c in gaps for b in {a - c, a + c} if 0 <= b <= jspan for s in by_exp[b]]
                   for a in range(span + 1)]
        d_eps = [(r * n ** a, windows[a]) for a in range(span + 1) for r in small_rs]

    # |r3| <= bound needs v3 >= k, the least k with bound * n^k >= |p3|, so
    # one bisection and one division leave a quotient of at most bound to
    # split; with no side point, no candidate is tested
    powers = [n ** k for k in range(span + 1)] if d_eps else []
    caps = [numerator_bound * power for power in powers]

    def in_space(p3: int) -> bool:
        # p3 in the space (r3 = 0 is not, as M > 0), with diagonal (p1, p3) long
        k = bisect.bisect_left(caps, abs(p3))
        if k > span or p3 % powers[k]:
            return False
        r3, v = nadic_split(p3 // powers[k], n)
        return M <= abs(r3) <= numerator_bound and k + v <= span

    quads = []
    for p3, corners in _corner_index(d_eps, step_count, operator.add, in_space).items():
        for p2, p4 in itertools.combinations(corners, 2):
            if abs(nadic_split(p2 - p4, n)[0]) >= M:  # diagonal (p2, p4)
                quads += [(0, p2, p3, p4), (0, p4, p3, p2)]
    quads.sort()
    # The side relations are the corner relation p3 = p2 + p4, as nadic_split
    # is canonical: k1 = k3, r1 = -r3 say p2 = p3 - p4, and k2 = k4, r2 = -r4
    # say p3 - p2 = p4.  So the violations are the side relation failures.
    violations = [quad for quad in quads if quad[2] != quad[1] + quad[3]]

    fam = BSFamily(n)
    to_bs = lambda x: bs_normalize(x, kmin, n)
    to_str = lambda x: str(to_bs(x).value())
    return VerifyReport(
        params={"n": n, "epsilon": eps, "M": M},
        search_space={"numerator_bound": numerator_bound, "exp_range": list(exp_range),
                      "side_candidates": side_count, "step_candidates": step_count},
        count_checked=len(quads),
        violations=[tuple(map(to_bs, quad)) for quad in violations],
        vacuous=not quads,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
        family=fam.name,
        extras={"sample_decompositions": [
                    {"points": [to_str(x) for x in (0, p2, p3, p4)],
                     "sides_rk": [(r, v + kmin) for r, v in
                                  (nadic_split(x, n) for x in (p2, p3 - p2, p4 - p3, -p4))]}
                    for _, p2, p3, p4 in quads[:5]],
                "side_relation_failures": [[to_str(x) for x in quad] for quad in violations]},
        point_fmt=fam.fmt,
    )


# ---------------------------------------------------------------------------
# SOL verifier and calibration
# ---------------------------------------------------------------------------

# the seed rows do not grow with the box, and each orbit is walked in
# O(log box) steps, so no row of the doubled box, (4 * 10^4 + 1)^2 points
# at this half-width, is listed
MAX_SOL_BOX = 10_000


def _check_sol_input(eps: int, box_halfwidth: int) -> None:
    if eps < 1:
        raise DomainError(f"epsilon must be >= 1, got {eps}")
    if not 1 <= box_halfwidth <= MAX_SOL_BOX:
        raise DomainError(f"box_halfwidth must be in 1..{MAX_SOL_BOX}, got {box_halfwidth}")


def _sol_row(form: tuple[int, int, int], eps: int, box: int, x: int) -> list[SolVector]:
    """Row x of _sol_small_points, sorted by y."""
    a, b, c = form
    root = math.isqrt((b * b - 4 * a * c) * x * x)
    reach = math.isqrt(eps) + 2
    ys = set()
    for num in (-b * x - root, -b * x + root):
        mid = num // (2 * c)
        ys.update(range(max(mid - reach, -box), min(mid + reach, box) + 1))
    return [(x, y) for y in sorted(ys) if 0 < abs(a * x * x + b * x * y + c * y * y) <= eps]


def _sol_small_points(form: tuple[int, int, int], eps: int, box: int) -> list[SolVector]:
    """The points (x, y) with |x|, |y| <= box and 0 < |f(x, y)| <= eps, sorted.

    f = c (y - y1)(y - y2) in y, with real roots y1, y2 since the form is
    indefinite, so |f| <= eps puts y within sqrt(eps / |c|) of a root.
    Each row x therefore tests only the y within isqrt(eps) + 2 of the
    integer estimates (-bx +- isqrt(disc x^2)) // 2c, which are within
    1.5 of the roots: O(box) work instead of the (2 box + 1)^2 grid.
    """
    return [p for x in range(-box, box + 1) for p in _sol_row(form, eps, box, x)]


def _orbit_run(a: Matrix2, v: SolVector, bound: int) -> list[SolVector]:
    """The points A^i v with |x|, |y| <= bound, for v within bound: v, then
    its images under A, then under A^-1, each walk stopping at the first
    point past the bound (the run is contiguous in i, see _sol_scan)."""
    (p, q), (r, s) = a
    run = [v]
    for (m00, m01), (m10, m11) in (a, ((s, -q), (-r, p))):  # A^-1 as det A = 1
        x, y = v
        while True:
            x, y = m00 * x + m01 * y, m10 * x + m11 * y
            if not (-bound <= x <= bound and -bound <= y <= bound):
                break
            run.append((x, y))
    return run


def _sol_seed_box(ctx: SolContext, eps: int) -> int:
    """max(X, Y) of _sol_scan: every <A>-orbit of points with 0 < |f| <= eps
    has a point with |x| <= X and |y| <= Y."""
    a, b, c = ctx.form
    disc = b * b - 4 * a * c
    y_seed = math.isqrt(2 * eps * abs(ctx.a[0][0] + ctx.a[1][1]) * a // disc) + 1
    return max(-(-(abs(b) + math.isqrt(disc) + 1) * y_seed // (2 * a)), y_seed)


def _sol_scan(ctx: SolContext, eps: int, box: int):
    """Enumerate side-satisfying quadruples (p1=0, p2, p3, p4) in the box.

    Yields (p2, p3, p4, min_diagonal_delta, is_parallelogram) once per
    unordered pair {p2, p4}; callers count its mirror (0, p4, p3, p2),
    which has the same diagonals and verdict.  Every corner lies in the
    box, so both sides at p3, p3 - p2 and p3 - p4, range over the small
    points of the doubled box, the steps of _corner_index; f(-s) = f(s)
    and the box is symmetric, so they are closed under negation.

    The small points are a union of <A>-orbits, as f(Av) = f(v), and are
    listed by walking each orbit from a seed.  With (alpha, beta, gamma) =
    ctx.form, alpha > 0, disc = beta^2 - 4 alpha gamma and t = |tr A|:

    * f = alpha L1 L2 with L_i = x - theta_i y.  The null lines of f are
      A's eigenlines, so L_i o A = mu_i L_i with |mu1| + |mu2| = t.
    * |L1 / L2| changes by lambda^2 per step, so each orbit has a point
      with |L1 / L2| in [1/|lambda|, |lambda|).  There L1^2 + L2^2 <=
      eps t / alpha, so |y| <= Y = isqrt(2 eps t alpha // disc) + 1 and
      |x| <= X = ceil((|beta| + isqrt(disc) + 1) Y / (2 alpha)).
    * Along an orbit each coordinate is p lambda^i + q lambda^-i in
      absolute value, so the orbit's points in the doubled box are one
      contiguous run of i, which _orbit_run walks out to both ends.

    So the rows of the seed box, of half-width min(max(X, Y), 2 box), meet
    every orbit that meets the doubled box (when clipped they are all of
    its rows).  They are listed from x = 0 outwards, the box's first, each
    seed not yet reached is walked, and the lister stops once |D_eps| *
    |steps| passes the corner budget: the counts only grow, so
    _corner_index refuses exactly as on the whole lists.
    """
    a, b, c = ctx.form  # |f(x, y)| = |a x^2 + b x y + c y^2| is the delta from 0
    in_box = lambda p: p != (0, 0) and -box <= p[0] <= box and -box <= p[1] <= box  # p3 = 0 is p1
    seed_box = min(_sol_seed_box(ctx, eps), 2 * box)
    d_eps, steps = [], set()
    for x in sorted(range(-seed_box, seed_box + 1), key=abs):
        for seed in _sol_row(ctx.form, eps, seed_box, x):
            if seed not in steps:
                run = _orbit_run(ctx.a, seed, 2 * box)
                steps.update(run)
                d_eps += filter(in_box, run)
        if len(d_eps) * len(steps) > MAX_CORNER_PAIRS:
            break  # _corner_index refuses the lists as they stand
    steps = sorted(steps)
    near = _corner_index([(q, steps) for q in sorted(d_eps)], len(steps),
                         lambda q, s: (q[0] + s[0], q[1] + s[1]), in_box)
    for (x3, y3), corners in near.items():
        diag1 = abs(a * x3 * x3 + b * x3 * y3 + c * y3 * y3)
        for (x2, y2), (x4, y4) in itertools.combinations(corners, 2):
            dx, dy = x2 - x4, y2 - y4
            diag2 = abs(a * dx * dx + b * dx * dy + c * dy * dy)
            yield ((x2, y2), (x3, y3), (x4, y4), min(diag1, diag2),
                   x3 == x2 + x4 and y3 == y2 + y4)


def _schwartz_report(ctx: SolContext, eps: int, M: int, box_halfwidth: int,
                     checked: int, violations: list, start: float) -> VerifyReport:
    fam = SolFamily(ctx)
    return VerifyReport(
        params={"matrix": [list(r) for r in ctx.a], "form": list(ctx.form),
                "epsilon": eps, "M": M},
        search_space={"box_halfwidth": box_halfwidth},
        count_checked=checked,
        violations=sorted(violations),
        vacuous=checked == 0,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
        family=fam.name,
        point_fmt=fam.fmt,
    )


def verify_schwartz(ctx: SolContext, eps: int, M: int, box_halfwidth: int) -> VerifyReport:
    """Check that every (eps, M)-quadrilateral of the SOL lattice in the box is a parallelogram.

    Every corner ranges over the box, so every side ranges over the
    doubled box: p3 - p2 and p3 - p4 may have coordinates up to
    2 * box_halfwidth in absolute value.  Sub-threshold M is allowed; the
    resulting report is informational and may contain violations.  A run
    that finds no (eps, M)-quadrilateral at all is flagged vacuous.
    """
    _check_sol_input(eps, box_halfwidth)
    start = time.perf_counter()
    checked = 0
    violations = []
    for p2, p3, p4, min_diag, is_par in _sol_scan(ctx, eps, box_halfwidth):
        if min_diag < M:
            continue
        checked += 2
        if not is_par:
            violations += (((0, 0), p2, p3, p4), ((0, 0), p4, p3, p2))
    return _schwartz_report(ctx, eps, M, box_halfwidth, checked, violations, start)


def calibrate_schwartz(ctx: SolContext, eps: int, box_halfwidth: int) -> VerifyReport:
    """Find the least integer M* making the box free of non-parallelogram
    (eps, M*)-quadrilaterals, in one enumeration pass.

    M* = 1 + the largest min-diagonal delta over side-satisfying
    non-parallelograms; the returned report is the verification at M*,
    with M* recorded in extras.  No non-parallelogram reaches M*, so the
    report has no violations and counts the parallelograms whose
    min-diagonal delta is at least M*.
    """
    _check_sol_input(eps, box_halfwidth)
    start = time.perf_counter()
    worst_nonpar = 0
    par_diags = []
    for _, _, _, min_diag, is_par in _sol_scan(ctx, eps, box_halfwidth):
        if is_par:
            par_diags.append(min_diag)
        else:
            worst_nonpar = max(worst_nonpar, min_diag)
    m_star = worst_nonpar + 1
    checked = 2 * sum(1 for d in par_diags if d >= m_star)  # both orders of each pair
    report = _schwartz_report(ctx, eps, m_star, box_halfwidth, checked, [], start)
    report.extras = {
        "M_star": m_star,
        "max_nonparallelogram_min_diagonal": worst_nonpar,
        "max_parallelogram_min_diagonal": max(par_diags, default=0),
    }
    return report


# ---------------------------------------------------------------------------
# telescoping decomposition
# ---------------------------------------------------------------------------

# picks of one decomposition, one Quad of the chain each: at the edge, a BS
# chain takes about 1.4 s and 74 MB of RSS in a CLI child on a 2-vCPU VM
MAX_TELESCOPE_STEPS = 1 << 16


def greedy_sum(family: Family, sigma: GeneratorSet, target) -> list:
    """Write target as an ordered sum of generator-set elements.

    Selection is greedy: among elements that still fit the residual, take
    the one with the largest (delta-from-zero, magnitude); the selected
    multiset is emitted sorted ascending by the family's canonical order.
    One pass over that preference order takes each element's whole run at
    once: ``take`` counts the copies that fit, by one division, and
    subtracts them.  An element fits when it has the same sign (orthant,
    digitwise order) and no larger magnitude, so an element that fits no
    more fits no later residual either.  Raises DecompositionError with the
    residual when no element fits, or after the pick that passes
    MAX_TELESCOPE_STEPS.
    """
    residual = target
    runs, steps = [], 0  # runs: (canonical rank, element, picks)
    for rank, v in sigma.preference:
        count, residual = family.take(v, residual, MAX_TELESCOPE_STEPS + 1 - steps)
        if count:
            runs.append((rank, v, count))
            steps += count
            if steps > MAX_TELESCOPE_STEPS:
                raise DecompositionError(
                    f"decomposition exceeded MAX_TELESCOPE_STEPS = {MAX_TELESCOPE_STEPS}", residual=residual)
    if residual != family.zero:
        raise DecompositionError(
            f"residual {family.fmt(residual)} not expressible over the generator set",
            residual=residual)
    runs.sort(key=operator.itemgetter(0))
    return [v for _, v, count in runs for _ in range(count)]


def telescope_decompose(q: Quad, sigma: GeneratorSet) -> list[Quad]:
    """Split a parallelogram into the chain P_1..P_k over a generator set.

    Writes c - a = v_1 + ... + v_k (c = p4, a = p1) and forms
    P_j = [[a + pre_{j-1}, b + pre_{j-1}], [a + pre_j, b + pre_j]].
    Every P_j satisfies the corner relation exactly, and the formal sum of
    the chain's corner relations telescopes to the input's.
    """
    f = q.family
    if f != sigma.family:
        raise DomainError("quad and generator set families differ")
    if len(set(q.points)) < 4:
        raise DomainError("telescoping needs four distinct points")
    if not q.corner_holds():
        raise DomainError("telescoping needs a parallelogram (corner relation fails)")
    terms = greedy_sum(f, sigma, f.sub(q.p4, q.p1))
    chain = []
    a, b = q.p1, q.p2
    for v in terms:
        a2, b2 = f.add(a, v), f.add(b, v)
        chain.append(Quad(f, a, b, b2, a2))
        a, b = a2, b2
    if not (a == q.p4 and b == q.p3):
        raise InternalError("telescoping chain does not land on the far corners")
    return chain


def telescoping_identity_holds(q: Quad, chain: Sequence[Quad]) -> bool:
    """Cancel the chain's formal corner relations and compare with the input's.

    One signed tally takes +p1 +p3 -p2 -p4 over the chain and the opposite
    over the input; it must cancel.  No remainder is exactly {q.p1, q.p3} =
    {q.p2, q.p4} when those two meet.  Points of every family are canonical
    values, so they serve as their own keys.
    """
    if q.p1 in (q.p2, q.p4) or q.p3 in (q.p2, q.p4):
        return False
    tally: dict = {}
    for group, sign in ((chain, 1), ((q,), -1)):
        for p in group:
            for x, s in ((p.p1, sign), (p.p3, sign), (p.p2, -sign), (p.p4, -sign)):
                tally[x] = tally.get(x, 0) + s
    return not any(tally.values())


# ---------------------------------------------------------------------------
# generating sets and the lamplighter obstruction
# ---------------------------------------------------------------------------

def sigma_admissible(sigma: GeneratorSet, params: QuadParams):
    """True if every ordered pair (v, w), v != w, spans an (eps, M)-parallelogram
    [[0, v], [w, v+w]]; otherwise the first violating ordered pair.

    The corner relation always holds and the other conditions are symmetric
    in v and w (delta is symmetric, + commutes), so the first violating
    ordered pair has v before w, and only such pairs are scanned."""
    f = sigma.family
    for v, w in itertools.combinations(sigma.sorted_elements(), 2):
        quad = Quad(f, f.zero, v, f.add(v, w), w)
        if classify(quad, params).kind is not Classification.PARALLELOGRAM:
            return (v, w)
    return True


def _lamp_generates_window(sigma: GeneratorSet, window: tuple[int, int]) -> int | None:
    """None if sigma generates all configs supported in the window; else a
    window index whose single lamp sigma does not generate.

    One Euclidean elimination over Z_n, column by column: Euclid on the live
    rows leaves one row holding the column's gcd g.  Every subgroup vector
    vanishing before the column has a multiple of gcd(g, n) there, so if that
    is not 1 the column's lamp is missing; otherwise the unit pivot row is
    dropped.  k generators give at most k unit pivots, so only the first
    k + 1 columns are read, and n is never factored.
    """
    n, (lo, hi) = sigma.family.n, window
    cols = range(lo, min(hi, lo + len(sigma.elements) + 1))
    rows = [[p.value_at(i) for i in cols] for p in sigma.elements]
    for c in range(len(cols)):
        live = [r for r in rows if r[c]]
        while len(live) > 1:
            live.sort(key=lambda r: r[c])
            for r in live[1:]:
                q = r[c] // live[0][c]
                r[:] = [(x - q * y) % n for x, y in zip(r, live[0])]
            live = [r for r in live if r[c]]
        if math.gcd(live[0][c] if live else 0, n) > 1:
            return lo + c
        rows = [r for r in rows if not r[c]]  # drop the unit pivot
    return None


def lamp_sigma_obstruction(sigma: GeneratorSet, params: QuadParams,
                           window: tuple[int, int]):
    """Exhibit a generator pair that fails to span an (eps, M)-parallelogram.

    Preconditions: sigma supported in and generating the window, and
    log_n M > 2 log_n eps + 1, checked exactly as M > n eps^2.  Under these
    a violating pair always exists; its absence would falsify the index-gap
    argument and raises InternalError.
    """
    f = sigma.family
    if not isinstance(f, LampFamily):
        raise DomainError("the obstruction argument is specific to the lamplighter family")
    lo, hi = window
    if hi - lo < 2:
        raise DomainError("window must contain at least two indices")
    if not sigma.elements:
        raise DomainError("empty generator set cannot generate the window")
    for p in sigma.elements:
        if any(not (lo <= i < hi) for i in p.support()):
            raise DomainError(f"generator {f.fmt(p)} is not supported in the window")
    missing = _lamp_generates_window(sigma, window)
    if missing is not None:
        raise DomainError(f"generator set does not generate the window: index {missing} missing")
    if params.M <= f.n * params.epsilon * params.epsilon:
        raise DomainError(f"need M > {f.n}*eps^2 (log_n M > 2 log_n eps + 1 for n = {f.n}), "
                          f"got eps={params.epsilon}, M={params.M}")
    witness = sigma_admissible(sigma, params)
    if witness is True:
        raise InternalError("no violating pair found; the index-gap argument should forbid this")
    return witness
