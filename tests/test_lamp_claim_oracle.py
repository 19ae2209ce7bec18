"""verify_lamp_claim against an independent two-path reference.

The reference holds n = 2 points as plain bitmasks and every other n as
digit tuples, each with its own gap, sum and difference, so it shares no
packed-digit arithmetic with the verifier, which runs one packed path for
every n.
"""

import itertools
from collections import Counter

import pytest

import lampgeo as lg
from lampgeo import LampConfig, LampFamily, quads
from lampgeo.base_groups import digit_shift, packed_add
from lampgeo.quads import VerifyReport, _packed_with_gap, _side_count


def _mask_gap(d):
    return d.bit_length() - 1 - ((d & -d).bit_length() - 1)


def _masks_gap_le(width, s):
    out = []
    for lo in range(width):
        for g in range(min(s, width - 1 - lo) + 1):
            if g == 0:
                out.append(1 << lo)
            else:
                base = (1 << lo) | (1 << (lo + g))
                for pat in range(1 << (g - 1)):
                    out.append(base | (pat << (lo + 1)))
    return sorted(out)


def _tuples_gap_le(n, width, s):
    out = []
    vals = range(1, n)
    for lo in range(width):
        for g in range(min(s, width - 1 - lo) + 1):
            if g == 0:
                for v in vals:
                    t = [0] * width
                    t[lo] = v
                    out.append(tuple(t))
            else:
                for a in vals:
                    for b in vals:
                        for interior in itertools.product(range(n), repeat=g - 1):
                            t = [0] * width
                            t[lo] = a
                            t[lo + g] = b
                            t[lo + 1:lo + g] = interior
                            out.append(tuple(t))
    return sorted(out)


def _tuple_gap(d):
    lo = next(i for i, v in enumerate(d) if v)
    hi = next(i for i in range(len(d) - 1, -1, -1) if d[i])
    return hi - lo


def reference_lamp_claim(S, window_width, n=2, hypotheses="full"):
    if n == 2:
        sides = _masks_gap_le(window_width, S - 1)
        sub = add = lambda x, y: x ^ y
        gap_of = _mask_gap
        to_entries = lambda m: tuple((i, 1) for i in range(m.bit_length()) if m >> i & 1)
        zero_pt = 0
        points = range(1, 1 << window_width)
    else:
        sides = _tuples_gap_le(n, window_width, S - 1)
        sub = lambda x, y: tuple((a - b) % n for a, b in zip(x, y))
        add = lambda x, y: tuple((a + b) % n for a, b in zip(x, y))
        gap_of = _tuple_gap
        to_entries = lambda t: tuple((i, v) for i, v in enumerate(t) if v)
        zero_pt = (0,) * window_width
        points = (t for t in itertools.product(range(n), repeat=window_width) if any(t))

    violations = []
    checked = 0
    enumerated = 0
    min_diag = 2 * S + 1
    if hypotheses == "full":
        for b in sides:
            for u in sides:
                d = add(b, u)
                if d == zero_pt or gap_of(d) < min_diag:
                    continue
                for c in sides:
                    enumerated += 1
                    if c == b or c == d:
                        continue
                    if gap_of(sub(b, c)) < min_diag:
                        continue
                    if gap_of(sub(d, c)) >= S:
                        continue
                    checked += 1
                    if d != add(b, c):
                        violations.append((b, c, d))
    else:
        large = [p for p in points if gap_of(p) >= min_diag]
        for b in sides:
            for c in sides:
                if c == b or gap_of(sub(b, c)) < min_diag:
                    continue
                for d in large:
                    if d == b or d == c:
                        continue
                    enumerated += 1
                    checked += 1
                    if d != add(b, c):
                        violations.append((b, c, d))

    configs = {}

    def to_config(p):
        # witnesses repeat few distinct points; build each config once
        if p not in configs:
            configs[p] = LampConfig(n, to_entries(p))
        return configs[p]

    zero = LampConfig.zero(n)
    fam = LampFamily(n)
    return VerifyReport(
        params={"S": S, "n": n, "hypotheses": hypotheses,
                "sides": f"|supp| < {S}", "diagonals": f"|supp| > {2 * S}"},
        search_space={"window": [0, window_width], "side_candidates": len(sides),
                      "tuples_enumerated": enumerated},
        count_checked=checked,
        violations=sorted(((zero, to_config(b), to_config(d), to_config(c))
                           for b, c, d in violations),
                          key=lambda quad: tuple(p.entries for p in quad)),
        vacuous=checked == 0,
        elapsed_ms=0,
        family=fam.name,
        point_fmt=fam.fmt,
    )


# S >= 3 gives sides of several fields, so the corners that the index
# pairs at each large d are more than one digit wide
FULL_CASES = [(2, 1, 6), (2, 2, 10), (2, 3, 12), (2, 4, 11), (3, 1, 6), (3, 2, 8),
              (3, 3, 8), (4, 2, 8), (5, 1, 7), (10, 1, 4)]
# relaxed mode lists every window point and reports every witness; among the
# windows above with n^W <= 60k, (2, 3, 12), (3, 2, 8) and (10, 1, 4) carry
# 1.3M-2.5M witnesses each, so small windows for n = 4, 5 stand in for them
RELAXED_CASES = [(2, 1, 6), (2, 2, 10), (3, 1, 6), (4, 1, 5), (5, 1, 4)]


@pytest.mark.parametrize("n, S, W", FULL_CASES)
def test_lamp_claim_full_matches_reference(n, S, W):
    got = lg.verify_lamp_claim(S, W, n=n)
    want = reference_lamp_claim(S, W, n=n)
    assert want.count_checked > 0  # the comparison checks some tuples
    assert got.to_jsonable() == want.to_jsonable()


@pytest.mark.parametrize("n, S, W", RELAXED_CASES)
def test_lamp_claim_relaxed_matches_reference(n, S, W):
    got = lg.verify_lamp_claim(S, W, n=n, hypotheses="relaxed")
    want = reference_lamp_claim(S, W, n=n, hypotheses="relaxed")
    assert want.violations  # the comparison covers witnesses
    assert got.to_jsonable() == want.to_jsonable()


def _eager_packed_with_gap(n, width, shift, gmin, gmax):
    # reference lister: it builds every interior string of g - 1 digits up
    # front, for every gap below gmin too, with its own digit packing
    interiors = [0]
    for g in range(min(gmax, width - 1) + 1):
        if g >= gmin:
            ends = (range(1, n) if g == 0 else
                    [a | b << (g << shift) for a in range(1, n) for b in range(1, n)])
            for lo in range(width - g):
                for e in ends:
                    for x in interiors:
                        yield (e | x << (1 << shift)) << (lo << shift)
        if g:
            interiors = [x | v << ((g - 1) << shift) for v in range(n) for x in interiors]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lazy_gap_lister_matches_eager_lister(n):
    shift = digit_shift(n)
    for width in range(1, 9):
        for gmin in range(9):
            for gmax in range(gmin, 9):
                got = _packed_with_gap(n, width, shift, gmin, gmax)
                assert list(got) == list(_eager_packed_with_gap(n, width, shift, gmin, gmax)), \
                    (width, gmin, gmax)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_side_count_matches_the_lister(n):
    # relaxed mode reports the closed form as side_candidates, and lists no
    # side to count it
    shift = digit_shift(n)
    for width in range(2, 11):
        listed = 0
        for S in range(1, 9):
            listed += sum(1 for _ in _packed_with_gap(n, width, shift, S - 1, S - 1))
            assert _side_count(n, width, S) == listed, (width, S)


# S = 1..4 for every n, then windows above 61 packed bits
ROW_CASES = [(2, 1, 8), (2, 2, 12), (2, 3, 14), (2, 4, 16), (3, 1, 8), (3, 2, 9), (3, 3, 10), (3, 4, 11),
             (4, 1, 7), (4, 2, 8), (4, 3, 9), (5, 1, 7), (5, 2, 8), (5, 3, 9),
             (2, 1, 70), (2, 2, 64), (3, 1, 33), (3, 2, 32), (5, 1, 16), (5, 2, 16)]


@pytest.mark.parametrize("row_keys", [quads._ROW_KEYS, 5], ids=["slices", "small-slices"])
@pytest.mark.parametrize("n, S, W", ROW_CASES)
def test_full_lamp_claim_rows_match_the_whole_index(monkeypatch, n, S, W, row_keys):
    # the slices of the rows that verify_lamp_claim builds, from the sides
    # whose lowest field is L and runs of those ending 2S + 1 fields above
    # it, are the whole index over every pair of sides split by the lowest
    # field of d and cut by its sides: every key in one slice, with the
    # same corners
    rows, corner_index = [], quads._corner_index
    monkeypatch.setattr(quads, "_corner_index", lambda *args: rows.append(corner_index(*args)) or rows[-1])
    monkeypatch.setattr(quads, "_ROW_KEYS", row_keys)
    lg.verify_lamp_claim(S, W, n=n)
    shift = digit_shift(n)
    lowest = lambda d: ((d & -d).bit_length() - 1) >> shift
    gap = lambda d: ((d.bit_length() - 1) >> shift) - lowest(d)
    sides = list(_packed_with_gap(n, W, shift, 0, S - 1))
    whole = corner_index([(q, sides) for q in sides], len(sides), packed_add(n),
                         lambda d: d != 0 and gap(d) >= 2 * S + 1)
    assert whole and len(rows) >= W - 2 * S - 1
    merged = {}
    for row in rows:
        assert len({lowest(d) for d in row}) == 1
        assert not row.keys() & merged.keys()
        merged.update(row)
    assert merged.keys() == whole.keys()
    assert all(Counter(merged[d]) == Counter(corners) for d, corners in whole.items())
