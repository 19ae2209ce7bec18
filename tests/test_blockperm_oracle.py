"""apply on a BlockPerm pinned to the string-table path it replaced.

The library reads the window [0, m) as one packed field, looks its image up
in a table of packed ints and writes the image back.  The oracle reads the
window as a digit string, looks it up in the string table and adds the
difference as a config.  They must give equal configs, and raise equal
DomainErrors, for configs below, inside, above and far from the window,
and next to the MAX_LAMP_BITS budget.
"""

import itertools
import random

import pytest

from lampgeo import DomainError, LampConfig
from lampgeo.base_groups import MAX_LAMP_BITS, digit_shift
from lampgeo.maps import BlockPerm, apply


def _string_apply(bp, x):
    # oracle: the window as a string, its image from the string table, and
    # t - s added on the window, where x reads s
    s = "".join(str(x.value_at(i)) for i in range(bp.m))
    t = dict(bp.table).get(s, s)
    if t == s:
        return x
    return x + LampConfig.of(x.n, [(i, int(b) - int(a)) for i, (a, b) in enumerate(zip(s, t))])


def _outcome(f, bp, x):
    try:
        return f(bp, x)
    except DomainError as e:
        return "DomainError", str(e)


def _tables(rng, n, m):
    strings = ["".join(map(str, w)) for w in itertools.product(range(n), repeat=m)]
    zero = "0" * m
    out = []
    for _ in range(4):
        images = strings[:]
        rng.shuffle(images)
        out.append(BlockPerm.from_pairs(m, zip(strings, images), n=n))
    # the zero window moved, so configs far from the window are rewritten
    # there, and an identity pair listed in the table
    other = strings[-1]
    out.append(BlockPerm.from_pairs(m, [(zero, other), (other, zero)], n=n))
    out.append(BlockPerm(m, ((zero, zero),), n))
    return out


def _configs(rng, n, m):
    top = (MAX_LAMP_BITS >> digit_shift(n)) - 1

    def cfg(lo, hi, count):
        return LampConfig.of(n, {rng.randint(lo, hi): rng.randint(1, n - 1) for _ in range(count)})

    out = [LampConfig.zero(n)]
    for _ in range(12):
        out.append(cfg(-6, -1, rng.randint(1, 3)))                        # below the window
        out.append(cfg(-5, m + 4, rng.randint(1, 5)))                     # across it
        out.append(cfg(0, m - 1, rng.randint(1, m)))                      # inside it
        out.append(cfg(m, m + 6, rng.randint(1, 3)))                      # above it
        out.append(cfg(m, m + 3, 2) + cfg(-3, m - 1, 2))
    for far in (10 ** 6, -10 ** 6):
        out.append(cfg(far, far + 5, 3))
        out.append(cfg(far - 5, far, 2))
    for k in range(-3, 4):
        # next to the budget, on either side of the window
        out.append(LampConfig.of(n, {top + k: 1}))
        out.append(LampConfig.of(n, {k - top: 1}))
    for k in range(4):
        # and touching it, with one end inside
        out.append(LampConfig.of(n, {k - top + m - 1: 1, m - 1: 1}))
        out.append(LampConfig.of(n, {0: 1, top - k: 1}))
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_packed_apply_equals_string_apply(n, m):
    rng = random.Random(1000 * n + m)
    refused = moved = 0
    for bp in _tables(rng, n, m):
        for x in _configs(rng, n, m):
            want = _outcome(_string_apply, bp, x)
            assert _outcome(apply, bp, x) == want, (bp, x)
            refused += isinstance(want, tuple)
            moved += not isinstance(want, tuple) and want != x
    # both branches of the comparison ran
    assert refused and moved


@pytest.mark.parametrize("n", [2, 3, 5])
def test_far_configs_keep_an_unmoved_zero_window(n):
    # a config wholly outside [0, m) reads the zero window; when the table
    # leaves it alone, no alignment to index 0 may refuse the config
    bp = BlockPerm.from_pairs(2, [("01", "10"), ("10", "01")], n=n)
    for far in (10 ** 6, -10 ** 6, 10 ** 15, -10 ** 15):
        x = LampConfig.of(n, {far: 1, far + 1: n - 1})
        assert apply(bp, x) is x
