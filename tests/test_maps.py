import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import lampgeo as lg
from lampgeo import DomainError, LampConfig, maps
from lampgeo.base_groups import diff_span, digit_shift, digits_at
from lampgeo.maps import (
    BlockPerm,
    Compose,
    Inversion,
    Shift,
    Translate,
    _mod2_deviations,
    apply,
    is_identity_ball_map,
    map_is_bijective,
    window_configs,
)

L = LampConfig.of
PI0 = BlockPerm.from_pairs(3, [("100", "111"), ("111", "100")])


# ---------------------------------------------------------------------------
# the map algebra
# ---------------------------------------------------------------------------

def test_apply_blockperm_examples():
    assert apply(PI0, L(2, {0: 1})) == L(2, {0: 1, 1: 1, 2: 1})
    assert apply(PI0, L(2, {5: 1})) == L(2, {5: 1})
    assert apply(PI0, L(2, {0: 1, 1: 1, 2: 1})) == L(2, {0: 1})
    assert apply(PI0, L(2, {0: 1, 2: 1})) == L(2, {0: 1, 2: 1})


def test_apply_shift_translate_invert():
    assert apply(Shift(2), L(2, {0: 1, 3: 1})) == L(2, {-2: 1, 1: 1})
    assert apply(Shift(-1), L(2, {0: 1})) == L(2, {1: 1})
    assert apply(Translate(L(2, {0: 1})), L(2, {0: 1, 3: 1})) == L(2, {3: 1})
    assert apply(Inversion(), L(2, {-1: 1, 2: 1})) == L(2, {1: 1, -2: 1})


def test_apply_modulus_checks():
    with pytest.raises(DomainError):
        apply(PI0, L(3, {0: 1}))
    with pytest.raises(DomainError):
        Compose((Translate(L(2, {0: 1})), Translate(L(3, {0: 1}))))


def test_compose_applies_right_to_left():
    f = Compose((Shift(1), Translate(L(2, {0: 1}))))
    x = L(2, {2: 1})
    assert apply(f, x) == apply(Shift(1), apply(Translate(L(2, {0: 1})), x))
    for x in window_configs(2, (0, 3)):
        g = Compose((PI0, Shift(1)))
        assert apply(g, x) == apply(PI0, apply(Shift(1), x))


def test_blockperm_table_validation():
    with pytest.raises(DomainError):
        BlockPerm(3, (("10", "111"),))
    with pytest.raises(DomainError):
        BlockPerm(3, (("100", "111"), ("100", "110")))
    with pytest.raises(DomainError):
        BlockPerm(3, (("100", "121"),))  # digit out of alphabet
    assert not BlockPerm.from_pairs(3, [("100", "111")]).is_table_bijection()
    assert PI0.is_table_bijection()
    assert map_is_bijective(PI0)
    assert not map_is_bijective(BlockPerm.from_pairs(3, [("100", "111")]))


# ---------------------------------------------------------------------------
# biLipschitz constants
# ---------------------------------------------------------------------------

def test_bilip_pi0():
    rep = lg.bilip_constants(PI0, 3)
    assert rep.K_lower == 2 and rep.K_upper == 4
    assert rep.exhaustive and rep.window == (-3, 6)
    assert rep.K == 4
    assert rep.K_upper <= 8 and rep.K_lower <= 8


def test_bilip_identity():
    rep = lg.bilip_constants(BlockPerm.from_pairs(3, []), 3)
    assert rep.K_lower == 1 and rep.K_upper == 1


def test_bilip_du_ratio_realized():
    p, q = L(2, {0: 1}), L(2, {})
    ratio = lg.lamp_du(apply(PI0, p), apply(PI0, q)) / lg.lamp_du(p, q)
    assert ratio == 4  # the pair realizing K_upper


def test_bilip_padding_stability():
    base = lg.bilip_constants(PI0, 3)
    for padding in (4, 5):
        rep = lg.bilip_constants(PI0, padding)
        assert (rep.K_lower, rep.K_upper) == (base.K_lower, base.K_upper)


def _bilip_pair_scan(bp, padding):
    # reference: plain pair loop over LampConfig objects, any modulus
    window = (-padding, bp.m + padding)
    configs = window_configs(bp.n, window)
    images = {x: apply(bp, x) for x in configs}
    k_lower = k_upper = Fraction(1)
    for p, q in itertools.combinations(configs, 2):
        ip, iq = images[p], images[q]
        if ip == iq:
            raise DomainError("map is not injective on the window; biLipschitz constants undefined")
        rl = lg.lamp_dl(ip, iq) / lg.lamp_dl(p, q)
        ru = lg.lamp_du(ip, iq) / lg.lamp_du(p, q)
        k_lower = max(k_lower, rl, 1 / rl)
        k_upper = max(k_upper, ru, 1 / ru)
    return k_lower, k_upper


@pytest.mark.parametrize("m,padding", [(1, 2), (2, 2)])
def test_bilip_packed_equals_pair_scan(m, padding):
    strings = [format(i, f"0{m}b") for i in range(1 << m)]
    for perm in itertools.permutations(range(1 << m)):
        bp = BlockPerm.from_pairs(m, [(strings[i], strings[p]) for i, p in enumerate(perm)])
        rep = lg.bilip_constants(bp, padding)
        assert (rep.K_lower, rep.K_upper) == _bilip_pair_scan(bp, padding)
        assert rep.K <= 2 ** m


def test_bilip_pi0_packed_equals_pair_scan():
    rep = lg.bilip_constants(PI0, 3)
    assert (rep.K_lower, rep.K_upper) == _bilip_pair_scan(PI0, 3)


@pytest.mark.parametrize("n,m,paddings", [(3, 1, (0, 1, 2)), (3, 2, (0, 1)), (4, 1, (0, 1)),
                                          (4, 2, (0, 1)), (5, 1, (0, 1)), (5, 3, (0,))])
def test_bilip_pair_fields_match_pair_scan(n, m, paddings):
    # the n != 2 constants on packed pairs against the object loop, on
    # windows of at most 256 configurations
    rng = random.Random(100 * n + m)
    for padding in paddings:
        bp = _random_block_perm(rng, m, n)
        rep = lg.bilip_constants(bp, padding)
        assert (rep.K_lower, rep.K_upper) == _bilip_pair_scan(bp, padding), (bp, padding)
        assert rep.window == (-padding, m + padding) and rep.exhaustive == (padding >= m)


def test_bilip_double_padding_stability():
    # padding m suffices: constants do not move when the window doubles
    strings = [format(i, "02b") for i in range(4)]
    for perm in itertools.permutations(range(4)):
        bp = BlockPerm.from_pairs(2, [(strings[i], strings[p]) for i, p in enumerate(perm)])
        at_m = lg.bilip_constants(bp, 2)
        at_2m = lg.bilip_constants(bp, 4)
        assert (at_m.K_lower, at_m.K_upper) == (at_2m.K_lower, at_2m.K_upper)


def test_bilip_m4_sampled():
    rng = random.Random(17)
    strings = [format(i, "04b") for i in range(16)]
    for _ in range(12):
        perm = list(range(16))
        rng.shuffle(perm)
        bp = BlockPerm.from_pairs(4, [(strings[i], strings[p]) for i, p in enumerate(perm)])
        rep = lg.bilip_constants(bp, 4)
        assert rep.K_lower <= 16 and rep.K_upper <= 16


def _pair_loop_deviations(img, width):
    # every distinct pair, one at a time: max |first-disagreement| and
    # |last-disagreement| index deviations between sources and images
    max_fd = max_ld = 0
    for x, y in itertools.combinations(range(1 << width), 2):
        d, di = x ^ y, int(img[x]) ^ int(img[y])
        assert di, "image table is not injective"
        max_fd = max(max_fd, abs(((d & -d).bit_length() - 1) - ((di & -di).bit_length() - 1)))
        max_ld = max(max_ld, abs(d.bit_length() - di.bit_length()))
    return max_fd, max_ld


@pytest.mark.parametrize("width", range(2, 11))
def test_mod2_deviations_matches_pair_loop(width):
    # an arbitrary bijection of all 2^width configs, not only block permutations
    img = np.random.default_rng(width).permutation(1 << width).astype(np.uint32)
    assert _mod2_deviations(img, width) == _pair_loop_deviations(img, width)


@pytest.mark.parametrize("width, x, y", [(2, 0, 1), (3, 1, 6), (6, 5, 63), (9, 0, 511)])
def test_mod2_deviations_rejects_non_injective_table(width, x, y):
    img = np.arange(1 << width, dtype=np.uint32)
    img[y] = img[x]
    with pytest.raises(DomainError, match="not injective"):
        _mod2_deviations(img, width)


def test_bilip_row_chunks_match_unchunked_window():
    # padding 5 gives width 13, where the top-bit groups split into row
    # chunks; padding m = 3 already realizes the constants
    rng = random.Random(29)
    strings = [format(i, "03b") for i in range(8)]
    for _ in range(4):
        perm = list(range(8))
        rng.shuffle(perm)
        bp = BlockPerm.from_pairs(3, [(strings[i], strings[p]) for i, p in enumerate(perm)])
        wide, narrow = lg.bilip_constants(bp, 5), lg.bilip_constants(bp, 3)
        assert (wide.K_lower, wide.K_upper) == (narrow.K_lower, narrow.K_upper)


def test_bilip_scan_keeps_no_pair_arrays():
    rng = random.Random(31)
    strings = [format(i, "04b") for i in range(16)]
    perm = list(range(16))
    rng.shuffle(perm)
    bp = BlockPerm.from_pairs(4, [(strings[i], strings[p]) for i, p in enumerate(perm)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lg.bilip_constants(bp, 4)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 1 << 20
    assert peak < 64 << 20


def test_scan_pair_budget_boundary():
    # 2^10 configurations (about 2^19 pairs) pass, one more index does not
    from lampgeo.maps import MAX_PACKED_WIDTH, _check_scan_pairs
    _check_scan_pairs(2, (0, 10))
    _check_scan_pairs(4, (-2, 3))
    for n, window in ((2, (0, 11)), (3, (0, 7)), (2, (0, 10 ** 9))):
        with pytest.raises(DomainError, match="configuration pairs"):
            _check_scan_pairs(n, window)
    assert MAX_PACKED_WIDTH >= 13  # test_bilip_row_chunks_match_unchunked_window's width
    with pytest.raises(DomainError, match="width"):
        lg.bilip_constants(PI0, (MAX_PACKED_WIDTH - 1) // 2)


def test_bilip_rejects_non_bijection():
    with pytest.raises(DomainError):
        lg.bilip_constants(BlockPerm.from_pairs(3, [("100", "111")]), 3)


def test_bilip_n3():
    bp = BlockPerm.from_pairs(1, [("1", "2"), ("2", "1")], n=3)
    rep = lg.bilip_constants(bp, 1)
    assert rep.K_lower <= 3 and rep.K_upper <= 3


def test_blockperm_isometry_off_window():
    # pairs agreeing on the block are moved rigidly: ratios stay 1
    for p, q in itertools.combinations(window_configs(2, (3, 6)), 2):
        ip, iq = apply(PI0, p), apply(PI0, q)
        assert lg.lamp_dl(ip, iq) == lg.lamp_dl(p, q)
        assert lg.lamp_du(ip, iq) == lg.lamp_du(p, q)


# ---------------------------------------------------------------------------
# parallelogram preservation and affine structure
# ---------------------------------------------------------------------------

def test_ppq_pi0_witness():
    witness = lg.parallelogram_preserving(PI0, (0, 3))
    a, v, w = witness
    assert a == L(2, {})
    assert {v, w} == {L(2, {0: 1}), L(2, {2: 1})}
    lhs = apply(PI0, a + v) + apply(PI0, a + w)
    rhs = apply(PI0, a + v + w) + apply(PI0, a)
    assert lhs == L(2, {0: 1, 1: 1})  # psi(100) + psi(001) = 110
    assert rhs == L(2, {0: 1, 2: 1})  # psi(101) = 101
    assert lhs != rhs


def test_ppq_affine_maps_pass():
    assert lg.parallelogram_preserving(Translate(L(2, {1: 1})), (0, 3)) is True
    assert lg.parallelogram_preserving(Shift(1), (0, 3)) is True
    assert lg.parallelogram_preserving(Inversion(), (-1, 2)) is True


def test_ppq_implies_corner_preservation():
    m = Compose((Shift(1), Translate(L(2, {0: 1}))))
    assert lg.parallelogram_preserving(m, (0, 3)) is True
    cfgs = window_configs(2, (0, 3))
    rng = random.Random(3)
    for _ in range(50):
        a, v, w = (rng.choice(cfgs) for _ in range(3))
        assert apply(m, a + v + w) + apply(m, a) == apply(m, a + v) + apply(m, a + w)


def _parallelogram_triple_loop(m, window, n):
    # reference: every triple (a, v, w) in lexicographic order
    configs = window_configs(n, window)
    images = {x: apply(m, x) for x in configs}
    for a in configs:
        for v in configs:
            av = a + v
            for w in configs:
                lhs = images[av + w] + images[a]
                rhs = images[av] + images[a + w]
                if lhs != rhs:
                    return (a, v, w)
    return True


def _generalized_affine_reference(m, window, up_to_inversion, preserving, n):
    # reference: the parallelogram verdict first, then the shift search over
    # every j that moves the window onto the support of the images less psi(0)
    if preserving is not True:
        return False
    lo, hi = window
    configs = window_configs(n, window)

    def strict(f):
        zero_img = apply(f, configs[0])
        support = {i for x in configs for i in (apply(f, x) - zero_img).support()}
        js = range(lo - max(support), hi - min(support)) if support else range(0)
        return any(all(apply(f, x) == apply(Shift(j), x) + zero_img for x in configs) for j in js)

    if strict(m):
        return True
    return up_to_inversion and (strict(Compose((m, Inversion())))
                                or strict(Compose((Inversion(), m))))


def _ppq_cases():
    # (map, window, n); the shifts and the inversion have no modulus, so
    # they are scanned over Z_n for the n they are listed with
    rng = random.Random(71)
    cases = []
    for n, windows, perm_lengths in ((2, [(0, 3), (-1, 2), (1, 4), (-2, 2)], (1, 2, 3)),
                                     (3, [(0, 2), (-1, 1), (-1, 2)], (1, 2))):
        c = L(n, {0: 1, 1: n - 1})
        maps = [Shift(-1), Shift(0), Shift(2), Shift(5), Shift(-6), Inversion(), Translate(c),
                Compose((Shift(1), Translate(c))), Compose((Inversion(), Shift(1))),
                Compose((Translate(c), Inversion())), Compose((Shift(7), Inversion()))]
        for m in perm_lengths:
            for _ in range(2):
                bp = _random_block_perm(rng, m, n)
                maps += [bp, Compose((Inversion(), bp)), Compose((bp, Shift(1)))]
        if n == 2:
            maps.append(PI0)
        cases += [(m, w, n) for m in maps for w in windows]
    return cases


def test_ppq_matches_triple_loop_and_affine_reference():
    # the a = 0 scan gives the triple loop's verdict and first witness, and
    # trying the strict factorization before the scan changes no verdict
    outcomes = set()
    for m, window, n in _ppq_cases():
        want = _parallelogram_triple_loop(m, window, n)
        assert lg.parallelogram_preserving(m, window, n) == want, (m, window, n)
        outcomes.add(want is True)
        for inv in (False, True):
            assert (lg.is_generalized_affine(m, window, inv, n)
                    == _generalized_affine_reference(m, window, inv, want, n)), (m, window, inv, n)
    assert outcomes == {True, False}


def test_is_generalized_affine():
    assert lg.is_generalized_affine(Compose((Shift(1), Translate(L(2, {0: 1})))), (0, 3))
    assert not lg.is_generalized_affine(PI0, (0, 3))
    assert not lg.is_generalized_affine(Inversion(), (0, 3))
    assert lg.is_generalized_affine(Inversion(), (0, 3), up_to_inversion=True)
    assert lg.is_generalized_affine(Shift(2), (0, 4))
    assert lg.is_generalized_affine(Translate(L(2, {1: 1})), (0, 3))


@pytest.mark.parametrize("j", [4, -4, 10, 100000])
def test_is_generalized_affine_shift_past_window_width(j):
    # the shift is read off one image, so a shift of more than the window's
    # width is found like any other
    assert lg.is_generalized_affine(Shift(j), (0, 3))
    assert lg.is_generalized_affine(Compose((Translate(L(3, {-j: 2})), Shift(j))), (-1, 2))
    assert not lg.is_generalized_affine(Compose((PI0, Shift(j))), (j, j + 3))


def test_scan_modulus_comes_from_the_caller(monkeypatch):
    # a map without a modulus is scanned over Z_n for the n passed in
    calls = []
    real = maps.window_configs
    monkeypatch.setattr(maps, "window_configs", lambda n, window: calls.append(n) or real(n, window))
    assert lg.parallelogram_preserving(Shift(1), (0, 2), 3) is True
    assert lg.is_generalized_affine(Inversion(), (0, 2), True, 3)
    assert calls and set(calls) == {3}
    with pytest.raises(DomainError, match="configuration pairs"):
        lg.parallelogram_preserving(Shift(1), (0, 7), 3)
    assert lg.parallelogram_preserving(Shift(1), (0, 7)) is True
    for bad in (1, -3):
        with pytest.raises(DomainError, match="modulus"):
            lg.is_generalized_affine(Shift(1), (0, 3), n=bad)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_every_window_scan_refuses_a_modulus_below_2(n):
    # window_configs is the gate of every scan: n < 2 is refused before a
    # config is listed, and no scan reads n = 0 as 2
    for window in ((0, 2), (0, 3)):
        with pytest.raises(DomainError, match="modulus must be >= 2"):
            window_configs(n, window)
    with pytest.raises(DomainError, match="modulus must be >= 2"):
        lg.parallelogram_preserving(Shift(1), (0, 3), n)
    with pytest.raises(DomainError, match="modulus must be >= 2"):
        lg.qi_distortion(lg.induced_vertex_map(Shift(1)), 2, n=n)


def test_window_configs_refuses_past_the_pair_budget():
    # 2^10 configurations (about 2^19 pairs) pass and 2^11 do not; a window
    # of width 0 holds the zero config alone
    assert len(window_configs(2, (0, 10))) == 1 << 10
    for n, window in ((2, (0, 11)), (3, (-3, 4)), (2, (0, 10 ** 9))):
        with pytest.raises(DomainError, match="configuration pairs"):
            window_configs(n, window)
    with pytest.raises(DomainError, match="empty window"):
        window_configs(2, (3, 2))
    assert window_configs(3, (5, 5)) == [L(3, {})]


def _delta_pair_loop(bp, window):
    # reference: the object loop, lamp_delta on every pair and Fraction
    # ratios, keeping the first pair at each extreme in combinations order
    configs = window_configs(bp.n, window)
    images = {x: apply(bp, x) for x in configs}
    best = worst = None
    for p, q in itertools.combinations(configs, 2):
        dimg = lg.lamp_delta(images[p], images[q])[0]
        assert dimg != 0
        ratio = Fraction(dimg, lg.lamp_delta(p, q)[0])
        if best is None or ratio > best[0]:
            best = (ratio, (p, q))
        if worst is None or ratio < worst[0]:
            worst = (ratio, (p, q))
    return best, worst


@pytest.mark.parametrize("m,n,windows,count,seed", [
    (3, 2, [(0, 3), (-3, 6), (-2, 2), (1, 5), (4, 9), (-5, -1)], 6, 81),
    (2, 2, [(0, 2), (-2, 4), (1, 6), (3, 7)], 4, 82),
    (1, 3, [(0, 1), (-2, 3), (0, 4), (1, 5), (-4, 0)], 4, 83),
])
def test_delta_distortion_random_block_perms_match_pair_loop(m, n, windows, count, seed):
    # windows that cover, straddle and miss the block [0, m)
    rng = random.Random(seed)
    for _ in range(count):
        bp = _random_block_perm(rng, m, n)
        for window in windows:
            rep = lg.delta_distortion(bp, window)
            best, worst = _delta_pair_loop(bp, window)
            assert (rep.max_ratio, rep.max_pair, rep.min_ratio, rep.min_pair) == (*best, *worst), \
                (bp, window)


def test_delta_distortion_pi0():
    rep = lg.delta_distortion(PI0, (-3, 6))
    assert rep.K == 4
    assert Fraction(1, 16) <= rep.min_ratio <= rep.max_ratio <= 16
    assert rep.min_ratio == Fraction(1, 4) and rep.max_ratio == 4


def test_delta_distortion_identity():
    rep = lg.delta_distortion(BlockPerm.from_pairs(3, []), (0, 3))
    assert rep.min_ratio == 1 and rep.max_ratio == 1


def test_delta_distortion_takes_k_from_the_block_pairs():
    # a pair's first (last) disagreement moves only when the pair agrees below
    # (above) the block, and then by its two block words alone, so padding 0
    # gives the constants of every padding; delta_distortion reads K there,
    # and so answers n = 4, m = 2 and n = 3, m = 3, whose padding-m windows
    # pass MAX_SCAN_PAIRS
    rng = random.Random("padding-0")
    for n, m, paddings in [(2, 1, (1, 2)), (2, 2, (1, 2)), (2, 3, (1, 3)), (2, 4, (2, 4)), (3, 1, (1, 2)),
                           (3, 2, (1, 2)), (4, 1, (1, 2)), (4, 2, (1,)), (5, 1, (1,))]:
        for _ in range(4):
            bp = _random_block_perm(rng, m, n)
            at_0 = lg.bilip_constants(bp, 0)
            for padding in paddings:
                rep = lg.bilip_constants(bp, padding)
                assert (rep.K_lower, rep.K_upper) == (at_0.K_lower, at_0.K_upper), (bp, padding)
    for n, m in [(4, 2), (3, 3)]:
        bp = _random_block_perm(rng, m, n)
        assert lg.delta_distortion(bp, (0, 2)).K == lg.bilip_constants(bp, 0).K


# ---------------------------------------------------------------------------
# induced vertex maps
# ---------------------------------------------------------------------------

def test_vertex_map_pattern_preserving_exactly():
    vm = lg.induced_vertex_map(PI0)
    for v in lg.ball(lg.identity_vertex(2), 3):
        image = vm(v)
        assert image.cursor == v.cursor
        assert lg.coset_of(image) == apply(PI0, lg.coset_of(v))


def test_induced_vertex_map_requires_bijection():
    with pytest.raises(DomainError):
        lg.induced_vertex_map(BlockPerm.from_pairs(3, [("100", "111")]))


def test_qi_distortion_values():
    assert lg.qi_distortion(lg.induced_vertex_map(Shift(0)), 3) == 0
    assert lg.qi_distortion(lg.induced_vertex_map(Translate(L(2, {0: 1}))), 4) == 0
    vm = lg.induced_vertex_map(PI0)
    values = [lg.qi_distortion(vm, r) for r in (2, 3, 4, 5)]
    assert values == sorted(values)  # non-decreasing in the radius
    assert values[-1] == values[-2]  # stabilized by m + 2


def _qi_distortion_pair_loop(vm, radius, n):
    verts = lg.ball(lg.identity_vertex(n), radius)
    pairs = itertools.combinations([(v, vm(v)) for v in verts], 2)
    return max((abs(lg.dl_distance(fu, fv) - lg.dl_distance(u, v))
                for (u, fu), (v, fv) in pairs), default=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qi_distortion_matches_dl_distance_pair_loop(n):
    maps = [Shift(1), Shift(-2), Inversion(), Translate(L(n, {0: 1, 2: n - 1})),
            Compose((Shift(1), Translate(L(n, {-1: 1})))),
            BlockPerm.from_pairs(2, [("10", "01"), ("01", "10")], n=n),
            BlockPerm.from_pairs(1, [(str(i), str((i + 1) % n)) for i in range(n)], n=n),
            BlockPerm.from_pairs(3, [("100", f"1{n - 1}1"), (f"1{n - 1}1", "100")], n=n)]
    for m in maps:
        vm = lg.induced_vertex_map(m)
        for r in range(4):
            assert lg.qi_distortion(vm, r, n=n) == _qi_distortion_pair_loop(vm, r, n)


def test_qi_distortion_pi0_matches_pair_loop():
    vm = lg.induced_vertex_map(PI0)
    for r in (4, 6):
        assert lg.qi_distortion(vm, r) == _qi_distortion_pair_loop(vm, r, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_qi_distortion_of_images_below_the_kernel_origin_matches_pair_loop(n):
    # the fibre scan reads its fibres off the BFS kernel's keys, packed at
    # the kernel's origin, below every index of the ball, and aligns both
    # sides at their lowest low: Shift(3) and Shift(3) after Inversion reach
    # below the origin at every radius, Shift(2) after Inversion reaches it
    maps = [Shift(3), Compose((Shift(2), Inversion())), Compose((Shift(3), Inversion()))]
    below = 0
    for m in maps:
        vm = lg.induced_vertex_map(m)
        for r in (2, 3):
            origin = lg.dl_graph._ball_keys(lg.identity_vertex(n), r).origin
            lows = [apply(m, v.config).low for v in lg.ball(lg.identity_vertex(n), r) if v.config.digits]
            below += min(lows) < origin
            assert lg.qi_distortion(vm, r, n=n) == _qi_distortion_pair_loop(vm, r, n), (m, r)
    assert below == 4


def _random_block_perm(rng, m, n):
    strings = ["".join(map(str, t)) for t in itertools.product(range(n), repeat=m)]
    images = rng.sample(strings, len(strings))
    return BlockPerm.from_pairs(m, zip(strings, images), n=n)


@pytest.mark.parametrize("m,n,radius,count,seed", [(3, 2, 5, 6, 61), (2, 3, 3, 4, 62),
                                                   (2, 3, 4, 2, 63), (3, 3, 3, 2, 64),
                                                   (2, 4, 3, 3, 65)])
def test_qi_distortion_random_block_perms_match_pair_loop(m, n, radius, count, seed):
    # the fibre scan skips fibre pairs and memoizes per disagreement key,
    # comparing digit fields (for n > 2 a field is wider than one bit);
    # the plain dl_distance loop over every vertex pair does neither
    rng = random.Random(seed)
    for _ in range(count):
        vm = lg.induced_vertex_map(_random_block_perm(rng, m, n))
        assert lg.qi_distortion(vm, radius, n=n) == _qi_distortion_pair_loop(vm, radius, n)


@pytest.mark.parametrize("n", [2, 3])
def test_qi_distortion_of_a_non_injective_map_matches_pair_loop(n):
    # a VertexMap built directly may merge fibres; their images then agree,
    # and the image distance of such a pair is |k_u - k_v|
    bp = BlockPerm.from_pairs(2, [("10", "00"), ("01", "10")], n=n)
    vm = lg.VertexMap(bp)
    for r in range(4):
        assert lg.qi_distortion(vm, r, n=n) == _qi_distortion_pair_loop(vm, r, n)


@pytest.mark.parametrize("j,radius", [(2, 3), (3, 3), (3, 4), (4, 4)])
def test_qi_distortion_edge_transposition_matches_pair_loop(j, radius):
    # moves only configurations whose window [-j, 6-j) holds {1-j} or
    # {-j, 1-j}, near the edge of the ball: fibre pairs with the same
    # disagreement extremes then meet the ball in different cursor ranges
    # and have different deviations
    bp = BlockPerm.from_pairs(6, [("110000", "010000"), ("010000", "110000")])
    vm = lg.induced_vertex_map(Compose((Shift(j), bp, Shift(-j))))
    assert lg.qi_distortion(vm, radius) == _qi_distortion_pair_loop(vm, radius, 2)


def test_mask_distance_agrees_with_closed_form():
    # the reading qi_distortion makes of two packed configs aligned at one
    # common low by digits_at: the first and last field of their XOR are
    # diff_span's, and with L the first, H the last + 1 and m <= M the
    # cursors, the distance is 2 * (max(M, H) - min(m, L)) - (M - m)
    rng = random.Random(23)
    for n, radius in ((2, 4), (3, 3), (4, 3)):
        verts = sorted(lg.ball(lg.identity_vertex(n), radius),
                       key=lambda v: (v.cursor, v.config.entries))
        shift = digit_shift(n)
        low = min(v.config.low for v in verts if v.config.digits)
        for _ in range(300):
            u, v = rng.choice(verts), rng.choice(verts)
            d = digits_at(u.config, low) ^ digits_at(v.config, low)
            span = diff_span(u.config, v.config)
            m, big = sorted((u.cursor, v.cursor))
            if d:
                lo = low + (((d & -d).bit_length() - 1) >> shift)
                hi = low + ((d.bit_length() - 1) >> shift) + 1
                assert span == (lo, hi - 1)
                fast = 2 * (max(big, hi) - min(m, lo)) - (big - m)
            else:
                assert span is None
                fast = big - m
            assert fast == lg.dl_distance(u, v)


# ---------------------------------------------------------------------------
# isometry search
# ---------------------------------------------------------------------------

def test_isometry_search_small_radii_identity():
    # radius 8 (2016 vertices) is deeper than the interpreter's recursion limit
    for radius in range(2, 9):
        res = lg.isometry_search(radius)
        assert len(res) == 1 and is_identity_ball_map(res[0])


def test_isometry_search_without_pattern_finds_more():
    res = lg.isometry_search(3, pattern_preserving=False)
    assert len(res) > 1
    assert sum(1 for m in res if is_identity_ball_map(m)) == 1
    # every survivor is a genuine partial automorphism of the inner ball
    verts = set()
    for m in res:
        verts = set(m)
        for u in verts:
            for w in lg.neighbors(u):
                if w in verts:
                    assert lg.dl_distance(m[u], m[w]) == 1


def test_isometry_search_max_results():
    res = lg.isometry_search(3, pattern_preserving=False, max_results=2)
    assert len(res) == 2
    full = lg.isometry_search(3, pattern_preserving=False)
    assert all(m in full for m in res)
    assert lg.isometry_search(3, pattern_preserving=False, max_results=len(full) + 1) == full
    assert lg.isometry_search(3, pattern_preserving=False, max_results=0) == []


@pytest.mark.parametrize("radius, nodes", [(4, 92), (5, 208), (6, 452), (7, 964)])
def test_isometry_search_node_budget_is_exact(monkeypatch, radius, nodes):
    # the strict search assigns this many nodes, one per assignment tried
    monkeypatch.setattr(maps, "MAX_SEARCH_NODES", nodes)
    assert len(lg.isometry_search(radius)) == 1
    monkeypatch.setattr(maps, "MAX_SEARCH_NODES", nodes - 1)
    with pytest.raises(DomainError, match="MAX_SEARCH_NODES"):
        lg.isometry_search(radius)


def test_isometry_search_radius_validation():
    with pytest.raises(DomainError):
        lg.isometry_search(1)


@pytest.mark.parametrize("n,radius,counts", [
    (2, 2, [1, 1, 1, 4, 1, 1, 1, 4, 1, 1, 1, 4, 1, 1, 2, 8]),
    (2, 3, [1, 4, 1, 64, 1, 4, 1, 64, 1, 4, 1, 64, 1, 4, 2, 128]),
    (3, 2, [4, 4, 4, 36, 4, 4, 4, 36, 4, 4, 4, 36, 4, 4, 8, 72]),
])
def test_isometry_search_counts_under_every_constraint_combination(n, radius, counts):
    # flags in the order height, orientation, identity coset, pattern, each
    # True before False
    for flags, count in zip(itertools.product((True, False), repeat=4), counts):
        assert len(lg.isometry_search(radius, *flags, n=n)) == count, flags
