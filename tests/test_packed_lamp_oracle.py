"""The packed LampConfig core against the tuple code it replaced.

LampConfig holds one packed int of digit fields; lamp_add, lamp_neg,
diff_span, neighbors, dl_mul, dl_inv and dl_distance work on
those fields.  The oracles below are the earlier implementations on sorted
(index, value) tuples: the merge sum, the two-ended disagreement scan, the
tuple-splicing digit write and the tuple dl_distance.  The second half pins
the object contract the dataclasses used to give.
"""

import copy
import pickle
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lampgeo as lg
from lampgeo import DLVertex, DomainError, LampConfig
from lampgeo.base_groups import MAX_LAMP_BITS, diff_span, digit_shift, lamp_align, packed_lamp

MODULI = [2, 3, 4, 5, 10]


# ---------------------------------------------------------------------------
# tuple oracles
# ---------------------------------------------------------------------------

def merge_add(ap, aq, n):
    out = []
    i = j = 0
    while i < len(ap) and j < len(aq):
        ip, vp = ap[i]
        iq, vq = aq[j]
        if ip < iq:
            out.append((ip, vp))
            i += 1
        elif iq < ip:
            out.append((iq, vq))
            j += 1
        else:
            v = (vp + vq) % n
            if v:
                out.append((ip, v))
            i += 1
            j += 1
    out.extend(ap[i:])
    out.extend(aq[j:])
    return tuple(out)


def tuple_neg(ap, n):
    return tuple((i, n - v) for i, v in ap)


def disagreement(ap, aq):
    i, la, lb = 0, len(ap), len(aq)
    while i < la and i < lb and ap[i] == aq[i]:
        i += 1
    if i == la == lb:
        return None
    first = min(ap[i][0] if i < la else aq[i][0], aq[i][0] if i < lb else ap[i][0])
    i, j = la - 1, lb - 1
    while i >= 0 and j >= 0 and ap[i] == aq[j]:
        i -= 1
        j -= 1
    last = max(ap[i][0] if i >= 0 else aq[j][0], aq[j][0] if j >= 0 else ap[i][0])
    return first, last


def write_digit(entries, index, s, n):
    pos = bisect_left(entries, (index, 0))
    if pos < len(entries) and entries[pos][0] == index:
        v = (entries[pos][1] + s) % n
        return entries[:pos] + (((index, v),) if v else ()) + entries[pos + 1:]
    return entries[:pos] + ((index, s),) + entries[pos:]


def tuple_dl_distance(ku, au, kv, av):
    span = disagreement(au, av)
    c = min(ku, kv) if span is None else min(ku, kv, span[0])
    cp = max(ku, kv) if span is None else max(ku, kv, span[1] + 1)
    return (ku - c) + (kv - c) + (cp - ku) + (cp - kv) - abs(ku - kv)


def shifted(entries, offset):
    return tuple((i + offset, v) for i, v in entries)


def assert_canonical(cfg):
    # every result is the config its own entries build, hash included
    again = LampConfig(cfg.n, cfg.entries)
    assert again == cfg and hash(again) == hash(cfg)


# ---------------------------------------------------------------------------
# strategies: negative indices, and second operands that cancel the first
# wholly or in part
# ---------------------------------------------------------------------------

@st.composite
def config_pair(draw):
    n = draw(st.sampled_from(MODULI))
    configs = st.dictionaries(st.integers(-12, 12), st.integers(1, n - 1), max_size=7)
    p = LampConfig.of(n, draw(configs))
    how = draw(st.sampled_from(["random", "negation", "partial", "equal"]))
    if how == "random":
        q = LampConfig.of(n, draw(configs))
    elif how == "negation":
        q = LampConfig(n, tuple_neg(p.entries, n))
    elif how == "partial":
        keep = draw(st.lists(st.booleans(), min_size=len(p.entries), max_size=len(p.entries)))
        extra = draw(configs)
        q = LampConfig.of(n, [(i, n - v) for (i, v), k in zip(p.entries, keep) if k]
                          + list(extra.items()))
    else:
        q = p
    return p, q


cursors = st.integers(-6, 6)


@given(config_pair())
@settings(max_examples=400)
def test_lamp_add_neg_and_supp_gap_match_tuple_oracles(pq):
    p, q = pq
    n = p.n
    s = lg.lamp_add(p, q)
    assert s.entries == merge_add(p.entries, q.entries, n)
    assert_canonical(s)
    neg = lg.lamp_neg(p)
    assert neg.entries == tuple_neg(p.entries, n)
    assert_canonical(neg)
    span = disagreement(p.entries, q.entries)
    assert diff_span(p, q) == span
    assert lg.lamp_delta(p, q) == ((0, None) if span is None
                                   else (n ** (span[1] - span[0]), span[1] - span[0]))


@given(config_pair(), cursors, cursors)
@settings(max_examples=400)
def test_dl_graph_operations_match_tuple_oracles(pq, ku, kv):
    p, q = pq
    n = p.n
    u, v = DLVertex(p, ku), DLVertex(q, kv)
    assert lg.dl_distance(u, v) == tuple_dl_distance(ku, p.entries, kv, q.entries)

    expect = set()
    for s in range(n):
        up = p.entries if s == 0 else write_digit(p.entries, ku, s, n)
        down = p.entries if s == 0 else write_digit(p.entries, ku - 1, s, n)
        expect |= {DLVertex(LampConfig(n, up), ku + 1), DLVertex(LampConfig(n, down), ku - 1)}
    got = lg.neighbors(u)
    assert got == expect
    for w in got:
        assert_canonical(w.config)

    prod = lg.dl_mul(u, v)
    assert prod.cursor == ku + kv
    assert prod.config.entries == merge_add(p.entries, shifted(q.entries, ku), n)
    inv = lg.dl_inv(u)
    assert inv.cursor == -ku
    assert inv.config.entries == shifted(tuple_neg(p.entries, n), -ku)
    for cfg in (prod.config, inv.config):
        assert_canonical(cfg)


@given(config_pair())
@settings(max_examples=200)
def test_lamp_align_keeps_both_configs(pq):
    p, q = pq
    a, b, low = lamp_align(p, q)
    assert packed_lamp(p.n, a, low) == p and packed_lamp(q.n, b, low) == q
    lows = [cfg.low for cfg in (p, q) if not cfg.is_zero()]
    assert low == min(lows, default=0)


def aligned_span(p, q):
    # the earlier diff_span: the nonzero fields of the XOR of lamp_align's pair
    a, b, low = lamp_align(p, q)
    if not (d := a ^ b):
        return None
    shift = digit_shift(p.n)
    return low + (((d & -d).bit_length() - 1) >> shift), low + ((d.bit_length() - 1) >> shift)


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as e:
        return "DomainError", str(e)


@pytest.mark.parametrize("n", MODULI)
def test_diff_span_and_dl_distance_at_unequal_lows_and_zero_configs(n):
    zero = LampConfig.zero(n)
    configs = [zero, LampConfig.of(n, {-4: 1}), LampConfig.of(n, {-4: n - 1, 3: 1}),
               LampConfig.of(n, {2: 1, 9: n - 1}), LampConfig.of(n, {2: 1}), LampConfig.of(n, {30: 1})]
    for p in configs:
        for q in configs:
            span = disagreement(p.entries, q.entries)
            assert diff_span(p, q) == span == aligned_span(p, q)
            for ku in (-5, 0, 4, 40):
                for kv in (-1, 3, 11):
                    assert lg.dl_distance(DLVertex(p, ku), DLVertex(q, kv)) \
                        == tuple_dl_distance(ku, p.entries, kv, q.entries)


@pytest.mark.parametrize("n", [2, 3])
def test_diff_span_refuses_past_the_budget_as_before(n):
    top = (MAX_LAMP_BITS >> digit_shift(n)) - 1
    near, edge, beyond = (LampConfig.of(n, {i: 1}) for i in (0, top, top + 1))
    low = LampConfig.of(n, {-1: 1, 0: 1})
    assert diff_span(near, edge) == (0, top) == diff_span(edge, near)
    for p, q in ((near, beyond), (beyond, near), (low, edge), (edge, low)):
        got = _outcome(diff_span, p, q)
        assert got == _outcome(aligned_span, p, q)
        assert got == ("DomainError", f"a configuration spanning {top + 2} indices of "
                       f"{1 << digit_shift(n)} bits each is above the budget of "
                       f"MAX_LAMP_BITS = {MAX_LAMP_BITS} bits")
        assert _outcome(lg.dl_distance, DLVertex(p, 0), DLVertex(q, 0)) == got


@pytest.mark.parametrize("n", MODULI)
def test_value_at_and_support_match_entries(n):
    cfg = LampConfig.of(n, {-7: 1, -2: n - 1, 0: 1, 5: n - 1})
    for i in range(-9, 8):
        assert cfg.value_at(i) == dict(cfg.entries).get(i, 0)
    assert cfg.support() == (-7, -2, 0, 5)
    assert LampConfig.zero(n).support() == () and LampConfig.zero(n).is_zero()


# ---------------------------------------------------------------------------
# object contract
# ---------------------------------------------------------------------------

def test_reprs_keep_the_dataclass_form():
    cfg = LampConfig(3, ((-1, 2), (4, 1)))
    assert repr(cfg) == "LampConfig(n=3, entries=((-1, 2), (4, 1)))"
    assert repr(LampConfig.zero(2)) == "LampConfig(n=2, entries=())"
    assert repr(DLVertex(cfg, -2)) == \
        "DLVertex(config=LampConfig(n=3, entries=((-1, 2), (4, 1))), cursor=-2)"


def test_attribute_assignment_raises():
    cfg = LampConfig(2, ((0, 1),))
    v = DLVertex(cfg, 0)
    for obj, name in ((cfg, "n"), (cfg, "digits"), (cfg, "low"), (cfg, "entries"),
                      (cfg, "other"), (v, "config"), (v, "cursor"), (v, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    with pytest.raises(AttributeError):
        del cfg.n
    assert cfg == LampConfig(2, ((0, 1),)) and v.cursor == 0


@pytest.mark.parametrize("n", MODULI)
def test_every_construction_is_equal_and_hashes_equal(n):
    built = [
        LampConfig(n, ((-3, 1), (2, n - 1))),
        LampConfig.of(n, {-3: 1, 2: n - 1}),
        LampConfig.of(n, [(2, n - 1), (-3, 1), (7, 1), (7, n - 1)]),
        LampConfig.of(n, {-3: 1}) + LampConfig.of(n, {2: n - 1}),
        LampConfig.of(n, {-3: 1, 2: n - 1, 5: 1}) - LampConfig.of(n, {5: 1}),
        -(-LampConfig.of(n, {-3: 1, 2: n - 1})),
        lg.dl_mul(lg.identity_vertex(n), DLVertex(LampConfig.of(n, {-3: 1, 2: n - 1}), 0)).config,
    ]
    for cfg in built:
        assert cfg == built[0] and hash(cfg) == hash(built[0])
        assert DLVertex(cfg, 1) == DLVertex(built[0], 1)
        assert hash(DLVertex(cfg, 1)) == hash(DLVertex(built[0], 1))
    zeros = [LampConfig.zero(n), LampConfig(n), LampConfig.of(n, {4: 1, -4: 0}) - LampConfig.of(n, {4: 1}),
             lg.lamp_add(LampConfig.of(n, {-5: 1}), LampConfig.of(n, {-5: n - 1}))]
    for z in zeros:
        assert z == zeros[0] and hash(z) == hash(zeros[0]) and z.is_zero()
    assert len({*built, *zeros}) == 2
    assert LampConfig.of(n, {0: 1}) != LampConfig.of(n, {1: 1})
    assert LampConfig.of(2, {0: 1}) != LampConfig.of(3, {0: 1})
    assert DLVertex(built[0], 0) != DLVertex(built[0], 1)


def test_comparing_with_a_non_config_returns_not_implemented():
    cfg = LampConfig(2, ((0, 1),))
    v = DLVertex(cfg, 0)
    for obj in (cfg, v):
        for other in (None, 1, (2, ((0, 1),)), "0:1", cfg if obj is v else v):
            assert obj.__eq__(other) is NotImplemented
            assert obj != other
    with pytest.raises(TypeError):
        cfg < cfg  # noqa: B015 -- configs are not ordered


def test_copy_and_pickle_round_trip():
    v = DLVertex(LampConfig(5, ((-2, 4), (3, 1))), 2)
    for w in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert w == v and hash(w) == hash(v) and repr(w) == repr(v)


# ---------------------------------------------------------------------------
# the span budget: a packed int spends a field on every index between the
# lowest and the highest one, so no config or aligned pair has more than
# MAX_LAMP_BITS bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_a_config_spans_at_most_the_budget(n):
    top = (MAX_LAMP_BITS >> digit_shift(n)) - 1
    assert LampConfig(n, ((0, 1), (top, 1))).entries == ((0, 1), (top, 1))
    with pytest.raises(DomainError, match="MAX_LAMP_BITS"):
        LampConfig(n, ((0, 1), (top + 1, 1)))
    with pytest.raises(DomainError, match="MAX_LAMP_BITS"):
        LampConfig.of(n, {-10 ** 15: 1, 10 ** 15: 1})


@pytest.mark.parametrize("n", [2, 3])
def test_an_aligned_pair_spans_at_most_the_budget(n):
    top = (MAX_LAMP_BITS >> digit_shift(n)) - 1
    near, far = LampConfig(n, ((0, 1),)), LampConfig(n, ((top, 1),))
    assert diff_span(near, far) == (0, top)
    assert (near + far).support() == (0, top)
    assert (far + near - far).entries == ((0, 1),)
    beyond = LampConfig(n, ((10 ** 15, 1),))
    for op in (lg.lamp_add, diff_span):
        with pytest.raises(DomainError, match="MAX_LAMP_BITS"):
            op(near, beyond)
    with pytest.raises(DomainError, match="MAX_LAMP_BITS"):
        lg.dl_distance(DLVertex(near, 0), DLVertex(beyond, 0))
    # the zero config and moved lows cost nothing
    zero = LampConfig.zero(n)
    assert diff_span(zero, beyond) == (10 ** 15, 10 ** 15) and beyond + zero == beyond
    assert lg.dl_inv(DLVertex(beyond, -10 ** 15)).config.support() == (2 * 10 ** 15,)


@pytest.mark.parametrize("n", [2, 3])
def test_a_write_far_from_the_config_is_refused(n):
    far = 10 ** 15
    assert {w.config.support() for w in lg.neighbors(DLVertex(LampConfig.zero(n), far))} \
        == {(), (far,), (far - 1,)}
    for cursor in (far, -far):
        with pytest.raises(DomainError, match="MAX_LAMP_BITS"):
            lg.neighbors(DLVertex(LampConfig(n, ((0, 1),)), cursor))
