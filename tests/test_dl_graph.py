import itertools
import random

import pytest

import lampgeo as lg
from lampgeo import DLVertex, DomainError, LampConfig
from lampgeo.formats import format_vertex, parse_vertex

L = LampConfig.of
E2 = lg.identity_vertex(2)


def V(s, n=2):
    return parse_vertex(s, n)


def test_neighbors_of_identity():
    expect = {V("|1"), V("0:1|1"), V("|-1"), V("-1:1|-1")}
    assert lg.neighbors(E2) == expect


def test_neighbors_write_at_cursor_and_below():
    got = lg.neighbors(V("0:1|0"))
    expect = {V("0:1|1"), V("|1"), V("0:1|-1"), V("-1:1,0:1|-1")}
    assert got == expect


def test_neighbors_past_ball_budget_raise():
    # 2n = 65538 neighbours pass MAX_BALL_VERTICES: refused before any is built
    with pytest.raises(DomainError, match="MAX_BALL_VERTICES"):
        lg.neighbors(lg.identity_vertex(2 ** 15 + 1))
    assert len(lg.neighbors(lg.identity_vertex(2 ** 15))) == 2 ** 16


def _neighbors_by_lamp_add(v):
    # reference: each written successor as v.config + a one-entry config
    n, k = v.n, v.cursor
    out = []
    for s in range(n):
        up = v.config if s == 0 else v.config + LampConfig(n, ((k, s),))
        down = v.config if s == 0 else v.config + LampConfig(n, ((k - 1, s),))
        out += [DLVertex(up, k + 1), DLVertex(down, k - 1)]
    return out


@pytest.mark.parametrize("n,radius", [(2, 4), (3, 3), (5, 2)])
def test_neighbors_match_lamp_add_construction(n, radius):
    table = lg.distances_from(lg.identity_vertex(n), radius)
    for v in table:
        ref = set(_neighbors_by_lamp_add(v))
        got = lg.neighbors(v)
        # same insertion order, so the same iteration order and BFS key order
        assert got == ref and list(got) == list(ref)


@pytest.mark.parametrize("n", [2, 3])
def test_degree_is_2n(n):
    for v in lg.ball(lg.identity_vertex(n), 3):
        assert len(lg.neighbors(v)) == 2 * n


def test_dl_distance_examples():
    assert lg.dl_distance(E2, V("|3")) == 3
    assert lg.dl_distance(E2, V("0:1|0")) == 2
    assert lg.dl_distance(E2, V("0:1,1:1|2")) == 2


def test_bfs_distance_examples():
    assert lg.bfs_distance(E2, V("|1"), 5) == 1
    assert lg.bfs_distance(E2, V("0:1|0"), 5) == 2
    assert lg.bfs_distance(E2, V("10:1|0"), 3) is None


def test_distance_modulus_mismatch():
    with pytest.raises(DomainError):
        lg.dl_distance(E2, lg.identity_vertex(3))


@pytest.mark.parametrize("n,radius", [(2, 4), (3, 3)])
def test_closed_form_matches_bfs_small(n, radius):
    e = lg.identity_vertex(n)
    verts = sorted(lg.ball(e, radius), key=lambda v: (v.cursor, v.config.entries))
    table = lg.distances_from(e, 2 * radius)
    for u, v in itertools.combinations(verts, 2):
        assert lg.dl_distance(u, v) == table[lg.dl_mul(lg.dl_inv(u), v)]


@pytest.mark.parametrize("n,radius", [(2, 3), (3, 2)])
def test_bfs_distance_matches_distance_table(n, radius):
    verts = lg.ball(lg.identity_vertex(n), radius)
    for u in verts:
        tables = [lg.distances_from(u, cap) for cap in range(7)]
        for v in verts:
            for cap, table in enumerate(tables):
                assert lg.bfs_distance(u, v, cap) == table.get(v)


def test_ball_is_distance_table_keys():
    for n, radius in ((2, 4), (3, 3)):
        e = lg.identity_vertex(n)
        assert lg.ball(e, radius) == set(lg.distances_from(e, radius))


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        lg.distances_from(E2, -1)
    with pytest.raises(DomainError):
        lg.ball(E2, -1)
    with pytest.raises(DomainError):
        lg.bfs_distance(E2, E2, -1)


def test_bfs_is_left_invariant_spot_checks():
    rng = random.Random(11)
    verts = sorted(lg.ball(E2, 3), key=lambda v: (v.cursor, v.config.entries))
    for _ in range(10):
        u, v = rng.choice(verts), rng.choice(verts)
        d = lg.bfs_distance(u, v, 8)
        assert d == lg.bfs_distance(E2, lg.dl_mul(lg.dl_inv(u), v), 8)
        assert d == lg.dl_distance(u, v)
    # left multiplication by any g is a graph isometry; `dist --radius` reads
    # every pair from one table at e by this fact, so check it by BFS alone
    for n in (2, 3, 4):
        e = lg.identity_vertex(n)
        verts = sorted(lg.ball(e, 2), key=lambda v: (v.cursor, v.config.entries))
        gs = [rng.choice(verts) for _ in range(4)] + [V("-3:1,2:1|5", n), lg.dl_inv(V("0:1,4:1|-2", n))]
        for g in gs:
            u, v = rng.choice(verts), rng.choice(verts)
            d = lg.bfs_distance(u, v, 5)
            assert d is not None
            assert lg.bfs_distance(lg.dl_mul(g, u), lg.dl_mul(g, v), 5) == d


def test_metric_axioms_sampled():
    rng = random.Random(5)
    verts = sorted(lg.ball(E2, 4), key=lambda v: (v.cursor, v.config.entries))
    for _ in range(300):
        u, v, w = (rng.choice(verts) for _ in range(3))
        duv = lg.dl_distance(u, v)
        assert duv == lg.dl_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= lg.dl_distance(u, w) + lg.dl_distance(w, v)
        assert duv >= abs(u.cursor - v.cursor)


def test_left_invariance_of_closed_form():
    rng = random.Random(9)
    verts = sorted(lg.ball(E2, 3), key=lambda v: (v.cursor, v.config.entries))
    gs = [V("|2"), V("-2:1|-1"), V("0:1,4:1|3")]
    for _ in range(100):
        u, v = rng.choice(verts), rng.choice(verts)
        for g in gs:
            assert lg.dl_distance(lg.dl_mul(g, u), lg.dl_mul(g, v)) == lg.dl_distance(u, v)


def test_ball_sizes():
    assert lg.ball(E2, 0) == {E2}
    assert len(lg.ball(E2, 1)) == 5
    b2 = lg.ball(E2, 2)
    assert len(b2) == 15
    # cross-check enumeration against the closed-form membership predicate
    b3 = lg.ball(E2, 3)
    assert all(lg.dl_distance(E2, v) <= 3 for v in b3)
    for v in b3:
        for w in lg.neighbors(v):
            if lg.dl_distance(E2, w) <= 3:
                assert w in b3


def test_coset_of():
    assert lg.coset_of(V("0:1|7")) == L(2, {0: 1})
    assert lg.coset_of(V("|0")) == lg.coset_of(V("|5"))
    assert lg.coset_of(V("0:1|0")) != lg.coset_of(V("|0"))


def test_cosets_meet_level_sets_once():
    by_coset = {}
    for v in lg.ball(E2, 4):
        by_coset.setdefault(v.config.entries, []).append(v.cursor)
    for cursors in by_coset.values():
        assert len(cursors) == len(set(cursors))


def ball_and_edges(radius):
    # the ball around E2 and its induced edges, from ball_graph's adjacency
    verts, _, adj = lg.ball_graph(E2, radius)
    return verts, [(verts[i], verts[j]) for i, js in enumerate(adj) for j in js if i < j]


def test_export_dot_radius1():
    verts, edges = ball_and_edges(1)
    dot = lg.export_dot(verts, edges)
    assert dot.startswith("graph dl {")
    assert dot.count(" [label=") == 5
    assert dot.count(" -- ") == 4
    assert dot.rstrip().endswith("}")


def test_export_dot_empty():
    assert lg.export_dot(set(), set()) == "graph dl {\n}\n"


def test_export_dot_coset_colors():
    verts, edges = ball_and_edges(2)
    dot = lg.export_dot(verts, edges, coset_colors=True)
    n_classes = len({v.config.entries for v in verts})
    # one fill color per coset class, reused deterministically
    colors = {line.split('fillcolor="')[1].split('"')[0]
              for line in dot.splitlines() if "fillcolor" in line}
    assert len(colors) == min(n_classes, 12)


def test_export_dot_rejects_dangling_edges():
    with pytest.raises(DomainError):
        lg.export_dot({E2}, {(E2, V("|1"))})


def test_export_dot_deterministic():
    verts, edges = ball_and_edges(2)
    assert lg.export_dot(verts, edges) == lg.export_dot(set(verts), set(edges))


def test_vertex_literal_roundtrip():
    for s in ("|0", "0:1|3", "-1:1,5:1|-2"):
        assert format_vertex(V(s)) == s
