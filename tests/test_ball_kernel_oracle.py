"""The integer-keyed BFS kernel behind distances_from, ball and ball_graph,
pinned to a plain BFS over `neighbors`: equal tables, equal induced
adjacency, and equal refusals at both budgets."""

import pytest

import lampgeo as lg
from lampgeo import DLVertex, DomainError, LampConfig
from lampgeo.base_groups import MAX_LAMP_BITS, digit_shift
from lampgeo.dl_graph import MAX_BALL_VERTICES
from lampgeo.formats import parse_vertex


def _bfs_over_neighbors(source, radius_cap):
    # oracle: the BFS that walked `neighbors` before the kernel replaced it,
    # with its level check and the neighbour writes' span checks
    if radius_cap < 0:
        raise DomainError("radius must be >= 0")
    table = {source: 0}
    frontier = [source]
    for dist in range(1, radius_cap + 1):
        if len(table) + 2 * source.n * len(frontier) > MAX_BALL_VERTICES:
            raise DomainError(f"a radius-{radius_cap} ball could exceed {MAX_BALL_VERTICES} vertices")
        nxt = []
        for w in frontier:
            for x in lg.neighbors(w):
                if x not in table:
                    table[x] = dist
                    nxt.append(x)
        frontier = nxt
    return table


def _sources(n):
    top = n - 1
    return [
        "|0",                              # e
        f"-6:1,0:{top},7:1|0",             # wide, cursor inside the support
        f"0:1,1:{top},2:1,3:1|2",          # dense
        "2:1|-5",                          # negative cursor, support above it
        f"-40:{top},-30:1|25",             # support far below the cursor
        "50:1|-50",                        # support far above the cursor
        "|-9",                             # zero config, negative cursor
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_distances_from_equals_bfs_over_neighbors(n):
    for text in _sources(n):
        source = parse_vertex(text, n)
        for radius in range(5):
            got = lg.distances_from(source, radius)
            assert got == _bfs_over_neighbors(source, radius), (text, radius)
            assert lg.ball(source, radius) == set(got)


@pytest.mark.parametrize("n, radius", [(2, 0), (2, 1), (2, 4), (3, 3), (4, 2), (5, 2)])
def test_ball_graph_adjacency_equals_neighbors(n, radius):
    for text in _sources(n):
        center = parse_vertex(text, n)
        verts, dists, adj = lg.ball_graph(center, radius)
        table = _bfs_over_neighbors(center, radius)
        assert len(verts) == len(table) and dists == [table[v] for v in verts]
        assert verts == sorted(verts, key=lambda v: (table[v], v.cursor, v.config.entries))
        index = {v: i for i, v in enumerate(verts)}
        for v, ws in zip(verts, adj):
            assert ws == sorted(index[w] for w in lg.neighbors(v) if w in index)
        # vertices on the ball's lowest and highest cursor are compared too:
        # their moves out of the ball must not alias a ball vertex
        cursors = {v.cursor for v in verts}
        assert min(cursors) == center.cursor - radius and max(cursors) == center.cursor + radius


def _refusal(fn, *args):
    try:
        fn(*args)
    except DomainError as err:
        return str(err)
    return None


@pytest.mark.parametrize("n, radius", [(2, 13), (4, 7), (5, 6), (2 ** 15, 1), (2, 10 ** 9)])
def test_ball_budget_refuses_like_the_oracle(n, radius):
    e = lg.identity_vertex(n)
    msg = _refusal(lg.distances_from, e, radius)
    assert msg == f"a radius-{radius} ball could exceed {MAX_BALL_VERTICES} vertices"
    if n > 2:
        assert _refusal(_bfs_over_neighbors, e, radius) == msg
    assert _refusal(lg.ball_graph, e, radius) == msg


@pytest.mark.parametrize("n", [2, 3])
def test_lamp_bits_budget_refuses_like_the_oracle(n):
    # configs near the span budget, and cursors far from the support: a
    # write past MAX_LAMP_BITS refuses at the same level as the oracle, with
    # the same span in the message; one that stays within it answers alike
    b = MAX_LAMP_BITS >> digit_shift(n)
    cases = [
        (((0, 1),), 10 ** 15), (((0, 1),), -10 ** 15),
        (((0, 1), (b - 3, 1)), b - 3), (((0, 1), (b - 1, 1)), 0),
        (((0, 1), (b - 1, 1)), b - 1), (((5, 1), (b - 4, 1)), 2),
        (((10, 1), (b + 5, 1)), 8), ((), 10 ** 15),
    ]
    refused = answered = 0
    for entries, cursor in cases:
        source = DLVertex(LampConfig(n, entries), cursor)
        for radius in range(5):
            want = _refusal(_bfs_over_neighbors, source, radius)
            assert _refusal(lg.distances_from, source, radius) == want, (entries, cursor, radius)
            if want is None:
                assert lg.distances_from(source, radius) == _bfs_over_neighbors(source, radius)
                answered += 1
            else:
                assert "MAX_LAMP_BITS" in want
                refused += 1
    assert refused and answered


def test_kernel_does_not_call_neighbors(monkeypatch):
    calls = []
    real = lg.dl_graph.neighbors
    monkeypatch.setattr(lg.dl_graph, "neighbors", lambda v: calls.append(v) or real(v))
    lg.distances_from(lg.identity_vertex(2), 4)
    lg.ball_graph(lg.identity_vertex(3), 2)
    assert len(lg.isometry_search(4)) == 1
    assert calls == []


@pytest.mark.parametrize("n", [2, 3])
def test_neighbors_share_no_move_code_with_the_kernel(monkeypatch, n):
    # the oracle multiplies by the generators through dl_mul; the kernel's
    # field writes and span checks are not on its path
    def refuse(*args):
        raise AssertionError("neighbors called a kernel move helper")

    for name in ("field_rewrites", "check_write"):
        monkeypatch.setattr(lg.base_groups, name, refuse)
    for text in _sources(n):
        source = parse_vertex(text, n)
        ring = {v for v, d in lg.distances_from(source, 1).items() if d == 1}
        assert lg.neighbors(source) == ring, text


def test_search_and_qi_read_the_kernel_keys(monkeypatch):
    # isometry_search and qi_distortion read the kernel's int keys, build
    # no ball or ball graph, and build vertex objects only for what they
    # return: the strict r = 7 search returns one map on the 452 vertices of
    # the radius-6 ball, of the 964 in the radius-7 ball it searches
    def refuse(*args):
        raise AssertionError("a ball of vertex objects was built")

    for module in (lg.dl_graph, lg.maps):
        for name in ("ball", "ball_graph"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    built = []
    init = DLVertex.__init__
    monkeypatch.setattr(DLVertex, "__init__", lambda v, c, k: built.append(k) or init(v, c, k))
    vm = lg.induced_vertex_map(lg.BlockPerm.from_pairs(3, [("100", "111"), ("111", "100")]))
    assert lg.qi_distortion(vm, 5) == 4
    # the centre alone: its configuration and cursor start the kernel
    assert len(built) == 1
    built.clear()
    (found,) = lg.isometry_search(7)
    assert len(found) == 452 and all(v == w for v, w in found.items())
    assert len(built) == 1 + 452
