"""The Diestel-Leader graph DL(n,n) as the Cayley graph of the lamplighter group.

Vertices are (configuration, cursor) pairs; edges are right multiplication
by the 2n generators "move up, optionally writing at the cursor" and
"move down, optionally writing below the cursor".  Distance comes in two
independent flavors: a closed form via tree confluence heights, and a
breadth-first search.  `distances_from`, `ball` and `ball_graph` share one
BFS kernel over int keys (packed digits above a cursor offset), which
hands out its ball as decoded entry columns and builds a vertex object
only for an entry that is returned; `neighbors` multiplies by each
generator through `dl_mul`, sharing no move code with the kernel, which
the tests pin to a BFS over it.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .base_groups import (MAX_LAMP_BITS, Frozen, LampConfig, _nonzero_fields, check_write, diff_span,
                          digit_shift, field_bit, field_rewrites, lamp_add, lamp_neg, packed_lamp)
from .errors import DomainError


class DLVertex(Frozen):
    """Vertex of DL(n,n): a lamp configuration plus the lamplighter position;
    the hash is computed once, at construction."""

    __slots__ = ("config", "cursor", "_hash")
    _fields = ("config", "cursor")

    def __init__(self, config: LampConfig, cursor: int):
        _set_config(self, config)
        _set_cursor(self, cursor)
        _set_hash(self, hash((config._hash, cursor)))

    @property
    def n(self) -> int:
        return self.config.n

    def __eq__(self, other):
        if other.__class__ is not DLVertex:
            return NotImplemented
        return self.cursor == other.cursor and self.config == other.config

    def __hash__(self) -> int:
        return self._hash


_set_config, _set_cursor, _set_hash = (getattr(DLVertex, name).__set__ for name in DLVertex.__slots__)


def identity_vertex(n: int) -> DLVertex:
    return DLVertex(LampConfig.zero(n), 0)


# ---------------------------------------------------------------------------
# group structure (left multiplication is a graph isometry)
# ---------------------------------------------------------------------------

def dl_mul(g: DLVertex, h: DLVertex) -> DLVertex:
    """Group law ((x), k) * ((y), l) = ((x_i + y_{i-k}), k + l); lamp_add
    refuses a modulus mismatch."""
    y = h.config
    return DLVertex(lamp_add(g.config, packed_lamp(y.n, y.digits, y.low + g.cursor)), g.cursor + h.cursor)


def dl_inv(g: DLVertex) -> DLVertex:
    y = lamp_neg(g.config)
    return DLVertex(packed_lamp(y.n, y.digits, y.low - g.cursor), -g.cursor)


# ---------------------------------------------------------------------------
# adjacency and balls
# ---------------------------------------------------------------------------

def neighbors(v: DLVertex) -> set[DLVertex]:
    """The 2n products v * g, inserted as up-s, down-s for s = 0..n-1: the
    generator up-s is s at index 0 with cursor 1, down-s is s at index -1
    with cursor -1.  DomainError first if 2n > MAX_BALL_VERTICES."""
    n = v.n
    if 2 * n > MAX_BALL_VERTICES:
        raise DomainError(f"{2 * n} neighbours per vertex pass MAX_BALL_VERTICES = {MAX_BALL_VERTICES}")
    return {dl_mul(v, g) for s in range(n)
            for g in (DLVertex(packed_lamp(n, s, 0), 1), DLVertex(packed_lamp(n, s, -1), -1))}


MAX_BALL_VERTICES = 1 << 16

# a radius-d ball holds at least n^d >= 2^d vertices (d up-moves, each with
# any write), so no BFS within MAX_BALL_VERTICES expands more levels than this
_MAX_LEVELS = MAX_BALL_VERTICES.bit_length()


def _ball_error(radius: int) -> DomainError:
    return DomainError(f"a radius-{radius} ball could exceed {MAX_BALL_VERTICES} vertices")


class _Ball(NamedTuple):
    """The BFS kernel's ball as decoded entry columns: each entry's key,
    distance from the centre, cursor and digits (the configuration packed
    with field 0 at index origin), the moves of a key (defined for
    radius >= 1), and, from _ball_index alone, the induced adjacency (the
    sorted indices of each entry's neighbours in the ball)."""

    n: int
    origin: int
    keys: list[int]
    dists: list[int]
    cursors: list[int]
    digits: list[int]
    moves: Callable[[int], Sequence[int]]
    adj: list[list[int]] | None = None

    def vertices(self, indices: Iterable[int]) -> list[DLVertex]:
        """The vertices of the entries at indices, each configuration built once."""
        n, origin, digits, cursors = self.n, self.origin, self.digits, self.cursors
        configs: dict[int, LampConfig] = {}
        out = []
        for i in indices:
            d = digits[i]
            c = configs.get(d)
            if c is None:
                c = configs[d] = packed_lamp(n, d, origin)
            out.append(DLVertex(c, cursors[i]))
        return out


def _ball_keys(source: DLVertex, radius: int) -> _Ball:
    """The BFS kernel behind distances_from, ball and ball_graph.

    It runs over int keys: a vertex's digits, aligned at an origin below
    every index a move can write, shifted above its cursor offset.  A move
    is key + 1 (up) or key - 1 (down), and a write adds one field rewrite
    at the cursor (up) or just below it (down): an XOR for n = 2.  The
    ball's cursor offsets run from 1 to 2 * radius + 1, so the moves out
    of its lowest and highest cursor land on offsets 0 and 2 * radius + 2,
    which no ball key has, and write into fields at or above the origin.

    Returns the ball in BFS order, each key decoded into its cursor and
    digits.  DomainError before a level whose 2n steps per frontier vertex
    could take the table past MAX_BALL_VERTICES, and, as in neighbors, when
    a write would take a configuration past MAX_LAMP_BITS.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    n, k0, cfg = source.n, source.cursor, source.config
    reach = min(radius, _MAX_LEVELS)
    kbase = k0 - reach - 1
    origin = cfg.low if cfg.digits else k0
    if reach:
        # level 1's checks come before the source's key is built: a cursor
        # far from the configuration would make that key huge
        if 1 + 2 * n > MAX_BALL_VERTICES:
            raise _ball_error(radius)
        check_write(n, cfg.digits, cfg.low, k0)
        check_write(n, cfg.digits, cfg.low, k0 - 1)
        origin = min(origin, kbase)
    d0 = cfg.digits << field_bit(n, cfg.low, origin) if cfg.digits else 0
    # every key's fields lie between the origin and the highest write of
    # the BFS; only when that span passes MAX_LAMP_BITS can a write take a
    # config past it, and only then is each write checked
    near_budget = reach and max(d0.bit_length(), field_bit(n, k0 + reach, origin)) > MAX_LAMP_BITS
    cbits = (2 * reach + 2).bit_length()
    cmask = (1 << cbits) - 1
    # pos[c]: the bit of index kbase + c's field, written up from cursor
    # offset c and down from c + 1
    pos = [cbits + field_bit(n, kbase + c, origin) for c in range(2 * reach + 2)] if reach else []
    if n == 2:
        # a write is an XOR with one bit per field: the rewrite of 0 there
        flip = [field_rewrites(0, p, 2)[0] for p in pos]

        def moves(key: int):
            c = key & cmask
            return key + 1, key + 1 ^ flip[c], key - 1, key - 1 ^ flip[c - 1]
    else:
        def moves(key: int):
            c = key & cmask
            up, down = key + 1, key - 1
            return [up, *field_rewrites(up, pos[c], n), down, *field_rewrites(down, pos[c - 1], n)]

    table = {d0 << cbits | reach + 1: 0}
    frontier = list(table)
    for dist in range(1, radius + 1):
        if dist > reach or len(table) + 2 * n * len(frontier) > MAX_BALL_VERTICES:
            raise _ball_error(radius)
        if near_budget:
            for key in frontier:
                d, k = key >> cbits, kbase + (key & cmask)
                check_write(n, d, origin, k)
                check_write(n, d, origin, k - 1)
        nxt = []
        for key in frontier:
            for x in moves(key):
                if x not in table:
                    table[x] = dist
                    nxt.append(x)
        frontier = nxt
    keys = list(table)
    return _Ball(n, origin, keys, list(table.values()), [kbase + (key & cmask) for key in keys],
                 [key >> cbits for key in keys], moves)


def distances_from(source: DLVertex, radius_cap: int) -> dict[DLVertex, int]:
    """BFS distance table for every vertex within radius_cap of source, in
    BFS order; DomainError before a level whose 2n steps per frontier
    vertex could take the table past MAX_BALL_VERTICES."""
    b = _ball_keys(source, radius_cap)
    return dict(zip(b.vertices(range(len(b.keys))), b.dists))


def ball(center: DLVertex, radius: int) -> set[DLVertex]:
    """All vertices at graph distance <= radius from center, by BFS."""
    b = _ball_keys(center, radius)
    return set(b.vertices(range(len(b.keys))))


def _ball_index(center: DLVertex, radius: int) -> _Ball:
    """The kernel's ball behind ball_graph and isometry_search, in
    (distance, cursor, entries) order and with its adjacency, read off the
    kernel's entries with no vertex built."""
    b = _ball_keys(center, radius)
    dists, cursors, digits = b.dists, b.cursors, b.digits
    shift = digit_shift(b.n)
    # the entries order, read once per distinct configuration: fields at
    # one origin, as (bit position, value), rank as the (index, value) pairs
    configs = sorted(set(digits), key=lambda d: tuple(_nonzero_fields(d, shift)))
    rank = {d: r for r, d in enumerate(configs)}
    order = sorted(range(len(dists)), key=lambda i: (dists[i], cursors[i], rank[digits[i]]))
    keys, dists, cursors, digits = ([col[i] for i in order] for col in (b.keys, dists, cursors, digits))
    index_of = {key: i for i, key in enumerate(keys)}.get
    # the graph is undirected, so appending j to the list of each neighbour
    # of key j, in ascending j, leaves every list sorted; a radius-0 ball
    # has no edges, and no moves are laid out for it
    adj: list[list[int]] = [[] for _ in keys]
    for j, key in enumerate(keys if radius else ()):
        for x in b.moves(key):
            if (i := index_of(x)) is not None:
                adj[i].append(j)
    return b._replace(keys=keys, dists=dists, cursors=cursors, digits=digits, adj=adj)


def ball_graph(center: DLVertex, radius: int) -> tuple[list[DLVertex], list[int], list[list[int]]]:
    """The ball's vertices ordered by (distance, cursor, entries), their
    distances from center, and the induced adjacency: the sorted indices
    of each vertex's neighbours in the ball."""
    b = _ball_index(center, radius)
    return b.vertices(range(len(b.keys))), b.dists, b.adj


def bfs_distance(u: DLVertex, v: DLVertex, radius_cap: int) -> int | None:
    """Exact graph distance if <= radius_cap, else None; BFS meeting in the middle.

    BFS tables of radii ceil(cap/2) from u and floor(cap/2) from v share a
    vertex exactly when some path of length <= cap joins u and v (the graph
    is undirected, so such a path passes through a vertex in both tables),
    and the minimum of a[w] + b[w] over the shared vertices is the distance.
    """
    if radius_cap < 0:
        raise DomainError("radius_cap must be >= 0")
    if u.n != v.n:
        raise DomainError(f"modulus mismatch: {u.n} != {v.n}")
    a = distances_from(u, (radius_cap + 1) // 2)
    b = distances_from(v, radius_cap // 2)
    return min((a[w] + b[w] for w in a.keys() & b.keys()), default=None)


# ---------------------------------------------------------------------------
# closed-form distance
# ---------------------------------------------------------------------------

def dl_distance(u: DLVertex, v: DLVertex) -> int:
    """Graph distance via the tree-distance formula of the horocyclic product.

    Left-tree confluence c = min(k_u, k_v, first disagreement index); right-tree
    confluence c' = max(k_u, k_v, last disagreement index + 1); the result is
    d_left + d_right - |k_u - k_v| = 2 (c' - c) - |k_u - k_v|.  Correctness
    is pinned to the BFS oracle by the acceptance suite rather than
    rederived here.
    """
    p, q = u.config, v.config
    if p.n != q.n:
        raise DomainError(f"modulus mismatch: {p.n} != {q.n}")
    ku, kv = u.cursor, v.cursor
    span = diff_span(p, q)
    if span is None:
        return abs(ku - kv)
    return 2 * (max(ku, kv, span[1] + 1) - min(ku, kv, span[0])) - abs(ku - kv)


def coset_of(v: DLVertex) -> LampConfig:
    """The vertical geodesic through v, identified by its configuration."""
    return v.config
