"""The Diestel-Leader graph DL(n,n) as the Cayley graph of the lamplighter group.

Vertices are (configuration, cursor) pairs; edges are right multiplication
by the 2n generators "move up, optionally writing at the cursor" and
"move down, optionally writing below the cursor".  Distance comes in two
independent flavors: a closed form via tree confluence heights, and a
breadth-first-search oracle over `neighbors`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_groups import Frozen, LampConfig, diff_span, lamp_neg, lamp_rewrites, lamp_split, packed_lamp
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


@dataclass(frozen=True)
class TreeCoord:
    """Projection of a vertex to one tree factor of the horocyclic product.

    The left tree sees the configuration germ below the cursor at height k;
    the right tree sees the germ at indices >= k, at height -k.
    """

    side: str  # "left" | "right"
    germ: LampConfig
    height: int

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise DomainError(f"side must be 'left' or 'right', got {self.side!r}")


def tree_coords(v: DLVertex) -> tuple[TreeCoord, TreeCoord]:
    k = v.cursor
    left, right = lamp_split(v.config, k)
    return (TreeCoord("left", left, k), TreeCoord("right", right, -k))


# ---------------------------------------------------------------------------
# group structure (left multiplication is a graph isometry)
# ---------------------------------------------------------------------------

def dl_mul(g: DLVertex, h: DLVertex) -> DLVertex:
    """Group law ((x), k) * ((y), l) = ((x_i + y_{i-k}), k + l)."""
    if g.n != h.n:
        raise DomainError(f"modulus mismatch: {g.n} != {h.n}")
    y = h.config
    return DLVertex(g.config + packed_lamp(y.n, y.digits, y.low + g.cursor), g.cursor + h.cursor)


def dl_inv(g: DLVertex) -> DLVertex:
    y = lamp_neg(g.config)
    return DLVertex(packed_lamp(y.n, y.digits, y.low - g.cursor), -g.cursor)


# ---------------------------------------------------------------------------
# adjacency and balls
# ---------------------------------------------------------------------------

def neighbors(v: DLVertex) -> set[DLVertex]:
    """The 2n vertices reachable by one generator (DomainError if 2n > MAX_BALL_VERTICES).

    Up-moves write s at the cursor index and step to k+1; down-moves write s
    at index k-1 and step to k-1 (s ranges over Z_n, s = 0 writes nothing).
    """
    cfg, k = v.config, v.cursor
    if 2 * cfg.n > MAX_BALL_VERTICES:
        raise DomainError(f"{2 * cfg.n} neighbours per vertex pass MAX_BALL_VERTICES = {MAX_BALL_VERTICES}")
    out = {DLVertex(cfg, k + 1), DLVertex(cfg, k - 1)}
    for up, down in zip(lamp_rewrites(cfg, k), lamp_rewrites(cfg, k - 1)):
        out.add(DLVertex(up, k + 1))
        out.add(DLVertex(down, k - 1))
    return out


MAX_BALL_VERTICES = 1 << 16


def distances_from(source: DLVertex, radius_cap: int) -> dict[DLVertex, int]:
    """BFS distance table for every vertex within radius_cap of source;
    DomainError before a level whose 2n steps per frontier vertex could
    take the table past MAX_BALL_VERTICES."""
    if radius_cap < 0:
        raise DomainError("radius must be >= 0")
    table = {source: 0}
    frontier = [source]
    for dist in range(1, radius_cap + 1):
        if len(table) + 2 * source.n * len(frontier) > MAX_BALL_VERTICES:
            raise DomainError(f"a radius-{radius_cap} ball could exceed {MAX_BALL_VERTICES} vertices")
        nxt = []
        for w in frontier:
            for x in neighbors(w):
                if x not in table:
                    table[x] = dist
                    nxt.append(x)
        frontier = nxt
    return table


def ball(center: DLVertex, radius: int) -> set[DLVertex]:
    """All vertices at graph distance <= radius from center, by BFS."""
    return set(distances_from(center, radius))


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
    d_left + d_right - |k_u - k_v|.  Correctness is pinned to the BFS oracle
    by the acceptance suite rather than rederived here.
    """
    if u.n != v.n:
        raise DomainError(f"modulus mismatch: {u.n} != {v.n}")
    ku, kv = u.cursor, v.cursor
    span = diff_span(u.config, v.config)
    c = min(ku, kv) if span is None else min(ku, kv, span[0])
    cp = max(ku, kv) if span is None else max(ku, kv, span[1] + 1)
    d_left = (ku - c) + (kv - c)
    d_right = (cp - ku) + (cp - kv)
    return d_left + d_right - abs(ku - kv)


def coset_of(v: DLVertex) -> LampConfig:
    """The vertical geodesic through v, identified by its configuration."""
    return v.config


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_PALETTE = (
    "lightblue", "lightpink", "palegreen", "khaki", "plum", "lightsalmon",
    "paleturquoise", "wheat", "lightgray", "thistle", "darkseagreen", "lightcyan",
)


def _node_id(v: DLVertex) -> str:
    from .formats import format_vertex
    return format_vertex(v)


def export_dot(
    vertices: set[DLVertex] | list[DLVertex],
    edges: set[tuple[DLVertex, DLVertex]] | list[tuple[DLVertex, DLVertex]],
    coset_colors: bool = False,
) -> str:
    """Render a vertex/edge set as a deterministic undirected DOT graph.

    Node ids are "<config>|<k>"; with coset_colors, vertices on the same
    vertical geodesic share a fill color.
    """
    vset = set(vertices)
    for a, b in edges:
        if a not in vset or b not in vset:
            raise DomainError(f"edge endpoint {_node_id(a if a not in vset else b)} not in vertex set")
    order = sorted(vset, key=lambda v: (v.cursor, v.config.entries))
    color_for: dict[tuple, str] = {}
    if coset_colors:
        for cfg in sorted({v.config.entries for v in order}):
            color_for[cfg] = _PALETTE[len(color_for) % len(_PALETTE)]
    lines = ["graph dl {"]
    for v in order:
        nid = _node_id(v)
        attrs = [f'label="{nid}"']
        if coset_colors:
            attrs.append(f'fillcolor="{color_for[v.config.entries]}"')
            attrs.append('style="filled"')
        lines.append(f'  "{nid}" [{", ".join(attrs)}];')
    canon = sorted(
        {tuple(sorted((_node_id(a), _node_id(b)))) for a, b in edges}
    )
    for a, b in canon:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ball_edges(vertices: set[DLVertex]) -> set[tuple[DLVertex, DLVertex]]:
    """Edges of the subgraph induced by a vertex set (each undirected edge once)."""
    out: set[tuple[DLVertex, DLVertex]] = set()
    for v in vertices:
        for w in neighbors(v):
            if w in vertices:
                key = (v, w) if (v.cursor, v.config.entries) <= (w.cursor, w.config.entries) else (w, v)
                out.add(key)
    return out
