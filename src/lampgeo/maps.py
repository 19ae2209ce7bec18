"""Self-maps of the lamplighter base group and their induced vertex maps.

The map algebra covers index shifts, translations, index inversion, block
permutations of a fixed window, and compositions.  On top of it sit exact
biLipschitz-constant measurement on both boundaries, parallelogram
preservation testing, delta-distortion scans, induced height-preserving
vertex maps of DL(n,n) with additive-distortion measurement, and the
backtracking search for pattern-preserving ball isometries.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .base_groups import (LampConfig, digit_shift, digits_at, packed_add, packed_lamp, rewrite_window,
                          window_digits)
from .dl_graph import DLVertex, _ball_index, _ball_keys, identity_vertex
from .errors import DomainError, InternalError

Window = tuple[int, int]


# ---------------------------------------------------------------------------
# the map algebra
# ---------------------------------------------------------------------------

class BaseMap:
    """A self-map of ⊕ Z_n; concrete variants below."""

    def modulus(self) -> int | None:
        return None


@dataclass(frozen=True)
class Shift(BaseMap):
    """(x_i) -> (x_{i+j}): the entry at index i moves to index i - j."""

    j: int


@dataclass(frozen=True)
class Translate(BaseMap):
    """x -> x + c."""

    c: LampConfig

    def modulus(self) -> int | None:
        return self.c.n


@dataclass(frozen=True)
class Inversion(BaseMap):
    """(x_i) -> (x_{-i})."""


@dataclass(frozen=True)
class BlockPerm(BaseMap):
    """Rewrite the window [0, m) by a table; identity elsewhere.

    ``table`` lists (source, image) window strings with index 0 as the
    leftmost character; unlisted strings map to themselves.  `apply` reads
    the window as one packed field and looks it up in the packed form of
    the table.  The table is expected to be a bijection, which
    `map_is_bijective` checks and the operations that need it enforce.
    """

    m: int
    table: tuple[tuple[str, str], ...]
    n: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("block length m must be >= 1")
        if not 2 <= self.n <= 10:
            raise DomainError("block-permutation strings need a single-digit alphabet (2 <= n <= 10)")
        digits = set("0123456789"[:self.n])
        for src, dst in self.table:
            for s in (src, dst):
                if len(s) != self.m or not digits.issuperset(s):
                    raise DomainError(f"{s!r} is not a length-{self.m} string over digits < {self.n}")
        if len({src for src, _ in self.table}) != len(self.table):
            raise DomainError("block-permutation table lists a source twice")

    @classmethod
    def from_pairs(cls, m: int, pairs, n: int = 2) -> "BlockPerm":
        return cls(m, tuple(sorted((src, dst) for src, dst in pairs if src != dst)), n)

    def modulus(self) -> int | None:
        return self.n

    @functools.cached_property
    def _packed_table(self) -> dict[int, int]:
        """{packed source: packed image} over the entries that move, with
        index i's digit in field i as window_digits reads the window: a field
        of b = 2^digit_shift(n) bits is one base-2^b digit, read off the reversed string."""
        base = 1 << (1 << digit_shift(self.n))
        return {int(src[::-1], base): int(dst[::-1], base) for src, dst in self.table if src != dst}

    def is_table_bijection(self) -> bool:
        # the sources are distinct, so the images must be exactly them
        return sorted(src for src, _ in self.table) == sorted(dst for _, dst in self.table)


@dataclass(frozen=True)
class Compose(BaseMap):
    """Composition; maps apply right to left, like functions."""

    maps: tuple[BaseMap, ...]

    def __post_init__(self):
        mods = {m.modulus() for m in self.maps} - {None}
        if len(mods) > 1:
            raise DomainError(f"composition mixes moduli {sorted(mods)}")

    def modulus(self) -> int | None:
        return next((m.modulus() for m in self.maps if m.modulus() is not None), None)


def apply(m: BaseMap, x: LampConfig) -> LampConfig:
    """Evaluate a map on a configuration."""
    mod = m.modulus()
    if mod is not None and mod != x.n:
        raise DomainError(f"map modulus {mod} does not match configuration modulus {x.n}")
    if isinstance(m, Shift):
        return packed_lamp(x.n, x.digits, x.low - m.j)
    if isinstance(m, Translate):
        return x + m.c
    if isinstance(m, Inversion):
        return LampConfig(x.n, tuple(sorted((-i, v) for i, v in x.entries)))
    if isinstance(m, BlockPerm):
        s = window_digits(x, m.m)
        t = m._packed_table.get(s)
        return x if t is None else rewrite_window(x, s, t)
    if isinstance(m, Compose):
        for part in reversed(m.maps):
            x = apply(part, x)
        return x
    raise DomainError(f"unknown map variant {type(m).__name__}")


def map_is_bijective(m: BaseMap) -> bool:
    """Structural bijectivity: shifts, translations and inversion always are;
    block permutations iff their table is; compositions iff all parts are."""
    if isinstance(m, BlockPerm):
        return m.is_table_bijection()
    if isinstance(m, Compose):
        return all(map_is_bijective(p) for p in m.maps)
    return isinstance(m, (Shift, Translate, Inversion))


# ---------------------------------------------------------------------------
# window enumeration helpers
# ---------------------------------------------------------------------------

# at 2^19 pairs (2^10 configurations) on a 2-vCPU VM, ppq takes 0.04 s at n = 2, 0.7 s at n = 3 and
# 1.3 s at n = 4 (mostly digit_sum); the n != 2 bilip scan up to 0.3 s, delta 0.12 s plus its bilip call
MAX_SCAN_PAIRS = 1 << 19


def _check_scan_pairs(n: int, window: Window) -> None:
    """Raise DomainError before a scan over the distinct configuration pairs
    of the window when there are more than MAX_SCAN_PAIRS of them."""
    lo, hi = window
    # past width 20 there are at least 2^20 configurations, so capping the
    # width keeps n ** width small without admitting more pairs
    count = n ** min(max(hi - lo, 0), 20)
    if count * (count - 1) // 2 > MAX_SCAN_PAIRS:
        raise DomainError(f"window [{lo}, {hi}) over Z_{n} has more than "
                          f"{MAX_SCAN_PAIRS} configuration pairs to scan")


def window_configs(n: int, window: Window) -> list[LampConfig]:
    """All configs supported in [lo, hi), in lexicographic window-string order (index lo is the
    leftmost character).  The gate of every window scan: DomainError refuses n < 2, an empty
    window, and a window with more than MAX_SCAN_PAIRS configuration pairs, before listing."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    lo, hi = window
    if hi < lo:
        raise DomainError("empty window")
    _check_scan_pairs(n, window)
    return [LampConfig(n, tuple((lo + i, v) for i, v in enumerate(digits) if v))
            for digits in itertools.product(range(n), repeat=hi - lo)]


def _window_table(m: BaseMap, n: int, window: Window) -> tuple[list[LampConfig], list[int], list[int]]:
    """`window_configs(n, window)` packed at the window's low, and their images under m packed
    at the lowest image low: aligned apart, both stay narrow when m moves the window far."""
    configs = window_configs(n, window)
    images = [apply(m, x) for x in configs]
    low = min((y.low for y in images if y.digits), default=0)
    return configs, [digits_at(x, window[0]) for x in configs], [digits_at(y, low) for y in images]


def _pair_fields(src: list[int], img: list[int], shift: int):
    """The first and last nonzero field of src[a] ^ src[b], then of img[a] ^ img[b], for each pair
    a < b of a window table in `itertools.combinations` order (read inline, as in `diff_span`)."""
    for a, (s, y) in enumerate(zip(src, img), 1):
        for t, z in zip(src[a:], img[a:]):
            d, e = s ^ t, y ^ z
            yield (((d & -d).bit_length() - 1) >> shift, (d.bit_length() - 1) >> shift,
                   ((e & -e).bit_length() - 1) >> shift, (e.bit_length() - 1) >> shift)


def _scan_modulus(m: BaseMap, n: int | None) -> int:
    """The modulus a scan runs over: the caller's n when one is given, else the map's, else 2."""
    mod = m.modulus() if n is None else n
    return 2 if mod is None else mod


# ---------------------------------------------------------------------------
# biLipschitz constants of block permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilipReport:
    """Extremal boundary-metric distortions over an exhaustive pair scan.

    K_lower bounds the lower-boundary (d_l) distortion, K_upper the
    upper-boundary (d_u) one; `exhaustive` is set when the padding
    guarantees the scan realizes the true constants (padding >= m).
    """

    K_lower: Fraction
    K_upper: Fraction
    exhaustive: bool
    window: Window

    def __post_init__(self):
        if self.K_lower < 1 or self.K_upper < 1:
            raise DomainError("biLipschitz constants are >= 1 by definition")

    @property
    def K(self) -> Fraction:
        return max(self.K_lower, self.K_upper)


# the packed n = 2 scan visits C(2^width, 2) pairs: width 14 takes 1.4 s
MAX_PACKED_WIDTH = 14


def _mod2_deviations(img: np.ndarray, width: int) -> tuple[int, int]:
    """Max |first-disagreement| and |last-disagreement| index deviations over
    all distinct config pairs of a width-bit window, given the image table.

    Each unordered pair {x, x ^ d} is visited once, grouped by the top bit t
    of d: x runs over the configs with bit t clear and d over [2^t, 2^(t+1)),
    so the source disagreement indices are fd[d] (one per row) and t.  The
    last-disagreement table ld holds b on [2^b, 2^(b+1)), and the first
    disagreement of x is the last one of its lowest set bit, x & -x.
    """
    import numpy as np  # only the n = 2 scan needs it, so `import lampgeo` does not

    configs = np.arange(1 << width, dtype=np.uint32)
    ld = np.zeros(1 << width, dtype=np.int16)
    for b in range(width):
        ld[1 << b:2 << b] = b
    fd = ld[configs & -configs]
    max_fd = max_ld = 0
    for t in range(width):
        x = configs[(configs >> t) & 1 == 0]
        ix = img[x]
        rows = max(1, (1 << 22) // len(x))
        for start in range(1 << t, 2 << t, rows):
            d = configs[start:min(start + rows, 2 << t)]
            di = img[x[None, :] ^ d[:, None]]
            di ^= ix
            if not di.all():
                raise DomainError("map is not injective on the window; biLipschitz constants undefined")
            max_fd = max(max_fd, int(np.abs(fd[d][:, None] - fd[di]).max()))
            max_ld = max(max_ld, int(np.abs(ld[di] - t).max()))
    return max_fd, max_ld


def _blockperm_image_table(bp: BlockPerm, padding: int) -> np.ndarray:
    """Image of every window config as a packed bitmask (n = 2 only).

    Bit b of a mask is the lamp at index b - padding; the block window
    occupies bits [padding, padding + m).
    """
    import numpy as np

    perm = np.arange(1 << bp.m, dtype=np.uint32)
    for src, dst in bp._packed_table.items():
        perm[src] = dst
    x = np.arange(1 << (bp.m + 2 * padding), dtype=np.uint32)
    w = (x >> padding) & ((1 << bp.m) - 1)
    return x ^ ((w ^ perm[w]) << np.uint32(padding))


def bilip_constants(bp: BlockPerm, padding: int) -> BilipReport:
    """Exhaustive boundary-distortion maxima of a block permutation.

    Scans every distinct pair of configs supported in
    [-padding, m + padding); with padding >= m the extrema equal the global
    biLipschitz constants (disagreements outside the block are fixed by the
    map), which the report flags as exhaustive.  A constant is n^dev, with dev the largest
    first- (K_lower) or last-disagreement (K_upper) index deviation.  DomainError refuses an
    n = 2 window wider than MAX_PACKED_WIDTH, and any window `window_configs` refuses, first.
    """
    if padding < 0:
        raise DomainError("padding must be >= 0")
    if not bp.is_table_bijection():
        raise DomainError("block-permutation table is not a bijection")
    window = (-padding, bp.m + padding)
    if bp.n == 2:
        width = bp.m + 2 * padding
        if width > MAX_PACKED_WIDTH:
            raise DomainError(f"window width {width} is above {MAX_PACKED_WIDTH}, "
                              "the bound of the exhaustive pair scan")
        dev_fd, dev_ld = _mod2_deviations(_blockperm_image_table(bp, padding), width)
    else:
        # the window holds the block: the images are exactly the configs, both packed at its low
        _, src, img = _window_table(bp, bp.n, window)
        dev_fd = dev_ld = 0
        for fs, ls, fi, li in _pair_fields(src, img, digit_shift(bp.n)):
            dev_fd = max(dev_fd, abs(fi - fs))
            dev_ld = max(dev_ld, abs(li - ls))
    return BilipReport(K_lower=Fraction(bp.n) ** dev_fd, K_upper=Fraction(bp.n) ** dev_ld,
                       exhaustive=padding >= bp.m, window=window)


# ---------------------------------------------------------------------------
# parallelogram preservation and generalized-affine factorization
# ---------------------------------------------------------------------------

def parallelogram_preserving(m: BaseMap, window: Window, n: int | None = None):
    """True, or the first (a, v, w) in lexicographic order with
    psi(a+v+w) + psi(a) != psi(a+v) + psi(a+w), over Z_n for the n of
    `_scan_modulus`, on a window `window_configs` admits.

    Scanning a = 0 decides every a: if those identities hold, phi = psi -
    psi(0) is additive on the window group, so they hold for every a, and
    the first witness has a = 0, listed first.  They are symmetric in v and
    w, so only the `_window_table` pairs v <= w are scanned."""
    n = _scan_modulus(m, n)
    configs, src, img = _window_table(m, n, window)
    add = packed_add(n)
    lhs = {s: add(y, img[0]) for s, y in zip(src, img)}  # packed v + w: psi(v + w) + psi(0)
    for i, (s, y) in enumerate(zip(src, img)):
        for t, z in zip(src[i:], img[i:]):
            if lhs[add(s, t)] != add(y, z):
                return configs[0], configs[i], configs[src.index(t)]
    return True


def is_generalized_affine(m: BaseMap, window: Window, up_to_inversion: bool = False,
                          n: int | None = None) -> bool:
    """Whether the map factors as a shift composed with a translation on the
    window, over Z_n (n defaults to the map's modulus, else 2).

    The strict reading excludes index inversion (an additive automorphism
    that is not a shift); pass up_to_inversion=True to accept parallelogram-
    preserving maps whose pre- or post-composition with inversion factors
    strictly (only they need the scan: a strict factorization preserves them).
    """
    n = _scan_modulus(m, n)
    shift = digit_shift(n)
    add = packed_add(n)

    def strict(f: BaseMap) -> bool:
        # if f = Shift(j) + f(0), the unit lamp at the window's low (packed 1, listed at
        # n^(width-1)) lands in the top field where its image and f(0) differ, j fields away
        _, src, img = _window_table(f, n, window)
        pos = max((img[len(src) // n] ^ img[0]).bit_length() - 1, 0) >> shift << shift
        return all(z == add(s << pos, img[0]) for s, z in zip(src, img))

    if strict(m):
        return True
    return (up_to_inversion and parallelogram_preserving(m, window, n) is True
            and (strict(Compose((m, Inversion()))) or strict(Compose((Inversion(), m)))))


@dataclass(frozen=True)
class DeltaDistortionReport:
    """Extremal delta ratios over a window pair scan, with the biLipschitz
    bound they are required to respect."""

    max_ratio: Fraction
    max_pair: tuple[LampConfig, LampConfig]
    min_ratio: Fraction
    min_pair: tuple[LampConfig, LampConfig]
    K: Fraction
    window: Window


def delta_distortion(bp: BlockPerm, window: Window) -> DeltaDistortionReport:
    """Scan delta(psi p, psi q)/delta(p, q) over all distinct window pairs.

    A ratio is n^x, x the image gap less the source gap, read off XORs of
    `_window_table` ints; the first pair in combinations order is kept at
    each extreme.  The ratios must lie in [1/K^2, K^2] for K = max(K_lower,
    K_upper) from the biLipschitz constants of the block pairs; a violation is a
    library bug and raises InternalError.  A window that `window_configs`
    refuses raises DomainError first, and a table that is not a bijection next.
    """
    configs, src, img = _window_table(bp, bp.n, window)
    # padding 0 scans the block pairs alone and gives the constants of every padding: a pair's first
    # (last) disagreement moves only when the pair agrees below (above) the block, and then the move
    # depends only on its two block words
    k = bilip_constants(bp, padding=0).K
    xs = [(li - fi) - (ls - fs) for fs, ls, fi, li in _pair_fields(src, img, digit_shift(bp.n))]
    if not xs:
        raise DomainError("window holds fewer than two configurations")
    top, bottom = max(xs), min(xs)
    best, worst = Fraction(bp.n) ** top, Fraction(bp.n) ** bottom
    if best > k * k or worst < 1 / (k * k):
        raise InternalError(f"delta distortion {worst}..{best} escapes [1/K^2, K^2] with K={k}; library bug")
    max_pair, min_pair = (next(itertools.islice(itertools.combinations(configs, 2), xs.index(x), None))
                          for x in (top, bottom))
    return DeltaDistortionReport(best, max_pair, worst, min_pair, k, window)


# ---------------------------------------------------------------------------
# induced vertex maps on DL(n,n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexMap:
    """Height-preserving vertex map (config, k) -> (base(config), k).

    Maps cosets to cosets exactly: coset_of(self(v)) == base(coset_of(v)).
    """

    base: BaseMap

    def __call__(self, v: DLVertex) -> DLVertex:
        return DLVertex(apply(self.base, v.config), v.cursor)


def induced_vertex_map(m: BaseMap) -> VertexMap:
    if not map_is_bijective(m):
        raise DomainError("only bijections of the base group induce vertex maps")
    return VertexMap(m)


def qi_distortion(vm: VertexMap, radius: int, n: int | None = None) -> int:
    """Max additive distance distortion |d(vm u, vm v) - d(u, v)| over all
    pairs in the radius ball around the identity vertex.

    The scan runs over coset fibres (a configuration and the cursors where
    the ball meets its coset), because a vertex map keeps the cursor and
    maps fibres to fibres.  Two vertices of one fibre have distance
    |k_u - k_v| before and after, so they contribute 0.  For two fibres,
    the packed configurations are XORed: d for the sources, packed at the
    kernel's origin, and e for the images, packed apart at their lowest
    low.  With L the first nonzero field of an XOR, as an index, H its
    last nonzero field's index + 1, and m <= M the cursors of a
    vertex pair, dl_distance is 2 * (max(M, H) - min(m, L)) - (M - m).
    The M - m terms of the two distances cancel, so the pair deviates by

        2 * |(max(M, H_e) - max(M, H_d)) - (min(m, L_e) - min(m, L_d))|.

    Both XORs are nonzero for distinct fibres of a bijection.  When the
    map keeps both fields, L_e = L_d and H_e = H_d, every cursor pair has
    deviation 0 and the fibre pair is skipped; otherwise the maximum over
    the cursor pairs depends only on the four fields and the two cursor
    tuples, and is computed once per such key.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    n = _scan_modulus(vm.base, n)
    shift = digit_shift(n)
    # the fibres straight from the BFS kernel, whose digits are packed at
    # its origin, below every source; the images are packed apart, at their
    # own lowest low, so both sides stay narrow when the map moves the ball far
    ball = _ball_keys(identity_vertex(n), radius)
    origin = ball.origin
    fibres: dict[int, list[int]] = {}
    for d, k in zip(ball.digits, ball.cursors):
        fibres.setdefault(d, []).append(k)
    images = [apply(vm.base, packed_lamp(n, d, origin)) for d in fibres]
    low = min((y.low for y in images if y.digits), default=0)
    off = low - origin
    packed = [(d, digits_at(y, low), tuple(sorted(ks))) for d, y, ks in zip(fibres, images, fibres.values())]
    memo: dict[tuple, int] = {}
    worst = 0
    for a, (ma, na, ka) in enumerate(packed):
        for mb, nb, kb in packed[a + 1:]:
            d = ma ^ mb
            e = na ^ nb
            # first and last disagreement field of each XOR, read as in
            # diff_span, inline: a call per XOR would cost a third of the scan
            ld, hd = ((d & -d).bit_length() - 1) >> shift, (d.bit_length() - 1) >> shift
            le, he = ((e & -e).bit_length() - 1) >> shift, (e.bit_length() - 1) >> shift
            # source fields count from origin and image fields from low; a
            # zero e (equal images) reads as the field below low, never skipped
            if ld == le + off and hd == he + off and e:
                continue
            key = (ld, hd, le, he, ka, kb)
            dev = memo.get(key)
            if dev is None:
                ld, hd, le, he = ld + origin, hd + origin + 1, le + low, he + low + 1
                if not e:
                    # equal images (a map that is not injective): a span
                    # outside every cursor, so the image distance is M - m
                    le, he = radius, -radius
                # the M-term and the m-term of each cursor of the second fibre
                terms = [(k, max(k, he) - max(k, hd), min(k, le) - min(k, ld)) for k in kb]
                dev = 0
                for ku in ka:
                    gu = max(ku, he) - max(ku, hd)
                    hu = min(ku, le) - min(ku, ld)
                    for kv, gv, hv in terms:
                        x = abs(gv - hu if ku <= kv else gu - hv)
                        if x > dev:
                            dev = x
                dev = memo[key] = 2 * dev
            if dev > worst:
                worst = dev
    return worst


# ---------------------------------------------------------------------------
# finite-ball isometry search
# ---------------------------------------------------------------------------

# one node is one assignment: the strict search at r = 7 assigns 964, while
# r = 4 with neither the identity coset fixed nor patterns preserved would
# assign 3,757,316
MAX_SEARCH_NODES = 1 << 20


def isometry_search(
    radius: int,
    height_preserving: bool = True,
    orientation_preserving: bool = True,
    fix_identity_coset: bool = True,
    pattern_preserving: bool = True,
    n: int = 2,
    max_results: int | None = None,
) -> list[dict[DLVertex, DLVertex]]:
    """Enumerate adjacency-preserving self-bijections of the radius ball.

    Backtracking over the ball's induced subgraph; the constraints mirror
    the reduction used for the rigidity statement: heights fixed, edge
    directions preserved, identity-coset vertices fixed pointwise, and
    coset fibers mapped to coset fibers.  Fixed heights fix edge directions,
    so orientation_preserving=False changes nothing unless height_preserving
    is False too.  Each surviving bijection is returned restricted to the
    radius-1 smaller ball (deduplicated), so boundary artifacts do not
    inflate the count.  With every constraint on, the expected result is
    exactly the identity map.  A search that would assign more than
    MAX_SEARCH_NODES nodes raises DomainError.
    """
    if radius < 2:
        raise DomainError("radius must be >= 2")
    if max_results is not None and max_results < 1:
        return []
    ball = _ball_index(identity_vertex(n), radius)
    dcenter, height, digits, adj_sets = ball.dists, ball.cursors, ball.digits, ball.adj
    nverts = len(adj_sets)
    # a neighbour is one level up or down, so this counts the up-neighbours
    updeg = [sum(height[w] > h for w in ws) for ws, h in zip(adj_sets, height)]

    # configuration classes, keyed by the packed digits
    cfg_ids: dict[int, int] = {}
    cls = [cfg_ids.setdefault(d, len(cfg_ids)) for d in digits]
    fiber_size = [0] * len(cfg_ids)
    for c in cls:
        fiber_size[c] += 1

    def signature(i: int):
        sig = [len(adj_sets[i])]
        if fix_identity_coset:
            sig.append(dcenter[i])
        if height_preserving:
            sig += [height[i], updeg[i]]  # with the degree, updeg fixes the down-degree
        return tuple(sig)

    sigs = [signature(i) for i in range(nverts)]

    # the index lists the ball by distance, so the inner ball is a prefix.
    # Assignment order: the pre-fixed geodesic, or else the centre, then BFS
    # over the inner ball, so every new vertex touches an assigned one; the
    # boundary sphere comes last and is completed once per inner assignment
    n_inner = dcenter.index(radius)
    order = [i for i in range(n_inner) if not digits[i]] if fix_identity_coset else [0]
    placed = set(order)
    for src in order:  # order grows as it is read
        for w in adj_sets[src]:
            if w < n_inner and w not in placed:
                placed.add(w)
                order.append(w)
    order.extend(range(n_inner, nverts))
    # with heights free and directions kept, every assigned vertex moves by the
    # centre's height shift: each later one has an assigned neighbour at its turn
    one_shift = orientation_preserving and not height_preserving

    img: list[int | None] = [None] * nverts
    used = [False] * nverts
    # used_nbrs[w]: how many neighbours of w are assigned images
    used_nbrs = [0] * nverts
    cls_img: list[int | None] = [None] * len(cfg_ids)
    cls_img_refs = [0] * len(cfg_ids)
    cls_img_used = [False] * len(cfg_ids)
    results: set[tuple[int, ...]] = set()

    def candidates(i: int):
        # the assigned images next to an image w of i are exactly the images
        # of i's assigned neighbours: w is next to each of them, and has as
        # many assigned-image neighbours as i has assigned neighbours.  A
        # vertex with an assigned neighbour draws its pool from the first
        # such image's neighbours of its signature and checks the rest; only
        # the first vertex of the order has none, and scans the ball.
        # Identity-coset vertices may only map to themselves, and check every
        # image like any other assignment
        req = [img[u] for u in adj_sets[i] if img[u] is not None]
        sig = sigs[i]
        if fix_identity_coset and not digits[i]:
            pool, rest = (i,), req
        else:
            pool = [w for w in (adj_sets[req[0]] if req else range(nverts)) if sigs[w] == sig]
            rest = req[1:]
        nreq = len(req)
        out = []
        for w in pool:
            if used[w] or used_nbrs[w] != nreq:
                continue
            if rest and not all(w in adj_sets[x] for x in rest):
                continue
            if one_shift and req and height[w] - height[i] != height[img[0]] - height[0]:
                continue
            if pattern_preserving:
                c, ci = cls[i], cls[w]
                if cls_img[c] is not None:
                    if cls_img[c] != ci:
                        continue
                elif cls_img_used[ci] or fiber_size[c] != fiber_size[ci]:
                    continue
            out.append(w)
        return out

    def assign(i: int, w: int):
        img[i] = w
        used[w] = True
        for x in adj_sets[w]:
            used_nbrs[x] += 1
        if pattern_preserving:
            c = cls[i]
            if cls_img[c] is None:
                cls_img[c] = cls[w]
                cls_img_used[cls[w]] = True
            cls_img_refs[c] += 1

    def unassign(i: int, w: int):
        img[i] = None
        used[w] = False
        for x in adj_sets[w]:
            used_nbrs[x] -= 1
        if pattern_preserving:
            c = cls[i]
            cls_img_refs[c] -= 1
            if cls_img_refs[c] == 0:
                cls_img_used[cls_img[c]] = False
                cls_img[c] = None

    # backtracking over an explicit stack: stack[pos] iterates the untried
    # candidates of order[pos]; on return to a frame its current candidate,
    # if any, is unassigned before the next one is tried
    stack = [iter(candidates(order[0]))]
    nodes = 0
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if img[i] is not None:
            unassign(i, img[i])
        w = next(stack[pos], None)
        if w is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise DomainError(f"the radius-{radius} search passes MAX_SEARCH_NODES = "
                              f"{MAX_SEARCH_NODES} nodes")
        assign(i, w)
        if pos + 1 < nverts:
            stack.append(iter(candidates(order[pos + 1])))
            continue
        key = tuple(img[:n_inner])
        if key not in results:
            results.add(key)
            if max_results is not None and len(results) >= max_results:
                break
        # one witness completion over the boundary sphere is enough: the
        # returned restriction does not depend on it
        while len(stack) > n_inner:
            i = order[len(stack) - 1]
            unassign(i, img[i])
            stack.pop()
    # vertex objects only for the inner vertices and their images
    found = sorted(results)
    need = list(set(range(n_inner)).union(*found))
    verts = dict(zip(need, ball.vertices(need)))
    return [{verts[i]: verts[w] for i, w in enumerate(key)} for key in found]


def is_identity_ball_map(m: dict[DLVertex, DLVertex]) -> bool:
    return all(v == w for v, w in m.items())
