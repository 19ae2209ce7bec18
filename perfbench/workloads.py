"""Seeded verification-job workloads: input generators, job runners and checks.

A workload is an endless sequence of blocks.  Block ``b`` of workload ``w``
at seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{b}")``, so the same
seed always gives the same jobs.  Each block holds a fixed job mix in a
shuffled order, which keeps the share of each job class exact in every
whole block.  A class whose inputs come from a finite pool (a verifier
grid, the BFS sources, the qi permutations) walks through a seeded
permutation of the pool, so every run covers the pool evenly and its cost
hardly depends on the seed.

Every job is a public library call that a README subcommand or an
acceptance criterion makes.  ``run_job`` times nothing itself; it opens a
tracer span around each call into a layer.  ``check_job`` verifies the
output against an independent computation or a frozen value, and
``job_counts`` reads work counts from the returned reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import lampgeo as lg
from lampgeo import BSNumber, GeneratorSet, Quad
from lampgeo.maps import BlockPerm
from lampgeo.quads import BSFamily

import frozen

WORKLOADS = ("perm_scan", "quad_verify", "dl_rigidity")

# job classes of each workload and how many of each one block holds
MIX = {
    "perm_scan": {"bilip_m3": 4, "bilip_m4": 1},
    "quad_verify": {"lamp_claim": 5, "taback": 5, "schwartz": 5, "telescope": 5},
    "dl_rigidity": {"bfs": 12, "isometry": 4, "qi": 4},
}

BFS_SOURCE_RADIUS = 4
BFS_RADIUS = 6
ISO_RADII = (4, 5, 6, 7)
TELESCOPE_BATCH = 50
TELESCOPE_SIGMA = tuple(2 ** j for j in range(9))
# per pair, the packed biLipschitz scan reads two uint32 config indices and
# two int16 disagreement indices from its shared pair arrays
BILIP_BYTES_PER_PAIR = 4 + 4 + 2 + 2


@dataclass(frozen=True)
class Job:
    cls: str
    args: tuple


def block_perm(m: int, perm: tuple[int, ...]) -> BlockPerm:
    """Block permutation sending window value i to perm[i]; bit j of a value
    is the lamp at window index j, the leftmost character of its string."""
    def s(v: int) -> str:
        return "".join(str(v >> j & 1) for j in range(m))
    return BlockPerm.from_pairs(m, [(s(i), s(p)) for i, p in enumerate(perm)])


def _random_perm(rng: random.Random, m: int) -> tuple[int, ...]:
    perm = list(range(1 << m))
    rng.shuffle(perm)
    return tuple(perm)


def _telescope_batch(rng: random.Random) -> tuple:
    # seeded BS(1,2) parallelograms a, a+w, a+w+v, a+v as in acceptance
    # criterion 11, kept as plain integers: (a_r, a_k, w_r, w_k, v)
    out = []
    while len(out) < TELESCOPE_BATCH:
        ar, ak = rng.randint(-999, 999), rng.randint(-5, 5)
        wr, wk = rng.randint(-999, 999), rng.randint(-5, 5)
        v = rng.randint(1, 2000)
        if wr == 0 or abs(Fraction(wr) * Fraction(2) ** wk) == v:
            continue
        out.append((ar, ak, wr, wk, v))
    return tuple(out)


class Generator:
    """Seeded job source for one workload; sources of the BFS class come
    from the radius-4 ball, which is enumerated once."""

    def __init__(self, workload: str, seed: int):
        if workload not in MIX:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._orders: dict[str, list] = {}

    def _pool(self, cls: str) -> list:
        if cls == "taback":
            return sorted(frozen.TABACK)
        if cls == "schwartz":
            return sorted(frozen.SCHWARTZ)
        if cls == "qi":
            return list(frozen.QI_POOL)
        e = lg.identity_vertex(2)
        ball = sorted(lg.ball(e, BFS_SOURCE_RADIUS), key=lambda v: (v.cursor, v.config.entries))
        return [v for v in ball if v != e]

    def _cycled(self, cls: str, k: int):
        # k-th job of the class: the pool in a seeded order, over and over
        if cls not in self._orders:
            pool = self._pool(cls)
            self._orders[cls] = random.Random(f"{self.workload}:{self.seed}:{cls}").sample(pool, len(pool))
        order = self._orders[cls]
        return order[k % len(order)]

    def _draw(self, cls: str, rng: random.Random, k: int) -> Job:
        if cls in ("bilip_m3", "bilip_m4"):
            m = 3 if cls == "bilip_m3" else 4
            return Job(cls, (m, _random_perm(rng, m)))
        if cls == "lamp_claim":
            return Job(cls, (sorted(frozen.LAMP)[k % len(frozen.LAMP)],))
        if cls in ("taback", "schwartz"):
            return Job(cls, self._cycled(cls, k))
        if cls == "telescope":
            return Job(cls, _telescope_batch(rng))
        if cls in ("bfs", "qi"):
            return Job(cls, (self._cycled(cls, k),))
        if cls == "isometry":
            return Job(cls, (ISO_RADII[k % len(ISO_RADII)],))
        raise ValueError(f"unknown job class {cls!r}")

    def block(self, b: int) -> list[Job]:
        rng = random.Random(f"{self.workload}:{self.seed}:{b}")
        jobs = [self._draw(cls, rng, b * count + slot)
                for cls, count in MIX[self.workload].items() for slot in range(count)]
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list[Job]:
        """One job of each class, at a fixed cost where the class's cost
        depends on its parameters."""
        rng = random.Random(f"{self.workload}:{self.seed}:warmup")
        fixed = {
            "lamp_claim": Job("lamp_claim", (18,)),
            "taback": Job("taback", (2, 3, 64, 1024, (-5, 5))),
            "schwartz": Job("schwartz", (frozen.SCHWARTZ_MATRICES[0], 50)),
            "isometry": Job("isometry", (5,)),
        }
        return [fixed.get(cls) or self._draw(cls, rng, 0) for cls in MIX[self.workload]]


# ---------------------------------------------------------------------------
# running a job
# ---------------------------------------------------------------------------

def _run_bilip(args, tr, jid):
    m, perm = args
    with tr.span(f"maps.bilip.m{m}", jid):
        return lg.bilip_constants(block_perm(m, perm), padding=m)


def _run_lamp_claim(args, tr, jid):
    (width,) = args
    with tr.span("quads.lamp_claim", jid):
        return lg.verify_lamp_claim(frozen.LAMP_S, width)


def _run_taback(args, tr, jid):
    n, eps, m, bound, exp_range = args
    with tr.span("quads.taback", jid):
        return lg.verify_taback(n, eps, m, bound, exp_range)


def _run_schwartz(args, tr, jid):
    matrix, box = args
    with tr.span("base_groups.sol_invariant_form", jid):
        ctx = lg.sol_invariant_form(matrix)
    with tr.span("quads.schwartz", jid):
        return lg.calibrate_schwartz(ctx, frozen.SCHWARTZ_EPS, box)


def _run_telescope(args, tr, jid):
    fam = BSFamily(2)
    with tr.span("base_groups.bs_sigma", jid):
        sigma = GeneratorSet(fam, tuple(BSNumber.from_fraction(g, 2) for g in TELESCOPE_SIGMA))
    out = []
    for ar, ak, wr, wk, v in args:
        with tr.span("base_groups.bs_corners", jid):
            a = BSNumber.normalize(ar, ak, 2)
            w = BSNumber.normalize(wr, wk, 2)
            vb = BSNumber.from_fraction(v, 2)
            quad = Quad(fam, a, a + w, a + w + vb, a + vb)
        with tr.span("quads.telescope", jid):
            chain = lg.telescope_decompose(quad, sigma)
            holds = lg.telescoping_identity_holds(quad, chain)
        out.append((chain, holds))
    return out


def _run_bfs(args, tr, jid):
    (u,) = args
    with tr.span("dl_graph.distances_from", jid):
        table = lg.distances_from(u, BFS_RADIUS)
    with tr.span("dl_graph.dl_distance", jid, calls=len(table)):
        closed = [lg.dl_distance(u, w) for w in table]
    return table, closed


def _run_isometry(args, tr, jid):
    (radius,) = args
    with tr.span("maps.isometry", jid):
        return lg.isometry_search(radius)


def _run_qi(args, tr, jid):
    (perm,) = args
    with tr.span("maps.qi", jid):
        vm = lg.induced_vertex_map(block_perm(3, perm))
        return lg.qi_distortion(vm, frozen.QI_RADIUS)


_RUN = {
    "bilip_m3": _run_bilip, "bilip_m4": _run_bilip,
    "lamp_claim": _run_lamp_claim, "taback": _run_taback,
    "schwartz": _run_schwartz, "telescope": _run_telescope,
    "bfs": _run_bfs, "isometry": _run_isometry, "qi": _run_qi,
}


def run_job(job: Job, tr, jid: int):
    return _RUN[job.cls](job.args, tr, jid)


# ---------------------------------------------------------------------------
# checking a job's output
# ---------------------------------------------------------------------------

def bilip_deviations(m: int, perm: tuple[int, ...], padding: int) -> tuple[int, int]:
    """Independent integer pair scan of a block permutation on the window
    [-padding, m + padding): the largest change of the first and of the last
    disagreement index over all distinct config pairs.  K_lower and K_upper
    are 2 to these powers."""
    width = m + 2 * padding
    size = 1 << width
    block = ((1 << m) - 1) << padding
    img = [(x & ~block) | (perm[(x & block) >> padding] << padding) for x in range(size)]
    low = [0] + [(d & -d).bit_length() - 1 for d in range(1, size)]
    high = [0] + [d.bit_length() - 1 for d in range(1, size)]
    dev_low = dev_high = 0
    for d in range(1, size):
        top = high[d]
        # each unordered pair {x, x ^ d} once: x has a 0 at d's top bit
        diffs = [img[x] ^ img[x ^ d] for x in range(size) if not x >> top & 1]
        if not all(diffs):
            raise ValueError("block permutation is not injective on the window")
        lows = [low[e] for e in diffs]
        highs = [high[e] for e in diffs]
        dev_low = max(dev_low, low[d] - min(lows), max(lows) - low[d])
        dev_high = max(dev_high, high[d] - min(highs), max(highs) - high[d])
    return dev_low, dev_high


def _check_bilip(args, rep, full: bool) -> bool:
    m, perm = args
    bound = Fraction(2) ** m
    if not rep.exhaustive or rep.K_lower > bound or rep.K_upper > bound:
        return False
    if not full:
        return True
    dev_low, dev_high = bilip_deviations(m, perm, m)
    return rep.K_lower == Fraction(2) ** dev_low and rep.K_upper == Fraction(2) ** dev_high


def _check_lamp_claim(args, rep, full):
    (width,) = args
    found = (rep.count_checked, rep.search_space["tuples_enumerated"])
    return rep.violations == [] and not rep.vacuous and found == frozen.LAMP[width]


def _check_taback(args, rep, full):
    return (rep.violations == [] and rep.extras["side_relation_failures"] == []
            and rep.count_checked == frozen.TABACK[args])


def _check_schwartz(args, rep, full):
    found = (rep.extras["M_star"], rep.count_checked)
    return rep.violations == [] and not rep.vacuous and found == frozen.SCHWARTZ[args]


def _check_telescope(args, out, full):
    for (ar, ak, wr, wk, v), (chain, holds) in zip(args, out, strict=True):
        if not holds or not chain or not all(p.corner_holds() for p in chain):
            return False
        a = Fraction(ar) * Fraction(2) ** ak
        w = Fraction(wr) * Fraction(2) ** wk
        first, last = chain[0], chain[-1]
        if (first.p1.value(), first.p2.value()) != (a, a + w):
            return False
        if (last.p4.value(), last.p3.value()) != (a + v, a + w + v):
            return False
        steps = [p.p4.value() - p.p1.value() for p in chain]
        if sum(steps) != v or not all(s in TELESCOPE_SIGMA for s in steps):
            return False
    return True


def _check_bfs(args, out, full):
    table, closed = out
    return (len(table) == frozen.BALL_SIZE[BFS_RADIUS]
            and all(c == table[w] for w, c in zip(table, closed, strict=True)))


def _check_isometry(args, maps, full):
    # strict search: exactly the identity map on the radius-(r-1) ball
    (radius,) = args
    return (len(maps) == 1 and len(maps[0]) == frozen.BALL_SIZE[radius - 1]
            and all(v == w for v, w in maps[0].items()))


def _check_qi(args, dist, full):
    return dist == frozen.QI[args[0]]


_CHECK = {
    "bilip_m3": _check_bilip, "bilip_m4": _check_bilip,
    "lamp_claim": _check_lamp_claim, "taback": _check_taback,
    "schwartz": _check_schwartz, "telescope": _check_telescope,
    "bfs": _check_bfs, "isometry": _check_isometry, "qi": _check_qi,
}


def check_job(job: Job, out, full: bool = True) -> bool:
    """True when the output is correct.  ``full=False`` skips the costly
    independent pair scan of a biLipschitz job (its cheap checks still run)."""
    return _CHECK[job.cls](job.args, out, full)


# ---------------------------------------------------------------------------
# work counts read from the returned reports
# ---------------------------------------------------------------------------

def _pairs(k: int) -> int:
    return k * (k - 1) // 2


def job_counts(job: Job, out) -> dict[str, int]:
    cls = job.cls
    if cls in ("bilip_m3", "bilip_m4"):
        lo, hi = out.window
        pairs = _pairs(1 << (hi - lo))
        return {"maps.bilip.pairs_computed": pairs,
                "maps.bilip.bytes_computed": pairs * BILIP_BYTES_PER_PAIR}
    if cls == "lamp_claim":
        return {"quads.lamp_claim.enumerated": out.search_space["tuples_enumerated"],
                "quads.lamp_claim.checked": out.count_checked}
    if cls == "taback":
        return {"quads.taback.checked": out.count_checked}
    if cls == "schwartz":
        return {"quads.schwartz.checked": out.count_checked}
    if cls == "telescope":
        return {"quads.telescope.chain_steps": sum(len(chain) for chain, _ in out)}
    if cls == "bfs":
        return {"dl_graph.distances_from.vertices": len(out[0])}
    if cls == "isometry":
        return {"maps.isometry.ball_vertices": sum(len(m) for m in out),
                "maps.isometry.maps_found": len(out)}
    if cls == "qi":
        return {"maps.qi.pairs": _pairs(frozen.BALL_SIZE[frozen.QI_RADIUS])}
    raise ValueError(f"unknown job class {cls!r}")
