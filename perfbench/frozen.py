"""Finite input grids of the benchmark and the verifier results frozen for them.

Every quad_verify and qi job draws its parameters from the grids below, so
its output can be compared with a value recorded here.  The values were
computed with the library itself; run this file to recompute them and
compare them with the literals:

    PYTHONPATH=src python3 perfbench/frozen.py
"""

import random

# verify_lamp_claim(S=3, W) in full mode, n=2: W -> (count_checked, tuples_enumerated)
LAMP_S = 3
LAMP = {16: (1440, 84960), 17: (1760, 110880), 18: (2112, 141504),
        19: (2496, 177216), 20: (2912, 218400)}

# verify_taback(n, eps, M, bound, (kmin, kmax)): grid point -> count_checked.
# The grid surrounds acceptance criterion 7 (n=2, eps=3, M=64, 1024, (-5, 5)).
TABACK = {
    (2, 3, 32, 512, (-4, 4)): 320, (2, 3, 32, 512, (-5, 5)): 560,
    (2, 3, 32, 1024, (-4, 4)): 336, (2, 3, 32, 1024, (-5, 5)): 632,
    (2, 3, 64, 512, (-4, 4)): 192, (2, 3, 64, 512, (-5, 5)): 368,
    (2, 3, 64, 1024, (-4, 4)): 208, (2, 3, 64, 1024, (-5, 5)): 440,
    (3, 2, 32, 512, (-4, 4)): 384, (3, 2, 32, 512, (-5, 5)): 544,
    (3, 2, 32, 1024, (-4, 4)): 432, (3, 2, 32, 1024, (-5, 5)): 624,
    (3, 2, 64, 512, (-4, 4)): 288, (3, 2, 64, 512, (-5, 5)): 416,
    (3, 2, 64, 1024, (-4, 4)): 336, (3, 2, 64, 1024, (-5, 5)): 496,
    (3, 3, 32, 512, (-4, 4)): 384, (3, 3, 32, 512, (-5, 5)): 544,
    (3, 3, 32, 1024, (-4, 4)): 432, (3, 3, 32, 1024, (-5, 5)): 624,
    (3, 3, 64, 512, (-4, 4)): 288, (3, 3, 64, 512, (-5, 5)): 416,
    (3, 3, 64, 1024, (-4, 4)): 336, (3, 3, 64, 1024, (-5, 5)): 496,
}

# calibrate_schwartz(matrix, eps=1, box): (matrix, box) -> (M_star, count_checked)
SCHWARTZ_EPS = 1
SCHWARTZ_MATRICES = (((2, 1), (1, 1)), ((1, 1), (1, 2)), ((5, 2), (2, 1)))
SCHWARTZ_BOXES = (50, 60, 70, 80, 90, 100)
SCHWARTZ = {
    (((2, 1), (1, 1)), 50): (5, 832), (((2, 1), (1, 1)), 60): (5, 1040),
    (((2, 1), (1, 1)), 70): (5, 1072), (((2, 1), (1, 1)), 80): (5, 1080),
    (((2, 1), (1, 1)), 90): (5, 1256), (((2, 1), (1, 1)), 100): (5, 1320),
    (((1, 1), (1, 2)), 50): (5, 832), (((1, 1), (1, 2)), 60): (5, 1040),
    (((1, 1), (1, 2)), 70): (5, 1072), (((1, 1), (1, 2)), 80): (5, 1080),
    (((1, 1), (1, 2)), 90): (5, 1256), (((1, 1), (1, 2)), 100): (5, 1320),
    (((5, 2), (2, 1)), 50): (3, 288), (((5, 2), (2, 1)), 60): (3, 288),
    (((5, 2), (2, 1)), 70): (3, 368), (((5, 2), (2, 1)), 80): (3, 416),
    (((5, 2), (2, 1)), 90): (3, 432), (((5, 2), (2, 1)), 100): (3, 440),
}

# qi_distortion at radius 5 of m=3 block permutations, given as the images
# of window values 0..7 (bit j of a value is the lamp at window index j):
# pi(100) <-> pi(111) first, then the fixed sample drawn by _qi_pool
QI_RADIUS = 5
QI = {
    (0, 7, 2, 3, 4, 5, 6, 1): 4, (0, 6, 5, 7, 4, 2, 1, 3): 4,
    (6, 1, 3, 0, 2, 4, 5, 7): 4, (2, 4, 1, 7, 6, 3, 5, 0): 4,
    (3, 6, 2, 5, 7, 1, 4, 0): 4, (7, 3, 2, 5, 0, 4, 6, 1): 4,
    (3, 7, 0, 4, 5, 2, 1, 6): 4, (5, 4, 0, 6, 7, 1, 2, 3): 4,
    (7, 5, 1, 6, 2, 4, 0, 3): 4, (4, 7, 6, 1, 2, 5, 0, 3): 4,
    (4, 1, 7, 6, 0, 2, 3, 5): 4, (7, 0, 2, 5, 3, 6, 1, 4): 4,
    (4, 2, 5, 1, 6, 7, 3, 0): 4, (2, 3, 7, 5, 0, 1, 6, 4): 4,
    (4, 5, 2, 0, 7, 3, 6, 1): 4, (0, 2, 5, 1, 6, 7, 4, 3): 4,
}
QI_POOL = tuple(QI)

# |ball of radius r| in DL(2,2), for r = 0..7
BALL_SIZE = (1, 5, 15, 39, 92, 208, 452, 964)


def _qi_pool():
    rng = random.Random("lampgeo-qi-pool")
    pool = [(0, 7, 2, 3, 4, 5, 6, 1)]
    while len(pool) < 16:
        perm = list(range(8))
        rng.shuffle(perm)
        if tuple(perm) not in pool:
            pool.append(tuple(perm))
    return tuple(pool)


def compute():
    """Recompute every frozen table with the library on the import path."""
    import lampgeo as lg
    from workloads import block_perm

    out = {"LAMP": {}, "TABACK": {}, "SCHWARTZ": {}, "QI": {}}
    for w in LAMP:
        rep = lg.verify_lamp_claim(LAMP_S, w)
        out["LAMP"][w] = (rep.count_checked, rep.search_space["tuples_enumerated"])
    for key in TABACK:
        n, eps, m, bound, kr = key
        out["TABACK"][key] = lg.verify_taback(n, eps, m, bound, kr).count_checked
    for mat in SCHWARTZ_MATRICES:
        ctx = lg.sol_invariant_form(mat)
        for box in SCHWARTZ_BOXES:
            rep = lg.calibrate_schwartz(ctx, SCHWARTZ_EPS, box)
            out["SCHWARTZ"][(mat, box)] = (rep.extras["M_star"], rep.count_checked)
    for perm in _qi_pool():
        vm = lg.induced_vertex_map(block_perm(3, perm))
        out["QI"][perm] = lg.qi_distortion(vm, QI_RADIUS)
    out["BALL_SIZE"] = tuple(len(lg.ball(lg.identity_vertex(2), r)) for r in range(8))
    return out


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    stale = [name for name, value in compute().items() if globals()[name] != value]
    print("frozen tables match the library" if not stale else f"frozen tables differ: {stale}")
    sys.exit(1 if stale else 0)
