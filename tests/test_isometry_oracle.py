"""isometry_search pinned to the search it replaced, which took every
vertex's candidates from the whole pool of its signature.

The library search takes a vertex's candidates from the neighbours of one
assigned neighbour's image.  That is exact, because the adjacency test of
each search forces every candidate next to that image (the oracle compares
V-bit masks, the library counts each candidate's assigned-image neighbours
and checks the other required images), and both lists are in ascending
index order.  So the two return equal lists, in equal order,
also when max_results cuts the search short and the order of the results
decides which maps are returned.
"""

import itertools

import pytest

import lampgeo as lg
from lampgeo import DLVertex, DomainError, LampConfig


def _whole_pool_search(
    radius: int,
    height_preserving: bool = True,
    orientation_preserving: bool = True,
    fix_identity_coset: bool = True,
    pattern_preserving: bool = True,
    n: int = 2,
    max_results: int | None = None,
) -> list[dict[DLVertex, DLVertex]]:
    # oracle: the backtracking search as it was, every vertex's candidates
    # taken from the whole pool of its signature
    if radius < 2:
        raise DomainError("radius must be >= 2")
    if max_results is not None and max_results < 1:
        return []
    verts, dcenter, adj_sets = lg.ball_graph(lg.identity_vertex(n), radius)
    nverts = len(verts)
    adj_mask = [sum(1 << w for w in ws) for ws in adj_sets]
    height = [v.cursor for v in verts]
    updeg = [sum(1 for w in ws if height[w] == height[i] + 1) for i, ws in enumerate(adj_sets)]
    downdeg = [len(ws) - u for ws, u in zip(adj_sets, updeg)]

    cfg_ids: dict[LampConfig, int] = {}
    cls = [cfg_ids.setdefault(v.config, len(cfg_ids)) for v in verts]
    fiber_size = [0] * len(cfg_ids)
    for c in cls:
        fiber_size[c] += 1

    def signature(i: int):
        sig = [len(adj_sets[i])]
        if fix_identity_coset:
            sig.append(dcenter[i])
        if height_preserving:
            sig += [height[i], updeg[i], downdeg[i]]
        return tuple(sig)

    sigs = [signature(i) for i in range(nverts)]
    pools: dict[tuple, list[int]] = {}
    for i in range(nverts):
        pools.setdefault(sigs[i], []).append(i)

    inner_set = [i for i in range(nverts) if dcenter[i] <= radius - 1]
    geodesic = [i for i, v in enumerate(verts) if v.config.is_zero()] if fix_identity_coset else []
    # assignment order: pre-fixed geodesic first, then BFS from the centre over
    # the inner ball (reaching all of it) so every new vertex touches an already-
    # assigned one; boundary-sphere vertices come last and are only completed
    # once per inner assignment
    order: list[int] = [i for i in geodesic if dcenter[i] <= radius - 1]
    placed = set(order)
    if not order:
        order.append(0)
        placed.add(0)
    queue = list(order)
    qi = 0
    while qi < len(queue):
        src = queue[qi]
        qi += 1
        for w in adj_sets[src]:
            if w not in placed and dcenter[w] <= radius - 1:
                placed.add(w)
                order.append(w)
                queue.append(w)
    n_inner = len(order)
    boundary_order = [i for i in range(nverts) if i not in placed]
    order.extend(boundary_order)

    img: list[int | None] = [None] * nverts
    used = [False] * nverts
    nbr_img_req = [0] * nverts
    assigned_img_mask = 0
    cls_img: list[int | None] = [None] * len(cfg_ids)
    cls_img_refs = [0] * len(cfg_ids)
    cls_img_used = [False] * len(cfg_ids)
    results: dict[tuple, dict[DLVertex, DLVertex]] = {}

    def candidates(i: int):
        # identity-coset vertices may only map to themselves, but still have
        # to pass every consistency check like any other assignment
        if fix_identity_coset and verts[i].config.is_zero():
            pool = (i,)
        else:
            pool = pools[sigs[i]]
        req = nbr_img_req[i]
        out = []
        for w in pool:
            if used[w]:
                continue
            if adj_mask[w] & assigned_img_mask != req:
                continue
            if orientation_preserving and not height_preserving:
                ok = True
                for u in adj_sets[i]:
                    if img[u] is not None and height[img[u]] - height[w] != height[u] - height[i]:
                        ok = False
                        break
                if not ok:
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
        nonlocal assigned_img_mask
        img[i] = w
        used[w] = True
        assigned_img_mask |= 1 << w
        for u in adj_sets[i]:
            nbr_img_req[u] |= 1 << w
        if pattern_preserving:
            c = cls[i]
            if cls_img[c] is None:
                cls_img[c] = cls[w]
                cls_img_used[cls[w]] = True
            cls_img_refs[c] += 1

    def unassign(i: int, w: int):
        nonlocal assigned_img_mask
        img[i] = None
        used[w] = False
        assigned_img_mask &= ~(1 << w)
        for u in adj_sets[i]:
            nbr_img_req[u] &= ~(1 << w)
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
    while stack:
        pos = len(stack) - 1
        i = order[pos]
        if img[i] is not None:
            unassign(i, img[i])
        w = next(stack[pos], None)
        if w is None:
            stack.pop()
            continue
        assign(i, w)
        if pos + 1 < nverts:
            stack.append(iter(candidates(order[pos + 1])))
            continue
        key = tuple(img[i] for i in inner_set)
        if key not in results:
            results[key] = {verts[i]: verts[img[i]] for i in inner_set}
            if max_results is not None and len(results) >= max_results:
                break
        # one witness completion over the boundary sphere is enough: the
        # returned restriction does not depend on it
        while len(stack) > n_inner:
            i = order[len(stack) - 1]
            unassign(i, img[i])
            stack.pop()
    return [results[k] for k in sorted(results)]



FLAGS = list(itertools.product((True, False), repeat=4))


# with the identity coset and the pattern left free, the search finds 2^16
# maps at n = 2, r = 4 (15 s), and more beyond; max_results cuts those
# searches, where the order of the results decides which maps are returned
@pytest.mark.parametrize("n,radius,cap", [(2, 2, None), (2, 3, None), (2, 4, 64), (2, 5, 64),
                                          (2, 6, 64), (2, 7, None), (3, 2, None), (3, 3, 64)])
def test_search_equals_whole_pool_search_under_every_constraint_combination(n, radius, cap):
    # flags in the order height, orientation, identity coset, pattern; at
    # r = 7 only the strict search, FLAGS[0], which finds one map, where the
    # oracle, with no node budget, would run on with constraints left off
    for flags in FLAGS if radius < 7 else FLAGS[:1]:
        got = lg.isometry_search(radius, *flags, n=n, max_results=cap)
        assert got == _whole_pool_search(radius, *flags, n=n, max_results=cap), flags


@pytest.mark.parametrize("n,radius", [(2, 3), (2, 4), (3, 2), (3, 3)])
@pytest.mark.parametrize("max_results", [1, 2, 7])
def test_cut_search_returns_the_same_first_results(n, radius, max_results):
    for flags in itertools.product((True, False), repeat=3):
        got = lg.isometry_search(radius, *flags, False, n=n, max_results=max_results)
        assert got == _whole_pool_search(radius, *flags, False, n=n, max_results=max_results), flags
