import random
from bisect import bisect_right

import pytest
from hypothesis import example, given, strategies as st

from f2froute.adversary import apply_att_rand, attach_attacker
from f2froute.embedding import (
    Embedding,
    EmbeddingConfig,
    TreeRanks,
    assign_coordinates,
    cpl,
    delta_cpl,
    delta_td,
    order_key,
)
from f2froute.graph import Graph, generate_synthetic
from f2froute.trees import TreeConfig, construct_trees

CFG = EmbeddingConfig(bits_per_element=16, max_length=32)

coords = st.lists(st.integers(min_value=0, max_value=7), max_size=6).map(tuple)


def build(n=60, gamma=2, seed=1):
    g = generate_synthetic("er", n, 0.12, seed=seed)
    ts = construct_trees(g, TreeConfig(gamma=gamma, rng_seed=seed), list(range(gamma)))
    return g, ts, assign_coordinates(ts, CFG, seed + 100)


def test_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(bits_per_element=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(max_length=0)


def test_coordinate_structure():
    g, ts, emb = build()
    for i in range(ts.gamma):
        root = ts.roots[i]
        assert emb.coord(i, root) == ()
        for v in range(ts.node_count):
            if v == root:
                continue
            p = ts.parent[i][v]
            c, pc_ = emb.coord(i, v), emb.coord(i, p)
            assert len(c) == len(pc_) + 1 == ts.level[i][v]
            assert c[:-1] == pc_
        for u in range(ts.node_count):
            kids = ts.children[i][u]
            last = [emb.coord(i, k)[-1] for k in kids]
            assert len(set(last)) == len(last)  # siblings never collide


def test_assignment_deterministic():
    _, ts, emb1 = build(seed=3)
    emb2 = assign_coordinates(ts, CFG, 103)
    assert emb1.coords == emb2.coords


def test_sibling_exhaustion_raises():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    ts = construct_trees(g, TreeConfig(rng_seed=0), [0])
    tiny = EmbeddingConfig(bits_per_element=1, max_length=8)
    with pytest.raises(ValueError, match="siblings"):
        assign_coordinates(ts, tiny, 0)


def test_delta_td_is_tree_hop_distance():
    g, ts, emb = build(n=50)
    # oracle: BFS over the tree's own edges
    n = ts.node_count
    adj = [[] for _ in range(n)]
    for v in range(n):
        p = ts.parent[0][v]
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    from collections import deque

    for src in range(0, n, 7):
        dist = [-1] * n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        for dst in range(n):
            assert delta_td(emb.coord(0, src), emb.coord(0, dst)) == dist[dst]


@given(coords, coords)
def test_cpl_symmetric_and_bounded(x, y):
    m = cpl(x, y)
    assert m == cpl(y, x)
    assert m <= min(len(x), len(y))
    assert x[:m] == y[:m]
    if m < len(x) and m < len(y):
        assert x[m] != y[m]


@given(coords, coords)
def test_delta_cpl_identity_and_symmetry(x, y):
    assert delta_cpl(x, x, CFG) == 0
    assert delta_cpl(x, y, CFG) == delta_cpl(y, x, CFG)
    if x != y:
        assert delta_cpl(x, y, CFG) > 0


@given(coords, coords, coords)
def test_cpl_order_key_orders_like_delta_cpl(a, x, y):
    key = order_key("CPL", lambda u, c: cpl(c, a))
    dx, dy = delta_cpl(a, x, CFG), delta_cpl(a, y, CFG)
    kx, ky = key(None, x), key(None, y)
    assert (dx < dy) == (kx < ky)
    assert (dx == dy) == (kx == ky)


@given(coords, coords)
def test_td_order_key_is_delta_td_less_target_length(a, x):
    key = order_key("TD", lambda u, c: cpl(c, a))
    assert key(None, x) == delta_td(x, a) - len(a)


def assert_rank_matches_cpl(coord_list, targets, weight=1):
    ranks = TreeRanks(coord_list)
    assert ranks.ordered == sorted(c for c in coord_list if c is not None)
    for target in targets:
        bounds, table = ranks.match_table(target, weight)
        for v, c in enumerate(coord_list):
            if c is None:
                assert ranks.rank[v] == -1
                continue
            assert ranks.ordered[ranks.rank[v]] == c and ranks.length[v] == len(c)
            assert table[bisect_right(bounds, ranks.rank[v])] == weight * cpl(c, target)


# few distinct elements, so that prefixes are shared and elements repeat
# across levels; lists hold None and duplicates, and are seldom closed
# under prefixes
rank_coords = st.lists(st.integers(min_value=0, max_value=3) | st.just(2**128 - 1), max_size=5).map(tuple)


@given(st.lists(st.none() | rank_coords, max_size=12), rank_coords, st.sampled_from([1, 2, 1 << 32]))
@example([(0, 1), None, (0, 1), (1, 1, 1), (0, 1, 0, 2), (), (2, 0)], (0, 1, 0), 1)
def test_rank_matched_prefix_equals_cpl(coord_list, extra, weight):
    present = [c for c in coord_list if c is not None]
    assert_rank_matches_cpl(coord_list, present + [extra], weight)


def test_rank_matched_prefix_equals_cpl_under_att_rand():
    # the attacker's children carry fabricated prefixes that no node
    # holds; 8-bit elements let them share leading elements with real ones
    g, attacker = attach_attacker(generate_synthetic("pa", 120, 2, seed=3), 6, 4)
    cfg = EmbeddingConfig(bits_per_element=8, max_length=32)
    _, emb, _ = apply_att_rand(g, attacker, TreeConfig(gamma=3, rng_seed=5), cfg, 6)
    fabricated = 0
    for tree in emb.coords:
        held = set(tree)
        fabricated += sum(1 for c in tree if c and c[:-1] not in held)
        assert_rank_matches_cpl(tree, [c for c in tree if c is not None])
    assert fabricated  # the sets are not closed under prefixes


def test_delta_cpl_prefix_dominates_length():
    # deeper common prefix always beats a shorter coordinate with less overlap
    a = (1, 2, 3, 4)
    closer = (1, 2, 9)          # cpl 2
    shorter = (1, 8)            # cpl 1, shorter
    assert delta_cpl(a, closer, CFG) < delta_cpl(a, shorter, CFG)
    # equal cpl: shorter total length wins
    assert delta_cpl(a, (1, 2, 9), CFG) < delta_cpl(a, (1, 2, 9, 9), CFG)


def test_fabricated_children_prefixes():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (3, 6)])
    ts = construct_trees(g, TreeConfig(rng_seed=1), [0])
    emb = assign_coordinates(ts, CFG, 9, fabricate_children_of=1)
    own = emb.coord(0, 1)
    kids = ts.children[0][1]
    assert len(kids) >= 2
    prefixes = [emb.coord(0, k)[:-1] for k in kids]
    for pref in prefixes:
        assert len(pref) == len(own)  # claimed length is the true level
        assert pref != own
    assert len(set(prefixes)) == len(prefixes)  # each child a different lie
    # the rest of the tree is embedded honestly
    honest = assign_coordinates(ts, CFG, 9)
    assert honest.coord(0, 1) == own
