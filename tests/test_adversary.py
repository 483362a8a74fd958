import random

import pytest

from f2froute.adversary import (
    AdversaryConfig,
    all_live,
    apply_att_rand,
    apply_att_root,
    attach_attacker,
    choose_roots,
    failure_order,
    inject_failures,
)
from f2froute.embedding import EmbeddingConfig, assign_coordinates, cpl
from f2froute.graph import Graph, generate_synthetic
from f2froute.routing import RoutingConfig, route
from f2froute.trees import TreeConfig

CFG = EmbeddingConfig(bits_per_element=16, max_length=32)


def test_config_validation():
    with pytest.raises(ValueError):
        AdversaryConfig(mode="ddos")
    with pytest.raises(ValueError):
        AdversaryConfig(failure_fraction=0.6)
    with pytest.raises(ValueError):
        AdversaryConfig(mode="att-rand", attacker_edges=0)
    AdversaryConfig(mode="att-root", attacker_edges=16)  # fine


def test_inject_failures_counts():
    g = generate_synthetic("er", 100, 0.08, seed=1)
    n = g.node_count
    assert all(inject_failures(g, 0.0, 3).live)
    half = inject_failures(g, 0.5, 3)
    assert sum(not x for x in half.live) == n // 2
    with pytest.raises(ValueError):
        inject_failures(g, 0.7, 3)


def test_failure_sets_nested_across_fractions():
    g = generate_synthetic("er", 120, 0.08, seed=2)
    failed = {}
    for frac in (0.1, 0.2, 0.4):
        mask = inject_failures(g, frac, seed=9)
        failed[frac] = {v for v, ok in enumerate(mask.live) if not ok}
    assert failed[0.1] <= failed[0.2] <= failed[0.4]
    order = failure_order(g.node_count, 9)
    assert failed[0.4] == set(order[: int(0.4 * g.node_count)])


def test_attach_attacker():
    g = generate_synthetic("pa", 200, 2, seed=4)
    n = g.node_count
    g2, attacker = attach_attacker(g, 16, seed=5)
    assert attacker == n and g2.node_count == n + 1
    assert g2.degree(attacker) == 16
    # honest edges untouched
    assert sorted(g.edges()) == [e for e in sorted(g2.edges()) if attacker not in e]
    with pytest.raises(ValueError):
        attach_attacker(g, n + 1, seed=0)


def test_choose_roots_excludes():
    g = generate_synthetic("er", 40, 0.15, seed=1)
    roots = choose_roots(g, 5, seed=3, exclude=(0,))
    assert len(roots) == len(set(roots)) == 5
    assert 0 not in roots
    big = choose_roots(g, g.node_count + 3, seed=3)
    assert len(big) == g.node_count + 3  # repeats allowed past n
    with pytest.raises(ValueError, match="no eligible root nodes"):
        choose_roots(g, 1, seed=3, exclude=range(g.node_count))


def test_att_rand_fabricates_child_prefixes_only():
    g = generate_synthetic("pa", 150, 3, seed=7)
    g2, attacker = attach_attacker(g, 12, seed=8)
    tcfg = TreeConfig(gamma=2, rng_seed=9)
    ts, emb, mask = apply_att_rand(g2, attacker, tcfg, CFG, emb_seed=10)
    assert mask.attacker == attacker and mask.drop_nodes == {attacker}
    assert all(mask.live)
    assert attacker not in ts.roots
    honest = assign_coordinates(ts, CFG, 10)
    lied = 0
    for i in range(2):
        own = emb.coord(i, attacker)
        assert own == honest.coord(i, attacker)  # its own coordinate is real
        prefixes = [emb.coord(i, c)[:-1] for c in ts.children[i][attacker]]
        for pref in prefixes:
            assert len(pref) == ts.level[i][attacker]
            if pref != own:
                lied += 1
        assert len(set(prefixes)) == len(prefixes)  # each child a distinct lie
    assert lied == sum(len(ts.children[i][attacker]) for i in range(2))
    # tree construction itself is untouched by the attack
    from f2froute.trees import construct_trees

    ref = construct_trees(g2, tcfg, ts.roots)
    assert ref.parent == ts.parent


def test_att_root_seizes_all_roots_and_embeds_honestly():
    g = generate_synthetic("pa", 100, 2, seed=3)
    g2, attacker = attach_attacker(g, 8, seed=4)
    ts, emb, mask = apply_att_root(g2, attacker, TreeConfig(gamma=3, rng_seed=5), CFG, emb_seed=6)
    assert ts.roots == [attacker] * 3
    for i in range(3):
        assert emb.coord(i, attacker) == ()
        for c in ts.children[i][attacker]:
            assert len(emb.coord(i, c)) == 1  # honest embedding below the root
    assert mask.drop_nodes == {attacker}


def test_att_root_star_graph_blocks_everything():
    # the attacker is the hub: every tree path crosses it, no shortcuts
    leaves = 6
    g = Graph.from_edges(leaves + 1, [(leaves, i) for i in range(leaves)])
    ts, emb, mask = apply_att_root(g, leaves, TreeConfig(rng_seed=1), CFG, emb_seed=2)
    cfg = RoutingConfig(metric="TD")
    rng = random.Random(0)
    for s in range(leaves):
        for d in range(leaves):
            if s != d:
                out = route(g, emb, s, d, 0, cfg, drop_nodes=mask.drop_nodes, rng=rng)
                assert not out.success


def test_att_rand_children_do_not_share_attacker_prefix():
    g = generate_synthetic("pa", 80, 2, seed=11)
    g2, attacker = attach_attacker(g, 10, seed=12)
    ts, emb, _ = apply_att_rand(g2, attacker, TreeConfig(rng_seed=13), CFG, emb_seed=14)
    own = emb.coord(0, attacker)
    for c in ts.children[0][attacker]:
        child = emb.coord(0, c)
        if own:  # random 16-bit prefixes essentially never collide
            assert cpl(child, own) < len(own)


def test_all_live_helper():
    m = all_live(5, attacker=2)
    assert m.live_nodes() == [0, 1, 2, 3, 4]
    assert m.live[2] and m.drop_nodes == {2}
    assert all_live(3).drop_nodes == frozenset()
