import math
import random
from collections import Counter

import pytest

from f2froute import overlay as overlay_mod
from f2froute.embedding import EmbeddingConfig, assign_coordinates
from f2froute.graph import Graph, generate_synthetic
from f2froute.overlay import (
    ID_BITS,
    DhtConfig,
    assign_ids,
    build_overlay,
    closer_entries,
    dht_lookup,
    xor_distance,
)
from f2froute.routing import RoutingConfig
from f2froute.trees import TreeConfig, construct_trees

CFG = EmbeddingConfig(bits_per_element=16, max_length=32)


def id_cpl(a, b):
    """Number of shared leading bits of two identifiers."""
    return ID_BITS - (a ^ b).bit_length()


def build(n=120, gamma=2, seed=1):
    g = generate_synthetic("pa", n, 2, seed=seed)
    ts = construct_trees(g, TreeConfig(gamma=gamma, rng_seed=seed), list(range(gamma)))
    return g, assign_coordinates(ts, CFG, seed + 10)


def test_config_validation():
    with pytest.raises(ValueError):
        DhtConfig(bucket_size=0)
    with pytest.raises(ValueError):
        DhtConfig(alpha=0)


def test_id_helpers():
    assert id_cpl(5, 5) == 160
    assert id_cpl(0, 1 << 159) == 0
    assert id_cpl(0, 1) == 159
    assert xor_distance(12, 10) == 6
    ids = assign_ids(50, 3)
    assert len(set(ids)) == 50
    assert assign_ids(50, 3) == ids


def test_two_nodes_know_each_other():
    g = Graph.from_edges(2, [(0, 1)])
    nodes = build_overlay(g, DhtConfig(), 5)
    for v, other in ((0, 1), (1, 0)):
        entries = [e for b in nodes[v].buckets.values() for e in b]
        assert len(entries) == 1 and entries[0].node == other


def test_bucket_invariants():
    g, _ = build(n=200)
    cfg = DhtConfig(bucket_size=4)
    nodes = build_overlay(g, cfg, 7)
    ids = [dn.kad_id for dn in nodes]
    for dn in nodes:
        # the sibling branch of depth j: every peer sharing exactly j leading bits
        branch = Counter(id_cpl(dn.kad_id, x) for x in ids if x != dn.kad_id)
        assert set(dn.buckets) == set(branch)
        for j, bucket in dn.buckets.items():
            assert len({e.node for e in bucket}) == len(bucket) == min(cfg.bucket_size, branch[j])
            for e in bucket:
                assert id_cpl(dn.kad_id, e.kad_id) == j and ids[e.node] == e.kad_id


def test_filled_bucket_count_scales_logarithmically():
    g, _ = build(n=256)
    n = g.node_count
    means = []
    for seed in range(5):
        nodes = build_overlay(g, DhtConfig(), seed)
        means.append(sum(len(dn.buckets) for dn in nodes) / n)
    avg = sum(means) / len(means)
    # expected number of non-empty sibling branches is about log2 n
    assert 0.7 * math.log2(n) < avg < 1.6 * math.log2(n)


def test_lookup_own_id_is_free():
    g, emb = build(n=50)
    nodes = build_overlay(g, DhtConfig(), 3)
    out = dht_lookup(nodes[7].kad_id, 7, nodes, g, emb, DhtConfig(), RoutingConfig(tau=2))
    assert out.success and out.terminal == 7
    assert out.overlay_hops == 0 and out.underlay_hops == 0


def test_lookup_reaches_global_closest():
    g, emb = build(n=150, seed=4)
    n = g.node_count
    rcfg = RoutingConfig(tau=2)
    for alpha in (1, 2):
        cfg = DhtConfig(alpha=alpha)
        nodes = build_overlay(g, cfg, 9)
        rng = random.Random(2)
        for _ in range(60):
            key = rng.getrandbits(160)
            origin = rng.randrange(n)
            out = dht_lookup(key, origin, nodes, g, emb, cfg, rcfg, rng=rng)
            best = min(range(n), key=lambda v: xor_distance(nodes[v].kad_id, key))
            assert out.success and out.terminal == best
            assert out.overlay_hops == len(out.overlay_path) - 1


def scan_closer_entries(dn, key):
    """Every entry of every bucket, kept if closer to key than dn, sorted."""
    d_u = xor_distance(dn.kad_id, key)
    es = [e for b in dn.buckets.values() for e in b if xor_distance(e.kad_id, key) < d_u]
    es.sort(key=lambda e: xor_distance(e.kad_id, key))
    return es


def test_closer_entries_match_scan_and_sort():
    g, _ = build(n=200)
    nodes = build_overlay(g, DhtConfig(bucket_size=4), 17)
    rng = random.Random(18)
    keys = [rng.getrandbits(ID_BITS) for _ in range(200)]
    keys += [nodes[v].kad_id ^ (1 << rng.randrange(ID_BITS)) for v in range(0, 200, 20)]

    def check():
        for dn in nodes:
            for key in keys + [dn.kad_id]:
                assert closer_entries(dn, key) == scan_closer_entries(dn, key)

    check()
    # evict a third of the peers everywhere, emptying some buckets
    filled = sum(len(dn.buckets) for dn in nodes)
    for victim in rng.sample(range(200), 66):
        for dn in nodes:
            dn.remove_entry(victim)
    assert sum(len(dn.buckets) for dn in nodes) < filled
    for dn in nodes:
        assert all(dn.buckets.values())
        for bucket in dn.buckets.values():
            assert isinstance(bucket, tuple)
    check()


def test_lookup_xor_strictly_decreases_alpha1():
    g, emb = build(n=100, seed=6)
    cfg = DhtConfig(alpha=1)
    nodes = build_overlay(g, cfg, 11)
    rng = random.Random(5)
    key = rng.getrandbits(160)
    out = dht_lookup(key, 3, nodes, g, emb, cfg, RoutingConfig(tau=2), rng=rng)
    dists = [xor_distance(nodes[v].kad_id, key) for v in out.overlay_path]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def test_alpha3_still_correct():
    g, emb = build(n=80, seed=8)
    cfg = DhtConfig(alpha=3)
    nodes = build_overlay(g, cfg, 13)
    rng = random.Random(7)
    n = g.node_count
    for _ in range(20):
        key = rng.getrandbits(160)
        out = dht_lookup(key, rng.randrange(n), nodes, g, emb, cfg, RoutingConfig(tau=2), rng=rng)
        best = min(range(n), key=lambda v: xor_distance(nodes[v].kad_id, key))
        assert out.terminal == best


def test_underlay_hops_sum_contact_costs(monkeypatch):
    g, emb = build(n=60, seed=3)
    cfg = DhtConfig(alpha=1)
    nodes = build_overlay(g, cfg, 1)
    calls = []

    real = overlay_mod.route_multi

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out.total_hops)
        return out

    monkeypatch.setattr(overlay_mod, "route_multi", spy)
    out = dht_lookup(random.Random(9).getrandbits(160), 0, nodes, g, emb, cfg, RoutingConfig(tau=2))
    assert out.underlay_hops == sum(calls)
    assert len(calls) >= out.overlay_hops


def test_dead_entry_evicted_on_failed_contact():
    g, emb = build(n=40, seed=5)
    cfg = DhtConfig(alpha=1)
    nodes = build_overlay(g, cfg, 2)
    n = g.node_count
    # pick an origin that has some entry, kill that entry's node
    origin = 0
    victim = next(iter(nodes[origin].buckets.values()))[0].node
    live = [v != victim for v in range(n)]
    key = nodes[victim].kad_id  # aim straight at the dead node
    dht_lookup(key, origin, nodes, g, emb, cfg, RoutingConfig(tau=2), live=live)
    assert victim not in [e.node for b in nodes[origin].buckets.values() for e in b]


def test_lookup_with_every_closer_entry_dead_fails_at_origin():
    g, emb = build(n=60, seed=6)
    cfg = DhtConfig(alpha=2)
    nodes = build_overlay(g, cfg, 4)
    origin, key = 3, random.Random(5).getrandbits(ID_BITS)
    dead = {e.node for e in closer_entries(nodes[origin], key)}
    assert dead and origin not in dead
    live = [v not in dead for v in range(g.node_count)]
    out = dht_lookup(key, origin, nodes, g, emb, cfg, RoutingConfig(tau=2), live=live)
    assert (out.success, out.terminal, out.overlay_hops, out.underlay_hops) == (False, None, 0, 0)
    assert out.overlay_path == [origin]
    assert dead.isdisjoint(e.node for b in nodes[origin].buckets.values() for e in b)


def test_lookups_survive_churn_after_stabilization():
    g, emb = build(n=150, seed=12)
    n = g.node_count
    cfg = DhtConfig()
    nodes = build_overlay(g, cfg, 6)
    rng = random.Random(3)
    dead = set(rng.sample(range(n), n // 10))
    live = [v not in dead for v in range(n)]
    ok = 0  # no maintenance round: each lookup evicts the dead entries it contacts
    for _ in range(30):
        key = rng.getrandbits(160)
        origin = rng.choice([v for v in range(n) if live[v]])
        out = dht_lookup(key, origin, nodes, g, emb, cfg, RoutingConfig(tau=2), live=live, rng=rng)
        if out.success and live[out.terminal]:
            ok += 1
    assert ok >= 28  # a dense pa graph keeps its giant component intact
