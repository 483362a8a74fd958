"""Quantitative profile on the Facebook WOSN friendship graph.

These tests reproduce published large-network numbers and need the
public "facebook-wosn-links" edge list (63392-node giant component).
Point the F2F_FACEBOOK_EDGELIST environment variable at the downloaded
edge-list file to enable them; they are skipped otherwise. Expect a
total runtime on the order of an hour or more.
"""

import os
import random

import pytest

from f2froute.adversary import (
    apply_att_rand,
    apply_att_root,
    attach_attacker,
    choose_roots,
    inject_failures,
)
from f2froute.embedding import EmbeddingConfig, assign_coordinates
from f2froute.graph import giant_component, load_edge_list
from f2froute.overlay import DhtConfig, build_overlay, dht_lookup
from f2froute.routing import RoutingConfig, route_multi
from f2froute.trees import TreeConfig, construct_trees
from f2froute.experiments import sample_pairs, stabilization_metric

DATASET = os.environ.get("F2F_FACEBOOK_EDGELIST")

pytestmark = pytest.mark.skipif(
    not DATASET,
    reason="set F2F_FACEBOOK_EDGELIST to the facebook-wosn-links edge list to run",
)

CFG = EmbeddingConfig(bits_per_element=128, max_length=128)

_cache = {}


def dataset_graph():
    if "g" not in _cache:
        _cache["g"] = giant_component(load_edge_list(DATASET))
    return _cache["g"]


def embed(g, gamma, strategy, seed):
    cfg = TreeConfig(gamma=gamma, strategy=strategy, rng_seed=seed)
    roots = choose_roots(g, gamma, seed)
    ts = construct_trees(g, cfg, roots)
    return ts, assign_coordinates(ts, CFG, seed + 1)


def mean_route_length(g, emb, metric, gamma, pairs, rng, live=None, drop=frozenset(), exclude=()):
    cfg = RoutingConfig(tau=gamma, metric=metric)
    lengths = []
    ok = 0
    sampled = sample_pairs(g, live if live is not None else [True] * g.node_count,
                           pairs, rng, exclude=exclude)
    for s, d in sampled:
        out = route_multi(g, emb, s, d, cfg, live=live, drop_nodes=drop, rng=rng)
        if out.success:
            ok += 1
            lengths.append(out.best_route_length)
    return (sum(lengths) / len(lengths) if lengths else float("nan")), ok / len(sampled)


def test_criterion_10_routing_length():
    g = dataset_graph()
    for strategy, gamma, metric, expected, tol in (
        ("BFS", 15, "TD", 4.67, 0.15),
        ("DIV-RAND", 1, "CPL", 6.24, 0.20),
    ):
        means = []
        for seed in range(5):
            ts, emb = embed(g, gamma, strategy, seed)
            rng = random.Random(seed + 100)
            mean, _ = mean_route_length(g, emb, metric, gamma, 2000, rng)
            means.append(mean)
        overall = sum(means) / len(means)
        assert abs(overall - expected) <= tol, (strategy, gamma, metric, overall)
        print(f"\ncriterion 10 ({strategy}, gamma={gamma}, {metric}): PASS, "
              f"mean routing length {overall:.3f} vs {expected} +- {tol}")


def test_criterion_11_stabilization_cost():
    g = dataset_graph()
    ts, _ = embed(g, 1, "DIV-RAND", 0)
    single = stabilization_metric(ts, g, 2000, seed=1)
    assert single < 4.7, single
    print(f"\ncriterion 11 (gamma=1): PASS, stabilization cost {single:.2f} < 4.7")
    for strategy, expected, tol in (("BFS", 65, 5), ("DIV-DEP", 69, 5), ("DIV-RAND", 101, 10)):
        ts, _ = embed(g, 15, strategy, 2)
        cost = stabilization_metric(ts, g, 500, seed=3)
        assert abs(cost - expected) <= tol, (strategy, cost)
        print(f"criterion 11 ({strategy}, gamma=15): PASS, cost {cost:.1f} vs {expected} +- {tol}")


def test_criterion_12_dht_underlay_hops():
    g = dataset_graph()
    for strategy, gamma, alpha in (("BFS", 15, 1), ("DIV-RAND", 15, 3)):
        ts, emb = embed(g, gamma, strategy, 4)
        cfg = DhtConfig(alpha=alpha)
        nodes = build_overlay(g, cfg, 5)
        rcfg = RoutingConfig(tau=gamma, metric="TD")
        rng = random.Random(6)
        hops = []
        for _ in range(200):
            key = rng.getrandbits(160)
            origin = rng.randrange(g.node_count)
            out = dht_lookup(key, origin, nodes, g, emb, cfg, rcfg, rng=rng)
            if out.success and out.overlay_hops > 0:
                hops.append(out.underlay_hops)
        mean = sum(hops) / len(hops)
        assert 15.0 <= mean <= 25.0, (strategy, alpha, mean)
        print(f"\ncriterion 12 ({strategy}, alpha={alpha}): PASS, "
              f"mean underlay hops {mean:.2f} in [15, 25]")


def attacked_success(g0, mode, x, gamma, runs=3, pairs=2000):
    ratios = []
    for seed in range(runs):
        g, attacker = attach_attacker(g0, x, seed=seed + 10)
        tcfg = TreeConfig(gamma=gamma, strategy="DIV-DEP", rng_seed=seed)
        if mode == "att-rand":
            ts, emb, mask = apply_att_rand(g, attacker, tcfg, CFG, emb_seed=seed + 20)
        else:
            ts, emb, mask = apply_att_root(g, attacker, tcfg, CFG, emb_seed=seed + 20)
        rng = random.Random(seed + 30)
        cfg = RoutingConfig(tau=gamma, metric="CPL")
        sampled = sample_pairs(g, [True] * g.node_count, pairs, rng, exclude=(attacker,))
        ok = sum(
            route_multi(g, emb, s, d, cfg, drop_nodes=mask.drop_nodes, rng=rng).success
            for s, d in sampled
        )
        ratios.append(ok / len(sampled))
    return sum(ratios) / len(ratios)


def test_criterion_13_censorship_resistance():
    g0 = dataset_graph()
    r1 = attacked_success(g0, "att-root", 1024, 1)
    assert r1 < 0.32, r1
    r5 = attacked_success(g0, "att-root", 1024, 5)
    assert r5 >= 0.969, r5
    r15 = attacked_success(g0, "att-root", 1024, 15)
    assert r15 >= 0.989, r15
    rr = attacked_success(g0, "att-rand", 16, 1)
    assert rr >= 0.99, rr
    print(f"\ncriterion 13 (censorship): PASS, att-root x=1024 success "
          f"{r1:.3f}/{r5:.3f}/{r15:.3f} at gamma=1/5/15, att-rand x=16 {rr:.3f}")


def test_criterion_14_robustness():
    g = dataset_graph()
    ratios = {}
    for gamma in (1, 15):
        per_run = []
        for seed in range(3):
            ts, emb = embed(g, gamma, "DIV-RAND", seed + 40)
            mask = inject_failures(g, 0.5, seed=seed + 50)
            rng = random.Random(seed + 60)
            cfg = RoutingConfig(tau=gamma, metric="CPL")
            sampled = sample_pairs(g, mask.live, 2000, rng)
            ok = sum(
                route_multi(g, emb, s, d, cfg, live=mask.live, rng=rng).success
                for s, d in sampled
            )
            per_run.append(ok / len(sampled))
        ratios[gamma] = sum(per_run) / len(per_run)
    assert ratios[15] > 0.90, ratios
    assert ratios[1] < 0.30, ratios
    print(f"\ncriterion 14 (robustness at 50% failures): PASS, success "
          f"{ratios[15]:.3f} at gamma=15, {ratios[1]:.3f} at gamma=1")
