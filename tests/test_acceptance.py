"""Acceptance suite: one test per required desk-scale criterion.

Each test prints a single PASS line when its property holds at the
stated scale; run with `pytest tests/test_acceptance.py -s` to see them.
The quantitative large-graph criteria live in test_paper_profile.py and
need the external dataset.
"""

import math
import random
import time
from collections import defaultdict

import pytest

from f2froute.addresses import (
    POSSIBLE_DESCENDANT,
    address_for_node,
    add_ppp_layer,
    candidate_receiver_set,
    distribute_subtree_keys,
    diversity_ppp,
    diversity_rp,
    generate_address_keys,
    generate_rp,
    hash_cascade,
    verify_mac,
    ReturnAddress,
)
from f2froute.adversary import apply_att_rand, apply_att_root, attach_attacker, inject_failures
from f2froute.embedding import (
    EmbeddingConfig,
    assign_coordinates,
    cpl,
    delta_td,
    order_key,
)
from f2froute.graph import Graph, generate_synthetic, shortest_path_lengths
from f2froute.overlay import DhtConfig, build_overlay, dht_lookup, xor_distance
from f2froute.routing import RoutingConfig, greedy_path_exists, route
from f2froute.trees import TreeConfig, construct_trees

CFG = EmbeddingConfig(bits_per_element=16, max_length=32)


def tree_embedding(n, seed, gamma=1, model="er", param=0.1):
    g = generate_synthetic(model, n, param, seed=seed)
    roots = list(range(gamma))
    ts = construct_trees(g, TreeConfig(gamma=gamma, rng_seed=seed), roots)
    return g, ts, assign_coordinates(ts, CFG, seed + 1000)


def test_criterion_1_route_preservation():
    # 50 random trees, 1000 addresses, random candidate subsets, both metrics
    rng = random.Random(2024)
    violations = 0
    addresses = 0
    for t in range(50):
        g, ts, emb = tree_embedding(rng.randrange(40, 200), seed=t)
        n = g.node_count
        keys = generate_address_keys(n, t, CFG.bits_per_element)
        for _ in range(20):
            issuer = rng.randrange(n)
            addr = address_for_node(
                emb, ts, issuer, 0, keys[issuer], rng.getrandbits(32), rng.getrandbits(32)
            )
            addresses += 1
            x = emb.coord(0, issuer)
            cpl_key = order_key("CPL", lambda u, c: cpl(c, x))
            for _ in range(10):
                cand_nodes = rng.sample(range(n), min(n, rng.randrange(2, 25)))
                cands = [emb.coord(0, v) for v in cand_nodes]
                for metric in ("TD", "CPL"):
                    div = [diversity_rp(addr, c, metric, CFG) for c in cands]
                    if metric == "TD":
                        true = [delta_td(c, x) for c in cands]
                    else:
                        true = [cpl_key(None, c) for c in cands]
                    amin_d = {i for i, v in enumerate(div) if v == min(div)}
                    amin_t = {i for i, v in enumerate(true) if v == min(true)}
                    if amin_d != amin_t:
                        violations += 1
    assert violations == 0
    print(f"\ncriterion 1 (route preservation): PASS, {addresses} addresses, 0 violations")


def test_criterion_2_backtracking_iff_greedy_path():
    rng = random.Random(7)
    instances = 0
    violations = 0
    while instances < 1000:
        g, ts, emb = tree_embedding(rng.randrange(10, 50), seed=instances)
        n = g.node_count
        frac = rng.uniform(0.0, 0.4)
        dead = set(rng.sample(range(n), int(frac * n)))
        live = [v not in dead for v in range(n)]
        for _ in range(10):
            s, d = rng.randrange(n), rng.randrange(n)
            if not (live[s] and live[d]):
                continue
            metric = rng.choice(["TD", "CPL"])
            out = route(g, emb, s, d, 0, RoutingConfig(metric=metric), live=live, rng=rng)
            oracle = greedy_path_exists(g, emb.coords[0], s, d, metric, CFG, live=live)
            violations += out.success != oracle
            instances += 1
    assert violations == 0
    print(f"criterion 2 (success iff greedy path): PASS, {instances} instances, 0 violations")


def test_criterion_3_cpl_dominance_under_attack():
    rng = random.Random(99)
    pairs_done = 0
    violations = 0
    for seed in range(5):
        g0 = generate_synthetic("pa", 2000, 3, seed=seed)
        for mode in ("att-rand", "att-root"):
            g, attacker = attach_attacker(g0, 16, seed=seed * 2 + 1)
            tcfg = TreeConfig(gamma=1, rng_seed=seed)
            if mode == "att-rand":
                ts, emb, mask = apply_att_rand(g, attacker, tcfg, CFG, emb_seed=seed + 7)
            else:
                ts, emb, mask = apply_att_root(g, attacker, tcfg, CFG, emb_seed=seed + 7)
            n = g.node_count
            for _ in range(1000):
                s = rng.randrange(n - 1)
                d = rng.randrange(n - 1)
                ok = {}
                for metric in ("TD", "CPL"):
                    out = route(
                        g, emb, s, d, 0, RoutingConfig(metric=metric),
                        drop_nodes=mask.drop_nodes, rng=rng,
                    )
                    ok[metric] = out.success
                if ok["TD"] and not ok["CPL"]:
                    violations += 1
                pairs_done += 1
    assert violations == 0
    print(f"criterion 3 (prefix metric dominance): PASS, {pairs_done} attacked pairs, 0 violations")


def test_criterion_4_depth_bound():
    # mean tree depth per shortest-path class <= sp * (1 + gamma/q),
    # checked with 3-standard-error slack over 20 seeds
    q = 0.5
    start = time.time()
    for gamma in (1, 5, 15):
        samples = defaultdict(list)  # sp distance -> levels observed
        for seed in range(20):
            g = generate_synthetic("pa", 5000, 5, seed=seed)
            root = random.Random(seed).randrange(g.node_count)
            ts = construct_trees(
                g, TreeConfig(gamma=gamma, accept_prob=q, rng_seed=seed), [root] * gamma
            )
            sp = shortest_path_lengths(g, root)
            for v in range(g.node_count):
                if v == root:
                    continue
                for i in range(gamma):
                    samples[sp[v]].append(ts.level[i][v])
        factor = 1 + gamma / q
        for dist, levels in samples.items():
            if len(levels) < 30:
                continue  # too few nodes in this class for a meaningful mean
            mean = sum(levels) / len(levels)
            var = sum((x - mean) ** 2 for x in levels) / (len(levels) - 1)
            se = math.sqrt(var / len(levels))
            assert mean <= dist * factor + 3 * se, (gamma, dist, mean, dist * factor)
    print(f"criterion 4 (depth bound): PASS in {time.time() - start:.0f}s, all classes within bound")


def test_criterion_5_tree_distance_exact():
    for seed, n in ((1, 200), (2, 150)):
        g, ts, emb = tree_embedding(n, seed=seed)
        n = g.node_count
        adj = [[] for _ in range(n)]
        for v in range(n):
            p = ts.parent[0][v]
            if p >= 0:
                adj[v].append(p)
                adj[p].append(v)
        tree_graph = Graph.from_edges(n, [(v, w) for v in range(n) for w in adj[v]])
        for src in range(n):
            dist = shortest_path_lengths(tree_graph, src)
            for dst in range(n):
                assert delta_td(emb.coord(0, src), emb.coord(0, dst)) == dist[dst]
    print("criterion 5 (coordinate distance = tree hops): PASS, exhaustive all-pairs exact")


def test_criterion_6_crypto_properties():
    rng = random.Random(5)
    # MAC tamper rejection: 10^4 single-bit flips
    keys = generate_address_keys(20, 3, CFG.bits_per_element)
    accepted = 0
    flips = 0
    while flips < 10_000:
        issuer = rng.randrange(20)
        x = tuple(rng.getrandbits(16) for _ in range(rng.randrange(1, 8)))
        a = generate_rp(x, keys[issuer], set(), rng.getrandbits(32), rng.getrandbits(32), CFG)
        for _ in range(200):
            pos = rng.randrange(CFG.max_length)
            bit = 1 << rng.randrange(16)
            vec = list(a.digest_vector)
            vec[pos] ^= bit
            bad = ReturnAddress(tuple(vec), a.routing_seed, a.mac_tag)
            accepted += verify_mac(bad, keys[issuer], CFG.bits_per_element)
            flips += 1
    assert accepted == 0
    # cascade prefix agreement on 10^3 coordinate pairs
    bad_prefix = 0
    for _ in range(1000):
        k = rng.getrandbits(16)
        a = [rng.getrandbits(16) for _ in range(rng.randrange(1, 12))]
        m = rng.randrange(len(a) + 1)
        b = list(a)
        if m < len(b):
            b[m] ^= rng.randrange(1, 1 << 16)
        ca, cb = hash_cascade(tuple(a), k, 16), hash_cascade(tuple(b), k, 16)
        if ca[:m] != cb[:m]:
            bad_prefix += 1
    assert bad_prefix == 0
    # encrypted-layer lower bound on 10^3 evaluator/candidate pairs
    g, ts, emb = tree_embedding(80, seed=31)
    n = g.node_count
    akeys = generate_address_keys(n, 9, CFG.bits_per_element)
    distribute_subtree_keys(ts, 0, 17, akeys, CFG.bits_per_element)
    lb_violations = 0
    for _ in range(1000):
        issuer, u, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        a = address_for_node(emb, ts, issuer, 0, akeys[issuer], rng.getrandbits(32), rng.getrandbits(32))
        p = add_ppp_layer(a, akeys[issuer], CFG)
        d = diversity_ppp(p, emb.coord(0, v), akeys[u], CFG)
        implied = int(CFG.max_length - d)
        if implied > cpl(emb.coord(0, v), emb.coord(0, issuer)):
            lb_violations += 1
    assert lb_violations == 0
    print("criterion 6 (crypto): PASS, 10^4 flips rejected, prefix and lower-bound clean")


def test_criterion_7_deniability_witness():
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 7), (3, 5), (3, 6)]
    g = Graph.from_edges(8, edges)
    from f2froute.trees import TreeSet

    ts = TreeSet(8, [0])
    for p, c in edges:
        ts.attach(0, c, p, 1)
    emb = assign_coordinates(ts, CFG, seed=5)
    keys = generate_address_keys(8, 1, CFG.bits_per_element)
    addr = address_for_node(emb, ts, 5, 0, keys[5], 11, 12)
    view = {v: [emb.coord(0, v)] for v in g.neighbors(1)}
    out = candidate_receiver_set([addr], view, CFG)
    assert len(out) >= 2
    assert POSSIBLE_DESCENDANT in out and 3 in out
    print("criterion 7 (deniability witness): PASS, candidate set size", len(out))


def test_criterion_8_kademlia_correctness():
    rng = random.Random(14)
    g, ts, emb = tree_embedding(500, seed=21, gamma=2, model="pa", param=3)
    n = g.node_count
    cfg = DhtConfig()
    nodes = build_overlay(g, cfg, 77)
    rcfg = RoutingConfig(tau=2)
    wrong = 0
    for _ in range(1000):
        key = rng.getrandbits(160)
        origin = rng.randrange(n)
        out = dht_lookup(key, origin, nodes, g, emb, cfg, rcfg, rng=rng)
        best = min(range(n), key=lambda v: xor_distance(nodes[v].kad_id, key))
        wrong += not out.success or out.terminal != best
    assert wrong == 0
    print("criterion 8 (dht closest-node correctness): PASS, 1000 keys exact")


def test_criterion_9_monotonicity():
    gamma = 4
    tau_viol = 0
    frac_viol = 0
    for seed in range(20):
        g = generate_synthetic("pa", 300, 3, seed=seed)
        n = g.node_count
        ts = construct_trees(g, TreeConfig(gamma=gamma, rng_seed=seed), list(range(gamma)))
        emb = assign_coordinates(ts, CFG, seed + 5)
        rng = random.Random(seed * 31)

        # tau: per pair, a fixed random tree order; attempts for tau are
        # the first tau trees, so larger tau tries a superset
        dead = set(rng.sample(range(n), n // 4))
        live = [v not in dead for v in range(n)]
        pool = [v for v in range(n) if live[v]]
        ratios = [0] * (gamma + 1)
        pairs = 0
        for _ in range(50):
            s, d = rng.choice(pool), rng.choice(pool)
            order = rng.sample(range(gamma), gamma)
            wins = [
                route(g, emb, s, d, t, RoutingConfig(metric="TD"), live=live, rng=rng).success
                for t in order
            ]
            pairs += 1
            for tau in range(1, gamma + 1):
                ratios[tau] += any(wins[:tau])
        for tau in range(1, gamma):
            if ratios[tau + 1] < ratios[tau]:
                tau_viol += 1

        # failure fraction: nested failure sets, pairs drawn from the
        # giant component of the heaviest-failure survivors
        fractions = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
        masks = {f: inject_failures(g, f, seed=seed + 101) for f in fractions}
        heavy = masks[0.5].live
        comp_of = {}
        for v in range(n):
            if heavy[v] and v not in comp_of:
                stack, members = [v], [v]
                comp_of[v] = v
                while stack:
                    u = stack.pop()
                    for w in g.neighbors(u):
                        if heavy[w] and w not in comp_of:
                            comp_of[w] = v
                            members.append(w)
                            stack.append(w)
        biggest = max(set(comp_of.values()), key=lambda r: sum(1 for x in comp_of.values() if x == r))
        pool = [v for v, r in comp_of.items() if r == biggest]
        chosen = [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        prev = None
        for f in fractions:
            succ = sum(
                route(
                    g, emb, s, d, 0, RoutingConfig(metric="TD"),
                    live=masks[f].live, rng=rng,
                ).success
                for s, d in chosen
            )
            if prev is not None and succ > prev:
                frac_viol += 1
            prev = succ
    assert tau_viol == 0 and frac_viol == 0
    print("criterion 9 (monotonicity in tau and failures): PASS, 0 paired violations")
