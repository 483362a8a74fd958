import hashlib
import random
from bisect import bisect_right
from dataclasses import replace
from operator import itemgetter

import pytest

from f2froute import embedding, routing
from f2froute.addresses import (
    CascadeDigests,
    ReturnAddress,
    _matched_prefix,
    add_ppp_layer,
    address_for_node,
    address_keys,
    distribute_subtree_keys,
    generate_address_keys,
    ppp_partial_decrypt,
)
from f2froute.adversary import apply_att_rand, attach_attacker, inject_failures
from f2froute.embedding import (
    MATCH_WEIGHT,
    Embedding,
    EmbeddingConfig,
    TreeRanks,
    assign_coordinates,
    cpl,
    delta_td,
)
from f2froute.experiments import sample_pairs
from f2froute.graph import Graph, generate_synthetic
from f2froute.routing import (
    DROPPED,
    HOP_CAP,
    NO_PROGRESS,
    MultiRouteOutcome,
    RouteOutcome,
    RoutingConfig,
    greedy_path_exists,
    route,
    route_multi,
    select_trees,
)
from f2froute.trees import TreeConfig, TreeSet, construct_trees

CFG = EmbeddingConfig(bits_per_element=16, max_length=32)


def build(n=60, gamma=1, seed=1, p=0.1):
    g = generate_synthetic("er", n, p, seed=seed)
    roots = list(range(gamma))
    ts = construct_trees(g, TreeConfig(gamma=gamma, rng_seed=seed), roots)
    return g, ts, assign_coordinates(ts, CFG, seed + 50)


def test_config_validation():
    with pytest.raises(ValueError):
        RoutingConfig(tau=0)
    with pytest.raises(ValueError):
        RoutingConfig(metric="XOR")
    with pytest.raises(ValueError):
        RoutingConfig(embedding_choice="all")
    with pytest.raises(ValueError):
        RoutingConfig(max_hops=0)


def test_source_is_destination():
    g, ts, emb = build(n=20)
    out = route(g, emb, 4, 4, 0, RoutingConfig())
    assert out.success and out.hops == 0 and out.path == [4] and out.route_length == 0


def test_endpoints_without_coordinate_are_refused():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    emb = Embedding([[None, (), (5,)]], CFG)
    with pytest.raises(ValueError, match="source 0"):
        route(g, emb, 0, 2, 0, RoutingConfig())
    with pytest.raises(ValueError, match="destination 0"):
        route(g, emb, 2, 0, 0, RoutingConfig())
    with pytest.raises(ValueError, match="node 0 has no coordinate"):
        address_for_node(emb, TreeSet(3, [1]), 0, 0, generate_address_keys(3, 1, 16)[0], 5, 6)


def test_path_graph_follows_tree():
    g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    ts = construct_trees(g, TreeConfig(rng_seed=0), [0])
    emb = assign_coordinates(ts, CFG, 1)
    out = route(g, emb, 1, 5, 0, RoutingConfig(metric="TD"))
    assert out.success
    assert out.hops == delta_td(emb.coord(0, 1), emb.coord(0, 5)) == 4
    assert out.path == [1, 2, 3, 4, 5]


def test_ring_with_failure_matches_oracle():
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    ts = construct_trees(g, TreeConfig(rng_seed=3), [0])
    emb = assign_coordinates(ts, CFG, 4)
    for dead in range(1, 6):
        live = [v != dead for v in range(6)]
        for dst in range(1, 6):
            if dst == dead:
                continue
            out = route(g, emb, 0, dst, 0, RoutingConfig(metric="TD"), live=live)
            oracle = greedy_path_exists(g, emb.coords[0], 0, dst, "TD", CFG, live=live)
            assert out.success == oracle


def local_minimum_instance():
    # s=0 prefers the dead-end a=1; only backtracking reaches d=3 via b=2
    coords = [(9,), (1, 2, 3, 9), (1,), (1, 2, 3)]
    g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])
    emb = Embedding([list(coords)], CFG)
    return g, emb


def test_backtracking_beats_greedy_on_local_minimum():
    g, emb = local_minimum_instance()
    cfg = RoutingConfig(metric="TD")
    assert not route(g, emb, 0, 3, 0, replace(cfg, backtracking=False)).success
    out = route(g, emb, 0, 3, 0, cfg)
    assert out.success
    assert out.path == [0, 1, 0, 2, 3]  # forward, backtrack, then the detour
    assert out.hops == 4 and out.route_length == 2
    assert greedy_path_exists(g, emb.coords[0], 0, 3, "TD", CFG)


def test_greedy_equals_route_without_failures_on_tree():
    g, ts, emb = build(n=40)
    n = g.node_count
    rng = random.Random(5)
    cfg = RoutingConfig(metric="CPL")
    for _ in range(100):
        s, d = rng.randrange(n), rng.randrange(n)
        a = route(g, emb, s, d, 0, cfg, rng=random.Random(1))
        b = route(g, emb, s, d, 0, replace(cfg, backtracking=False), rng=random.Random(1))
        assert a.success and b.success and a.path == b.path


def test_route_success_iff_greedy_path_random_instances():
    rng = random.Random(7)
    checked = 0
    for trial in range(60):
        g, ts, emb = build(n=30, seed=trial, p=0.15)
        n = g.node_count
        live = [rng.random() > 0.3 for _ in range(n)]
        for _ in range(10):
            s, d = rng.randrange(n), rng.randrange(n)
            if not (live[s] and live[d]):
                continue
            out = route(g, emb, s, d, 0, RoutingConfig(metric="TD"), live=live, rng=rng)
            oracle = greedy_path_exists(g, emb.coords[0], s, d, "TD", CFG, live=live)
            assert out.success == oracle
            checked += 1
    assert checked > 250


def test_greedy_never_beats_backtracking():
    rng = random.Random(11)
    g, ts, emb = build(n=50, seed=2)
    n = g.node_count
    live = [rng.random() > 0.25 for _ in range(n)]
    wins_r, wins_gr = 0, 0
    cfg = RoutingConfig(metric="TD")
    for _ in range(200):
        s, d = rng.randrange(n), rng.randrange(n)
        if not (live[s] and live[d]):
            continue
        r = route(g, emb, s, d, 0, cfg, live=live, rng=random.Random(3))
        gr = route(g, emb, s, d, 0, replace(cfg, backtracking=False), live=live, rng=random.Random(3))
        assert r.success or not gr.success  # gr success implies r success
        wins_r += r.success
        wins_gr += gr.success
    assert wins_r >= wins_gr


def test_address_transparency_identical_paths():
    g, ts, emb = build(n=50, gamma=2, seed=9)
    n = g.node_count
    keys = generate_address_keys(n, 1, CFG.bits_per_element)
    for t in range(2):
        distribute_subtree_keys(ts, t, 2, keys, CFG.bits_per_element)
    rng = random.Random(13)
    for trial in range(40):
        s, d = rng.randrange(n), rng.randrange(n)
        tree = trial % 2
        addr = address_for_node(emb, ts, d, tree, keys[d], 100 + trial, 200 + trial)
        for metric in ("TD", "CPL"):
            cfg = RoutingConfig(metric=metric)
            plain = route(g, emb, s, d, tree, cfg, rng=random.Random(trial))
            masked = route(g, emb, s, d, tree, cfg, address=addr, rng=random.Random(trial))
            assert plain.path == masked.path
            assert plain.hops == masked.hops
        # the encrypted layer caps what each forwarder can certify, so
        # paths may differ from plain routing, but delivery still works
        ppp = add_ppp_layer(addr, keys[d], CFG)
        cfg = RoutingConfig(metric="CPL")
        enc = route(g, emb, s, d, tree, cfg, address=ppp, keys=keys, rng=random.Random(trial))
        assert enc.success


def test_ppp_address_requires_cpl():
    g, ts, emb = build(n=20, seed=4)
    keys = generate_address_keys(g.node_count, 1, CFG.bits_per_element)
    distribute_subtree_keys(ts, 0, 2, keys, CFG.bits_per_element)
    addr = add_ppp_layer(address_for_node(emb, ts, 3, 0, keys[3], 1, 2), keys[3], CFG)
    with pytest.raises(ValueError):
        route(g, emb, 0, 3, 0, RoutingConfig(metric="TD"), address=addr, keys=keys)


def test_hop_cap_reported():
    g, emb = local_minimum_instance()
    out = route(g, emb, 0, 3, 0, RoutingConfig(metric="TD", max_hops=1))
    assert not out.success and out.failure_reason == HOP_CAP


def test_drop_node_swallows_message():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ts = construct_trees(g, TreeConfig(rng_seed=0), [0])
    emb = assign_coordinates(ts, CFG, 1)
    # without backtracking the message is silently lost at the drop node
    out = route(g, emb, 0, 2, 0, RoutingConfig(metric="TD", backtracking=False), drop_nodes={1})
    assert not out.success and out.failure_reason == DROPPED
    assert out.path[-1] == 1
    # with backtracking the sender notices the silence and, having no
    # other option, gives up at the source
    out = route(g, emb, 0, 2, 0, RoutingConfig(metric="TD"), drop_nodes={1})
    assert not out.success and out.failure_reason == NO_PROGRESS
    assert out.path == [0, 1, 0]


def test_drop_node_routed_around_with_backtracking():
    # both of 0's neighbors improve toward 3; either can be the drop node
    coords = [(5,), (1,), (1, 9), (1, 2)]
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    emb = Embedding([list(coords)], CFG)
    for drop in (1, 2):
        out = route(g, emb, 0, 3, 0, RoutingConfig(metric="TD"), drop_nodes={drop})
        assert out.success
        assert out.route_length == 2
        assert drop not in [out.path[0]] + out.path[-2:]


def test_failure_at_source_reports_no_progress():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    ts = construct_trees(g, TreeConfig(rng_seed=0), [0])
    emb = assign_coordinates(ts, CFG, 1)
    live = [True, False, True]
    out = route(g, emb, 0, 2, 0, RoutingConfig(metric="TD"), live=live)
    assert not out.success and out.failure_reason == NO_PROGRESS


def multi_tree_instance():
    # 5-cycle; tree 0 (rooted at 1) routes 1->3 through node 2, while
    # tree 1 (rooted at 4, with 2 hanging off node 1) goes the other way
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    t0 = [(20,), (), (21,), (21, 22), (20, 23)]
    t1 = [(30,), (30, 31), (30, 31, 32), (33,), ()]
    return g, Embedding([t0, t1], CFG)


def test_route_multi_any_tree_suffices():
    g, emb = multi_tree_instance()
    cfg = RoutingConfig(tau=2, metric="TD")
    out = route_multi(g, emb, 1, 3, cfg, drop_nodes={2}, rng=random.Random(0))
    assert isinstance(out, MultiRouteOutcome)
    assert out.success and out.trees == [0, 1]
    assert [a.success for a in out.attempts] == [False, True]
    assert out.total_hops == sum(a.hops for a in out.attempts)
    assert out.best_route_length == 3  # 1 -> 0 -> 4 -> 3 on tree 1
    # single attempt on the poisoned tree fails
    solo = route(g, emb, 1, 3, 0, RoutingConfig(metric="TD"), drop_nodes={2})
    assert not solo.success


def test_route_multi_with_every_attempt_failing():
    g, emb = multi_tree_instance()
    out = route_multi(g, emb, 1, 3, RoutingConfig(tau=2, metric="TD"), drop_nodes={0, 2}, rng=random.Random(0))
    assert [a.success for a in out.attempts] == [False, False]
    assert not out.success and out.best_route_length is None
    assert out.total_hops == sum(a.hops for a in out.attempts) > 0


def test_route_multi_tau_one_reduces_to_route():
    g, ts, emb = build(n=30, gamma=1, seed=6)
    cfg = RoutingConfig(tau=1, metric="TD")
    a = route_multi(g, emb, 2, 17, cfg, rng=random.Random(4))
    b = route(g, emb, 2, 17, 0, cfg, rng=random.Random(4))
    assert a.success == b.success
    assert a.total_hops == b.hops
    assert a.attempts[0].path == b.path


def test_route_multi_rejects_tau_above_gamma():
    g, ts, emb = build(n=20, gamma=1, seed=8)
    with pytest.raises(ValueError):
        route_multi(g, emb, 0, 5, RoutingConfig(tau=3))


def test_select_trees_min_neighbor_distance():
    g, emb = multi_tree_instance()
    cfg = RoutingConfig(tau=1, metric="TD", embedding_choice="min-neighbor-distance")
    # from node 1 toward 3: tree 0's best neighbor (node 2) has TD key
    # -1 (distance 1 less the destination's depth 2), tree 1's best
    # (node 0) key 1 (distance 2 less depth 1), so tree 0 wins
    picked = select_trees(g, emb, 1, 3, cfg, None, random.Random(0))[0]
    assert picked == [0]
    out = route_multi(g, emb, 1, 3, cfg, drop_nodes={2}, rng=random.Random(0))
    assert out.trees == picked
    # a source whose neighbours all failed scores no tree: tau are drawn
    g, ts, emb = build(n=40, gamma=4, seed=9, p=0.2)
    src, dest = 5, 9
    live = [v not in g.neighbors(src) for v in range(g.node_count)]
    cfg = RoutingConfig(tau=3, metric="TD", embedding_choice="min-neighbor-distance")
    picked = select_trees(g, emb, src, dest, cfg, live, random.Random(0))[0]
    assert len(set(picked)) == 3 and picked == sorted(picked)


@pytest.fixture(scope="module")
def attacked_pairs():
    """pa:300:3 plus an att-rand attacker, 10 % failed nodes, DIV-RAND
    gamma 5, and 120 pairs, each with its destination's return addresses."""
    g, attacker = attach_attacker(generate_synthetic("pa", 300, 3, seed=21), 8, 22)
    ts, emb, mask = apply_att_rand(g, attacker, TreeConfig(gamma=5, rng_seed=23), EmbeddingConfig(), 24)
    failed = inject_failures(g, 0.1, 25)
    live = [a and b for a, b in zip(mask.live, failed.live)]
    keys = generate_address_keys(g.node_count, 26, emb.cfg.bits_per_element)
    for t in range(emb.gamma):
        distribute_subtree_keys(ts, t, 28, keys, emb.cfg.bits_per_element)
    pairs = sample_pairs(g, live, 120, random.Random(27), exclude=(attacker,))
    addrs = [
        [address_for_node(emb, ts, d, t, keys[d], 1000 * k + t, 2000 * k + t) for t in range(emb.gamma)]
        for k, (_, d) in enumerate(pairs)
    ]
    return g, emb, live, mask.drop_nodes, pairs, addrs, keys


def near_attacker_jobs(g, live, drop, pairs, addrs):
    """The sampled pairs, then the same destinations routed from the
    attacker's live neighbours: the sampled pairs seldom pass it."""
    near = [v for a in drop for v in g.neighbors(a) if live[v]]
    jobs = [(s, d, addrs[k]) for k, (s, d) in enumerate(pairs)]
    return jobs + [(near[k % len(near)], d, addrs[k]) for k, (_, d) in enumerate(pairs)]


@pytest.mark.parametrize("choice", ["random-tau", "min-neighbor-distance"])
@pytest.mark.parametrize("metric", ["TD", "CPL"])
def test_rp_addresses_preserve_routes_at_scenario_scale(attacked_pairs, metric, choice):
    # route preservation: the same trees, hops and paths as on coordinates
    g, emb, live, drop, pairs, addrs, _ = attacked_pairs
    cfg = RoutingConfig(tau=2, metric=metric, embedding_choice=choice)
    dropped = 0
    for k, (s, d, tree_addrs) in enumerate(near_attacker_jobs(g, live, drop, pairs, addrs)):
        plain = route_multi(g, emb, s, d, cfg, live=live, drop_nodes=drop, rng=random.Random(k))
        masked = route_multi(
            g, emb, s, d, cfg, live=live, drop_nodes=drop, addresses=tree_addrs, rng=random.Random(k)
        )
        assert plain == masked, f"pair {s}->{d}"
        dropped += any(drop & set(a.path) for a in masked.attempts)
    assert dropped >= 1  # some attempts pass through the attacker


class IssuedOnLookup(dict):
    """Tree -> the destination's address there, issued on first lookup."""

    def __init__(self, issue):
        super().__init__()
        self.issue = issue
        self.issued = 0

    def __missing__(self, tree):
        self.issued += 1
        addr = self[tree] = self.issue(tree)
        return addr


@pytest.mark.parametrize("choice", ["random-tau", "min-neighbor-distance"])
def test_route_multi_reads_only_the_addresses_it_routes(choice):
    g, ts, emb = build(n=60, gamma=5, seed=12)
    n = g.node_count
    keys = generate_address_keys(n, 1, CFG.bits_per_element)
    cfg = RoutingConfig(tau=2, metric="CPL", embedding_choice=choice)
    rng = random.Random(14)
    for k in range(20):
        s, d = rng.randrange(n), rng.randrange(n)

        def issue(tree):
            return address_for_node(emb, ts, d, tree, keys[d], 100 * k + tree, 200 * k + tree)

        lazy = IssuedOnLookup(issue)
        out = route_multi(g, emb, s, d, cfg, addresses=lazy, rng=random.Random(k))
        issued = [issue(tree) for tree in range(emb.gamma)]
        assert out == route_multi(g, emb, s, d, cfg, addresses=issued, rng=random.Random(k))
        assert lazy.issued == (cfg.tau if choice == "random-tau" else emb.gamma)


def reference_key(emb, tree, dest, metric, address, keys):
    """key(u, c) by the distances' own terms: len(c) - 2m for TD and
    (-m, len(c)) for CPL, with m found by walking the prefix or the
    cascade afresh on every evaluation."""
    if address is None:
        dest_coord = emb.coord(tree, dest)

        def match(u, c):
            return cpl(c, dest_coord)
    else:
        def match(u, c):
            if isinstance(address, ReturnAddress):
                vec = address.digest_vector
            else:
                vec = ppp_partial_decrypt(address, keys[u], emb.cfg)
            return _matched_prefix(vec, c, address.routing_seed, CascadeDigests(emb.cfg.bits_per_element))
    if metric == "TD":
        return lambda u, c: len(c) - 2 * match(u, c)
    return lambda u, c: (-match(u, c), len(c))


def reference_route(g, emb, src, dest, tree, cfg, live, drop_nodes, address, keys, rng):
    """The per-visit search: every visit keys all untried neighbours
    again. The reference that route's per-route ranked lists and rank
    keys must match."""
    if src == dest:
        return RouteOutcome(True, 0, [src], route_length=0)
    key = reference_key(emb, tree, dest, cfg.metric, address, keys)
    cap = cfg.max_hops if cfg.max_hops is not None else 4 * (g.node_count + g.edge_count)
    forwarded = {src: set()}
    chain, hops, path = [src], 0, [src]
    while True:
        u = chain[-1]
        own = key(u, emb.coord(tree, u))
        keyed = [
            (key(u, emb.coord(tree, v)), v)
            for v in g.neighbors(u)
            if (live is None or live[v]) and v not in forwarded[u] and emb.coord(tree, v) is not None
        ]
        best_key = min((k for k, _ in keyed), default=None)
        if keyed and best_key < own:
            best = [v for k, v in keyed if k == best_key]
            nxt = best[0] if len(best) == 1 else rng.choice(best)
            forwarded[u].add(nxt)
            hops += 1
            path.append(nxt)
            if hops > cap:
                return RouteOutcome(False, hops, path, HOP_CAP)
            if nxt == dest:
                return RouteOutcome(True, hops, path, route_length=len(chain))
            if nxt in drop_nodes:
                if not cfg.backtracking:
                    return RouteOutcome(False, hops, path, DROPPED)
                path.append(u)
                continue
            forwarded.setdefault(nxt, set())
            chain.append(nxt)
            continue
        if not cfg.backtracking:
            return RouteOutcome(False, hops, path, NO_PROGRESS)
        chain.pop()
        if not chain:
            return RouteOutcome(False, hops, path, NO_PROGRESS)
        hops += 1
        path.append(chain[-1])
        if hops > cap:
            return RouteOutcome(False, hops, path, HOP_CAP)


@pytest.mark.parametrize("max_hops", [None, 4])
@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize(
    "metric, addressing",
    [("TD", "coordinate"), ("CPL", "coordinate"), ("TD", "rp"), ("CPL", "rp"), ("CPL", "ppp")],
)
def test_route_matches_reference_loop(attacked_pairs, metric, addressing, backtracking, max_hops):
    g, emb, live, drop, pairs, addrs, keys = attacked_pairs
    cfg = RoutingConfig(metric=metric, backtracking=backtracking, max_hops=max_hops)
    reasons = set()
    for k, (s, d, tree_addrs) in enumerate(near_attacker_jobs(g, live, drop, pairs, addrs)):
        tree = k % emb.gamma
        addr = None if addressing == "coordinate" else tree_addrs[tree]
        if addressing == "ppp":
            addr = add_ppp_layer(addr, keys[d], emb.cfg)
        fast = route(g, emb, s, d, tree, cfg, live, drop, addr, keys, random.Random(k))
        slow = reference_route(g, emb, s, d, tree, cfg, live, drop, addr, keys, random.Random(k))
        assert fast == slow, f"pair {s}->{d} in tree {tree}"
        reasons.add(fast.failure_reason)
    # the jobs reach every exit of the loop that this configuration has
    expected = {None, NO_PROGRESS}
    expected |= {HOP_CAP} if max_hops else set()
    expected |= set() if backtracking else {DROPPED}
    assert expected <= reasons


@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize("metric", ["TD", "CPL"])
def test_ties_keep_neighbour_order_on_unsorted_adjacency(metric, backtracking):
    # toward d = (1, 2), u = (7, 8, 9) has the in-run neighbours a1, a2
    # (tied under both metrics) and a3, and the shallower b, which ties
    # with a3 under TD. The lists run against node id and rank order,
    # so a tie group ordered either way would draw other hops. Every a
    # is a dead end; d is reached only through b and the root.
    u, a1, a2, a3, b, d, root = range(7)
    coords = [(7, 8, 9), (1, 5), (1, 6), (1, 5, 6), (7,), (1, 2), ()]
    g = Graph([[b, a3, a2, a1], [u], [u], [u], [root, u], [root], [d, b]])
    emb = Embedding([coords], CFG)
    cfg = RoutingConfig(metric=metric, backtracking=backtracking)
    first, td_tie = set(), set()
    for seed in range(20):
        fast = route(g, emb, u, d, 0, cfg, rng=random.Random(seed))
        slow = reference_route(g, emb, u, d, 0, cfg, None, frozenset(), None, None, random.Random(seed))
        assert fast == slow, f"seed {seed}"
        assert fast.success == backtracking
        first.add(fast.path[1])
        if backtracking and metric == "TD":
            td_tie.add(next(v for v in fast.path if v in (a3, b)))
    assert first == {a1, a2}
    if backtracking and metric == "TD":
        assert td_tie == {a3, b}


def scan_improving(g, emb, tree, dest, metric, u, live):
    """u's improving options by a scan of all its neighbours: the rank and
    length tests that the neighbour index replaced, on every neighbour."""
    ranks = emb.ranks[tree]
    rank, length = ranks.rank, ranks.length
    dest_coord = emb.coord(tree, dest)
    bounds, wm = ranks.match_table(dest_coord, MATCH_WEIGHT[metric])
    n = len(dest_coord)
    i = bisect_right(bounds, rank[u])
    lu = length[u]
    own = lu - wm[i]
    m = i if i <= n else 2 * n - i
    lo, hi = (bounds[m], bounds[2 * n - 1 - m]) if m < n else (0, 0)
    options = [
        (k, v) for v in g.neighbors(u)
        if (live is None or live[v]) and (r := rank[v]) >= 0 and (lo <= r < hi or length[v] < lu)
        and (k := length[v] - wm[bisect_right(bounds, r)]) < own
    ]
    options.sort(key=itemgetter(0))
    return options


@pytest.fixture(params=[0, TreeRanks.MIN_DEGREE], ids=["every-node", "hubs"])
def min_degree(request, monkeypatch):
    """Routes ask the neighbour index about every node, or only about the
    nodes with at least `TreeRanks.MIN_DEGREE` neighbours."""
    monkeypatch.setattr(TreeRanks, "MIN_DEGREE", request.param)
    return request.param


def assert_index_matches_scan(g, emb, dests, live):
    """Every node with a coordinate, every tree, both metrics: the first
    destinations scan each node, the next writes its entry, and the
    others read it."""
    assert len(dests) > TreeRanks.SCANS_BEFORE_ENTRY + 1
    for metric in ("TD", "CPL"):
        fresh = Embedding(emb.coords, emb.cfg)
        for tree in range(fresh.gamma):
            for d in dests:
                if fresh.coord(tree, d) is None:
                    continue
                improving = routing._key_fn(g, fresh, tree, d, metric, None, None)[1]
                for u in range(g.node_count):
                    if fresh.coord(tree, u) is not None:
                        expected = scan_improving(g, fresh, tree, d, metric, u, live)
                        got = improving(u, live)
                        assert got == expected, f"{metric} tree {tree} u {u} d {d}"


@pytest.mark.parametrize("masked", [False, True])
def test_neighbour_index_matches_full_scan(attacked_pairs, masked, min_degree):
    # att-rand: the attacker's children carry fabricated prefixes
    g, emb, live, _, pairs, _, _ = attacked_pairs
    dests = sorted({d for _, d in pairs})[:12]
    assert_index_matches_scan(g, emb, dests, live if masked else None)


def test_neighbour_index_matches_full_scan_on_unsorted_adjacency(min_degree):
    g, ts, emb = build(n=80, gamma=3, seed=15)
    rng = random.Random(16)
    shuffled = Graph([rng.sample(a, len(a)) for a in g.adjacency])
    live = [rng.random() > 0.2 for _ in range(g.node_count)]
    assert_index_matches_scan(shuffled, emb, list(range(0, 80, 7)), live)


@pytest.mark.parametrize("n", [65536, 65537])
def test_neighbour_index_on_a_large_star(n):
    # the hub has n - 1 deeper neighbours, ranked up to n - 1: its entry
    # holds ranks and positions on either side of 65,536
    hub = n // 2
    coords = [(v,) for v in range(n)]
    coords[hub] = ()
    adjacency = [[hub] for _ in range(n)]
    adjacency[hub] = [v for v in range(n) if v != hub][::-1]
    g = Graph(adjacency)
    emb = Embedding([coords], CFG)
    for metric in ("TD", "CPL"):
        for d in (0, 1, n // 3, n - 1):
            improving = routing._key_fn(g, emb, 0, d, metric, None, None)[1]
            for u in (hub, d, (d + 5) % n):
                assert improving(u, None) == scan_improving(g, emb, 0, d, metric, u, None)
            assert [v for _, v in improving(hub, None)] == [d]


def test_neighbour_index_belongs_to_its_graph(monkeypatch):
    # one embedding routed on two graphs in turn: each route sees the
    # options of the graph it runs on, never an entry written for the other
    monkeypatch.setattr(TreeRanks, "MIN_DEGREE", 0)
    g, ts, emb = build(n=60, gamma=1, seed=17)
    other = generate_synthetic("er", 60, 0.1, seed=18)
    cfg = RoutingConfig(metric="TD")
    rng = random.Random(19)
    for k in range(40):
        s, d = rng.randrange(60), rng.randrange(60)
        for h in (g, other) if k % 2 else (other, g):
            fast = route(h, emb, s, d, 0, cfg, rng=random.Random(k))
            slow = reference_route(h, emb, s, d, 0, cfg, None, frozenset(), None, None, random.Random(k))
            assert fast == slow, f"pair {s}->{d}"
            improving = routing._key_fn(h, emb, 0, d, "TD", None, None)[1]
            for u in range(60):
                assert improving(u, None) == scan_improving(h, emb, 0, d, "TD", u, None)


def test_keys_for_two_graphs_interleave(monkeypatch):
    # keys held for two graphs at once on one embedding: each reads a
    # hub's entry only if it was written for its own graph, and writes it
    # again otherwise, although both share the tree's entries
    monkeypatch.setattr(TreeRanks, "MIN_DEGREE", 0)
    g, ts, emb = build(n=60, gamma=1, seed=17)
    h = generate_synthetic("er", 60, 0.1, seed=18)
    nodes = [u for u in range(60) if emb.coord(0, u) is not None]
    for metric in ("TD", "CPL"):
        for d in nodes[:3]:
            fresh = Embedding(emb.coords, emb.cfg)
            held = [(graph, fresh.ranks[0].keys(graph, fresh.coord(0, d), metric)[1]) for graph in (g, h)]
            for visit in range(TreeRanks.SCANS_BEFORE_ENTRY + 2):
                for u in nodes:
                    for graph, improving in held:
                        expected = scan_improving(graph, fresh, 0, d, metric, u, None)
                        assert improving(u, None) == expected, f"{metric} d {d} u {u} visit {visit}"


@pytest.mark.parametrize("bits", [16, 128])
def test_address_and_coordinate_keys_agree_at_every_node(bits):
    # the contract of the two key providers: at every node with a
    # coordinate, a return address gives the improving options, keys and
    # order that its issuer's coordinate gives
    g, attacker = attach_attacker(generate_synthetic("pa", 300, 3, seed=21), 8, 22)
    cfg = EmbeddingConfig(bits_per_element=bits)
    ts, emb, mask = apply_att_rand(g, attacker, TreeConfig(gamma=5, rng_seed=23), cfg, 24)
    failed = inject_failures(g, 0.1, 25)
    live = [a and b for a, b in zip(mask.live, failed.live)]
    keys = generate_address_keys(g.node_count, 26, bits)
    rng = random.Random(27)
    for tree in range(emb.gamma):
        nodes = [u for u in range(g.node_count) if emb.coord(tree, u) is not None]
        fabricated = list(ts.children[tree][attacker][:1])  # a destination with a fabricated prefix
        for k, d in enumerate(fabricated + rng.sample(nodes, 3)):
            address = address_for_node(emb, ts, d, tree, keys[d], 100 * k + tree, 200 * k + tree)
            for metric in ("TD", "CPL"):
                by_rank = emb.ranks[tree].keys(g, emb.coord(tree, d), metric)[1]
                by_address = address_keys(g, emb, tree, address, keys, metric)[1]
                for u in nodes:
                    expected = by_rank(u, live)
                    assert by_address(u, live) == expected, f"{metric} tree {tree} u {u} d {d}"


class CountingLive(list):
    """A live mask that records which nodes are read."""

    def __init__(self, live):
        super().__init__(live)
        self.reads = []

    def __getitem__(self, v):
        self.reads.append(v)
        return super().__getitem__(v)


@pytest.mark.parametrize("metric", ["TD", "CPL"])
def test_warm_visit_reads_live_only_for_candidates(attacked_pairs, metric):
    # at a hub, liveness is read only for the neighbours that can
    # improve: the shallower ones and those in the target's next run
    g, emb, live, _, pairs, _, _ = attacked_pairs
    tree = 0
    ranks = emb.ranks[tree]
    hub = max((v for v in range(g.node_count) if live[v] and ranks.rank[v] >= 0), key=g.degree)
    first = routing._key_fn(g, emb, tree, pairs[0][1], metric, None, None)[1]
    for _ in range(TreeRanks.SCANS_BEFORE_ENTRY):
        first(hub, live)  # the hub's first visits scan all its neighbours
    counting = CountingLive(live)
    skipped = 0
    for _, d in pairs[:30]:
        improving = routing._key_fn(g, emb, tree, d, metric, None, None)[1]
        counting.reads.clear()
        options = improving(hub, counting)
        bounds, _ = ranks.match_table(emb.coord(tree, d))
        n = len(bounds) // 2
        i = bisect_right(bounds, ranks.rank[hub])
        m = i if i <= n else 2 * n - i
        lo, hi = (bounds[m], bounds[2 * n - 1 - m]) if m < n else (0, 0)
        candidates = {
            v for v in g.neighbors(hub)
            if ranks.rank[v] >= 0 and (ranks.length[v] < ranks.length[hub] or lo <= ranks.rank[v] < hi)
        }
        assert set(counting.reads) <= candidates, f"destination {d}"
        assert {v for _, v in options} <= candidates
        skipped += g.degree(hub) - len(counting.reads)
    assert skipped >= 10 * len(pairs[:30])  # most of the hub's neighbours go unread


def test_entries_are_written_only_for_hubs_visited_often(attacked_pairs):
    # the first visits scan, so passes that visit each node at most that
    # often write nothing; the next visit writes an entry, for hubs only
    g, emb, live, _, pairs, _, _ = attacked_pairs
    fresh = Embedding(emb.coords, emb.cfg)
    improving = routing._key_fn(g, fresh, 0, pairs[0][1], "CPL", None, None)[1]
    nodes = [u for u in range(g.node_count) if fresh.coord(0, u) is not None]
    index = fresh.ranks[0]
    for _ in range(TreeRanks.SCANS_BEFORE_ENTRY):
        for u in nodes:
            improving(u, live)
    assert all(type(value) is int for value in index.entries.values())
    for u in nodes:
        improving(u, live)
    hubs = {u for u in nodes if g.degree(u) >= TreeRanks.MIN_DEGREE}
    assert hubs and {u for u, value in index.entries.items() if type(value) is tuple} == hubs


def test_route_keys_each_visited_node_once(attacked_pairs, monkeypatch):
    # a backtracking route revisits nodes; each distinct node is keyed
    # once per route (its own key plus at most one per eligible
    # neighbour), and only the neighbours that can improve are keyed
    g, emb, live, drop, pairs, _, _ = attacked_pairs
    visits = []
    keyings = 0
    key_fn = routing._key_fn
    bisect = embedding.bisect_right

    def counting_key_fn(*args):
        keyed, improving = key_fn(*args)

        def counting_improving(u, live):
            visits.append(u)
            return improving(u, live)

        return keyed, counting_improving

    def counting_bisect(*args):
        nonlocal keyings
        keyings += 1
        return bisect(*args)

    monkeypatch.setattr(routing, "_key_fn", counting_key_fn)
    monkeypatch.setattr(embedding, "bisect_right", counting_bisect)
    heavy = 0
    for k, (s, d) in enumerate(pairs):
        tree = k % emb.gamma
        visits.clear()
        keyings = 0
        out = route(g, emb, s, d, tree, RoutingConfig(metric="CPL"), live=live,
                    drop_nodes=drop, rng=random.Random(k))
        visited = set(out.path)
        assert len(visits) == len(set(visits)) and set(visits) <= visited, f"pair {s}->{d}"
        assert keyings <= sum(g.degree(u) + 1 for u in visited), f"pair {s}->{d}"
        if len(out.path) >= 3 * len(visited):  # revisits its nodes several times over
            heavy += 1
            # keying every eligible neighbour would reach this count
            eligible = sum(1 for u in visits for v in g.neighbors(u) if live[v] and emb.coord(tree, v) is not None)
            assert keyings - len(visits) < eligible <= sum(g.degree(u) for u in visited), f"pair {s}->{d}"
    assert heavy >= 3


@pytest.mark.parametrize(
    "addressing, choice",
    [
        pytest.param(mode, choice, id=mode if choice is None else f"{mode}-{choice}")
        for choice in (None, "min-neighbor-distance")
        for mode in ("rp", "ppp")
    ],
)
def test_route_hashes_each_cascade_input_once(attacked_pairs, addressing, choice, monkeypatch):
    # siblings share coordinate prefixes and backtracking revisits nodes,
    # yet a route hashes each distinct cascade input once; so does a
    # route_multi call that keys the source's neighbours in every tree to
    # choose its trees and then routes on some of them
    g, emb, live, drop, pairs, addrs, keys = attacked_pairs
    inputs = []
    shake = hashlib.shake_256

    def counting_shake(data, *args, **kwargs):
        if data.startswith(b"hc"):  # H, the cascade hash; not the MAC or the cipher pad
            inputs.append(data)
        return shake(data, *args, **kwargs)

    monkeypatch.setattr(hashlib, "shake_256", counting_shake)
    backtracked = 0
    for k, (s, d) in enumerate(pairs):
        tree_addrs = addrs[k]
        if addressing == "ppp":
            tree_addrs = [add_ppp_layer(a, keys[d], emb.cfg) for a in tree_addrs]
        inputs.clear()
        if choice is None:
            tree = k % emb.gamma
            outs = [route(g, emb, s, d, tree, RoutingConfig(metric="CPL"), live=live,
                          drop_nodes=drop, address=tree_addrs[tree], keys=keys, rng=random.Random(k))]
        else:
            cfg = RoutingConfig(tau=2, metric="CPL", embedding_choice=choice)
            outs = route_multi(g, emb, s, d, cfg, live=live, drop_nodes=drop, addresses=tree_addrs,
                               keys=keys, rng=random.Random(k)).attempts
        assert inputs and len(inputs) == len(set(inputs)), f"pair {s}->{d}"
        backtracked += any(len(out.path) > len(set(out.path)) for out in outs)
    assert backtracked >= 3


def test_oracle_refuses_large_instance():
    g = Graph.from_edges(1500, [(i, i + 1) for i in range(1499)])
    coords = [None] * 1500
    with pytest.raises(ValueError, match="refuses"):
        greedy_path_exists(g, coords, 0, 5, "TD", CFG)


def test_oracle_trivial_cases():
    g, ts, emb = build(n=25, seed=10)
    assert greedy_path_exists(g, emb.coords[0], 3, 3, "TD", CFG)
    live = [True] * 25
    live[7] = False
    assert not greedy_path_exists(g, emb.coords[0], 0, 7, "TD", CFG, live=live)
    with pytest.raises(ValueError):
        greedy_path_exists(g, emb.coords[0], 0, 5, "XOR", CFG)
