import random
import signal
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from f2froute.graph import Graph, generate_synthetic, shortest_path_lengths
from f2froute.trees import (
    ABSENT,
    ROOT,
    STRATEGIES,
    ConstructionError,
    JoinError,
    RootDepartureError,
    TreeBuilder,
    TreeConfig,
    TreeSet,
    choose_invitation,
    construct_trees,
    descendants_count,
    handle_departure,
    handle_join,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def recomputed_pc(ts):
    """Independent recomputation of the parent-diversity counters."""
    pc = [dict() for _ in range(ts.node_count)]
    for i in range(ts.gamma):
        for v in range(ts.node_count):
            p = ts.parent[i][v]
            if p >= 0:
                pc[v][p] = pc[v].get(p, 0) + 1
    return pc


def assert_consistent(ts, g):
    ts.validate(g)
    assert ts.pc == recomputed_pc(ts)


def test_tree_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(gamma=0)
    with pytest.raises(ValueError):
        TreeConfig(accept_prob=0)
    with pytest.raises(ValueError):
        TreeConfig(accept_prob=1.5)
    with pytest.raises(ValueError):
        TreeConfig(strategy="DFS")


@pytest.mark.parametrize("strategy", ["DIV-RAND", "DIV-DEP", "BFS"])
def test_construct_spanning(strategy):
    g = generate_synthetic("er", 80, 0.08, seed=5)
    n = g.node_count
    roots = [0, 1, 2]
    ts = construct_trees(g, TreeConfig(gamma=3, strategy=strategy, rng_seed=9), roots)
    assert_consistent(ts, g)
    for i in range(3):
        assert all(ts.parent[i][v] != ABSENT for v in range(n))
        assert ts.parent[i][roots[i]] == ROOT


def test_construct_rejects_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ConstructionError):
        construct_trees(g, TreeConfig(), [0])
    with pytest.raises(ConstructionError):
        construct_trees(g, TreeConfig(strategy="BFS"), [0])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_construct_root_count_mismatch(strategy):
    g = path_graph(4)
    with pytest.raises(ConstructionError):
        construct_trees(g, TreeConfig(gamma=2, strategy=strategy), [0])


def test_bfs_levels_match_hop_distance():
    g = generate_synthetic("pa", 120, 2, seed=2)
    ts = construct_trees(g, TreeConfig(gamma=2, strategy="BFS", rng_seed=4), [3, 7])
    for i, r in enumerate([3, 7]):
        dist = shortest_path_lengths(g, r)
        assert ts.level[i] == dist


def test_single_tree_preferred_acceptance_is_immediate():
    # with one tree every invitation is preferred (all counters are 0),
    # so construction finishes in eccentricity(root) rounds even at tiny q
    g = generate_synthetic("er", 60, 0.1, seed=11)
    builder = TreeBuilder(g, TreeConfig(accept_prob=1e-6, rng_seed=1), [0])
    builder.run()
    ecc = max(shortest_path_lengths(g, 0))
    assert builder.round == ecc
    assert builder.ts.level[0] == shortest_path_lengths(g, 0)


def test_non_preferred_acceptance_rate_matches_q():
    # v's sole invitation comes from a neighbor already parenting it once,
    # while another neighbor is unused: non-preferred, accepted w.p. q
    g = path_graph(3)
    q = 0.3
    accepted = 0
    trials = 4000
    cfg = TreeConfig(gamma=2, accept_prob=q)
    for t in range(trials):
        # node 1 has degree 2; node 0 parents it in tree 0 and invites it to tree 1
        if choose_invitation({0: 1}, g.degree(1), {1: [0]}, [[0], [0]], random.Random(t), cfg) is not None:
            accepted += 1
    rate = accepted / trials
    sigma = (q * (1 - q) / trials) ** 0.5
    assert abs(rate - q) < 4 * sigma


def test_div_dep_prefers_lower_level():
    # no neighbor parents the node yet, so all three invitations are preferred
    level = [{5: 3, 6: 1, 7: 2}]
    cfg = TreeConfig(strategy="DIV-DEP")
    assert choose_invitation({}, 3, {0: [5, 6, 7]}, level, random.Random(0), cfg) == (0, 6)


def test_construction_peak_stays_near_the_built_trees():
    # pending invitations are the construction's transient: each one must
    # cost no more than a reference to its inviter
    g = generate_synthetic("pa", 2000, 5, seed=3)
    cfg = TreeConfig(gamma=15, strategy="DIV-RAND", rng_seed=3)
    tracemalloc.start()
    try:
        ts = construct_trees(g, cfg, list(range(15)))
        built, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ts.node_count == 2000
    assert peak <= 1.8 * built, (peak, built)


def test_handle_join_attaches_everywhere():
    g = generate_synthetic("er", 40, 0.15, seed=8)
    n = g.node_count
    sub_edges = [(u, v) for u, v in g.edges() if u != n - 1 and v != n - 1]
    sub = Graph.from_edges(n, sub_edges)  # same id space, last node isolated
    ts = construct_trees(
        Graph.from_edges(n - 1, [(u, v) for u, v in sub_edges]),
        TreeConfig(gamma=2, rng_seed=3),
        [0, 1],
    )
    # extend records to the full id space
    grown = TreeSet(n, ts.roots)
    for i in range(2):
        order = sorted(range(n - 1), key=lambda v: ts.level[i][v])
        for v in order:
            if ts.parent[i][v] >= 0:
                grown.attach(i, v, ts.parent[i][v], ts.join_round[i][v])
    handle_join(grown, g, n - 1, seed=5)
    assert_consistent(grown, g)
    for i in range(2):
        p = grown.parent[i][n - 1]
        assert p >= 0 and p in g.neighbors(n - 1)
    assert sub.node_count == n  # the pre-join graph really excluded the node


def test_handle_join_on_div_dep_trees_prefers_lower_level():
    # neighbors 1, 2 and 3 of the joining node 4 sit at levels 1, 2 and 3
    # but joined in the same round, so their invitations arrive together
    # and are all preferred; DIV-DEP takes the level-1 inviter every time
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
    for seed in range(20):
        ts = TreeSet(5, [0], TreeConfig(strategy="DIV-DEP"))
        for v in (1, 2, 3):
            ts.attach(0, v, v - 1, 3)
        handle_join(ts, g, 4, seed=seed)
        assert ts.parent[0][4] == 1
        assert_consistent(ts, g)


def test_tree_set_records_its_config():
    g = path_graph(4)
    cfg = TreeConfig(gamma=2, accept_prob=0.3, strategy="DIV-DEP", rng_seed=1)
    ts = construct_trees(g, cfg, [0, 3])
    assert ts.cfg is cfg and ts.copy().cfg is cfg
    bfs = TreeConfig(strategy="BFS")
    assert construct_trees(g, bfs, [0]).cfg is bfs
    assert TreeSet(4, [0, 1, 2]).cfg == TreeConfig(gamma=3)


def test_handle_join_rejects_member_or_isolated():
    g = path_graph(3)
    ts = construct_trees(g, TreeConfig(), [0])
    with pytest.raises(JoinError):
        handle_join(ts, g, 1)
    g2 = Graph.from_edges(4, [(0, 1), (1, 2)])
    ts2 = construct_trees(path_graph(3), TreeConfig(), [0])
    grown = TreeSet(4, [0])
    for v in range(3):
        if ts2.parent[0][v] >= 0:
            grown.attach(0, v, ts2.parent[0][v], ts2.join_round[0][v])
    with pytest.raises(JoinError):
        handle_join(grown, g2, 3)  # node 3 has no edge at all


def test_handle_join_readmits_nodes_stranded_by_a_departure():
    # on the path 0-1-2-3 the departure of 2 strands 3 out of tree 0 and
    # 1, 0 out of tree 1; once 2 is back, each rejoins what it is missing
    g = path_graph(4)
    ts = construct_trees(g, TreeConfig(gamma=2, strategy="BFS"), [0, 3])
    handle_departure(ts, g, 2, seed=1)
    handle_join(ts, g, 2, seed=2)
    assert [ts.in_tree(0, v) for v in range(4)] == [True, True, True, False]
    assert [ts.in_tree(1, v) for v in range(4)] == [False, False, True, True]
    for seed, v in enumerate((3, 1, 0)):
        handle_join(ts, g, v, seed=seed)
        assert_consistent(ts, g)
    assert [ts.parent[0][v] for v in range(4)] == [ROOT, 0, 1, 2]
    assert [ts.parent[1][v] for v in range(4)] == [1, 2, 3, ROOT]
    with pytest.raises(JoinError, match="every tree"):
        handle_join(ts, g, 3)


def test_departure_star_leaf_costs_nothing():
    g = star_graph(6)
    ts = construct_trees(g, TreeConfig(rng_seed=1), [0])
    _, reassigned = handle_departure(ts, g, 3, seed=2)
    assert reassigned == 0
    assert ts.parent[0][3] == ABSENT
    assert_consistent(ts, g)


def test_departure_path_interior_reassigns_descendants():
    g = path_graph(6)
    ts = construct_trees(g, TreeConfig(rng_seed=1), [0])
    expect = descendants_count(ts, 2, 0)
    _, reassigned = handle_departure(ts, g, 2, seed=3)
    assert reassigned == expect == 3
    # nodes 3..5 have no neighbor left in the tree (pure path): dropped
    assert all(ts.parent[0][v] == ABSENT for v in [2, 3, 4, 5])
    assert_consistent(ts, g)


def test_departure_reattaches_when_alternative_exists():
    # cycle: removing one node leaves the rest connected
    n = 8
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    ts = construct_trees(g, TreeConfig(rng_seed=2), [0])
    victim = next(v for v in range(1, n) if ts.children[0][v])
    _, reassigned = handle_departure(ts, g, victim, seed=4)
    assert reassigned > 0
    assert_consistent(ts, g)
    still = [v for v in range(n) if v != victim]
    assert all(ts.parent[0][v] != ABSENT for v in still)


def test_departure_on_div_dep_trees_prefers_lower_level():
    # node 3 departs; its child 4 may take parent 0 (level 0) or 2 (level
    # 2), both unused by 4, and DIV-DEP takes the level-0 one every time
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 0), (4, 2)])
    for seed in range(20):
        ts = TreeSet(5, [0], TreeConfig(strategy="DIV-DEP"))
        for v, p in ((1, 0), (2, 1), (3, 0), (4, 3)):
            ts.attach(0, v, p, ts.level[0][p] + 1)
        _, reassigned = handle_departure(ts, g, 3, seed=seed)
        assert reassigned == 1
        assert ts.parent[0][4] == 0 and ts.level[0][4] == 1
        assert_consistent(ts, g)


def test_departure_reroots_a_subtree_whose_root_cannot_attach():
    # the chain 0-1-2-3 loses 1: node 2 has no member neighbor left, so
    # its subtree is re-rooted at 3, which attaches through the edge 3-0
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ts = TreeSet(4, [0])
    for v in (1, 2, 3):
        ts.attach(0, v, v - 1, v)
    _, reassigned = handle_departure(ts, g, 1, seed=0)
    assert reassigned == 2
    assert ts.parent[0] == [ROOT, ABSENT, 3, 0]
    assert ts.level[0] == [0, -1, 2, 1]
    assert_consistent(ts, g)


def test_departure_of_root_raises():
    g = path_graph(4)
    ts = construct_trees(g, TreeConfig(gamma=2, rng_seed=0), [1, 2])
    with pytest.raises(RootDepartureError) as e:
        handle_departure(ts, g, 1)
    assert e.value.trees == [0]


def test_random_departures_keep_invariants():
    rng = random.Random(17)
    for trial in range(15):
        g = generate_synthetic("er", 30, 0.2, seed=trial)
        n = g.node_count
        ts = construct_trees(g, TreeConfig(gamma=2, rng_seed=trial), [0, 1])
        victim = rng.randrange(2, n)
        handle_departure(ts, g, victim, seed=trial)
        assert_consistent(ts, g)


def test_descendants_count_matches_parent_chain_oracle():
    g = generate_synthetic("pa", 50, 2, seed=6)
    ts = construct_trees(g, TreeConfig(rng_seed=6), [0])

    def chain_has(v, anc):
        while ts.parent[0][v] >= 0:
            v = ts.parent[0][v]
            if v == anc:
                return True
        return False

    for node in [0, 1, 5, 10]:
        oracle = sum(1 for v in range(g.node_count) if v != node and chain_has(v, node))
        assert descendants_count(ts, node, 0) == oracle
    with pytest.raises(ValueError):
        descendants_count(ts, 0, 5)


def assert_top_down(ts, tree):
    order = ts.top_down(tree)
    assert order[0] == ts.roots[tree]
    # each member exactly once; absent nodes left out
    assert sorted(order) == [v for v in range(ts.node_count) if ts.in_tree(tree, v)]
    pos = {v: k for k, v in enumerate(order)}
    assert all(pos[ts.parent[tree][v]] < pos[v] for v in order[1:])
    bfs, queue = [], deque([ts.roots[tree]])
    while queue:
        u = queue.popleft()
        bfs.append(u)
        queue.extend(ts.children[tree][u])
    assert order == bfs


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_top_down_is_breadth_first_over_children_before_and_after_churn(strategy):
    # m = 1 gives a tree graph: a departure strands the nodes beyond it
    for m, seed in ((1, 3), (3, 4)):
        g = generate_synthetic("pa", 60, m, seed=seed)
        ts = construct_trees(g, TreeConfig(gamma=3, strategy=strategy, rng_seed=seed), [0, 1, 2])
        for i in range(3):
            assert_top_down(ts, i)
        rng = random.Random(seed)
        for k in range(12):
            v = rng.randrange(3, g.node_count)
            handle_departure(ts, g, v, seed=k)
            for i in range(3):
                assert_top_down(ts, i)
            try:
                handle_join(ts, g, v, seed=k)
            except JoinError:
                continue
            for i in range(3):
                assert_top_down(ts, i)


def test_copy_is_independent():
    g = path_graph(5)
    ts = construct_trees(g, TreeConfig(rng_seed=0), [0])
    dup = ts.copy()
    handle_departure(dup, g, 2, seed=1)
    assert ts.parent[0][2] != ABSENT
    assert_consistent(ts, g)


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    m=st.integers(1, 3),
    gamma=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    moves=st.lists(st.integers(0, 10_000), min_size=1, max_size=10),
)
def test_depart_join_sequences_keep_invariants(strategy, m, gamma, seed, moves):
    # m = 1 gives a tree graph, where every departure of an inner node
    # strands the part of each spanning tree beyond it
    g = generate_synthetic("pa", 24, m, seed=seed)
    n = g.node_count
    ts = construct_trees(g, TreeConfig(gamma=gamma, strategy=strategy, rng_seed=seed), list(range(gamma)))
    for k, move in enumerate(moves):
        v = gamma + move % (n - gamma)
        handle_departure(ts, g, v, seed=seed + k)
        assert all(not ts.in_tree(i, v) for i in range(gamma))
        assert_consistent(ts, g)
        try:
            handle_join(ts, g, v, seed=seed + k)
        except JoinError:
            continue  # a neighborhood stranded in some tree
        assert all(ts.parent[i][v] in g.neighbors(v) for i in range(gamma))
        assert_consistent(ts, g)


# Reference join for the differential test below: the replay steps
# through every round, empty ones included, and each attach stamp scans
# the whole tree for its latest join round.


def reference_handle_join(ts, g, new_node, seed=0):
    rng = random.Random(seed)
    missing = [i for i in range(ts.gamma) if not ts.in_tree(i, new_node)]
    if not missing:
        raise JoinError(f"node {new_node} already in every tree")
    for i in missing:
        if not any(ts.in_tree(i, w) for w in g.neighbors(new_node)):
            raise JoinError(f"node {new_node} has no neighbor in tree {i}")
    events = []
    for i in missing:
        for w in g.neighbors(new_node):
            if ts.in_tree(i, w):
                events.append((ts.join_round[i][w] + 1, i, w))
    events.sort()
    pending, joined = {}, {}
    pc = dict(ts.pc[new_node])
    degree = g.degree(new_node)
    round_no, idx = 0, 0
    cap = (events[-1][0] if events else 0) + int(500 / ts.cfg.accept_prob)
    while len(joined) < len(missing):
        round_no += 1
        if round_no > cap:
            raise JoinError(f"join replay for node {new_node} did not converge")
        while idx < len(events) and events[idx][0] <= round_no:
            _, tree, w = events[idx]
            idx += 1
            if tree not in joined:
                pending.setdefault(tree, []).append(w)
        if not pending:
            continue
        choice = choose_invitation(pc, degree, pending, ts.level, rng, ts.cfg)
        if choice is None:
            continue
        tree, w = choice
        joined[tree] = w
        pc[w] = pc.get(w, 0) + 1
        del pending[tree]
    ts.clock += 1
    for tree, w in joined.items():
        ts.attach(tree, new_node, w, ts.clock + max(ts.join_round[tree]))
    return ts


def outcome(call, *args, **kwargs):
    """What the call returned besides the TreeSet, or what it raised."""
    try:
        out = call(*args, **kwargs)
    except (JoinError, RootDepartureError) as exc:
        return type(exc), str(exc)
    return out[1:] if isinstance(out, tuple) else None


def full_state(ts):
    return ts.parent, ts.level, ts.join_round, ts.children, ts.pc, ts.clock


@settings(max_examples=40, deadline=None)
@given(
    config=st.sampled_from([(s, 0.5) for s in STRATEGIES] + [("DIV-DEP", 0.3)]),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    moves=st.lists(st.integers(0, 10_000), min_size=1, max_size=25),
)
def test_churn_matches_reference(config, m, seed, moves):
    # m = 1 gives a tree graph: departures strand nodes, and some rejoins
    # raise JoinError; the jump over idle rounds must draw the same numbers.
    # Both copies depart through handle_departure, so that each join starts
    # from the same trees; validate checks the running max_join_round the
    # stamps read after every event.
    strategy, q = config
    g = generate_synthetic("pa", 30, m, seed=seed)
    gamma = 3
    cfg = TreeConfig(gamma=gamma, accept_prob=q, strategy=strategy, rng_seed=seed)
    ts = construct_trees(g, cfg, list(range(gamma)))
    ref = ts.copy()
    for k, move in enumerate(moves):
        v = gamma + move % (g.node_count - gamma)
        for new, old in ((handle_departure, handle_departure), (handle_join, reference_handle_join)):
            assert outcome(new, ts, g, v, seed=seed + k) == outcome(old, ref, g, v, seed=seed + k)
            assert full_state(ts) == full_state(ref)
            ts.validate(g)


def test_join_skips_idle_rounds():
    # the inviters joined near round 10**12; a replay that stepped through
    # every empty round before their invitations arrive would never finish
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    ts = TreeSet(4, [0, 0], TreeConfig(gamma=2, accept_prob=0.3))
    for i, far in enumerate((10**12, 10**12 + 7)):
        ts.attach(i, 1, 0, far)
        ts.attach(i, 2, 1, far + 1)
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("join replay walked the idle rounds"))
    signal.alarm(5)
    try:
        handle_join(ts, g, 3, seed=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_consistent(ts, g)
    assert ts.max_join_round == [max(j) for j in ts.join_round]
    assert min(ts.join_round[i][3] for i in range(2)) > 10**12
