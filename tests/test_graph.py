import random

import pytest
from hypothesis import example, given, settings, strategies as st

from f2froute.graph import (
    Graph,
    GraphFormatError,
    GenerationError,
    UNREACHABLE,
    connected_components,
    diameter_estimate,
    generate_synthetic,
    giant_component,
    graph_stats,
    load_edge_list,
    sample,
    shortest_path_lengths,
    shuffle,
)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_from_edges_symmetrizes_and_dedups():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2), (1, 1), (0, 1)])
    assert g.edge_count == 2
    assert g.neighbors(1) == [0, 2]
    assert g.degree(0) == 1
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(2, [(0, 5)])


def test_load_edge_list(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n10 20\n20 30\n\n10 30\n")
    g = load_edge_list(p)
    assert g.node_count == 3
    assert g.edge_count == 3


def test_load_edge_list_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 two\n")
    with pytest.raises(GraphFormatError, match="bad.txt:1"):
        load_edge_list(p)
    p2 = tmp_path / "empty.txt"
    p2.write_text("# nothing\n")
    with pytest.raises(GraphFormatError, match="no edges"):
        load_edge_list(p2)
    p3 = tmp_path / "short.txt"
    p3.write_text("42\n")
    with pytest.raises(GraphFormatError, match="expected two"):
        load_edge_list(p3)


def test_generate_synthetic_deterministic_and_connected():
    g1 = generate_synthetic("preferential-attachment", 100, 2, seed=7)
    g2 = generate_synthetic("pa", 100, 2, seed=7)
    assert g1.adjacency == g2.adjacency
    assert len(connected_components(g1)) == 1

    e1 = generate_synthetic("erdos-renyi", 100, 0.08, seed=3)
    assert len(connected_components(e1)) == 1  # giant component extracted
    assert e1.node_count <= 100


def test_generate_synthetic_rejects_bad_params():
    with pytest.raises(GenerationError):
        generate_synthetic("er", 100, 1.5, seed=0)
    with pytest.raises(GenerationError):
        generate_synthetic("pa", 10, 0, seed=0)
    with pytest.raises(GenerationError, match="integer"):
        generate_synthetic("pa", 100, 2.5, seed=0)
    with pytest.raises(GenerationError):
        generate_synthetic("no-such-model", 10, 1, seed=0)
    with pytest.raises(GenerationError):
        generate_synthetic("pa", 1, 1, seed=0)


def test_connected_components_largest_first():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    comps = connected_components(g)
    assert [len(c) for c in comps] == [3, 2, 1]


def test_connected_components_live_mask():
    # killing node 2 splits the path 0-1-2-3-4 in two; dead nodes are in no component
    g = path_graph(5)
    live = [True, True, False, True, True]
    assert connected_components(g, live) == [[0, 1], [3, 4]]
    assert connected_components(g, [False] * 5) == []
    assert connected_components(g, [True] * 5) == connected_components(g)


def test_giant_component_remaps_dense():
    g = Graph.from_edges(6, [(1, 3), (3, 5), (0, 2)])
    giant = giant_component(g)
    assert giant.node_count == 3
    assert giant.edge_count == 2
    assert len(connected_components(giant)) == 1


def test_shortest_path_lengths_bfs():
    g = path_graph(5)
    assert shortest_path_lengths(g, 0) == [0, 1, 2, 3, 4]
    disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
    d = shortest_path_lengths(disconnected, 0)
    assert d[2] == UNREACHABLE and d[3] == UNREACHABLE
    with pytest.raises(ValueError):
        shortest_path_lengths(g, 99)


def test_diameter_estimate_path_graph():
    # double sweep is exact on trees
    assert diameter_estimate(path_graph(10), seed=1) == 9


def test_graph_stats_csv_row():
    g = path_graph(4)
    st = graph_stats(g)
    assert st.node_count == 4 and st.edge_count == 3
    assert st.giant_component_size == 4
    row = st.csv_row()
    assert row.split(",")[0] == "4"
    assert len(row.split(",")) == len(st.CSV_HEADER.split(","))


LENGTHS = [*range(41), 85, 86, 200]


def test_shuffle_draws_as_random_shuffle():
    for seed in range(300):
        for n in LENGTHS:
            ref, rng = random.Random(seed), random.Random(seed)
            want, got = list(range(n)), list(range(n))
            ref.shuffle(want)
            shuffle(rng.getrandbits, got)
            assert got == want and rng.getstate() == ref.getstate(), (seed, n)


def test_sample_draws_as_random_sample():
    # k = 6 and k = 8 take the set-size rule for k > 5; n = 85 and 86
    # fall either side of k = 8's pool/set boundary
    for seed in range(300):
        for n in LENGTHS:
            population = [10 * v for v in range(n)]
            for k in (1, 5, 6, 8, 20):
                if k > n:
                    continue
                ref, rng = random.Random(seed), random.Random(seed)
                assert sample(rng.getrandbits, population, k) == ref.sample(population, k), (seed, n, k)
                assert rng.getstate() == ref.getstate(), (seed, n, k)


def test_sample_refuses_k_outside_population():
    bits = random.Random(0).getrandbits
    for k in (4, -1):
        with pytest.raises(ValueError):
            sample(bits, [1, 2, 3], k)


def reference_or_none(nx_graph, n):
    """The giant component of a networkx graph as adjacency lists, or None
    when it is too small to be a usable graph."""
    g = giant_component(Graph.from_edges(n, nx_graph.edges()))
    return g.adjacency if g.node_count >= 2 else None


def synthetic_or_none(model, n, param, seed):
    try:
        return generate_synthetic(model, n, param, seed).adjacency
    except GenerationError:
        return None


@settings(max_examples=60, deadline=None)
@given(
    nm=st.integers(2, 150).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
)
@example(nm=(40, 39), seed=1)
@example(nm=(2, 1), seed=0)
def test_preferential_attachment_matches_networkx(nm, seed):
    nx = pytest.importorskip("networkx")
    n, m = nm
    assert generate_synthetic("pa", n, m, seed).adjacency == reference_or_none(nx.barabasi_albert_graph(n, m, seed=seed), n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 150),
    p=st.floats(0, 1, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=60, p=1.0, seed=5)
@example(n=2, p=1.0, seed=0)
def test_gnp_matches_networkx(n, p, seed):
    nx = pytest.importorskip("networkx")
    assert synthetic_or_none("er", n, p, seed) == reference_or_none(nx.gnp_random_graph(n, p, seed=seed), n)
