"""Undirected social graph: loading, synthetic generation, and queries.

The graph is the trust topology underlying all trees, embeddings, and
routing. Node ids are always dense integers in [0, n); edges are
symmetric, deduplicated, and self-loop free.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

UNREACHABLE = -1


class GraphFormatError(ValueError):
    """Raised for malformed or empty edge-list input."""


class GenerationError(RuntimeError):
    """Raised when a synthetic model cannot produce a usable graph."""


class Graph:
    """Immutable undirected graph with dense integer node ids."""

    __slots__ = ("adjacency", "_edge_count")

    def __init__(self, adjacency: list[list[int]]):
        self.adjacency = adjacency
        self._edge_count = sum(len(a) for a in adjacency) // 2

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, u: int) -> list[int]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Symmetrizes, drops duplicates and self-loops.
        """
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u}, {v}) out of range [0, {n})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls([sorted(s) for s in nbrs])


@dataclass
class GraphStats:
    """Summary statistics of a graph, exportable as one CSV row."""

    node_count: int
    edge_count: int
    giant_component_size: int
    diameter_estimate: int
    average_degree: float

    CSV_HEADER = "n,m,giant_size,diameter_estimate,mean_degree"

    def csv_row(self) -> str:
        return (
            f"{self.node_count},{self.edge_count},{self.giant_component_size},"
            f"{self.diameter_estimate},{self.average_degree:.9g}"
        )


def load_edge_list(path) -> Graph:
    """Load a whitespace-separated edge list; '#'-prefixed lines are comments.

    Node ids are remapped to the dense range [0, n). Edges are undirected
    regardless of line order.
    """
    id_map: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected two node ids, got {stripped!r}")
            try:
                raw_u, raw_v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer node id in {stripped!r}") from exc
            u = id_map.setdefault(raw_u, len(id_map))
            v = id_map.setdefault(raw_v, len(id_map))
            edges.append((u, v))
    if not id_map:
        raise GraphFormatError(f"{path}: no edges found")
    return Graph.from_edges(len(id_map), edges)


def shuffle(bits, x: list) -> None:
    """Shuffle x in place; with bits = rng.getrandbits this equals
    rng.shuffle(x), result and generator state alike.

    Fisher–Yates from the top (Durstenfeld 1964): slot n - 1 swaps with
    a j < n drawn by rejection over n's bit width, as CPython draws it.
    """
    for n in range(len(x), 1, -1):
        b = n.bit_length()
        j = bits(b)
        while j >= n:
            j = bits(b)
        x[n - 1], x[j] = x[j], x[n - 1]


def sample(bits, population, k: int) -> list:
    """k entries of population at distinct positions, in selection order;
    with bits = rng.getrandbits this equals rng.sample(population, k),
    result and generator state alike.

    Like CPython, it keeps a shrinking pool when the population is no
    larger than a k-entry set would be, and otherwise redraws positions
    already taken.
    """
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    out = []
    if n <= setsize:
        pool = list(population)
        for m in range(n, n - k, -1):
            b = m.bit_length()
            j = bits(b)
            while j >= m:
                j = bits(b)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        return out
    b = n.bit_length()
    taken: set[int] = set()
    for _ in range(k):
        j = bits(b)
        while j >= n or j in taken:
            j = bits(b)
        taken.add(j)
        out.append(population[j])
    return out


def _preferential_attachment_edges(n: int, m: int, bits):
    """Barabási–Albert growth: each new node links to m distinct existing
    nodes drawn in proportion to their degree.

    Starts from a star on m + 1 nodes (centre 0). `repeated` lists every
    node once per incident edge, so a uniform draw from it is a
    degree-proportional draw. With bits = rng.getrandbits each draw
    equals rng.choice(repeated); the list grows only after a node's
    targets are chosen, so one bit width serves all of its draws.
    """
    yield from ((0, v) for v in range(1, m + 1))
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        size = len(repeated)
        b = size.bit_length()
        targets: set[int] = set()
        while len(targets) < m:
            j = bits(b)
            if j < size:
                targets.add(repeated[j])
        yield from ((source, t) for t in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)


def _gnp_edges(n: int, p: float, rng: random.Random):
    """G(n, p): each of the n(n-1)/2 pairs independently with probability p."""
    pairs = itertools.combinations(range(n), 2)
    if p >= 1:
        return pairs
    return (e for e in pairs if rng.random() < p)


def generate_synthetic(model: str, n: int, param: float, seed: int) -> Graph:
    """Generate a connected synthetic graph, deterministic for a fixed seed.

    model: "erdos-renyi" (param = edge probability) or
    "preferential-attachment" (param = integer attachment degree m).
    Disconnected outputs are reduced to their giant component.
    """
    if n < 2:
        raise GenerationError(f"need n >= 2, got {n}")
    rng = random.Random(seed)
    if model in ("erdos-renyi", "er"):
        if not 0 < param <= 1:
            raise GenerationError(f"edge probability must be in (0, 1], got {param}")
        edges = _gnp_edges(n, param, rng)
    elif model in ("preferential-attachment", "pa"):
        if not float(param).is_integer() or not 1 <= param < n:
            raise GenerationError(f"attachment degree must be an integer in [1, n), got {param}")
        edges = _preferential_attachment_edges(n, int(param), rng.getrandbits)
    else:
        raise GenerationError(f"unknown model {model!r}")
    g = giant_component(Graph.from_edges(n, edges))
    if g.node_count < 2:
        raise GenerationError(f"{model}(n={n}, param={param}) yielded a giant component of size {g.node_count}")
    return g


def connected_components(g: Graph, live=None) -> list[list[int]]:
    """Connected components as lists of node ids, largest first.

    With a live mask, components of the subgraph induced by the live
    nodes; dead nodes belong to none.
    """
    seen = [False] * g.node_count if live is None else [not x for x in live]
    comps: list[list[int]] = []
    for start in range(g.node_count):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        for u in comp:  # breadth-first; the list grows as it is walked
            for v in g.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        comps.append(comp)
    comps.sort(key=len, reverse=True)
    return comps


def giant_component(g: Graph) -> Graph:
    """Induced subgraph of the largest connected component, ids remapped."""
    comps = connected_components(g)
    if not comps:
        return g
    comp = comps[0]
    if len(comp) == g.node_count:
        return g
    remap = {old: new for new, old in enumerate(sorted(comp))}
    edges = [
        (remap[u], remap[v])
        for u in comp
        for v in g.neighbors(u)
        if u < v and v in remap
    ]
    return Graph.from_edges(len(comp), edges)


def shortest_path_lengths(g: Graph, source: int) -> list[int]:
    """Breadth-first hop distances from source; UNREACHABLE for other components."""
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range [0, {g.node_count})")
    dist = [UNREACHABLE] * g.node_count
    dist[source] = 0
    order = [source]
    for u in order:  # the list grows as it is walked
        du = dist[u]
        for v in g.neighbors(u):
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                order.append(v)
    return dist


def diameter_estimate(g: Graph, seed: int = 0) -> int:
    """Double-sweep lower-bound estimate of the graph diameter in hops."""
    if g.node_count < 2:
        return 0
    rng = random.Random(seed)
    start = rng.randrange(g.node_count)
    d0 = shortest_path_lengths(g, start)
    far = max(range(g.node_count), key=lambda v: d0[v])
    d1 = shortest_path_lengths(g, far)
    return max(1, max(d1))


def graph_stats(g: Graph, seed: int = 0) -> GraphStats:
    comps = connected_components(g)
    giant = len(comps[0]) if comps else 0
    n = g.node_count
    return GraphStats(
        node_count=n,
        edge_count=g.edge_count,
        giant_component_size=giant,
        diameter_estimate=diameter_estimate(g, seed),
        average_degree=2 * g.edge_count / n if n else 0.0,
    )
