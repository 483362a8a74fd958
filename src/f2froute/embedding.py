"""Randomized prefix coordinates over spanning trees and their distances.

Each node's coordinate is its parent's coordinate extended by a fresh
random b-bit element, so nodes in the same subtree share a prefix. Two
distances are provided: the tree hop distance and a common-prefix-length
dominant distance that avoids routes through the root.

An embedding also keeps each tree's coordinates in lexicographic order.
The coordinates that start with a prefix p form one contiguous run of
that order, so a node's common prefix length with a target follows from
its rank alone (`TreeRanks`). Each tree also indexes its hubs'
neighbours by depth and rank, a hub at a time as routes come back to it
(`NeighbourIndex`).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from f2froute.graph import Graph
from f2froute.trees import TreeSet

Coordinate = tuple[int, ...]

# w in each metric's routing key len(c) - w * m, m the matched prefix
MATCH_WEIGHT = {"TD": 2, "CPL": 1 << 32}


@dataclass
class EmbeddingConfig:
    bits_per_element: int = 128
    max_length: int = 128   # padding target for return addresses
    cpl_constant: int = 128  # the constant L in the prefix distance

    def __post_init__(self):
        if self.bits_per_element < 1:
            raise ValueError("bits_per_element must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")


class TreeRanks:
    """One tree's coordinates in lexicographic order.

    rank[v] is node v's position in `ordered`, or -1 if v has no
    coordinate; length[v] is the length of its coordinate.
    """

    __slots__ = ("ordered", "rank", "length", "_index")

    def __init__(self, coords: list[Coordinate | None]):
        present = [v for v, c in enumerate(coords) if c is not None]
        present.sort(key=coords.__getitem__)
        self.ordered = [coords[v] for v in present]
        self.rank = rank = array("i", [-1]) * len(coords)
        for r, v in enumerate(present):
            rank[v] = r
        self.length = array("i", [0 if c is None else len(c) for c in coords])
        self._index = None

    def match_table(self, target: Coordinate, weight: int = 1) -> tuple[list[int], list[int]]:
        """(bounds, table): for a node v with a coordinate,
        table[bisect_right(bounds, rank[v])] is weight times the length of
        the prefix it shares with target.

        The coordinates that start with p = target[:k] are exactly those
        in [p, p[:-1] + (p[-1] + 1,)) for any set of integer tuples, so
        each k takes two bisections. The runs are nested, which makes
        bounds = lo_1..lo_L, hi_L..hi_1 sorted.
        """
        ordered = self.ordered
        lo, hi = 0, len(ordered)
        los, his = [], []
        for k, e in enumerate(target):
            lo = bisect_left(ordered, target[: k + 1], lo, hi)
            hi = bisect_left(ordered, target[:k] + (e + 1,), lo, hi)
            los.append(lo)
            his.append(hi)
        n = len(target)
        table = [weight * m for m in range(n + 1)]
        return los + his[::-1], table + table[-2::-1]

    def neighbour_index(self, g: Graph) -> NeighbourIndex:
        """This tree's neighbour index on g; a new, empty one when the
        index held so far was built on another graph."""
        index = self._index
        if index is None or index.graph is not g:
            index = self._index = NeighbourIndex(g, self)
        return index


class NeighbourIndex:
    """One tree's neighbour lists on one graph, split by depth and rank.

    Writing a node's entry costs about two scans of its neighbours, so a
    node is scanned until its scans have cost about as much: `split`
    answers None the first `SCANS_BEFORE_ENTRY` times it is asked about
    the node, and the caller scans; the next time it writes the entry. A
    node visited at most that often costs what a scan costs, and one
    visited more often pays for its entry once. Routes ask only about
    nodes with at least `MIN_DEGREE` neighbours: below that a scan costs
    less than reading an entry.

    All entries share one flat array, `data`; u's entry starts at
    data[offset[u]] (an offset -1 - k: asked k times, no entry yet) and
    reads, in order: the count s of u's neighbours with a coordinate
    shorter than u's (the shallower ones), the count r of its other
    neighbours with a coordinate, the s positions in u's neighbour list
    of the shallower ones, in neighbour order, and the r ranks of the
    others, sorted, followed by their positions in the same order.
    Values take 16 bits while the tree and the graph have at most 65,536
    nodes, since every rank, position and count is then below 65,536.
    """

    MIN_DEGREE = 32
    SCANS_BEFORE_ENTRY = 3

    __slots__ = ("graph", "offset", "data", "_rank", "_length")

    def __init__(self, g: Graph, ranks: TreeRanks):
        n = len(ranks.rank)
        self.graph = g
        self.offset = array("i", [-1]) * n
        self.data = array("H" if max(n, g.node_count) <= 1 << 16 else "i")
        self._rank, self._length = ranks.rank, ranks.length

    def split(self, u: int, lo: int, hi: int) -> tuple[array, array, array] | None:
        """(shallower, ranks, positions): the positions in u's neighbour
        list of its shallower neighbours, in neighbour order, and the
        ranks in [lo, hi) of its other neighbours, sorted, beside their
        positions. Two bisections find the ranks. None the first
        `SCANS_BEFORE_ENTRY` times it is asked about u."""
        data = self.data
        o = self.offset[u]
        if o < 0:
            if o > -1 - self.SCANS_BEFORE_ENTRY:
                self.offset[u] = o - 1
                return None
            o = self._fill(u)
        first = o + 2
        others = first + data[o]
        end = others + data[o + 1]
        a = bisect_left(data, lo, others, end)
        b = bisect_left(data, hi, a, end)
        shift = end - others
        return data[first:others], data[a:b], data[a + shift:b + shift]

    def _fill(self, u: int) -> int:
        """Write u's entry and return its offset."""
        rank, length = self._rank, self._length
        lu = length[u]
        nbrs = self.graph.adjacency[u]
        ranks = [rank[v] for v in nbrs]
        shallower: list[int] = []
        others: list[int] = []
        for j, v in enumerate(nbrs):
            if ranks[j] >= 0:
                if length[v] < lu:
                    shallower.append(j)
                else:
                    others.append(j)
        others.sort(key=ranks.__getitem__)
        data = self.data
        o = self.offset[u] = len(data)
        data.append(len(shallower))
        data.append(len(others))
        data.extend(shallower)
        data.extend([ranks[j] for j in others])
        data.extend(others)
        return o


class Embedding:
    """Per-tree coordinate maps; immutable between stabilization events."""

    def __init__(self, coords: list[list[Coordinate | None]], cfg: EmbeddingConfig):
        self.coords = coords
        self.cfg = cfg
        self.ranks = [TreeRanks(tree) for tree in coords]

    @property
    def gamma(self) -> int:
        return len(self.coords)

    def coord(self, tree: int, node: int) -> Coordinate | None:
        return self.coords[tree][node]


def assign_coordinates(
    ts: TreeSet,
    cfg: EmbeddingConfig,
    seed: int,
    fabricate_children_of: int | None = None,
) -> Embedding:
    """Assign coordinates top-down in every tree; deterministic per seed.

    The root gets the empty vector; each child extends its parent's
    coordinate by one random element, redrawn on collision with a sibling.
    If fabricate_children_of is set, that node hands each of its children
    an independent random prefix instead of its true coordinate (the
    embedding sabotage used by the random-prefix attack).
    """
    rng = random.Random(seed)
    bits = cfg.bits_per_element
    coords: list[list[Coordinate | None]] = []
    for i in range(ts.gamma):
        tree_coords: list[Coordinate | None] = [None] * ts.node_count
        root = ts.roots[i]
        tree_coords[root] = ()
        queue = deque([root])
        while queue:
            u = queue.popleft()
            kids = ts.children[i][u]
            if not kids:
                continue
            fabricate = u == fabricate_children_of
            if len(kids) > 2**bits:
                raise ValueError(
                    f"{len(kids)} siblings cannot get distinct {bits}-bit elements"
                )
            used: set[int] = set()
            for v in kids:
                if fabricate:
                    prefix = tuple(rng.getrandbits(bits) for _ in range(ts.level[i][u]))
                else:
                    prefix = tree_coords[u]
                elem = rng.getrandbits(bits)
                while elem in used:
                    elem = rng.getrandbits(bits)
                used.add(elem)
                tree_coords[v] = prefix + (elem,)
                queue.append(v)
        coords.append(tree_coords)
    return Embedding(coords, cfg)


def cpl(x1: Coordinate, x2: Coordinate) -> int:
    """Length of the longest common prefix of two element sequences."""
    n = 0
    for a, b in zip(x1, x2):
        if a != b:
            break
        n += 1
    return n


def delta_td(x1: Coordinate, x2: Coordinate) -> int:
    """Tree hop distance between two coordinates."""
    return len(x1) + len(x2) - 2 * cpl(x1, x2)


def delta_cpl(x1: Coordinate, x2: Coordinate, cfg: EmbeddingConfig) -> Fraction:
    """Prefix-dominant distance: longer common prefixes always win, shorter
    total length breaks ties. Exact rational, no floating-point ties."""
    if x1 == x2:
        return Fraction(0)
    return cfg.cpl_constant - cpl(x1, x2) - Fraction(1, len(x1) + len(x2) + 1)


def order_key(metric: str, match):
    """Routing key of candidate c at evaluator u; smaller is closer.

    match(u, c) is c's common prefix length with the target as u can tell
    it. The keys order like delta_td and delta_cpl toward a fixed target,
    leaving out its length, which an address hides behind padding.

    Every key is len(c) - w * match(u, c) with the weight of the metric,
    MATCH_WEIGHT: 2 for TD, and for CPL a weight above any length, which
    orders and ties like (-match, len).
    """
    if metric not in MATCH_WEIGHT:
        raise ValueError(f"unknown metric {metric!r}")
    w = MATCH_WEIGHT[metric]
    return lambda u, c: len(c) - w * match(u, c)
