"""Randomized prefix coordinates over spanning trees and their distances.

Each node's coordinate is its parent's coordinate extended by a fresh
random b-bit element, so nodes in the same subtree share a prefix. Two
distances are provided: the tree hop distance and a common-prefix-length
dominant distance that avoids routes through the root.

An embedding also keeps each tree's coordinates in lexicographic order.
The coordinates that start with a prefix p form one contiguous run of
that order, so a node's common prefix length with a target follows from
its rank alone, and so does its routing key toward the target
(`TreeRanks.keys`). Each tree also indexes its hubs' neighbours by depth
and rank, a hub at a time as routes come back to it.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from f2froute.graph import Graph
from f2froute.trees import TreeSet

Coordinate = tuple[int, ...]

# w in each metric's routing key len(c) - w * m, m the matched prefix
MATCH_WEIGHT = {"TD": 2, "CPL": 1 << 32}


@dataclass
class EmbeddingConfig:
    bits_per_element: int = 128
    max_length: int = 128  # padding target for return addresses, and L in delta_cpl

    def __post_init__(self):
        if self.bits_per_element < 1:
            raise ValueError("bits_per_element must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")


class TreeRanks:
    """One tree's coordinates in lexicographic order, and the routing keys
    they give toward a target.

    rank[v] is node v's position in `ordered`, or -1 if v has no
    coordinate; length[v] is the length of its coordinate.

    A key is len(c) - w * m for a candidate coordinate c with matched
    prefix m and the weight w of the metric (`MATCH_WEIGHT`); smaller is
    closer to the target. The coordinates that start with a prefix p of
    the target are one run of the lexicographic order, found by two
    bisections once per target (`match_table`). The runs are nested, so
    one more bisection on a candidate's rank gives its m. This holds for
    any set of integer tuples: the run of p is [p, p[:-1] + (p[-1] + 1,))
    in tuple order whether or not the set is closed under prefixes, so it
    is exact for the prefixes an att-rand attacker fabricates for its
    children, which match no real ancestor.

    Only the neighbours of u that can improve on u are keyed. With m(u)
    the matched prefix of u, a neighbour v with m(v) > m(u) is ranked
    inside the run of the target's prefix of length m(u) + 1, which holds
    for any set of tuples by the nesting above. Any other improving v is
    shallower than u: under TD, len(v) - 2m(v) < len(u) - 2m(u) with
    m(v) <= m(u) forces len(v) < len(u); under CPL the weight exceeds any
    length, so m(v) < m(u) never improves and m(v) = m(u) improves only
    when len(v) < len(u). A scan of u's neighbours thus passes over most
    of them with a rank and a length test.

    The tree also keeps a neighbour index for its hubs, the nodes with
    at least `MIN_DEGREE` (32) neighbours. entries[u] is the number of
    times hub u was scanned so far, and then u's entry: its neighbour
    list, the positions in it of the neighbours shallower than u, in
    neighbour order, and the ranks of its other neighbours with a
    coordinate, sorted, with their positions in the same order. A visit
    that reads an entry takes as candidates the shallower neighbours and
    the slice of the others that two bisections find in the run, in
    neighbour order, and reads no other neighbour, not even its
    liveness; a scan takes every neighbour. Both key their candidates
    alike, so they give the same options. Writing an entry costs about
    two scans, so a hub is scanned on its first `SCANS_BEFORE_ENTRY` (3)
    visits and gets its entry on the next: a hub visited seldom costs
    what a scan costs, and one visited often pays for its entry once.
    Smaller nodes are always scanned, which costs less than reading an
    entry. An entry is read only while its neighbour list is the one the
    graph being routed holds for u; keys on another graph write the
    entry again for that graph.
    """

    MIN_DEGREE = 32
    SCANS_BEFORE_ENTRY = 3

    __slots__ = ("ordered", "rank", "length", "entries")

    def __init__(self, coords: list[Coordinate | None]):
        present = [v for v, c in enumerate(coords) if c is not None]
        present.sort(key=coords.__getitem__)
        self.ordered = [coords[v] for v in present]
        self.rank = rank = array("i", [-1]) * len(coords)
        for r, v in enumerate(present):
            rank[v] = r
        self.length = array("i", [0 if c is None else len(c) for c in coords])
        self.entries: dict[int, int | tuple[list[int], list[int], array, array]] = {}

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

    def keys(self, g: Graph, target: Coordinate, metric: str):
        """(keyed, improving) toward target on g under metric.

        keyed(u, nodes, live): (key, v) for each v in nodes that is live
        and has a coordinate, in order. improving(u, live): (key, v) for
        u's neighbours v whose key is below u's own, sorted by key and then
        by neighbour order. u is the evaluator, which coordinates do not
        depend on.
        """
        rank, length = self.rank, self.length
        bounds, wm = self.match_table(target, MATCH_WEIGHT[metric])
        n = len(target)
        adjacency = g.adjacency
        entries, min_degree, scans = self.entries, self.MIN_DEGREE, self.SCANS_BEFORE_ENTRY

        def keyed(u, nodes, live):
            return [
                (length[v] - wm[bisect_right(bounds, r)], v)
                for v in nodes if (live is None or live[v]) and (r := rank[v]) >= 0
            ]

        def improving(u, live):
            i = bisect_right(bounds, rank[u])
            lu = length[u]
            own = lu - wm[i]
            m = i if i <= n else 2 * n - i
            # ranks in [lo, hi) match more than u; the rest must be shallower
            lo, hi = (bounds[m], bounds[2 * n - 1 - m]) if m < n else (0, 0)
            nbrs = adjacency[u]
            # a hub's scans so far or its entry; -1 for a node that is always scanned
            entry = entries.get(u, 0) if len(nbrs) >= min_degree else -1
            if entry.__class__ is int and entry < scans:
                if entry >= 0:
                    entries[u] = entry + 1
                candidates = nbrs
            else:
                if entry.__class__ is int or entry[0] is not nbrs:  # write the entry for this graph
                    shallower = [j for j, v in enumerate(nbrs) if rank[v] >= 0 and length[v] < lu]
                    others = sorted((r, j) for j, v in enumerate(nbrs) if (r := rank[v]) >= 0 and length[v] >= lu)
                    ranks = array("i", [r for r, _ in others])
                    entry = entries[u] = (nbrs, shallower, ranks, array("i", [j for _, j in others]))
                _, shallower, ranks, positions = entry
                a = bisect_left(ranks, lo)
                b = bisect_left(ranks, hi, a)
                candidates = [nbrs[j] for j in (sorted([*shallower, *positions[a:b]]) if a < b else shallower)]
            options = [
                (k, v) for v in candidates
                if (live is None or live[v]) and (r := rank[v]) >= 0 and (lo <= r < hi or length[v] < lu)
                and (k := length[v] - wm[bisect_right(bounds, r)]) < own
            ]
            options.sort(key=itemgetter(0))
            return options

        return keyed, improving


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
        tree_coords[ts.roots[i]] = ()
        for u in ts.top_down(i):
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
    return cfg.max_length - cpl(x1, x2) - Fraction(1, len(x1) + len(x2) + 1)


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
