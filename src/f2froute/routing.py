"""Greedy routing with backtracking over the tree embeddings.

A message carries the set of neighbors each node already forwarded it
to and the chain of nodes it travelled through. Every node forwards to
a random member of the closest-neighbor set when that is a strict
improvement over its own distance, backtracks to the node it came from
otherwise, and the route fails when the source runs out of options.
Since improving edges strictly decrease the distance the chain is a
simple path, and the search discovers a route exactly when a path of
responsive nodes with strictly decreasing distance exists.

Every addressing mode supplies only the matched prefix m of a candidate
with the target to the one key per metric, len(c) - w * m with the
weight `embedding.MATCH_WEIGHT`: coordinates find m from the candidate's
rank (`TreeRanks.keys`), return addresses by cascading the candidate
against the address, and encrypted addresses the same after partial
decryption (`addresses.address_keys`). Route preservation thus holds by
construction, for the choice of trees as well as every hop.

The simulation keys each node once per route. On a node's first visit
`route` computes its own key and keeps the list of its improving
options, sorted by key with ties in neighbour order: the live neighbours
that have a coordinate in the tree and a key below the node's own, as
that node sees them. A forward pops the chosen entry, so the list holds exactly
the options the node has not tried yet, and backtracking into the node
reads it instead of keying the neighbours again. A forward only ever
takes a key below the node's own, so leaving out the other neighbours
changes no hop; the front tie group keeps neighbour order, so `rng`
draws the same next hops as a search that keys every neighbour on every
visit. Each list belongs to its evaluator, which keeps it exact for
encrypted addresses, whose match depends on the node that decrypts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from f2froute.addresses import AddressKeys, PppAddress, ReturnAddress, address_keys
from f2froute.embedding import Coordinate, Embedding, EmbeddingConfig, delta_cpl, delta_td
from f2froute.graph import Graph

METRICS = ("TD", "CPL")
EMBEDDING_CHOICE = ("random-tau", "min-neighbor-distance")

NO_PROGRESS = "no-progress"
DROPPED = "dropped-by-adversary"
HOP_CAP = "hop-cap"

ORACLE_NODE_LIMIT = 1000


@dataclass
class RoutingConfig:
    tau: int = 1
    metric: str = "TD"
    backtracking: bool = True
    embedding_choice: str = "random-tau"
    max_hops: int | None = None  # None: 4 * (n + m), scales with explorable edges

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.embedding_choice not in EMBEDDING_CHOICE:
            raise ValueError(
                f"embedding_choice must be one of {EMBEDDING_CHOICE}, got {self.embedding_choice!r}"
            )
        if self.max_hops is not None and self.max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {self.max_hops}")


@dataclass
class RouteOutcome:
    success: bool
    hops: int                       # messages consumed, backtracking included
    path: list[int]                 # every node visited, in order
    failure_reason: str | None = None
    route_length: int | None = None  # discovered route (predecessor chain) on success


@dataclass
class MultiRouteOutcome:
    """Result of tau parallel attempts over distinct embeddings; the
    first three fields are derived from the attempts."""

    success: bool = field(init=False)
    total_hops: int = field(init=False)
    best_route_length: int | None = field(init=False)
    trees: list[int]
    attempts: list[RouteOutcome] = field(default_factory=list)

    def __post_init__(self):
        lengths = [a.route_length for a in self.attempts if a.success]
        self.success = bool(lengths)
        self.total_hops = sum([a.hops for a in self.attempts])
        self.best_route_length = min(lengths, default=None)


def _key_fn(g, emb, tree, dest, metric, address, keys):
    """(keyed, improving) toward dest in one tree of g: on the address
    when one is given, else on dest's coordinate."""
    if address is not None:
        return address_keys(g, emb, tree, address, keys, metric)
    dest_coord = emb.coord(tree, dest)
    if dest_coord is None:
        raise ValueError(f"destination {dest} has no coordinate in tree {tree}")
    return emb.ranks[tree].keys(g, dest_coord, metric)


def route(
    g: Graph,
    emb: Embedding,
    src: int,
    dest: int,
    tree: int,
    cfg: RoutingConfig,
    live=None,
    drop_nodes=frozenset(),
    address: ReturnAddress | PppAddress | None = None,
    keys: list[AddressKeys] | None = None,
    rng: random.Random | None = None,
    *,
    _key=None,
) -> RouteOutcome:
    """Route one message from src toward dest's coordinate in one tree.

    live is an optional per-node boolean sequence; failed nodes are never
    picked as next hop. Nodes in drop_nodes accept the message and drop
    it; with backtracking the sender notices the silence and retries its
    next option, without backtracking the message is simply lost. When
    an address is given the comparison runs on the address while success
    is still recognition by the issuer. `route_multi` passes the key that
    chose the tree as _key, so the two share their memos.
    """
    if rng is None:
        rng = random.Random(0)
    if src == dest:
        return RouteOutcome(True, 0, [src], route_length=0)
    if emb.coord(tree, src) is None:
        raise ValueError(f"source {src} has no coordinate in tree {tree}")
    improving = (_key or _key_fn(g, emb, tree, dest, cfg.metric, address, keys))[1]
    cap = cfg.max_hops if cfg.max_hops is not None else 4 * (g.node_count + g.edge_count)
    ranked: dict[int, list] = {}  # u -> u's untried improving options by key
    chain = [src]
    hops = 0
    path = [src]
    while True:
        u = chain[-1]
        options = ranked.get(u)
        if options is None:
            options = ranked[u] = improving(u, live)
        if options:
            best_key = options[0][0]
            ties = 1
            while ties < len(options) and options[ties][0] == best_key:
                ties += 1
            # the same draw as rng.choice over the tie group in neighbour order
            pick = 0 if ties == 1 else rng.choice(range(ties))
            nxt = options.pop(pick)[1]
        elif cfg.backtracking and len(chain) > 1:
            chain.pop()
            nxt = chain[-1]
        else:
            return RouteOutcome(False, hops, path, NO_PROGRESS)
        hops += 1
        path.append(nxt)
        if hops > cap:
            return RouteOutcome(False, hops, path, HOP_CAP)
        # a step back lands on chain[-1], which a forward never does: it
        # takes a neighbour whose key is below that of u == chain[-1]
        if nxt != chain[-1]:
            if nxt == dest:
                return RouteOutcome(True, hops, path, route_length=len(chain))
            if nxt in drop_nodes:
                if not cfg.backtracking:
                    return RouteOutcome(False, hops, path, DROPPED)
                path.append(u)  # the sender resumes after the silent drop
            else:
                chain.append(nxt)


def select_trees(
    g: Graph, emb: Embedding, src: int, dest: int, cfg: RoutingConfig, live, rng: random.Random,
    addresses=None, keys=None,
) -> tuple[list[int], dict]:
    """Pick the tau embeddings a source sends over; returns them with the
    key built for each tree scored, which `route` reuses as its _key.

    min-neighbor-distance scores a tree by its best key over all of the
    source's neighbours, improving or not."""
    gamma = emb.gamma
    if cfg.tau > gamma:
        raise ValueError(f"tau={cfg.tau} exceeds the {gamma} available embeddings")
    if cfg.tau == gamma:
        return list(range(gamma)), {}
    if cfg.embedding_choice == "random-tau":
        return sorted(rng.sample(range(gamma), cfg.tau)), {}
    scored = []
    key = {}
    for i in range(gamma):
        addr = addresses[i] if addresses is not None else None
        key[i] = _key_fn(g, emb, i, dest, cfg.metric, addr, keys)
        options = key[i][0](src, g.neighbors(src), live)
        if options:
            scored.append((min(k for k, _ in options), i))
    scored.sort()
    picked = [i for _, i in scored[: cfg.tau]]
    if len(picked) < cfg.tau:  # fewer scorable trees than tau: fill uniformly
        rest = [i for i in range(gamma) if i not in picked]
        picked += rng.sample(rest, cfg.tau - len(picked))
    return sorted(picked), key


def route_multi(
    g: Graph,
    emb: Embedding,
    src: int,
    dest: int,
    cfg: RoutingConfig,
    live=None,
    drop_nodes=frozenset(),
    addresses=None,
    keys: list[AddressKeys] | None = None,
    rng: random.Random | None = None,
) -> MultiRouteOutcome:
    """Run route over tau independently selected embeddings.

    addresses, when given, is any object indexed by tree that yields that
    tree's address, such as a list or a mapping that issues addresses on
    lookup. Only the trees routed on are read, so random-tau reads tau of
    them; min-neighbor-distance reads all gamma to score the trees.
    Success if any attempt succeeds; hops are summed over all attempts
    since every message costs its sender regardless of outcome.
    """
    if rng is None:
        rng = random.Random(0)
    trees, key = select_trees(g, emb, src, dest, cfg, live, rng, addresses, keys)
    attempts = [
        route(g, emb, src, dest, i, cfg, live=live, drop_nodes=drop_nodes,
              address=None if addresses is None else addresses[i], keys=keys, rng=rng, _key=key.get(i))
        for i in trees
    ]
    return MultiRouteOutcome(trees, attempts)


def greedy_path_exists(
    g: Graph,
    coords: list[Coordinate | None],
    src: int,
    dest: int,
    metric: str,
    cfg: EmbeddingConfig,
    live=None,
) -> bool:
    """Brute-force oracle: is there a live path with strictly decreasing
    distance to dest at every step? Test-only; refuses large instances."""
    if g.node_count > ORACLE_NODE_LIMIT:
        raise ValueError(
            f"oracle refuses n={g.node_count} > {ORACLE_NODE_LIMIT}; it is for small test instances"
        )
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    dest_coord = coords[dest]
    if dest_coord is None or coords[src] is None:
        return False
    if live is not None and not (live[src] and live[dest]):
        return False
    if src == dest:
        return True
    dist = delta_td if metric == "TD" else partial(delta_cpl, cfg=cfg)
    key = {v: dist(c, dest_coord) for v, c in enumerate(coords) if c is not None and (live is None or live[v])}

    # edges only go from larger to strictly smaller key: plain DFS suffices
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        ku = key[u]
        for v in g.neighbors(u):
            if v in seen or v not in key:
                continue
            if key[v] < ku:
                if v == dest:
                    return True
                seen.add(v)
                stack.append(v)
    return False
