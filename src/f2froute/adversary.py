"""Failure injection and adversarial embedding strategies.

Two attacker strategies are modeled, both for a single attacker node
with x edges to random honest nodes that drops every routed message it
receives: fabricating a random coordinate prefix for each child it
acquires during tree construction, and seizing the root of all trees
while otherwise embedding honestly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from f2froute.embedding import Embedding, EmbeddingConfig, assign_coordinates
from f2froute.graph import Graph
from f2froute.trees import TreeConfig, TreeSet, construct_trees

MODES = ("none", "random-failures", "att-rand", "att-root")


@dataclass
class AdversaryConfig:
    mode: str = "none"
    failure_fraction: float = 0.0
    attacker_edges: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.failure_fraction <= 0.5:
            raise ValueError(f"failure_fraction must be in [0, 0.5], got {self.failure_fraction}")
        if self.mode in ("att-rand", "att-root") and self.attacker_edges < 1:
            raise ValueError("attack modes need attacker_edges >= 1")


@dataclass
class LiveMask:
    """Per-node liveness plus the attacker id, if any.

    Failed nodes never receive messages; the attacker stays live (it
    participates in construction) but swallows routed messages.
    """

    live: list[bool]
    attacker: int | None = None

    @property
    def drop_nodes(self) -> frozenset[int]:
        return frozenset() if self.attacker is None else frozenset({self.attacker})

    def live_nodes(self) -> list[int]:
        return [v for v, ok in enumerate(self.live) if ok]


def all_live(n: int, attacker: int | None = None) -> LiveMask:
    return LiveMask([True] * n, attacker)


def failure_order(n: int, seed: int) -> list[int]:
    """Random node permutation; failure sets are prefixes of it, so a
    larger fraction fails a superset of the nodes of a smaller one."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def inject_failures(g: Graph, fraction: float, seed: int) -> LiveMask:
    """Fail a uniform random floor(fraction * n) of the nodes."""
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"fraction must be in [0, 0.5], got {fraction}")
    n = g.node_count
    mask = [True] * n
    for v in failure_order(n, seed)[: int(fraction * n)]:
        mask[v] = False
    return LiveMask(mask)


def attach_attacker(g: Graph, x: int, seed: int) -> tuple[Graph, int]:
    """Add one attacker node with edges to x distinct random honest nodes."""
    n = g.node_count
    if not 1 <= x <= n:
        raise ValueError(f"attacker_edges must be in [1, {n}], got {x}")
    targets = random.Random(seed).sample(range(n), x)
    attacker = n
    edges = list(g.edges()) + [(attacker, v) for v in targets]
    return Graph.from_edges(n + 1, edges), attacker


def choose_roots(g: Graph, gamma: int, seed: int, exclude=()) -> list[int]:
    """Distinct random roots for the gamma trees, excluding given nodes."""
    banned = set(exclude)
    allowed = [v for v in range(g.node_count) if v not in banned]
    if not allowed:
        raise ValueError("no eligible root nodes")
    rng = random.Random(seed)
    if gamma <= len(allowed):
        return rng.sample(allowed, gamma)
    return [rng.choice(allowed) for _ in range(gamma)]


def apply_att_rand(
    g: Graph,
    attacker: int,
    tree_cfg: TreeConfig,
    emb_cfg: EmbeddingConfig,
    emb_seed: int,
) -> tuple[TreeSet, Embedding, LiveMask]:
    """Attacker joins trees honestly but hands every child a fabricated
    random prefix; at routing time it drops everything."""
    roots = choose_roots(g, tree_cfg.gamma, tree_cfg.rng_seed, exclude=(attacker,))
    ts = construct_trees(g, tree_cfg, roots)
    emb = assign_coordinates(ts, emb_cfg, emb_seed, fabricate_children_of=attacker)
    return ts, emb, all_live(g.node_count, attacker)


def apply_att_root(
    g: Graph,
    attacker: int,
    tree_cfg: TreeConfig,
    emb_cfg: EmbeddingConfig,
    emb_seed: int,
) -> tuple[TreeSet, Embedding, LiveMask]:
    """Attacker rigs the root election of every tree, embeds correctly,
    and drops all routed messages."""
    roots = [attacker] * tree_cfg.gamma
    ts = construct_trees(g, tree_cfg, roots)
    emb = assign_coordinates(ts, emb_cfg, emb_seed)
    return ts, emb, all_live(g.node_count, attacker)
