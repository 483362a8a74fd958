"""Kademlia-style virtual overlay routed over the tree embeddings.

Nodes hold 160-bit identifiers and k-bucket routing tables; an overlay
hop between two nodes is realized by greedy routing on the embeddings,
so lookups report both overlay and underlay hop counts. Lookups are
recursive with overlay-level backtracking: a node whose contact attempt
fails retries an alternative entry, and dead entries are evicted on the
failed contact (reactive repair).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from f2froute.embedding import Embedding
from f2froute.graph import Graph, sample
from f2froute.routing import RoutingConfig, route_multi

ID_BITS = 160


@dataclass
class DhtConfig:
    bucket_size: int = 8
    alpha: int = 1

    def __post_init__(self):
        if self.bucket_size < 1:
            raise ValueError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


@dataclass
class BucketEntry:
    kad_id: int
    node: int


@dataclass
class DhtNode:
    kad_id: int
    # bucket j holds only entries whose id shares exactly j leading bits,
    # so a node is in one bucket at most
    buckets: dict[int, tuple[BucketEntry, ...]] = field(default_factory=dict)

    def remove_entry(self, node: int) -> None:
        for j, bucket in self.buckets.items():
            kept = tuple([e for e in bucket if e.node != node])
            if len(kept) < len(bucket):
                if kept:
                    self.buckets[j] = kept
                else:
                    del self.buckets[j]
                return


@dataclass
class LookupOutcome:
    success: bool
    terminal: int | None
    overlay_hops: int = field(init=False)  # read off overlay_path
    underlay_hops: int
    overlay_path: list[int]

    def __post_init__(self):
        self.overlay_hops = len(self.overlay_path) - 1


def xor_distance(a: int, b: int) -> int:
    return a ^ b


def closer_entries(dn: DhtNode, key: int) -> list[BucketEntry]:
    """dn's entries strictly closer to key than dn, closest first.

    An entry of bucket j differs from dn first at bit j from the top, so
    it is closer exactly when bit j of dn.kad_id ^ key is 1, and every
    such entry of bucket j is closer than those of any later such
    bucket. Only those buckets are read, in increasing j, each sorted.
    """
    d = dn.kad_id ^ key
    out: list[BucketEntry] = []
    for j in sorted(dn.buckets):
        if d >> (ID_BITS - 1 - j) & 1:
            out += sorted(dn.buckets[j], key=lambda e: e.kad_id ^ key)
    return out


def assign_ids(n: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    ids: list[int] = []
    used: set[int] = set()
    for _ in range(n):
        x = rng.getrandbits(ID_BITS)
        while x in used:
            x = rng.getrandbits(ID_BITS)
        used.add(x)
        ids.append(x)
    return ids


def build_overlay(g: Graph, cfg: DhtConfig, seed: int) -> list[DhtNode]:
    """Assign random ids and fill every k-bucket.

    Filling walks the implicit binary trie over the ids: at depth d the
    sibling branch of a node contains exactly the peers with common
    prefix length d, so each bucket draws up to k random entries from
    its sibling branch. This stands in for the discovery lookups a
    deployment would run, with the same resulting table distribution.
    Each draw equals rng.sample(sibling, k) on a Random seeded with seed.
    """
    bits = random.Random(seed).getrandbits
    n = g.node_count
    ids = assign_ids(n, seed)
    nodes = [DhtNode(ids[v]) for v in range(n)]
    # one entry per node, shared by every bucket that holds it: its fields
    # are per-node values, so no table needs a copy of its own
    entries = [BucketEntry(ids[w], w) for w in range(n)]

    def fill(members: list[int], depth: int) -> None:
        if len(members) <= 1 or depth >= ID_BITS:
            return
        shift = ID_BITS - 1 - depth
        zeros = [v for v in members if not (ids[v] >> shift) & 1]
        ones = [v for v in members if (ids[v] >> shift) & 1]
        for group, sibling in ((zeros, ones), (ones, zeros)):
            if not sibling:
                continue
            peers = [entries[w] for w in sibling]
            # a sibling of at most k peers fills every member's bucket, as one shared tuple
            whole = tuple(peers) if len(peers) <= cfg.bucket_size else None
            for v in group:
                nodes[v].buckets[depth] = whole or tuple(sample(bits, peers, cfg.bucket_size))
        fill(zeros, depth + 1)
        fill(ones, depth + 1)

    fill(list(range(n)), 0)
    return nodes


def dht_lookup(
    key: int,
    origin: int,
    nodes: list[DhtNode],
    g: Graph,
    emb: Embedding,
    cfg: DhtConfig,
    rcfg: RoutingConfig,
    live=None,
    drop_nodes=frozenset(),
    rng: random.Random | None = None,
) -> LookupOutcome:
    """Recursive lookup for the live node closest to key in XOR distance.

    Runs alpha walks from the origin's closest entries. Each walk moves
    to the closest strictly closer table entry it can reach over the
    embeddings; unreachable entries are evicted and the next alternative
    tried, and a walk terminates at a node with no reachable closer
    entry. The best terminal over all walks is reported.
    """
    if rng is None:
        rng = random.Random(0)
    underlay = 0
    path = [origin]

    def contact(u: int, e: BucketEntry) -> bool:
        nonlocal underlay
        if live is not None and not live[e.node]:
            nodes[u].remove_entry(e.node)
            return False
        out = route_multi(g, emb, u, e.node, rcfg, live=live, drop_nodes=drop_nodes, rng=rng)
        underlay += out.total_hops
        if not out.success or e.node in drop_nodes:
            nodes[u].remove_entry(e.node)
            return False
        path.append(e.node)
        return True

    def walk(u: int) -> int:
        while True:
            for e in closer_entries(nodes[u], key):
                if contact(u, e):
                    u = e.node
                    break
            else:
                return u

    first = closer_entries(nodes[origin], key)
    terminals = [] if first else [origin]  # an origin with no closer entry is the closest
    for e in first:
        if len(terminals) >= cfg.alpha:
            break
        if contact(origin, e):
            terminals.append(walk(e.node))
    # each terminal is at least as close as the entry it was reached
    # through, which is closer than the origin
    best = min(terminals, key=lambda t: xor_distance(nodes[t].kad_id, key), default=None)
    return LookupOutcome(best is not None, best, underlay, path)
