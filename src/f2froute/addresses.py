"""Anonymous route-preserving return addresses.

A node publishes a hash cascade of its padded coordinate instead of the
coordinate itself; the padding is one keyed SHAKE-256 stream. Any
forwarder can compare a neighbor coordinate against the cascade (the
diversity measure) and take exactly the same greedy decision it would
take on the plain coordinate, without learning the receiver's position.
An optional symmetric-encryption layer bound to subtree keys further
restricts evaluators to "closer than me" checks.

H is a pure function of its input, so a router can share one
`CascadeDigests` memo across all its evaluations of an address and hash
each distinct cascade input once per route (`address_keys`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from f2froute.embedding import Coordinate, Embedding, EmbeddingConfig, order_key
from f2froute.graph import Graph
from f2froute.trees import TreeSet

NON_NEIGHBOR = "non-neighbor"
POSSIBLE_DESCENDANT = "possible-descendant"


class UnsupportedMetricError(ValueError):
    """The requested metric is not defined for this address type."""


_WORD_MASK = (1 << 256) - 1


def _word(value: int) -> bytes:
    """The encoding of every hash input: 32 bytes little-endian, mod 2**256."""
    return (value & _WORD_MASK).to_bytes(32, "little")


def _hasher(prefix: bytes, bits: int):
    """value -> _shake(prefix, value, bits=bits), with the digest width
    and the mask computed once for every value it hashes."""
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    shake = hashlib.shake_256
    from_bytes = int.from_bytes

    def h(value: int) -> int:
        data = prefix + (value & _WORD_MASK).to_bytes(32, "little")  # _word(value) without the call
        return from_bytes(shake(data).digest(nbytes), "little") & mask

    return h


def _shake(tag: bytes, *values: int, bits: int) -> int:
    """The first `bits` bits of shake_256(tag + the _word of each value),
    read little-endian."""
    data = tag + b"".join([(v & _WORD_MASK).to_bytes(32, "little") for v in values])
    return int.from_bytes(hashlib.shake_256(data).digest((bits + 7) // 8), "little") & ((1 << bits) - 1)


def prng_value(key: int, counter: int, bits: int) -> int:
    """Keyed pseudo-random generator evaluated at a counter position."""
    return _shake(b"prng", key, counter, bits=bits)


class CascadeDigests(dict):
    """H at one width, memoised: maps each cascade input to its digest and
    hashes an input on its first lookup only. Exact, since H is pure."""

    def __init__(self, bits: int):
        super().__init__()
        self._hash = _hasher(b"hc", bits)

    def __missing__(self, value: int) -> int:
        digest = self[value] = self._hash(value)
        return digest


def _xor_layer(vector: tuple[int, ...], chain: tuple[int, ...], bits: int) -> tuple[int, ...]:
    """XOR elements 2.. of vector with one pad per key of chain, as far as
    the vector reaches: a keyed involution on the hash domain standing in
    for a real cipher, so the same call encrypts and decrypts."""
    vec = list(vector)
    for j, key in zip(range(1, len(vec)), chain):
        vec[j] ^= _shake(b"sym", key, bits=bits)
    return tuple(vec)


def hash_cascade(elements, seed_value: int, bits: int) -> tuple[int, ...]:
    """Chained digests: d_1 = H(k xor e_1), d_j = H(d_(j-1) xor e_j).

    Entry j depends only on the seed value and the first j elements, so
    vectors agreeing on a prefix produce cascades agreeing on that prefix.
    """
    h = _hasher(b"hc", bits)
    out = []
    prev = seed_value
    for e in elements:
        prev = h(prev ^ e)
        out.append(prev)
    return tuple(out)


@dataclass(frozen=True)
class ReturnAddress:
    digest_vector: tuple[int, ...]
    routing_seed: int
    mac_tag: int
    tree_index: int = 0

    def to_bytes(self, cfg: EmbeddingConfig) -> bytes:
        """Fixed-width record: L digests, seed, mac; little-endian elements."""
        bits = cfg.bits_per_element
        if bits % 8:
            raise ValueError("binary layout requires bits_per_element % 8 == 0")
        w = bits // 8
        parts = [d.to_bytes(w, "little") for d in self.digest_vector]
        parts.append(self.routing_seed.to_bytes(w, "little"))
        parts.append(self.mac_tag.to_bytes(w, "little"))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes, cfg: EmbeddingConfig, tree_index: int = 0) -> "ReturnAddress":
        bits = cfg.bits_per_element
        if bits % 8:
            raise ValueError("binary layout requires bits_per_element % 8 == 0")
        w = bits // 8
        if len(blob) != (cfg.max_length + 2) * w:
            raise ValueError(f"expected {(cfg.max_length + 2) * w} bytes, got {len(blob)}")
        vals = [int.from_bytes(blob[i : i + w], "little") for i in range(0, len(blob), w)]
        return cls(tuple(vals[:-2]), vals[-2], vals[-1], tree_index)


@dataclass(frozen=True)
class PppAddress:
    encrypted_vector: tuple[int, ...]
    routing_seed: int
    mac_tag: int
    tree_index: int = 0


@dataclass
class AddressKeys:
    """A node's MAC secret plus its per-tree chain of subtree keys.

    subtree_keys holds the keys of the node's ancestors at levels
    1..l-1; generated holds the key the node itself created for its
    children (internal nodes at level >= 1 only). When evaluating an
    encrypted address the node can use both.
    """

    mac_key: int
    subtree_keys: dict[int, tuple[int, ...]]
    generated: dict[int, int] = field(default_factory=dict)

    def decrypt_chain(self, tree: int) -> tuple[int, ...]:
        chain = self.subtree_keys.get(tree, ())
        own = self.generated.get(tree)
        return chain if own is None else chain + (own,)


def _mac(key: int, vector: tuple[int, ...], bits: int) -> int:
    return _shake(b"mac", key, *vector, bits=bits)


def generate_address_keys(n: int, seed: int, bits: int) -> list[AddressKeys]:
    """Fresh per-node MAC keys; subtree keys are filled in per tree."""
    return [
        AddressKeys(mac_key=prng_value(seed, v, bits), subtree_keys={})
        for v in range(n)
    ]


def distribute_subtree_keys(
    ts: TreeSet, tree: int, seed: int, keys: list[AddressKeys], bits: int = 128
) -> None:
    """Give every node the keys of its ancestors at levels 1..level-1.

    The key generated by an internal node is shared by its entire subtree,
    so two nodes with common prefix length cp share exactly the keys of
    their first cp ancestors below the root's children boundary.
    """
    if not 0 <= tree < ts.gamma:
        raise ValueError(f"tree index {tree} out of range [0, {ts.gamma})")
    keys[ts.roots[tree]].subtree_keys[tree] = ()
    for u in ts.top_down(tree):
        # u holds its ancestors' keys at levels 1..l-1; its children add u's own
        chain = keys[u].subtree_keys[tree]
        if ts.level[tree][u] >= 1 and ts.children[tree][u]:
            own_key = prng_value(seed, (tree << 32) ^ u, bits)
            keys[u].generated[tree] = own_key
            chain += (own_key,)
        for v in ts.children[tree][u]:
            keys[v].subtree_keys[tree] = chain


def generate_rp(
    x: Coordinate,
    keys: AddressKeys,
    children_next_elements: set[int],
    s: int,
    s_pad: int,
    cfg: EmbeddingConfig,
    tree_index: int = 0,
) -> ReturnAddress:
    """Pad the coordinate, apply the hash cascade, and add a MAC.

    The padding elements are consecutive ceil(bits / 8)-byte slices of
    one keyed stream, shake_256(b"pad" + s_pad), read little-endian and
    masked to `bits`. The first one is redrawn (new padding seed) while it
    collides with a child's next coordinate element, so the issuer stays
    the unique closest coordinate to its own padded coordinate.
    """
    bits = cfg.bits_per_element
    big_l = cfg.max_length
    l = len(x)
    if l > big_l:
        raise ValueError(f"coordinate length {l} exceeds padding target {big_l}")
    nbytes, mask = (bits + 7) // 8, (1 << bits) - 1
    while True:
        stream = hashlib.shake_256(b"pad" + _word(s_pad)).digest(nbytes * (big_l - l))
        cuts = range(0, len(stream), nbytes)
        padding = tuple([int.from_bytes(stream[i : i + nbytes], "little") & mask for i in cuts])
        if l == big_l or padding[0] not in children_next_elements:
            break
        s_pad += 1
    padded = tuple(x) + padding
    k = prng_value(s, 0, bits)
    digests = hash_cascade(padded, k, bits)
    return ReturnAddress(
        digest_vector=digests,
        routing_seed=k,
        mac_tag=_mac(keys.mac_key, digests, bits),
        tree_index=tree_index,
    )


def verify_mac(addr: ReturnAddress | PppAddress, keys: AddressKeys, bits: int = 128) -> bool:
    vector = addr.digest_vector if isinstance(addr, ReturnAddress) else addr.encrypted_vector
    return _mac(keys.mac_key, vector, bits) == addr.mac_tag


def _matched_prefix(vector: tuple[int, ...], c: Coordinate, seed_value: int, digests) -> int:
    """Cascade c lazily and count agreement with the published vector.

    digests maps a cascade input to its digest under H, a CascadeDigests
    shared by the evaluations of one route or a fresh one.
    """
    prev = seed_value
    m = 0
    for d, e in zip(vector, c):
        prev = digests[prev ^ e]
        if prev != d:
            break
        m += 1
    return m


def address_keys(
    g: Graph,
    emb: Embedding,
    tree: int,
    address: ReturnAddress | PppAddress,
    keys: list[AddressKeys] | None,
    metric: str,
):
    """(keyed, improving) toward the issuer of address in one tree of g,
    as `TreeRanks.keys` gives them toward a coordinate.

    keyed(u, nodes, live): (key, v) for each v in nodes that is live and
    has a coordinate in the tree, in order, keyed as u sees it.
    improving(u, live): (key, v) for u's neighbours v whose key is below
    u's own, sorted by key and then by neighbour order.

    The cascade supplies a candidate's matched prefix to the same key as
    a coordinate's rank (`order_key`), so both give the same options. An
    address hides the ranks, so improving keys every neighbour and then
    drops the ones that do not improve. The digests of the cascade inputs
    are memoised for every evaluator of these keys: siblings share
    coordinate prefixes, and the hash of an input does not depend on who
    asks. An encrypted address is matched as the evaluator u decrypts it
    with keys[u], under CPL only.
    """
    seed = address.routing_seed
    digests = CascadeDigests(emb.cfg.bits_per_element)
    if isinstance(address, ReturnAddress):
        vec = address.digest_vector
        key = order_key(metric, lambda u, c: _matched_prefix(vec, c, seed, digests))
    elif metric != "CPL":
        raise ValueError("encrypted addresses route under the CPL metric only")
    else:
        decrypted: dict[int, tuple[int, ...]] = {}

        def ppp_match(u, c):
            vec = decrypted.get(u)
            if vec is None:
                vec = decrypted[u] = ppp_partial_decrypt(address, keys[u], emb.cfg)
            return _matched_prefix(vec, c, seed, digests)

        key = order_key(metric, ppp_match)
    coords = emb.coords[tree]
    adjacency = g.adjacency

    def keyed(u, nodes, live):
        out = []
        for v in nodes:
            if live is None or live[v]:
                c = coords[v]
                if c is not None:
                    out.append((key(u, c), v))
        return out

    def improving(u, live):
        own = key(u, coords[u])
        options = [o for o in keyed(u, adjacency[u], live) if o[0] < own]
        options.sort(key=itemgetter(0))
        return options

    return keyed, improving


def _diversity(vector, seed: int, c: Coordinate, metric: str, cfg: EmbeddingConfig) -> int | Fraction:
    """The distance of c to the issuer of a digest vector, from their matched prefix."""
    m = _matched_prefix(vector, c, seed, CascadeDigests(cfg.bits_per_element))
    if metric == "TD":
        return len(vector) + len(c) - 2 * m
    if metric == "CPL":
        return cfg.max_length - m - Fraction(1, len(vector) + len(c) + 1)
    raise UnsupportedMetricError(f"unknown metric {metric!r}")


def diversity_rp(
    addr: ReturnAddress, c: Coordinate, metric: str, cfg: EmbeddingConfig
) -> int | Fraction:
    """Distance-like comparison of a candidate coordinate to a return address.

    Orders candidates exactly as the underlying distance to the issuer's
    coordinate does (route preservation).
    """
    return _diversity(addr.digest_vector, addr.routing_seed, c, metric, cfg)


def add_ppp_layer(addr: ReturnAddress, issuer_keys: AddressKeys, cfg: EmbeddingConfig) -> PppAddress:
    """Encrypt elements 2..l of the digest vector under the issuer's subtree keys."""
    tree = addr.tree_index
    if tree not in issuer_keys.subtree_keys:
        raise KeyError(f"issuer holds no subtree keys for tree {tree}")
    bits = cfg.bits_per_element
    # an issuer at level l holds the l - 1 keys of elements 2..l
    encrypted = _xor_layer(addr.digest_vector, issuer_keys.subtree_keys[tree], bits)
    return PppAddress(
        encrypted_vector=encrypted,
        routing_seed=addr.routing_seed,
        mac_tag=_mac(issuer_keys.mac_key, encrypted, bits),
        tree_index=tree,
    )


def ppp_partial_decrypt(
    addr: PppAddress, evaluator_keys: AddressKeys, cfg: EmbeddingConfig
) -> tuple[int, ...]:
    """Decrypt the prefix the evaluator holds keys for; pass the rest through.

    An evaluator at level l_u decrypts with its ancestors' keys plus the
    key it generated for its own children, covering elements 2..l_u (or
    2..l_u+1 for internal nodes). Elements decrypted with the wrong key
    (beyond the common prefix with the issuer) come out as noise, which
    only lowers the apparent common prefix length, never raises it.
    """
    chain = evaluator_keys.decrypt_chain(addr.tree_index)
    return _xor_layer(addr.encrypted_vector, chain, cfg.bits_per_element)


def diversity_ppp(
    addr: PppAddress,
    c: Coordinate,
    evaluator_keys: AddressKeys,
    cfg: EmbeddingConfig,
    metric: str = "CPL",
) -> Fraction:
    """Prefix-distance of a candidate against a PPP address; CPL only."""
    if metric != "CPL":
        raise UnsupportedMetricError("the encrypted layer supports only the CPL metric")
    return _diversity(ppp_partial_decrypt(addr, evaluator_keys, cfg), addr.routing_seed, c, metric, cfg)


def candidate_receiver_set(
    addrs: list[ReturnAddress],
    neighbor_coords: dict[int, list[Coordinate]],
    cfg: EmbeddingConfig,
):
    """Best local inference of the receiver behind an address vector.

    neighbor_coords maps each neighbor to its per-tree coordinates. If the
    closest neighbors disagree across trees, or some closest neighbor does
    not match the address on its full coordinate, the receiver is provably
    not a neighbor. Otherwise every surviving neighbor remains consistent
    with the view, and so does any of its (unseen) descendants.
    """
    digests = CascadeDigests(cfg.bits_per_element)
    matched: dict[int, list[int]] = {v: [] for v in neighbor_coords}
    argmins: list[set[int]] = []
    for i, addr in enumerate(addrs):
        for v, coords in neighbor_coords.items():
            matched[v].append(_matched_prefix(addr.digest_vector, coords[i], addr.routing_seed, digests))
        key = order_key("CPL", lambda v, c: matched[v][i])
        keyed = {v: key(v, coords[i]) for v, coords in neighbor_coords.items()}
        best = min(keyed.values(), default=None)
        argmins.append({v for v, k in keyed.items() if k == best})
    common = set.intersection(*argmins) if argmins else set()
    survivors = {
        v
        for v in common
        if all(matched[v][i] == len(neighbor_coords[v][i]) for i in range(len(addrs)))
    }
    if not survivors:
        return {NON_NEIGHBOR}
    return survivors | {POSSIBLE_DESCENDANT}


def address_for_node(
    emb: Embedding,
    ts: TreeSet,
    node: int,
    tree: int,
    keys: AddressKeys,
    s: int,
    s_pad: int,
) -> ReturnAddress:
    """Generate a return address for a node's coordinate in one tree."""
    x = emb.coord(tree, node)
    if x is None:
        raise ValueError(f"node {node} has no coordinate in tree {tree}")
    l = len(x)
    children_next = {y[l] for c in ts.children[tree][node] if (y := emb.coord(tree, c)) is not None}
    return generate_rp(x, keys, children_next, s, s_pad, emb.cfg, tree_index=tree)
