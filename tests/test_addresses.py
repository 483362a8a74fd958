import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from f2froute import addresses
from f2froute.addresses import (
    NON_NEIGHBOR,
    POSSIBLE_DESCENDANT,
    AddressKeys,
    PppAddress,
    ReturnAddress,
    UnsupportedMetricError,
    add_ppp_layer,
    address_for_node,
    candidate_receiver_set,
    distribute_subtree_keys,
    diversity_ppp,
    diversity_rp,
    generate_address_keys,
    generate_rp,
    hash_cascade,
    ppp_partial_decrypt,
    prng_value,
    verify_mac,
)
from f2froute.embedding import EmbeddingConfig, assign_coordinates, cpl, delta_cpl, delta_td
from f2froute.graph import Graph, generate_synthetic
from f2froute.trees import STRATEGIES, TreeConfig, TreeSet, construct_trees, handle_departure

CFG = EmbeddingConfig(bits_per_element=16, max_length=8)
BITS = CFG.bits_per_element

#      0
#     / \
#    1   2
#   /|    \
#  3 4     7
#  |\
#  5 6
TREE_EDGES = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 7), (3, 5), (3, 6)]


def fixture_tree():
    g = Graph.from_edges(8, TREE_EDGES)
    ts = TreeSet(8, [0])
    for p, c in TREE_EDGES:
        ts.attach(0, c, p, 1)
    emb = assign_coordinates(ts, CFG, seed=77)
    keys = generate_address_keys(8, 42, BITS)
    distribute_subtree_keys(ts, 0, 99, keys, BITS)
    return g, ts, emb, keys


def make_addr(x, keys, s=1000, s_pad=2000):
    return generate_rp(tuple(x), keys, set(), s, s_pad, CFG)


def test_cascade_frozen_vector():
    # independently recomputed with hashlib below and frozen here
    assert hash_cascade((1, 2, 3), 5, 16) == (19882, 26093, 27489)

    def h(v):
        data = b"hc" + v.to_bytes(32, "little")
        return int.from_bytes(hashlib.shake_256(data).digest(2), "little")

    d1 = h(5 ^ 1)
    d2 = h(d1 ^ 2)
    d3 = h(d2 ^ 3)
    assert (d1, d2, d3) == (19882, 26093, 27489)


@given(
    st.lists(st.integers(min_value=0, max_value=2**BITS - 1), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2**BITS - 1),
)
def test_cascade_prefix_agreement(elems, m, seed_value):
    m = min(m, len(elems))
    other = list(elems)
    if m < len(other):
        other[m] ^= 1  # first divergence exactly at position m
    a = hash_cascade(tuple(elems), seed_value, BITS)
    b = hash_cascade(tuple(other), seed_value, BITS)
    assert a[:m] == b[:m]


def test_cascade_seed_sensitivity():
    base = hash_cascade((3, 1, 4), 0, BITS)[0]
    collisions = sum(
        1 for s in range(1, 1001) if hash_cascade((3, 1, 4), s, BITS)[0] == base
    )
    assert collisions == 0


def test_generate_rp_shape_and_default_length():
    keys = AddressKeys(mac_key=5, subtree_keys={})
    addr = generate_rp((1, 2), keys, set(), 10, 20, EmbeddingConfig())
    assert len(addr.digest_vector) == 128
    assert verify_mac(addr, keys, 128)


def test_generate_rp_padding_redraw():
    # 2-bit elements make collisions easy to force: block every first
    # padding value the initial seed would produce
    tiny = EmbeddingConfig(bits_per_element=2, max_length=4)
    keys = AddressKeys(mac_key=5, subtree_keys={})
    s_pad = 7
    first = ref_padding(s_pad, 3, 2)[0]  # coordinate length 1: three padding elements
    addr = generate_rp((1,), keys, {first}, 3, s_pad, tiny)
    redrawn = ref_padding(s_pad + 1, 3, 2)[0]
    if redrawn != first:
        expected_seed = s_pad + 1
    else:
        expected_seed = s_pad + 2
    assert addr.digest_vector == hash_cascade(
        (1,) + ref_padding(expected_seed, 3, 2),
        prng_value(3, 0, 2),
        2,
    )


def test_generate_rp_hash_budget(monkeypatch):
    # one padding stream, the routing seed, L cascade digests and the MAC
    cfg = EmbeddingConfig(bits_per_element=128, max_length=128)
    keys = AddressKeys(mac_key=5, subtree_keys={})
    x = (4, 9, 2)
    blocked = ref_padding(20, cfg.max_length - len(x), 128)[0]
    calls = []
    shake = hashlib.shake_256

    def counting(data=b""):
        calls.append(data)
        return shake(data)

    monkeypatch.setattr(hashlib, "shake_256", counting)
    generate_rp(x, keys, set(), 10, 20, cfg)
    plain = len(calls)
    assert plain <= cfg.max_length + 3
    calls.clear()
    generate_rp(x, keys, {blocked}, 10, 20, cfg)
    assert len(calls) == plain + 1  # a redraw costs one more stream


def test_generate_rp_rejects_overlong_coordinate():
    keys = AddressKeys(mac_key=1, subtree_keys={})
    with pytest.raises(ValueError):
        generate_rp(tuple(range(9)), keys, set(), 1, 2, CFG)


def test_diversity_td_own_coordinate_offset():
    keys = AddressKeys(mac_key=5, subtree_keys={})
    x = (4, 9, 2)
    addr = make_addr(x, keys)
    assert diversity_rp(addr, x, "TD", CFG) == CFG.max_length - len(x)
    with pytest.raises(UnsupportedMetricError):
        diversity_rp(addr, x, "XOR", CFG)


def test_diversity_preserves_ordering_small():
    g, ts, emb, keys = fixture_tree()
    for issuer in range(8):
        addr = address_for_node(emb, ts, issuer, 0, keys[issuer], 5, 6)
        x = emb.coord(0, issuer)
        cands = [emb.coord(0, v) for v in range(8)]
        for metric, true_d in (("TD", delta_td), ("CPL", None)):
            div = [diversity_rp(addr, c, metric, CFG) for c in cands]
            if metric == "TD":
                true = [true_d(c, x) for c in cands]
            else:
                true = [delta_cpl(c, x, CFG) for c in cands]
            best_div = min(range(8), key=lambda i: (div[i], i))
            best_true = min(range(8), key=lambda i: (true[i], i))
            amin_div = {i for i in range(8) if div[i] == div[best_div]}
            amin_true = {i for i in range(8) if true[i] == true[best_true]}
            assert amin_div == amin_true


def test_diversity_cpl_equal_cpl_length_tiebreak():
    keys = AddressKeys(mac_key=5, subtree_keys={})
    x = (1, 2, 3, 4)
    addr = make_addr(x, keys)
    short, long_ = (1, 2, 9), (1, 2, 9, 9)
    assert cpl(short, x) == cpl(long_, x) == 2
    assert diversity_rp(addr, short, "CPL", CFG) < diversity_rp(addr, long_, "CPL", CFG)
    assert delta_cpl(short, x, CFG) < delta_cpl(long_, x, CFG)


def test_verify_mac_tamper_and_wrong_key():
    keys = AddressKeys(mac_key=123, subtree_keys={})
    addr = make_addr((1, 2, 3), keys)
    assert verify_mac(addr, keys, BITS)
    for i in range(len(addr.digest_vector)):
        bad = list(addr.digest_vector)
        bad[i] ^= 1
        tampered = ReturnAddress(tuple(bad), addr.routing_seed, addr.mac_tag)
        assert not verify_mac(tampered, keys, BITS)
    rng = random.Random(0)
    accepted = sum(
        1
        for _ in range(1000)
        if verify_mac(addr, AddressKeys(rng.getrandbits(BITS) + 1000, {}), BITS)
    )
    assert accepted == 0


def test_subtree_key_distribution():
    _, ts, _, keys = fixture_tree()
    for v in range(8):
        level = ts.level[0][v]
        assert len(keys[v].subtree_keys[0]) == max(level - 1, 0)
    # leaf 5 sits at level 3 and holds exactly 2 keys
    assert ts.level[0][5] == 3
    assert len(keys[5].subtree_keys[0]) == 2
    # nodes 5 and 6 share coordinate prefix of length 2: same 2 keys
    assert keys[5].subtree_keys[0] == keys[6].subtree_keys[0]
    # nodes 5 and 4 share prefix length 1: exactly the first key
    assert keys[5].subtree_keys[0][0] == keys[4].subtree_keys[0][0]
    # nodes 5 and 7 sit in disjoint subtrees: no shared keys
    assert keys[5].subtree_keys[0][0] != keys[7].subtree_keys[0][0]
    with pytest.raises(ValueError):
        distribute_subtree_keys(ts, 3, 0, keys, BITS)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_subtree_keys_are_the_ancestors_generated_keys(strategy):
    g = generate_synthetic("pa", 120, 2, seed=8)
    ts = construct_trees(g, TreeConfig(gamma=3, strategy=strategy, rng_seed=8), [0, 5, 9])
    keys = generate_address_keys(g.node_count, 42, BITS)
    for i in range(3):
        distribute_subtree_keys(ts, i, 99, keys, BITS)
    for i in range(3):
        for v in range(g.node_count):
            ancestors = []  # levels 1..l-1, root side first
            u = ts.parent[i][v]
            while u >= 0 and ts.level[i][u] >= 1:
                ancestors.insert(0, u)
                u = ts.parent[i][u]
            assert keys[v].subtree_keys[i] == tuple(keys[a].generated[i] for a in ancestors)
            # only inner nodes below the root generate a key
            assert (i in keys[v].generated) == (ts.level[i][v] >= 1 and bool(ts.children[i][v]))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_keys_distributed_again_after_churn_match_a_fresh_distribution(strategy):
    # m = 1 gives a tree graph: the departure strands the rest of the
    # largest subtree, and its root becomes a node without children; none
    # of them may keep a key from the first distribution
    g = generate_synthetic("pa", 200, 1, seed=1)
    ts = construct_trees(g, TreeConfig(strategy=strategy, rng_seed=1), [0])
    keys = generate_address_keys(g.node_count, 42, BITS)
    distribute_subtree_keys(ts, 0, 99, keys, BITS)
    sizes = ts.subtree_sizes(0)
    departed = max(range(1, g.node_count), key=sizes.__getitem__)
    handle_departure(ts, g, departed, seed=1)
    distribute_subtree_keys(ts, 0, 99, keys, BITS)
    fresh = generate_address_keys(g.node_count, 42, BITS)
    distribute_subtree_keys(ts, 0, 99, fresh, BITS)
    assert sum(not ts.in_tree(0, v) for v in range(g.node_count)) == sizes[departed]
    assert keys == fresh


def test_ppp_layer_encrypts_exact_range():
    g, ts, emb, keys = fixture_tree()
    # level-1 issuer: nothing encrypted
    a1 = address_for_node(emb, ts, 1, 0, keys[1], 5, 6)
    p1 = add_ppp_layer(a1, keys[1], CFG)
    assert p1.encrypted_vector == a1.digest_vector
    # level-3 issuer: exactly elements 2 and 3 change
    a5 = address_for_node(emb, ts, 5, 0, keys[5], 5, 6)
    p5 = add_ppp_layer(a5, keys[5], CFG)
    diff = [j for j in range(CFG.max_length) if p5.encrypted_vector[j] != a5.digest_vector[j]]
    assert diff == [1, 2]
    assert verify_mac(p5, keys[5], BITS)
    with pytest.raises(KeyError):
        add_ppp_layer(ReturnAddress(a5.digest_vector, a5.routing_seed, 0, tree_index=2), keys[5], CFG)


def test_ppp_partial_decrypt_prefix_behavior():
    g, ts, emb, keys = fixture_tree()
    a5 = address_for_node(emb, ts, 5, 0, keys[5], 5, 6)
    p5 = add_ppp_layer(a5, keys[5], CFG)
    l5 = ts.level[0][5]
    # issuer recovers its own prefix
    assert ppp_partial_decrypt(p5, keys[5], CFG)[:l5] == a5.digest_vector[:l5]
    # sibling 6 (cpl 2 with issuer) shares both keys: elements 1..3 usable
    assert ppp_partial_decrypt(p5, keys[6], CFG)[:3] == a5.digest_vector[:3]
    # node 7 (cpl 0) garbles elements 2 and 3 but keeps element 1
    z7 = ppp_partial_decrypt(p5, keys[7], CFG)
    assert z7[0] == a5.digest_vector[0]
    assert z7[1] != a5.digest_vector[1]
    # the root holds no keys: only element 1 comes through
    z0 = ppp_partial_decrypt(p5, keys[0], CFG)
    assert z0[0] == a5.digest_vector[0]
    assert z0[1:3] == p5.encrypted_vector[1:3]


def test_diversity_ppp_lower_bound_and_cases():
    g, ts, emb, keys = fixture_tree()
    a5 = address_for_node(emb, ts, 5, 0, keys[5], 5, 6)
    p5 = add_ppp_layer(a5, keys[5], CFG)
    x5 = emb.coord(0, 5)
    for u in range(8):
        for v in range(8):
            c = emb.coord(0, v)
            d = diversity_ppp(p5, c, keys[u], CFG)
            implied = CFG.max_length - d  # strip the length tiebreak fraction
            implied_cpl = int(implied) if implied >= 0 else -1
            true_cpl = min(cpl(c, x5), CFG.max_length)
            assert implied_cpl <= true_cpl
            # exact whenever the truth is within the evaluator's keys;
            # its decryptable range and the shared-ancestor depth cap it
            chain = keys[u].decrypt_chain(0)
            cap = min(len(chain) + 1, cpl(emb.coord(0, u), x5) + 1)
            if true_cpl <= cap:
                assert implied_cpl == true_cpl
    # closer-than-me detection: evaluator 3, candidate 5 beats candidate 3
    d_self = diversity_ppp(p5, emb.coord(0, 3), keys[3], CFG)
    d_deeper = diversity_ppp(p5, emb.coord(0, 5), keys[3], CFG)
    assert d_deeper < d_self
    # disjoint subtree: first element mismatches, implied cpl 0
    d_disjoint = diversity_ppp(p5, emb.coord(0, 7), keys[2], CFG)
    assert int(CFG.max_length - d_disjoint) == 0
    with pytest.raises(UnsupportedMetricError):
        diversity_ppp(p5, x5, keys[3], CFG, metric="TD")


def test_candidate_receiver_set_case3_deniability():
    g, ts, emb, keys = fixture_tree()
    # node 1 sees neighbor 3; the address belongs to 3's child 5
    addr = address_for_node(emb, ts, 5, 0, keys[5], 5, 6)
    view = {v: [emb.coord(0, v)] for v in g.neighbors(1)}
    out = candidate_receiver_set([addr], view, CFG)
    assert out == {3, POSSIBLE_DESCENDANT}
    # the neighbor's own address yields the same ambiguous verdict
    addr3 = address_for_node(emb, ts, 3, 0, keys[3], 5, 6)
    assert candidate_receiver_set([addr3], view, CFG) == {3, POSSIBLE_DESCENDANT}
    assert len(out) >= 2  # two consistent explanations: deniability


def test_candidate_receiver_set_case1_disagreeing_trees():
    keys = AddressKeys(mac_key=1, subtree_keys={})
    addrs = [make_addr((1, 2, 3), keys, s=10), make_addr((7, 8, 9), keys, s=11)]
    view = {
        20: [(1, 2, 3), (5, 5)],  # closest in tree 0 only
        21: [(6, 6), (7, 8, 9)],  # closest in tree 1 only
    }
    assert candidate_receiver_set(addrs, view, CFG) == {NON_NEIGHBOR}


def test_candidate_receiver_set_case2_short_match():
    keys = AddressKeys(mac_key=1, subtree_keys={})
    addr = make_addr((9, 9, 9), keys)
    view = {30: [(1, 2)], 31: [(1, 5)]}  # nobody matches even the first element
    assert candidate_receiver_set([addr], view, CFG) == {NON_NEIGHBOR}


def test_serialization_roundtrip_and_errors():
    keys = AddressKeys(mac_key=77, subtree_keys={})
    addr = make_addr((1, 2), keys)
    blob = addr.to_bytes(CFG)
    assert len(blob) == (CFG.max_length + 2) * BITS // 8
    assert ReturnAddress.from_bytes(blob, CFG) == addr
    with pytest.raises(ValueError):
        ReturnAddress.from_bytes(blob[:-1], CFG)
    odd = EmbeddingConfig(bits_per_element=3, max_length=4)
    with pytest.raises(ValueError):
        make_addr((1,), keys).to_bytes(odd)
    with pytest.raises(ValueError, match="bits_per_element % 8"):
        ReturnAddress.from_bytes(bytes(6), odd)


# The hashing primitives as first written: one generic shake per element.
# The rewritten ones must give the same outputs to the bit.
def ref_shake(tag, *values, bits):
    data = tag + b"".join((v % (1 << 256)).to_bytes(32, "little") for v in values)
    nbytes = (bits + 7) // 8
    out = int.from_bytes(hashlib.shake_256(data).digest(nbytes), "little")
    return out & ((1 << bits) - 1)


def ref_hash_value(value, bits):
    return ref_shake(b"hc", value, bits=bits)


def ref_prng_value(key, counter, bits):
    return ref_shake(b"prng", key, counter, bits=bits)


def ref_hash_cascade(elements, seed_value, bits):
    out, prev = [], seed_value
    for e in elements:
        prev = ref_hash_value(prev ^ e, bits)
        out.append(prev)
    return tuple(out)


def ref_padding(s_pad, count, bits):
    """count elements of ceil(bits / 8) bytes each, cut in order from the
    stream shake_256(b"pad" + s_pad), read little-endian, masked to bits."""
    nbytes = (bits + 7) // 8
    stream = hashlib.shake_256(b"pad" + (s_pad % 2**256).to_bytes(32, "little")).digest(nbytes * count)
    chunks = [stream[j * nbytes : (j + 1) * nbytes] for j in range(count)]
    return tuple(int.from_bytes(c, "little") % 2**bits for c in chunks)


def ref_generate_rp(x, mac_key, children_next, s, s_pad, cfg):
    bits, big_l, l = cfg.bits_per_element, cfg.max_length, len(x)
    while True:
        padding = ref_padding(s_pad, big_l - l, bits)
        if l == big_l or padding[0] not in children_next:
            break
        s_pad += 1
    k = ref_prng_value(s, 0, bits)
    digests = ref_hash_cascade(tuple(x) + padding, k, bits)
    return ReturnAddress(digests, k, ref_shake(b"mac", mac_key, *digests, bits=bits))


# negative, zero, below and at or above 2**256: the encoding reduces mod 2**256
WIDE = st.one_of(
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from([0, -1, 1, 2**256 - 1, 2**256, 2**256 + 1, -(2**256), 2**512 + 7]),
)
WIDTHS = st.integers(min_value=1, max_value=256)


@given(WIDE, WIDE, WIDTHS)
def test_primitives_match_reference(value, counter, bits):
    assert addresses.CascadeDigests(bits)[value] == ref_hash_value(value, bits)
    assert prng_value(value, counter, bits) == ref_prng_value(value, counter, bits)
    for values in [(value,), (value, counter), (counter, value, value ^ counter)]:
        assert addresses._shake(b"mac", *values, bits=bits) == ref_shake(b"mac", *values, bits=bits)


@given(st.lists(WIDE, max_size=12), WIDE, WIDTHS)
def test_cascade_and_matcher_match_reference(elements, seed_value, bits):
    vector = ref_hash_cascade(elements, seed_value, bits)
    assert hash_cascade(elements, seed_value, bits) == vector
    # candidates diverging at each position; one memo serves them all
    shared = addresses.CascadeDigests(bits)
    for cut in range(len(elements) + 1):
        cand = elements[:cut] + [e ^ 1 for e in elements[cut : cut + 1]]
        agree = [a == b for a, b in zip(vector, ref_hash_cascade(cand, seed_value, bits))]
        want = agree.index(False) if False in agree else len(agree)
        assert addresses._matched_prefix(vector, cand, seed_value, shared) == want
        assert addresses._matched_prefix(vector, cand, seed_value, addresses.CascadeDigests(bits)) == want


@given(
    st.sampled_from([2, 7, 8, 13, 16, 64, 128, 256]),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_generate_rp_matches_reference(bits, big_l, data):
    cfg = EmbeddingConfig(bits_per_element=bits, max_length=big_l)
    x = tuple(data.draw(st.lists(st.integers(0, 2**bits - 1), max_size=big_l), label="x"))
    mac_key, s, s_pad = (data.draw(WIDE, label=name) for name in ("mac_key", "s", "s_pad"))
    # block the first padding draw now and then to force a redraw
    first = ref_padding(s_pad, 1, bits)[0]  # a stream's first element leads all its longer cuts
    children_next = {first} if data.draw(st.booleans(), label="block") else set()
    keys = AddressKeys(mac_key=mac_key, subtree_keys={})
    addr = generate_rp(x, keys, children_next, s, s_pad, cfg)
    expected = ref_generate_rp(x, mac_key, children_next, s, s_pad, cfg)
    assert addr == expected
    assert verify_mac(addr, keys, bits)
    assert ref_shake(b"mac", mac_key, *addr.digest_vector, bits=bits) == addr.mac_tag
    if bits % 8 == 0:
        assert addr.to_bytes(cfg) == expected.to_bytes(cfg)
