"""Print digests of seeded f2froute outputs, to compare two revisions.

Run from the root of a checkout:

    PYTHONPATH=src python tools/seeded_digests.py

Each line is `<output> <digest>`. Running it on two revisions and diffing
the lines shows which seeded outputs changed between them. It covers tree
construction for every strategy, `stabilization_metric`,
`sample_pairs` (with failures and exclusions), in-place depart-and-join
sequences, `run_scenario` CSVs under every adversary mode (none,
random-failures, att-rand and att-root), and `route_multi` outcomes for
each metric, addressing mode and embedding choice on one att-rand
instance with failures, then again without backtracking and under a
small hop cap. Then come the return addresses that instance issues: per
tree, the rp addresses' digest vectors, routing seeds, MAC tags and byte
records, and the ppp addresses' encrypted vectors, seeds and tags; then
rp addresses at a width that is not a multiple of 8 bits. Next, DHT
lookups per metric, on a network without failed nodes and on one with
them, each with the routing tables they leave behind, as the (id, node)
pairs of every bucket. Then, per strategy, the whole tree state after 300
departures and rejoins. Last of all, the adjacency of each synthetic
graph model at three sizes, and `aggregate`'s CSV rows, whose ci95
carries the t-quantile, for 2 to 2000 runs. It uses only calls that have
kept their signatures, so it runs on older revisions too.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import tempfile

from f2froute import experiments, overlay, trees
from f2froute.addresses import (
    add_ppp_layer,
    address_for_node,
    distribute_subtree_keys,
    generate_address_keys,
    generate_rp,
)
from f2froute.adversary import AdversaryConfig, apply_att_rand, attach_attacker, choose_roots, inject_failures
from f2froute.embedding import EmbeddingConfig, assign_coordinates
from f2froute.graph import generate_synthetic
from f2froute.routing import EMBEDDING_CHOICE, RoutingConfig, route_multi
from f2froute.trees import STRATEGIES, TreeConfig


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def tree_state(ts) -> tuple:
    # each children entry as a list: a leaf's shared () hashes like []
    return ts.parent, ts.level, ts.join_round, [[list(c) for c in tree] for tree in ts.children], ts.pc


def depart_join(ts, g, roots, events: int, seed: int) -> list:
    """In-place departures, each followed by the node's rejoin."""
    rng = random.Random(seed)
    movers = [v for v in range(g.node_count) if v not in set(roots)]
    log = []
    for k in range(events):
        v = rng.choice(movers)
        _, reassigned = trees.handle_departure(ts, g, v, seed=seed + k)
        try:
            trees.handle_join(ts, g, v, seed=seed + k)
        except trees.JoinError as exc:
            log.append(str(exc))
        log.append(reassigned)
    return log


def routing_digests() -> None:
    """route_multi outcomes, paths included, under every routing key."""
    g, attacker = attach_attacker(experiments.resolve_graph("pa:400:3", 7), 12, 8)
    ts, emb, mask = apply_att_rand(g, attacker, TreeConfig(gamma=5, rng_seed=9), EmbeddingConfig(), 10)
    live = [a and b for a, b in zip(mask.live, inject_failures(g, 0.1, 11).live)]
    keys = generate_address_keys(g.node_count, 12, emb.cfg.bits_per_element)
    for t in range(emb.gamma):
        distribute_subtree_keys(ts, t, 13, keys, emb.cfg.bits_per_element)
    pairs = experiments.sample_pairs(g, live, 150, random.Random(14), exclude=(attacker,))
    rp = [
        [address_for_node(emb, ts, d, t, keys[d], 100 * k + t, 200 * k + t) for t in range(emb.gamma)]
        for k, (_, d) in enumerate(pairs)
    ]
    ppp = [[add_ppp_layer(a, keys[d], emb.cfg) for a in addrs] for addrs, (_, d) in zip(rp, pairs)]
    modes = {"coordinate": None, "rp": rp, "ppp": ppp}
    combos = [
        (metric, mode, addrs)
        for metric in ("TD", "CPL")
        for mode, addrs in modes.items()
        if mode != "ppp" or metric == "CPL"
    ]

    def print_routes(name, cfg, addrs):
        outs = [
            route_multi(
                g, emb, s, d, cfg, live=live, drop_nodes=mask.drop_nodes,
                addresses=None if addrs is None else addrs[k], keys=keys,
                rng=random.Random(k),
            )
            for k, (s, d) in enumerate(pairs)
        ]
        print(f"route.{name}", digest(outs))

    for metric, mode, addrs in combos:
        for choice in EMBEDDING_CHOICE:
            cfg = RoutingConfig(tau=2, metric=metric, embedding_choice=choice)
            print_routes(f"{metric}.{mode}.{choice}", cfg, addrs)
    # the early exits: a lost message without backtracking, and a hop cap
    # that about half the failing attempts with backtracking reach
    for metric, mode, addrs in combos:
        print_routes(f"{metric}.{mode}.no-backtracking", RoutingConfig(tau=2, metric=metric, backtracking=False), addrs)
        print_routes(f"{metric}.{mode}.max-hops-8", RoutingConfig(tau=2, metric=metric, max_hops=8), addrs)
    address_digests(emb, keys, pairs, rp, ppp)


def address_digests(emb, keys, pairs, rp, ppp) -> None:
    """Every field of the issued addresses, per tree and addressing mode."""
    for t in range(emb.gamma):
        issued = [addrs[t] for addrs in rp]
        fields = [(a.digest_vector, a.routing_seed, a.mac_tag, a.to_bytes(emb.cfg)) for a in issued]
        print(f"address.rp.tree{t}", digest(fields))
    for t in range(emb.gamma):
        issued = [addrs[t] for addrs in ppp]
        print(f"address.ppp.tree{t}", digest([(a.encrypted_vector, a.routing_seed, a.mac_tag) for a in issued]))
    # 13-bit elements: the digest mask cuts inside a byte
    narrow = EmbeddingConfig(bits_per_element=13, max_length=24)
    issued = [
        generate_rp(emb.coord(k % emb.gamma, d), keys[d], set(), 300 * k, 400 * k, narrow)
        for k, (_, d) in enumerate(pairs)
    ]
    print("address.rp.bits13", digest([(a.digest_vector, a.routing_seed, a.mac_tag) for a in issued]))


def dht_digests() -> None:
    """dht_lookup outcomes, overlay paths included, and the routing tables
    the lookups leave behind, without failed nodes (live=None) and with."""
    g = experiments.resolve_graph("pa:400:3", 7)
    ts = trees.construct_trees(g, TreeConfig(gamma=5, strategy="BFS", rng_seed=15), choose_roots(g, 5, 15))
    emb = assign_coordinates(ts, EmbeddingConfig(), 16)
    dht = overlay.DhtConfig(alpha=2)
    for failures, live in (("none", None), ("failures", inject_failures(g, 0.2, 17).live)):
        origins = [v for v in range(g.node_count) if live is None or live[v]]
        draw = random.Random(18)
        lookups = [(draw.getrandbits(overlay.ID_BITS), draw.choice(origins)) for _ in range(200)]
        for metric in ("TD", "CPL"):
            nodes = overlay.build_overlay(g, dht, 19)  # fresh: lookups evict unreachable entries
            rcfg = RoutingConfig(tau=2, metric=metric)
            rng = random.Random(20)
            outs = [overlay.dht_lookup(key, o, nodes, g, emb, dht, rcfg, live=live, rng=rng) for key, o in lookups]
            tables = [{j: [(e.kad_id, e.node) for e in b] for j, b in nd.buckets.items()} for nd in nodes]
            print(f"dht.{metric}.{failures}", digest((outs, tables)))


def churn_digests() -> None:
    """The whole tree state after a long depart-and-join sequence, per
    strategy: long enough for join rounds to lie hundreds apart."""
    g = experiments.resolve_graph("pa:600:3", 21)
    roots = choose_roots(g, 8, 21)
    for strategy, q in [(s, 0.5) for s in STRATEGIES] + [("DIV-DEP", 0.3)]:
        cfg = TreeConfig(gamma=8, accept_prob=q, strategy=strategy, rng_seed=22)
        ts = trees.construct_trees(g, cfg, roots)
        log = depart_join(ts, g, roots, 300, 23)
        name = strategy if q == 0.5 else f"{strategy}.q{q}"
        print(f"churn.{name}", digest((log, tree_state(ts), ts.clock)))


def generator_digests() -> None:
    """Adjacency per synthetic model and size, G(n, p) at p = 1 included,
    then aggregate's rows as written to the CSV (ci95 at %.9g)."""
    sizes = [("pa", 50, 2), ("pa", 1000, 3), ("pa", 5000, 5), ("er", 200, 0.02), ("er", 300, 0.5), ("er", 50, 1)]
    for model, n, param in sizes:
        print(f"graph.{model}.{n}.{param}", digest(generate_synthetic(model, n, param, 31).adjacency))
    rng = random.Random(32)
    for runs in (2, 3, 20, 2000):
        per_run = [{"a": rng.random(), "b": rng.gauss(100, 30), "c": rng.expovariate(3)} for _ in range(runs)]
        rows = experiments.aggregate("ci", per_run, ("a", "b", "c"))
        print(f"aggregate.ci95.n{runs}", digest([row.csv_row() for row in rows]))


def main() -> None:
    g = experiments.resolve_graph("pa:400:3", 7)
    roots = choose_roots(g, 5, 7)
    configs = [(s, 0.5) for s in STRATEGIES] + [("DIV-RAND", 0.3)]
    for strategy, q in configs:
        name = f"{strategy}.q{q}"
        cfg = TreeConfig(gamma=5, accept_prob=q, strategy=strategy, rng_seed=7)
        ts = trees.construct_trees(g, cfg, roots)
        print(f"construct.{name}", digest(tree_state(ts)))
        print(f"stabilization.{name}", digest(experiments.stabilization_metric(ts, g, 300, 3)))
        log = depart_join(ts, g, roots, 80, 11)
        print(f"depart-join.{name}", digest((log, tree_state(ts))))

    mask = inject_failures(g, 0.4, 5)
    for exclude in [(), (0, 3, 17)]:
        pairs = experiments.sample_pairs(g, mask.live, 500, random.Random(2), exclude=exclude)
        print(f"sample_pairs.exclude{len(exclude)}", digest(pairs))

    metrics = ("success_ratio", "routing_length", "stabilization_cost")
    with tempfile.TemporaryDirectory() as tmp:
        for strategy in STRATEGIES:
            for mode in ("none", "random-failures", "att-rand", "att-root"):
                scenario = experiments.Scenario(
                    label="d", graph="pa:300:3",
                    tree=TreeConfig(gamma=3, strategy=strategy),
                    routing=RoutingConfig(tau=2),
                    adversary=AdversaryConfig(mode=mode, failure_fraction=0.2),
                    metrics=metrics, pairs_per_run=50, runs=2, master_seed=4,
                    stabilization_samples=20,
                )
                path = os.path.join(tmp, "out.csv")
                experiments.write_csv(experiments.run_scenario(scenario, log=io.StringIO()), path)
                with open(path, "rb") as fh:
                    print(f"run_scenario.{strategy}.{mode}", digest(fh.read()))

    routing_digests()
    dht_digests()
    churn_digests()
    generator_digests()


if __name__ == "__main__":
    main()
