"""The four benchmark workloads.

Each workload is one closed loop with a single caller: an operation is
issued when the previous one returns. Constructing a workload is its
set-up: it builds every input from the seed (graph, adversary, trees,
embedding, keys, overlay and the operation list). `run_pass` then
executes the fixed operation list once. Every pass repeats the same
work: an operation that draws random numbers restarts from the RNG state
saved before it on the first pass, and churn restarts from a copy of
the constructed trees.

Correctness checks run on the first pass, outside the timed calls; later
passes must reproduce the first pass's outcome digest. The f2froute
functions are called through their modules (`routing.route_multi`) so
that the tracer's patches apply to the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import random

import source  # noqa: F401  (puts the f2froute sources on sys.path)
from f2froute import addresses, adversary, embedding, experiments, overlay, routing, trees
from f2froute.adversary import AdversaryConfig
from f2froute.embedding import EmbeddingConfig
from f2froute.experiments import Scenario
from f2froute.overlay import ID_BITS, DhtConfig
from f2froute.routing import RoutingConfig
from f2froute.trees import STRATEGIES, TreeConfig

from measure import percentile


def scenario_seed(seed: int) -> int:
    """The seed `experiments.run_scenario` gives run 0 of master seed `seed`."""
    return seed * 1_000_003


class Workload:
    name = ""

    def __init__(self):
        self.digest = None
        self.results: list = []
        self.check_failures: list[str] = []
        self._states: list = []

    def run_pass(self, rec, check: bool) -> None:
        """Run every op once; `results` gets one compact outcome per op."""
        results: list = []
        self._pass(rec, check, results)
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        if self.digest is None:
            self.digest, self.results = digest, results
        elif digest != self.digest:
            self._fail(None, "a later pass did not reproduce the first pass's outcomes")

    def _restart(self, rng: random.Random, i: int) -> None:
        """Save the RNG state before op i on the first pass, restore it later."""
        if i == len(self._states):
            self._states.append(rng.getstate())
        else:
            rng.setstate(self._states[i])

    def _fail(self, rec, message: str) -> None:
        """Record a failed check; with rec, the current operation fails too."""
        if rec is not None:
            rec.reject(message)
        if len(self.check_failures) < 5:
            self.check_failures.append(message)

    def describe(self) -> dict:
        """Sizes of the set-up state, reported with the per-layer metrics."""
        return _sizes(self.g, getattr(self, "emb", None))


def _sizes(g, emb) -> dict:
    out = {"graph.nodes": g.node_count, "graph.edges": g.edge_count}
    if emb is not None:
        out["embedding.coord_elements"] = sum(
            len(c) for tree in emb.coords for c in tree if c is not None
        )
    return out


def _route_key(out) -> tuple:
    """(success, total_hops, best_route_length, trees, attempts) of a
    MultiRouteOutcome, each attempt as (success, hops, reason, length)."""
    return (
        out.success,
        out.total_hops,
        out.best_route_length,
        tuple(out.trees),
        tuple((a.success, a.hops, a.failure_reason, a.route_length) for a in out.attempts),
    )


def _route_outputs(keys) -> dict:
    """Simulated routing results from the `_route_key`s of the pairs."""
    keys = [k for k in keys if k is not None]
    attempts = [a for k in keys for a in k[4]]
    lengths = [k[2] for k in keys if k[0]]
    hops = [a[1] for a in attempts]
    reasons: dict[str, int] = {}
    for a in attempts:
        if not a[0]:
            reasons[a[2]] = reasons.get(a[2], 0) + 1
    return {
        "success_ratio": sum(k[0] for k in keys) / len(keys) if keys else None,
        "routing_length": sum(lengths) / len(lengths) if lengths else None,
        "message_cost": sum(k[1] for k in keys) / len(keys) if keys else None,
        "attempt_hops_p50": percentile(hops, 0.50),
        "attempt_hops_p99": percentile(hops, 0.99),
        "attempt_hops_max": max(hops, default=0),
        "failure_reasons": dict(sorted(reasons.items())),
    }


class _ScenarioRun:
    """Inputs of one seeded run of a scenario, as `run_scenario` builds them."""

    def __init__(self, sc: Scenario, s: int):
        self.g = g = experiments.resolve_graph(sc.graph, s)
        tree_cfg = TreeConfig(
            gamma=sc.tree.gamma,
            accept_prob=sc.tree.accept_prob,
            strategy=sc.tree.strategy,
            rng_seed=s,
        )
        ts = trees.construct_trees(g, tree_cfg, adversary.choose_roots(g, tree_cfg.gamma, s))
        self.emb = embedding.assign_coordinates(ts, sc.embedding, s + 1)
        self.mask = adversary.inject_failures(g, sc.adversary.failure_fraction, s ^ sc.adversary.seed)
        self.rng = random.Random(s + 2)
        self.pairs = experiments.sample_pairs(g, self.mask.live, sc.pairs_per_run, self.rng)
        self.adj: dict[int, set[int]] = {}


class RouteFailures(Workload):
    """pa:1000:5, DIV-RAND gamma 5, tau 3, CPL, coordinates, 10 % failures.

    The workload is `self.scenario`: its `runs` seeded runs are set up
    exactly as `experiments.run_scenario` sets them up, so the pairs and
    their outcomes are the ones that scenario produces. Several runs of
    fewer pairs average over graphs and failure sets, whose effect on
    the hop tail varies more from seed to seed than that of the pairs.
    One op is one `route_multi` on a sampled pair.
    """

    name = "route-failures"

    def __init__(self, seed: int, graph_spec: str = "pa:1000:5", pairs: int = 500, runs: int = 6):
        super().__init__()
        self.scenario = sc = Scenario(
            label=self.name,
            graph=graph_spec,
            tree=TreeConfig(gamma=5, strategy="DIV-RAND"),
            routing=RoutingConfig(tau=3, metric="CPL"),
            adversary=AdversaryConfig(mode="random-failures", failure_fraction=0.1),
            pairs_per_run=pairs,
            runs=runs,
            master_seed=seed,
        )
        self.runs = [_ScenarioRun(sc, scenario_seed(seed) + k) for k in range(runs)]

    def _pass(self, rec, check, results):
        cfg, i = self.scenario.routing, 0
        for run in self.runs:
            g, emb, rng, live, drop = run.g, run.emb, run.rng, run.mask.live, run.mask.drop_nodes
            for src, dst in run.pairs:
                self._restart(rng, i)
                i += 1
                ok, out = rec.op(
                    routing.route_multi, g, emb, src, dst, cfg, live=live, drop_nodes=drop, rng=rng
                )
                results.append(_route_key(out) if ok else None)
                if ok and check:
                    bad = self._check_walk(run, src, dst, out)
                    if bad:
                        self._fail(rec, f"pair {src}->{dst}: {bad}")

    @staticmethod
    def _check_walk(run, src, dst, out) -> str | None:
        """Each attempt walks live graph edges and ends at dst on success."""
        live = run.mask.live
        for a in out.attempts:
            if a.path[0] != src:
                return "attempt does not start at the source"
            for u, v in zip(a.path, a.path[1:]):
                nbrs = run.adj.get(u)
                if nbrs is None:
                    nbrs = run.adj[u] = set(run.g.neighbors(u))
                if v not in nbrs:
                    return f"step {u}->{v} is not a graph edge"
                if not live[v]:
                    return f"step {u}->{v} enters a failed node"
            if a.success and a.path[-1] != dst:
                return "successful attempt does not end at the destination"
        if out.success != any(a.success for a in out.attempts):
            return "pair success disagrees with its attempts"
        return None

    def describe(self) -> dict:
        """Sizes summed over the workload's runs."""
        totals: dict = {}
        for run in self.runs:
            for key, value in _sizes(run.g, run.emb).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def outputs(self) -> dict:
        out = _route_outputs(self.results)
        # success_ratio and routing_length as run_scenario aggregates them:
        # the mean over runs of each run's value
        per_run, i = [], 0
        for run in self.runs:
            keys = self.results[i:i + len(run.pairs)]
            i += len(run.pairs)
            lengths = [k[2] for k in keys if k is not None and k[0]]
            per_run.append((
                sum(k is not None and k[0] for k in keys) / len(keys),
                sum(lengths) / len(lengths) if lengths else None,
            ))
        ratios = [r for r, _ in per_run]
        lengths = [x for _, x in per_run if x is not None]
        out["success_ratio"] = sum(ratios) / len(ratios)
        out["routing_length"] = sum(lengths) / len(lengths) if lengths else None
        return out


class RouteRpAttack(Workload):
    """pa:1000:5 plus an att-rand attacker with 16 edges, DIV-DEP gamma 5,
    tau 3, CPL. One op issues the destination's gamma rp return addresses
    and routes `route_multi` on them."""

    name = "route-rp-attack"

    def __init__(self, seed: int, graph_spec: str = "pa:1000:5", pairs: int = 1000):
        super().__init__()
        s = scenario_seed(seed)
        adv = AdversaryConfig(mode="att-rand", attacker_edges=16)
        g0 = experiments.resolve_graph(graph_spec, s)
        self.g, self.attacker = adversary.attach_attacker(g0, adv.attacker_edges, s ^ adv.seed)
        tree_cfg = TreeConfig(gamma=5, strategy="DIV-DEP", rng_seed=s)
        self.ts, self.emb, self.mask = adversary.apply_att_rand(
            self.g, self.attacker, tree_cfg, EmbeddingConfig(), s + 1
        )
        self.keys = addresses.generate_address_keys(self.g.node_count, s + 6, self.emb.cfg.bits_per_element)
        self.rng = random.Random(s + 2)
        self.pairs = experiments.sample_pairs(
            self.g, self.mask.live, pairs, self.rng, exclude=(self.attacker,)
        )
        arng = random.Random(s + 7)
        self.address_seeds = [(arng.getrandbits(64), arng.getrandbits(64)) for _ in self.pairs]
        self.cfg = RoutingConfig(tau=3, metric="CPL")

    def _issue_and_route(self, src, dst, s_i, s_pad):
        emb, ts, key = self.emb, self.ts, self.keys[dst]
        addrs = [
            addresses.address_for_node(emb, ts, dst, t, key, s_i + t, s_pad + t)
            for t in range(emb.gamma)
        ]
        return routing.route_multi(
            self.g, emb, src, dst, self.cfg,
            live=self.mask.live, drop_nodes=self.mask.drop_nodes,
            addresses=addrs, keys=self.keys, rng=self.rng,
        )

    def _pass(self, rec, check, results):
        rng = self.rng
        for i, ((src, dst), (s_i, s_pad)) in enumerate(zip(self.pairs, self.address_seeds)):
            self._restart(rng, i)
            ok, out = rec.op(self._issue_and_route, src, dst, s_i, s_pad)
            results.append(_route_key(out) if ok else None)
            if ok and check:
                after = rng.getstate()
                rng.setstate(self._states[i])
                plain = routing.route_multi(
                    self.g, self.emb, src, dst, self.cfg,
                    live=self.mask.live, drop_nodes=self.mask.drop_nodes, rng=rng,
                )
                same = _route_key(plain) == _route_key(out) and all(
                    a.path == b.path for a, b in zip(plain.attempts, out.attempts)
                )
                if not same:
                    self._fail(rec, f"pair {src}->{dst}: rp route differs from the coordinate route")
                rng.setstate(after)

    def outputs(self) -> dict:
        out = _route_outputs(self.results)
        out["issued"] = self.emb.gamma * len(self.results)
        return out


class Churn(Workload):
    """pa:2000:5, gamma 15, each of DIV-RAND, DIV-DEP and BFS.

    Per strategy one `stabilization_metric` call on the constructed trees,
    then in-place events on a copy of them. One op is `handle_departure`
    then `handle_join` of a random non-root node.
    """

    name = "churn"

    def __init__(self, seed: int, graph_spec: str = "pa:2000:5", events: int = 400, samples: int = 5):
        super().__init__()
        s = scenario_seed(seed)
        self.g = g = experiments.resolve_graph(graph_spec, s)
        roots = adversary.choose_roots(g, 15, s)
        self.base = {
            strategy: trees.construct_trees(g, TreeConfig(gamma=15, strategy=strategy, rng_seed=s), roots)
            for strategy in STRATEGIES
        }
        erng = random.Random(s + 8)
        # Stratified by degree: one node from each of `events` equal slices
        # of the non-roots ordered by degree, in random order. A departure
        # costs about the size of the node's subtrees, large for the few
        # hubs, so a plain random draw leaves the share of hub departures,
        # and with it the latency tail, to chance.
        roots_set = set(roots)
        eligible = sorted((v for v in range(g.node_count) if v not in roots_set), key=g.degree)
        self.events = {}
        for strategy in STRATEGIES:
            picks = [
                erng.choice(eligible[k * len(eligible) // events:(k + 1) * len(eligible) // events])
                for k in range(events)
            ]
            erng.shuffle(picks)
            self.events[strategy] = picks
        self.samples = samples
        self.seed = s

    def _depart_join(self, ts, node, seed):
        _, reassigned = trees.handle_departure(ts, self.g, node, seed=seed)
        trees.handle_join(ts, self.g, node, seed=seed)
        return reassigned

    def _pass(self, rec, check, results):
        g = self.g
        for strategy in STRATEGIES:
            base = self.base[strategy]
            with rec.tag(strategy=strategy):
                cost = rec.timed(experiments.stabilization_metric, base, g, self.samples, self.seed + 3)
                results.append((strategy, cost))
                ts = base.copy()
                for k, node in enumerate(self.events[strategy]):
                    if check:
                        expected = sum(trees.descendants_count(ts, node, t) for t in range(ts.gamma))
                    ok, reassigned = rec.op(self._depart_join, ts, node, self.seed + 10 + k)
                    results.append(reassigned)
                    if ok and check:
                        if reassigned != expected:
                            self._fail(rec, f"{strategy} departure of {node}: reassigned "
                                            f"{reassigned}, descendants {expected}")
                        elif not all(ts.in_tree(t, node) for t in range(ts.gamma)):
                            self._fail(rec, f"{strategy}: node {node} did not rejoin every tree")
            if check:
                try:
                    ts.validate(g)
                except AssertionError as exc:
                    self._fail(None, f"{strategy}: TreeSet.validate failed after the events {exc!r}")

    def outputs(self) -> dict:
        out = {}
        for strategy in STRATEGIES:
            costs = [r[1] for r in self.results if isinstance(r, tuple) and r[0] == strategy]
            out[f"stabilization_cost.{strategy}"] = costs[0] if costs else None
        moved = [r for r in self.results if isinstance(r, int)]
        out["reassigned_per_event"] = sum(moved) / len(moved) if moved else None
        return out


class DhtLookup(Workload):
    """pa:5000:5, BFS gamma 15, TD, tau 3, alpha 1, no failures.
    One op is one `dht_lookup` of a random key from a random node."""

    name = "dht-lookup"
    checked = 200  # lookups whose terminal is checked against a full scan

    def __init__(self, seed: int, graph_spec: str = "pa:5000:5", lookups: int = 1000):
        super().__init__()
        s = scenario_seed(seed)
        self.g = g = experiments.resolve_graph(graph_spec, s)
        tree_cfg = TreeConfig(gamma=15, strategy="BFS", rng_seed=s)
        ts = trees.construct_trees(g, tree_cfg, adversary.choose_roots(g, tree_cfg.gamma, s))
        self.emb = embedding.assign_coordinates(ts, EmbeddingConfig(), s + 1)
        self.dht = DhtConfig(alpha=1)
        self.cfg = RoutingConfig(tau=3, metric="TD")
        self.nodes = overlay.build_overlay(g, self.dht, s + 4)
        drng = random.Random(s + 5)
        self.lookups = [(drng.randrange(g.node_count), drng.getrandbits(ID_BITS)) for _ in range(lookups)]
        self.rng = random.Random(s + 6)

    def _pass(self, rec, check, results):
        rng, stride = self.rng, max(1, len(self.lookups) // self.checked)
        ids = [nd.kad_id for nd in self.nodes] if check else None
        for i, (origin, key) in enumerate(self.lookups):
            self._restart(rng, i)
            ok, out = rec.op(
                overlay.dht_lookup, key, origin, self.nodes, self.g, self.emb, self.dht, self.cfg, rng=rng
            )
            results.append((out.success, out.terminal, out.overlay_hops, out.underlay_hops) if ok else None)
            if not ok or not check:
                continue
            if not out.success:
                self._fail(rec, f"lookup {i} failed without failures in the network")
            elif i % stride == 0:
                closest = min(range(len(ids)), key=lambda v: ids[v] ^ key)
                if out.terminal != closest:
                    self._fail(rec, f"lookup {i} ended at {out.terminal}, closest id is {closest}")

    def describe(self) -> dict:
        out = super().describe()
        out["overlay.bucket_entries"] = sum(
            len(b) for nd in self.nodes for b in nd.buckets.values()
        )
        return out

    def outputs(self) -> dict:
        done = [k for k in self.results if k is not None]
        return {
            "success_ratio": sum(k[0] for k in done) / len(done) if done else None,
            "overlay_hops": sum(k[2] for k in done) / len(done) if done else None,
            "underlay_hops": sum(k[3] for k in done) / len(done) if done else None,
        }


WORKLOADS = {w.name: w for w in (RouteFailures, RouteRpAttack, Churn, DhtLookup)}

# Seconds-long sizes of the same workloads, for the smoke tests.
SMOKE = {
    "route-failures": {"graph_spec": "pa:400:3", "pairs": 30, "runs": 2},
    "route-rp-attack": {"graph_spec": "pa:300:3", "pairs": 40},
    "churn": {"graph_spec": "pa:200:3", "events": 20, "samples": 3},
    "dht-lookup": {"graph_spec": "pa:400:3", "lookups": 40},
}
