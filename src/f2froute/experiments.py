"""Scenario orchestration, metric aggregation, and CSV output.

A scenario fixes the graph source, tree and routing parameters, and an
adversary; running it executes several independent seeded runs and
aggregates per-run means with 95% confidence intervals.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from f2froute.adversary import (
    AdversaryConfig,
    all_live,
    apply_att_rand,
    apply_att_root,
    attach_attacker,
    choose_roots,
    inject_failures,
)
from f2froute.embedding import EmbeddingConfig, assign_coordinates
from f2froute.graph import Graph, connected_components, generate_synthetic, giant_component, load_edge_list
from f2froute.overlay import ID_BITS, DhtConfig, build_overlay, dht_lookup
from f2froute.routing import RoutingConfig, route_multi
from f2froute.trees import TreeConfig, TreeSet, construct_trees

METRIC_NAMES = ("routing_length", "success_ratio", "stabilization_cost", "dht_underlay_hops")

CSV_HEADER = "scenario,metric,mean,ci95,runs"


@dataclass
class Scenario:
    label: str
    graph: str  # "pa:<n>:<m>", "er:<n>:<p>", or an edge-list path
    tree: TreeConfig = field(default_factory=TreeConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    dht: DhtConfig = field(default_factory=DhtConfig)
    adversary: AdversaryConfig = field(default_factory=AdversaryConfig)
    metrics: tuple[str, ...] = ("success_ratio", "routing_length")
    pairs_per_run: int = 1000
    runs: int = 20
    master_seed: int = 0
    stabilization_samples: int = 100
    dht_lookups: int = 100

    def __post_init__(self):
        if "," in self.label:
            raise ValueError("scenario label must not contain commas (CSV field)")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.pairs_per_run < 1:
            raise ValueError(f"pairs_per_run must be >= 1, got {self.pairs_per_run}")
        if self.routing.tau > self.tree.gamma:
            raise ValueError(
                f"tau={self.routing.tau} exceeds gamma={self.tree.gamma}"
            )
        if not self.metrics or not set(self.metrics) <= set(METRIC_NAMES):
            raise ValueError(f"metrics must be a non-empty subset of {METRIC_NAMES}, got {self.metrics}")


@dataclass
class MetricRow:
    scenario: str
    metric: str
    mean: float
    ci95: float
    runs: int

    def csv_row(self) -> str:
        return f"{self.scenario},{self.metric},{self.mean:.9g},{self.ci95:.9g},{self.runs}"


SYNTHETIC_SPECS = {"pa:": ("preferential-attachment", "pa:N:M"), "er:": ("erdos-renyi", "er:N:P")}


def resolve_graph(spec: str, seed: int) -> Graph:
    if spec[:3] not in SYNTHETIC_SPECS:
        return giant_component(load_edge_list(spec))
    model, form = SYNTHETIC_SPECS[spec[:3]]
    try:
        n, param = spec[3:].split(":")
        n, param = int(n), float(param)
    except ValueError:
        raise ValueError(f"malformed graph spec {spec!r}; expected {form}") from None
    return generate_synthetic(model, n, param, seed)


def sample_pairs(g: Graph, live, count: int, rng: random.Random, exclude=()):
    """Source-destination pairs, with replacement, both live and in the
    same surviving component."""
    banned = set(exclude)
    pools = [sorted(v for v in comp if v not in banned) for comp in connected_components(g, live)]
    # seeded draws depend on this order: pools sorted, by their smallest member
    pools = sorted(p for p in pools if len(p) >= 2)
    if not pools:
        return []
    weights = [len(m) for m in pools]
    pairs = []
    for _ in range(count):
        pool = rng.choices(pools, weights=weights)[0]
        s = rng.choice(pool)
        d = rng.choice(pool)
        while d == s:
            d = rng.choice(pool)
        pairs.append((s, d))
    return pairs


def stabilization_metric(
    ts: TreeSet, g: Graph, samples: int, seed: int, exclude=()
) -> float | None:
    """Mean coordinate reassignments per random non-root departure.

    A departure of v re-embeds exactly its descendants in every tree
    (what `handle_departure` counts), so the cost of v is read from the
    subtree sizes instead of simulated. None when no node may depart.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    roots = set(ts.roots) | set(exclude)
    eligible = [v for v in range(ts.node_count) if v not in roots]
    if not eligible:
        return None
    sizes = [ts.subtree_sizes(i) for i in range(ts.gamma)]
    total = 0
    for _ in range(samples):
        v = rng.choice(eligible)
        total += sum(size[v] - 1 for size in sizes if size[v])
    return total / samples


def run_seed(master_seed: int, run_idx: int) -> int:
    """The seed of run run_idx: its graph, trees, pairs and draws all derive from it."""
    return master_seed * 1_000_003 + run_idx


def _run_once(s: Scenario, run_idx: int) -> dict[str, float]:
    seed = run_seed(s.master_seed, run_idx)
    g = resolve_graph(s.graph, seed)
    tree_cfg = replace(s.tree, rng_seed=seed)
    adv = s.adversary
    attacker = None
    if adv.mode in ("att-rand", "att-root"):
        g, attacker = attach_attacker(g, adv.attacker_edges, seed ^ adv.seed)
        apply_attack = apply_att_rand if adv.mode == "att-rand" else apply_att_root
        ts, emb, mask = apply_attack(g, attacker, tree_cfg, s.embedding, seed + 1)
    else:
        roots = choose_roots(g, tree_cfg.gamma, seed)
        ts = construct_trees(g, tree_cfg, roots)
        emb = assign_coordinates(ts, s.embedding, seed + 1)
        if adv.mode == "random-failures":
            mask = inject_failures(g, adv.failure_fraction, seed ^ adv.seed)
        else:
            mask = all_live(g.node_count)

    out: dict[str, float] = {}
    exclude = () if attacker is None else (attacker,)
    rng = random.Random(seed + 2)
    if "success_ratio" in s.metrics or "routing_length" in s.metrics:
        pairs = sample_pairs(g, mask.live, s.pairs_per_run, rng, exclude=exclude)
        successes = 0
        lengths = []
        for src, dst in pairs:
            res = route_multi(
                g, emb, src, dst, s.routing,
                live=mask.live, drop_nodes=mask.drop_nodes, rng=rng,
            )
            if res.success:
                successes += 1
                lengths.append(res.best_route_length)
        if "success_ratio" in s.metrics and pairs:
            out["success_ratio"] = successes / len(pairs)
        if "routing_length" in s.metrics and lengths:
            out["routing_length"] = sum(lengths) / len(lengths)
    if "stabilization_cost" in s.metrics:
        cost = stabilization_metric(ts, g, s.stabilization_samples, seed + 3, exclude=exclude)
        if cost is not None:
            out["stabilization_cost"] = cost
    if "dht_underlay_hops" in s.metrics:
        dht_nodes = build_overlay(g, s.dht, seed + 4)
        drng = random.Random(seed + 5)
        banned = set(exclude)
        live_pool = [v for v in mask.live_nodes() if v not in banned]
        hops = []
        for _ in range(s.dht_lookups):
            origin = drng.choice(live_pool)
            key = drng.getrandbits(ID_BITS)
            res = dht_lookup(
                key, origin, dht_nodes, g, emb, s.dht, s.routing,
                live=mask.live, drop_nodes=mask.drop_nodes, rng=drng,
            )
            if res.success:
                hops.append(res.underlay_hops)
        if hops:
            out["dht_underlay_hops"] = sum(hops) / len(hops)
    return out


def t_quantile(q: float, df: int) -> float:
    """Quantile of Student's t distribution with df degrees of freedom,
    for 0.5 < q < 1, by bisection on the upper tail P(T > t) = (1 - A) / 2.

    A = P(|T| < t) is the finite sum of Abramowitz and Stegun 26.7.3-4 in
    theta = atan(t / sqrt(df)): sin(theta) * (1 + 1/2 cos^2 + 1*3/(2*4) cos^4
    + ...) for even df, and 2/pi * (theta + sin(theta) * (cos + 2/3 cos^3
    + ...)) for odd df, each up to the power df - 2, so a tail costs O(df).
    """
    if not 0.5 < q < 1 or df < 1:
        raise ValueError(f"need 0.5 < q < 1 and df >= 1, got q={q}, df={df}")

    def upper_tail(t: float) -> float:
        theta = math.atan(t / math.sqrt(df))
        cos2 = math.cos(theta) ** 2
        term, total = (math.cos(theta) if df % 2 else 1.0), 0.0
        for k in range(2 + df % 2, df + 1, 2):  # empty for df = 1
            total += term
            term *= cos2 * (k - 1) / k
        a = math.sin(theta) * total
        if df % 2:
            a = 2 / math.pi * (theta + a)
        return (1 - a) / 2

    lo, hi = 0.0, 1.0
    while upper_tail(hi) > 1 - q:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if upper_tail(mid) > 1 - q:
            lo = mid
        else:
            hi = mid


def aggregate(label: str, per_run: list[dict[str, float]], metrics) -> list[MetricRow]:
    rows = []
    for m in metrics:
        vals = [r[m] for r in per_run if m in r]
        if not vals:
            continue
        n = len(vals)
        mean = sum(vals) / n
        if n > 1:
            sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1))
            ci = t_quantile(0.975, n - 1) * sd / math.sqrt(n)
        else:
            ci = 0.0
        rows.append(MetricRow(label, m, mean, ci, n))
    return rows


def run_scenario(s: Scenario, workers: int = 1, log=None) -> list[MetricRow]:
    """Execute all runs of a scenario and aggregate the metrics.

    workers > 1 distributes runs over processes; results are identical
    to sequential execution because each run is seeded independently.
    Either way a progress line follows each run's result, in run order.
    """
    if log is None:
        log = sys.stderr
    per_run = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        for result in (pool.map if pool else map)(_run_once, [s] * s.runs, range(s.runs)):
            per_run.append(result)
            print(f"{s.label}: run {len(per_run)}/{s.runs} done", file=log)
    return aggregate(s.label, per_run, s.metrics)


def write_csv(rows: list[MetricRow], path) -> None:
    if not rows:
        raise ValueError("no metric rows to write")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
