"""Traced f2froute entry points and the per-layer metrics derived from them.

Layers are the f2froute modules. A layer's busy time is the sum of the
self times of its spans: a span's duration minus the time its child spans
cover, so tree construction inside the attacker set-up or routing inside
a DHT lookup is charged to trees or routing, not to its caller. A metric
of a layer that does no work on a workload reads 0; the run record lists
those layers under "idle_layers".
"""

from __future__ import annotations

import source  # noqa: F401  (puts the f2froute sources on sys.path)
from f2froute import addresses, adversary, embedding, experiments, graph, overlay, routing, trees
from f2froute.routing import DROPPED, HOP_CAP, NO_PROGRESS
from f2froute.trees import STRATEGIES

from measure import percentile

MIB = 1 << 20


def _route_attrs(out, *args, **kwargs):
    return {"hops": out.hops, "success": out.success, "reason": out.failure_reason,
            "length": out.route_length}


def _tree_attrs(ts, g, cfg, roots):
    return {"strategy": cfg.strategy, "max_depth": max(max(levels) for levels in ts.level)}


def _builder_attrs(ts, builder):
    return {"strategy": builder.cfg.strategy, "rounds": builder.round}


def _departure_attrs(result, *args, **kwargs):
    return {"reassigned": result[1]}


def _lookup_attrs(out, *args, **kwargs):
    return {"overlay_hops": out.overlay_hops, "underlay_hops": out.underlay_hops}


def _stabilization_attrs(result, ts, g, samples, *args, **kwargs):
    return {"samples": samples}


# (layer, owner, attribute, span attributes from the result, measure allocation)
TARGETS = (
    ("graph", graph, "generate_synthetic", None, False),
    ("adversary", adversary, "choose_roots", None, False),
    ("adversary", adversary, "inject_failures", None, False),
    ("adversary", adversary, "attach_attacker", None, False),
    ("adversary", adversary, "apply_att_rand", None, False),
    ("trees", trees, "construct_trees", _tree_attrs, True),
    ("trees", trees.TreeBuilder, "run", _builder_attrs, False),
    ("trees", trees, "handle_departure", _departure_attrs, False),
    ("trees", trees, "handle_join", None, False),
    ("embedding", embedding, "assign_coordinates", None, True),
    ("addresses", addresses, "generate_address_keys", None, False),
    ("addresses", addresses, "address_for_node", None, False),
    ("routing", routing, "route_multi", None, False),
    ("routing", routing, "route", _route_attrs, False),
    ("overlay", overlay, "build_overlay", None, True),
    ("overlay", overlay, "dht_lookup", _lookup_attrs, False),
    ("experiments", experiments, "sample_pairs", None, False),
    ("experiments", experiments, "stabilization_metric", _stabilization_attrs, False),
)

LAYERS = ("graph", "adversary", "trees", "embedding", "addresses", "routing", "overlay", "experiments")

FAILURE_REASONS = (NO_PROGRESS, DROPPED, HOP_CAP)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("adversary.setup_s", "s"),
    *((f"trees.construct_s.{s}", "s") for s in STRATEGIES),
    *((f"trees.rounds.{s}", "count") for s in STRATEGIES if s != "BFS"),
    *((f"trees.max_depth.{s}", "count") for s in STRATEGIES),
    ("trees.alloc_mb", "MiB"),
    ("trees.depart_ms.p50", "ms"),
    ("trees.depart_ms.p99", "ms"),
    ("trees.join_ms.p50", "ms"),
    ("trees.join_ms.p99", "ms"),
    ("trees.reassigned", "count"),
    ("embedding.assign_s", "s"),
    ("embedding.alloc_mb", "MiB"),
    ("embedding.coord_elements", "count"),
    ("addresses.keys_s", "s"),
    ("addresses.issue_ms.p50", "ms"),
    ("addresses.issue_ms.p99", "ms"),
    ("addresses.issued", "count"),
    ("routing.busy_s", "s"),
    ("routing.pair_ms.p50", "ms"),
    ("routing.pair_ms.p99", "ms"),
    ("routing.attempts", "count"),
    ("routing.attempt_success_ratio", "ratio"),
    ("routing.hops", "count"),
    ("routing.us_per_hop", "us"),
    ("routing.attempt_hops.p50", "count"),
    ("routing.attempt_hops.p99", "count"),
    ("routing.attempt_hops.max", "count"),
    ("routing.useful_hop_ratio", "ratio"),
    *((f"routing.fail.{r}", "count") for r in FAILURE_REASONS),
    ("overlay.build_s", "s"),
    ("overlay.alloc_mb", "MiB"),
    ("overlay.bucket_entries", "count"),
    ("overlay.lookup_ms.p50", "ms"),
    ("overlay.lookup_ms.p99", "ms"),
    ("overlay.overlay_hops", "count"),
    ("overlay.underlay_hops", "count"),
    ("overlay.us_per_underlay_hop", "us"),
    ("experiments.sample_pairs_s", "s"),
    *((f"experiments.stabilization_s.{s}", "s") for s in STRATEGIES),
    ("experiments.stabilization_ms_per_sample", "ms"),
    ("trace.overhead_s", "s"),
)


def _named(spans, name):
    return [s for s in spans if s.name == name]


def _busy(spans, layer):
    return sum(s.self_s for s in spans if s.layer == layer)


def _ratio(num, den):
    return num / den if den else 0.0


def _alloc_mb(spans, name):
    return max((s.alloc for s in _named(spans, name) if s.alloc is not None), default=0) / MIB


def layer_metrics(setup, alloc, work, sizes: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer values from the spans of one traced set-up (`setup`), one
    set-up under tracemalloc (`alloc`) and one traced pass (`work`)."""
    m: dict[str, float] = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    m.update(sizes)
    m["graph.build_s"] = _busy(setup, "graph")
    m["adversary.setup_s"] = _busy(setup, "adversary")

    for span in _named(setup, "construct_trees"):
        strategy = span.attrs["strategy"]
        m[f"trees.construct_s.{strategy}"] += span.duration
        m[f"trees.max_depth.{strategy}"] = max(m[f"trees.max_depth.{strategy}"], span.attrs["max_depth"])
    for span in _named(setup, "run"):
        m[f"trees.rounds.{span.attrs['strategy']}"] = span.attrs["rounds"]
    m["trees.alloc_mb"] = _alloc_mb(alloc, "construct_trees")
    departures = [s for s in _named(work, "handle_departure") if s.parent is None]
    joins = [s for s in _named(work, "handle_join") if s.parent is None]
    for key, spans in (("trees.depart_ms", departures), ("trees.join_ms", joins)):
        durations = [s.duration * 1e3 for s in spans]
        m[f"{key}.p50"] = percentile(durations, 0.50)
        m[f"{key}.p99"] = percentile(durations, 0.99)
    m["trees.reassigned"] = sum(s.attrs["reassigned"] for s in departures)

    m["embedding.assign_s"] = _busy(setup, "embedding")
    m["embedding.alloc_mb"] = _alloc_mb(alloc, "assign_coordinates")

    m["addresses.keys_s"] = sum(s.duration for s in _named(setup, "generate_address_keys"))
    issue = [s.duration * 1e3 for s in _named(work, "address_for_node")]
    m["addresses.issue_ms.p50"] = percentile(issue, 0.50)
    m["addresses.issue_ms.p99"] = percentile(issue, 0.99)
    m["addresses.issued"] = len(issue)

    busy = _busy(work, "routing")
    pairs = [s.duration * 1e3 for s in _named(work, "route_multi")]
    attempts = [s.attrs for s in _named(work, "route")]
    hops = sum(a["hops"] for a in attempts)
    attempt_hops = [a["hops"] for a in attempts]
    m["routing.busy_s"] = busy
    m["routing.pair_ms.p50"] = percentile(pairs, 0.50)
    m["routing.pair_ms.p99"] = percentile(pairs, 0.99)
    m["routing.attempts"] = len(attempts)
    m["routing.attempt_success_ratio"] = _ratio(sum(a["success"] for a in attempts), len(attempts))
    m["routing.hops"] = hops
    m["routing.us_per_hop"] = _ratio(busy * 1e6, hops)
    m["routing.attempt_hops.p50"] = percentile(attempt_hops, 0.50)
    m["routing.attempt_hops.p99"] = percentile(attempt_hops, 0.99)
    m["routing.attempt_hops.max"] = max(attempt_hops, default=0)
    m["routing.useful_hop_ratio"] = _ratio(sum(a["length"] for a in attempts if a["success"]), hops)
    for reason in FAILURE_REASONS:
        m[f"routing.fail.{reason}"] = sum(1 for a in attempts if a["reason"] == reason)

    m["overlay.build_s"] = sum(s.duration for s in _named(setup, "build_overlay"))
    m["overlay.alloc_mb"] = _alloc_mb(alloc, "build_overlay")
    lookups = _named(work, "dht_lookup")
    underlay = sum(s.attrs["underlay_hops"] for s in lookups)
    m["overlay.lookup_ms.p50"] = percentile([s.duration * 1e3 for s in lookups], 0.50)
    m["overlay.lookup_ms.p99"] = percentile([s.duration * 1e3 for s in lookups], 0.99)
    m["overlay.overlay_hops"] = sum(s.attrs["overlay_hops"] for s in lookups)
    m["overlay.underlay_hops"] = underlay
    m["overlay.us_per_underlay_hop"] = _ratio(sum(s.duration for s in lookups) * 1e6, underlay)

    m["experiments.sample_pairs_s"] = sum(s.duration for s in _named(setup, "sample_pairs"))
    stabilization = _named(work, "stabilization_metric")
    for span in stabilization:
        m[f"experiments.stabilization_s.{span.tags['strategy']}"] += span.duration
    m["experiments.stabilization_ms_per_sample"] = _ratio(
        sum(s.duration for s in stabilization) * 1e3, sum(s.attrs["samples"] for s in stabilization)
    )
    m["trace.overhead_s"] = overhead_s
    return m


def idle_layers(setup, work) -> list[str]:
    """Layers with no span in the traced set-up or pass."""
    busy = {s.layer for s in setup} | {s.layer for s in work}
    return [layer for layer in LAYERS if layer not in busy]
