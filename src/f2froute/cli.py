"""Command-line entry point for running routing scenarios.

Usage example:

    f2froute --graph pa:5000:5 --gamma 15 --strategy BFS --metric TD \
        --tau 3 --pairs 1000 --runs 20 --seed 7 --out results.csv

A key=value config file can set the same options (--config); explicit
flags win over the file. Progress goes to stderr, metrics to the CSV.
"""

from __future__ import annotations

import argparse
import os
import sys

from f2froute.adversary import MODES, AdversaryConfig
from f2froute.embedding import EmbeddingConfig
from f2froute.experiments import (
    METRIC_NAMES,
    Scenario,
    resolve_graph,
    run_scenario,
    run_seed,
    write_csv,
)
from f2froute.graph import GenerationError, graph_stats
from f2froute.overlay import DhtConfig
from f2froute.routing import METRICS, RoutingConfig
from f2froute.trees import STRATEGIES, ConstructionError, JoinError, TreeConfig


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="f2froute",
        description="Greedy routing experiments over tree-embedded friend-to-friend overlays.",
        exit_on_error=False,  # a value that fails to convert raises ArgumentError, reported by main
    )
    p.add_argument("--config", help="key=value file providing defaults for any flag")
    p.add_argument("--graph", default="pa:5000:5",
                   help="edge-list path, pa:<n>:<m>, or er:<n>:<p> (default pa:5000:5)")
    p.add_argument("--label", default="scenario", help="scenario name used in the CSV")
    p.add_argument("--gamma", type=int, default=1, help="number of spanning trees")
    p.add_argument("--q", type=float, default=0.5, dest="q",
                   help="per-round acceptance probability during construction")
    p.add_argument("--strategy", choices=STRATEGIES, default="DIV-RAND")
    p.add_argument("--metric", choices=METRICS, default="TD")
    p.add_argument("--tau", type=int, default=1, help="parallel routing attempts per pair")
    p.add_argument("--max-hops", type=int, help="hop cap per routing attempt (default 4 * (n + m))")
    p.add_argument("--mode", choices=MODES, default="none", help="adversary mode")
    p.add_argument("--attacker-edges", type=int, default=16)
    p.add_argument("--failure-fraction", type=float, default=0.0)
    p.add_argument("--pairs", type=int, default=1000, help="routing pairs per run")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--metrics", default="success_ratio,routing_length",
                   help=f"comma-separated subset of {', '.join(METRIC_NAMES)}")
    p.add_argument("--workers", type=int, default=1, help="parallel run processes")
    p.add_argument("--out", default="results.csv", help="output CSV path")
    p.add_argument("--graph-stats", metavar="PATH",
                   help="also write a one-row CSV of graph statistics")
    return p


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, val = stripped.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def parse_args(argv=None) -> argparse.Namespace:
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        file_values = load_config_file(args.config)
        known = {a.dest for a in parser._actions}
        unknown = set(file_values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        parser.set_defaults(**file_values)
    # reparse so explicit flags override file-provided defaults; argparse
    # converts those defaults too. parse_args would print usage and exit 2
    # on leftover arguments, so they are refused here
    args, extra = parser.parse_known_args(argv)
    if extra:
        raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
    return args


def scenario_from_args(args: argparse.Namespace) -> Scenario:
    if args.failure_fraction > 0 and args.mode != "random-failures":  # it would be ignored
        raise ValueError(f"--failure-fraction {args.failure_fraction} needs --mode random-failures")
    return Scenario(
        label=args.label,
        graph=args.graph,
        tree=TreeConfig(gamma=args.gamma, accept_prob=args.q, strategy=args.strategy),
        embedding=EmbeddingConfig(),
        routing=RoutingConfig(tau=args.tau, metric=args.metric, max_hops=args.max_hops),
        dht=DhtConfig(),
        adversary=AdversaryConfig(
            mode=args.mode,
            failure_fraction=args.failure_fraction,
            attacker_edges=args.attacker_edges,
            seed=args.seed,
        ),
        metrics=tuple(m.strip() for m in args.metrics.split(",") if m.strip()),
        pairs_per_run=args.pairs,
        runs=args.runs,
        master_seed=args.seed,
    )


def check_writable(path: str) -> None:
    """Raise OSError now if path cannot be opened for writing; leave it as found."""
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        workers = args.workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        scenario = scenario_from_args(args)
        for path in (args.out, args.graph_stats):
            if path:  # fail before the runs, not after them
                check_writable(path)
        if args.graph_stats:  # run 0's graph
            seed = run_seed(scenario.master_seed, 0)
            stats = graph_stats(resolve_graph(scenario.graph, seed), seed=seed)
            with open(args.graph_stats, "w", encoding="utf-8") as fh:
                fh.write(stats.CSV_HEADER + "\n" + stats.csv_row() + "\n")
            print(f"graph stats written to {args.graph_stats}", file=sys.stderr)
        rows = run_scenario(scenario, workers=workers)
        write_csv(rows, args.out)
    except (ValueError, argparse.ArgumentError, GenerationError, ConstructionError, JoinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} metric rows to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
