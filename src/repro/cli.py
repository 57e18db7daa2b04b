"""Command-line interface.

Usage examples::

    walk-not-wait list
    walk-not-wait run figure6 --scale quick --seed 7
    walk-not-wait run table1 --csv out.csv
    walk-not-wait run all --scale quick
    walk-not-wait estimate --job job.json --dataset ba_synthetic --json
    walk-not-wait bench run --suite smoke --out bench_results
    walk-not-wait bench check --baseline . --current bench_results

(Equivalently: ``python -m repro ...``; ``bench`` forwards verbatim to
``python -m repro.bench``, the regression-gating benchmark harness.)

The ``estimate`` subcommand is the CLI face of the unified job API: it
loads an :class:`~repro.core.dispatch.EstimationJobSpec` JSON document
(``-`` for stdin), builds the requested dataset surrogate, routes the job
through :func:`repro.core.estimate` on the backend the spec names, and
prints the importance-weighted degree estimate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro._version import __version__
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.reporting import render_result, result_to_csv


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="walk-not-wait",
        description=(
            "Reproduction of 'Walk, Not Wait: Faster Sampling Over Online "
            "Social Networks' (VLDB 2015)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    datasets = subparsers.add_parser(
        "datasets", help="build the dataset surrogates and print their stats"
    )
    datasets.add_argument("--seed", type=int, default=0, help="build seed")
    datasets.add_argument(
        "--name",
        default=None,
        help="single dataset to summarize (default: all)",
    )

    run = subparsers.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id or 'all'")
    run.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="workload size (quick: minutes; full: paper-scale)",
    )
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument(
        "--csv",
        type=Path,
        default=None,
        help="also write results as CSV to this path",
    )

    est = subparsers.add_parser(
        "estimate",
        help="run one estimation job spec (JSON) through the unified API",
    )
    est.add_argument(
        "--job",
        required=True,
        help="path to an EstimationJobSpec JSON document ('-' for stdin)",
    )
    est.add_argument(
        "--dataset",
        default="ba_synthetic",
        help="dataset surrogate to estimate over (see 'datasets')",
    )
    est.add_argument(
        "--dataset-seed", type=int, default=0, help="dataset build seed"
    )
    est.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the spec's own seed for this run",
    )
    est.add_argument(
        "--json",
        action="store_true",
        help="print the result as a JSON document instead of text",
    )

    bench = subparsers.add_parser(
        "bench",
        help="regression-gating benchmark harness (run / check / append)",
        add_help=False,
    )
    bench.add_argument(
        "bench_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to `python -m repro.bench`",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`);
        # exit quietly like any well-behaved CLI.
        import os

        os.close(sys.stdout.fileno())
        return 0


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[experiment_id].__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{experiment_id:20s} {summary}")
        return 0

    if args.command == "datasets":
        from repro.datasets.registry import DATASET_BUILDERS, build_dataset
        from repro.graphs.statistics import summarize

        names = [args.name] if args.name else sorted(DATASET_BUILDERS)
        for name in names:
            dataset = build_dataset(name, seed=args.seed)
            summary = summarize(dataset.graph, seed=args.seed)
            print(f"== {name} ({dataset.paper_reference or 'no reference'}) ==")
            for metric, value in summary.as_rows():
                print(f"  {metric:16s} {value}")
            for aggregate, truth in sorted(dataset.aggregates.items()):
                print(f"  AVG {aggregate:12s} {truth:.4f}")
            print()
        return 0

    if args.command == "run":
        ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        csv_chunks: list[str] = []
        for experiment_id in ids:
            result = run_experiment(experiment_id, scale=args.scale, seed=args.seed)
            print(render_result(result))
            print()
            if args.csv is not None:
                csv_chunks.append(result_to_csv(result))
        if args.csv is not None:
            args.csv.write_text("".join(csv_chunks), encoding="utf-8")
            print(f"wrote CSV to {args.csv}", file=sys.stderr)
        return 0

    if args.command == "bench":
        from repro.bench.cli import main as bench_main

        return bench_main(args.bench_args)

    if args.command == "estimate":
        import json

        report = run_job_spec(
            _load_job_spec(args.job),
            dataset=args.dataset,
            dataset_seed=args.dataset_seed,
            seed=args.seed,
        )
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            spec_doc = report["spec"]
            print(f"== estimate over {report['dataset']} ==")
            print(f"  design           {json.dumps(spec_doc['design'])}")
            print(f"  backend          {spec_doc['engine']['backend']}")
            print(f"  accepted         {report['accepted']}/{report['attempts']}")
            print(f"  estimate         {report['estimate']:.4f}")
            print(f"  stderr           {report['stderr']:.4f}")
            print(f"  query cost       {report['query_cost']}")
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


def _load_job_spec(path: str):
    """Read an :class:`~repro.core.dispatch.EstimationJobSpec` JSON doc."""
    from repro.core.dispatch import EstimationJobSpec

    raw = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    return EstimationJobSpec.from_json(raw)


def run_job_spec(spec, *, dataset="ba_synthetic", dataset_seed=0, seed=None):
    """Run one job spec against a dataset surrogate; return a JSON-safe dict.

    The backend the spec names decides the resources: charged specs get
    a fresh charged :class:`~repro.osn.api.SocialNetworkAPI`, batch
    specs the compiled CSR, and sharded specs an
    :class:`~repro.walks.parallel.InlineExecutor` that runs the spec's
    ``n_workers``-shard plan in process (one shard when unset), as the
    service does.  The shards run one after another: ``n_workers`` fixes
    the plan, and so the random streams, not a degree of parallelism.
    A process pool would not pay for one round: starting two spawned
    workers took about 2 s on a 2-core host, more than a whole
    K = 32768 round takes in process (0.13–0.17 s).
    All routes go through :func:`repro.core.estimate` — the CLI never
    touches a legacy front end.
    """
    import numpy as np

    from repro.core.dispatch import estimate
    from repro.datasets.registry import build_dataset
    from repro.estimators.aggregates import importance_estimate
    from repro.osn.api import SocialNetworkAPI
    from repro.walks.parallel import InlineExecutor

    graph = build_dataset(dataset, seed=dataset_seed).graph
    api = None
    if spec.engine.backend == "charged":
        api = SocialNetworkAPI(graph)
        result = estimate(spec, api=api, seed=seed)
    else:  # batch runs over graph=, sharded over engine=, as in the service
        csr = graph.compile()
        executor = InlineExecutor(csr, spec.engine.n_workers or 1)
        result = estimate(spec, graph=csr, engine=executor, seed=seed)

    values = np.array(
        [graph.degree(int(node)) for node in result.nodes], dtype=np.float64
    )
    with np.errstate(divide="ignore"):
        weights = 1.0 / result.weights
    mean, stderr = importance_estimate(values, weights)
    return {
        "dataset": dataset,
        "spec": spec.to_dict(),
        "accepted": int(result.accepted),
        "attempts": int(result.attempts),
        "acceptance_rate": float(result.acceptance_rate),
        "estimate": mean,
        "stderr": stderr,
        "query_cost": int(api.query_cost if api is not None else result.query_cost),
        "walk_steps": int(result.walk_steps),
    }


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
