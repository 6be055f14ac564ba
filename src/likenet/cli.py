"""Command-line entry point for reproducible batch workflows.

One binary, six subcommands: generate, solve, ensemble, analyze,
coalition, star-compare. Every option resolves with the precedence
flag > environment variable > config file > built-in default; env
variables mirror flag names with the LIKENET_ prefix (--max-iter ->
LIKENET_MAX_ITER). All randomness flows from --seed; nothing is ever
seeded from the clock.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path

from . import analysis as an
from .centrality import (
    SolverOptions,
    eigenvector_centrality,
    likedness_centrality,
    read_rates,
)
from .ensemble import (
    EnsembleConfig,
    config_from_dict,
    config_to_dict,
    read_config_file,
    read_records,
    run_to_files,
)
from .graphs import generate_ba, generate_star, read_edge_list, write_edge_list
from .stability import classify_strategic

log = logging.getLogger("likenet")

ENV_PREFIX = "LIKENET_"

FIELD_DEFAULTS = config_to_dict(EnsembleConfig())

# flag spellings of the config fields whose flag differs from the field name
FIELD_FLAGS = {
    "sample_count": "samples",
    "rate_lambda": "lambda",
    "master_seed": "seed",
    "max_iterations": "max_iter",
}

# defaults of the options that are not config fields
CLI_DEFAULTS = {
    "workers": 1,
    "measure": "likedness",
    "model": "ba",
    "bins": 50,
    "strategic_direction": "high",
}


class CliError(Exception):
    pass


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.upper()


def resolve(args: argparse.Namespace, key: str):
    """Config field or CLI option `key`: flag > env > config file > default."""
    flag = FIELD_FLAGS.get(key, key)
    given = getattr(args, flag, None)
    if given is not None:
        return given
    default = CLI_DEFAULTS[key] if key in CLI_DEFAULTS else FIELD_DEFAULTS[key]
    env_name = _env_name(flag)
    if env_name in os.environ:
        raw = os.environ[env_name]
        try:
            return type(default)(raw)
        except ValueError:
            raise CliError(f"{env_name} must be {type(default).__name__}, got {raw!r}") from None
    return getattr(args, "_config_values", {}).get(key, default)


def solver_options(args) -> SolverOptions:
    return config_from_dict({f.name: resolve(args, f.name) for f in fields(SolverOptions)}).solver


def ensemble_config(args) -> EnsembleConfig:
    return config_from_dict({key: resolve(args, key) for key in FIELD_DEFAULTS})


class OutputGuard:
    """Track written artifacts; drop the partial ones if the command fails."""

    def __init__(self):
        self.paths: list[Path] = []

    def track(self, path) -> Path:
        p = Path(path)
        self.paths.append(p)
        return p

    def discard_partial(self):
        for p in self.paths:
            try:
                if p.is_file():
                    p.unlink()
            except OSError:
                log.warning("could not remove partial output %s", p)


def write_series_csv(series: an.BinnedSeries, path) -> None:
    """(bin_low, bin_high, value, count) rows; csv writes each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "value", "count"])
        writer.writerows(series.rows())


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


# -- subcommands ------------------------------------------------------------


def cmd_generate(args, guard: OutputGuard) -> None:
    model = resolve(args, "model")
    n = resolve(args, "n")
    if model == "ba":
        g = generate_ba(n, resolve(args, "k"), resolve(args, "master_seed"))
    elif model == "star":
        g = generate_star(n)
    else:
        raise CliError(f"unknown model {model!r} (choose ba or star)")
    out = guard.track(args.out)
    write_edge_list(g, out)
    log.info("wrote %d-node graph with %d edges to %s", g.n, len(g.edges), out)


def cmd_solve(args, guard: OutputGuard) -> None:
    g = read_edge_list(args.graph)
    rates = read_rates(args.rates)
    opts = solver_options(args)
    measure = resolve(args, "measure")
    if measure == "likedness":
        cv = likedness_centrality(g, rates, opts)
    elif measure == "eigenvector":
        cv = eigenvector_centrality(g, rates, opts)
    else:
        raise CliError(f"unknown measure {measure!r} (choose likedness or eigenvector)")
    out = guard.track(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "value", "converged", "iterations"])
        for node, value in enumerate(cv.values):
            writer.writerow([node, repr(float(value)), cv.converged, cv.iterations])
    log.info("wrote %s centralities to %s (converged=%s)", measure, out, cv.converged)


def cmd_ensemble(args, guard: OutputGuard) -> None:
    config = ensemble_config(args)
    out_dir = Path(args.out)
    for name in ("records.jsonl", "records.csv", "summary.json"):
        guard.track(out_dir / name)
    summary = run_to_files(config, out_dir, workers=resolve(args, "workers"))
    log.info(
        "ensemble complete: %d records, %d non-converged",
        summary["count"],
        summary["non_converged"],
    )


def cmd_analyze(args, guard: OutputGuard) -> None:
    table = read_records(args.records)
    if not len(table):
        raise CliError(f"no records in {args.records}")
    if args.converged_only:
        table = table.select(table.solver_converged)
        if not len(table):
            raise CliError("no converged records to analyze")
    fraction = resolve(args, "strategic_fraction")
    direction = resolve(args, "strategic_direction")
    strategic, threshold = classify_strategic(table.stability, fraction, direction)
    # the fit has the strictest input floor (50 records): fail before writing
    fit = an.logistic_fit(table)
    rate_lambda = resolve(args, "rate_lambda")
    bins = resolve(args, "bins")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    write_series_csv(
        an.rate_representation(table, strategic, rate_lambda, bins),
        guard.track(out_dir / "rate_representation.csv"),
    )
    write_series_csv(
        an.degree_representation(table, strategic),
        guard.track(out_dir / "degree_representation.csv"),
    )
    correlations = {}
    for metric in an.METRIC_FIELDS:
        trend = an.stability_vs_metric(table, metric)
        correlations[metric] = trend.spearman
        write_series_csv(trend.series, guard.track(out_dir / f"stability_vs_{metric}.csv"))
    summary = {
        "record_count": len(table),
        "non_converged": len(table) - int(table.solver_converged.sum()),
        "strategic_fraction": fraction,
        "strategic_direction": direction,
        "strategic_count": int(strategic.sum()),
        "strategic_threshold": threshold,
        "spearman": correlations,
        "logistic_fit": asdict(fit),
    }
    if 0 < summary["non_converged"] < len(table):
        converged = table.select(table.solver_converged)
        summary["spearman_converged_only"] = {
            metric: an.stability_vs_metric(converged, metric).spearman
            for metric in an.METRIC_FIELDS
        }
    _write_json(summary, guard.track(out_dir / "analysis_summary.json"))
    log.info("analysis written to %s", out_dir)


def _parse_joint_rates(text: str) -> list[float]:
    rates = [float(x) for x in text.split(",") if x.strip()]
    if not rates:
        raise CliError("empty --joint-rates")
    return rates


def cmd_coalition(args, guard: OutputGuard) -> None:
    g = read_edge_list(args.graph)
    rates = read_rates(args.rates)
    if (args.a is None) != (args.b is None):
        raise CliError("give both --a and --b, or neither")
    a, b = an.pick_outlying_pair(g) if args.a is None else (args.a, args.b)
    points = an.coalition_sweep(
        g, rates, a, b, _parse_joint_rates(args.joint_rates), solver_options(args)
    )
    out = guard.track(args.out)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(an.CoalitionPoint)])
        writer.writerows(astuple(p) for p in points)
    summary_path = guard.track(Path(str(out) + ".json"))
    _write_json(
        {
            "member_a": a,
            "member_b": b,
            "degree_a": int(g.degrees[a]),
            "degree_b": int(g.degrees[b]),
            "points": len(points),
            "all_converged": all(p.converged for p in points),
        },
        summary_path,
    )
    log.info("coalition sweep for pair (%d, %d) written to %s", a, b, out)


def cmd_star_compare(args, guard: OutputGuard) -> None:
    config = ensemble_config(args)
    ba_records = None
    if args.records:
        ba_records = read_records(args.records)
        if not len(ba_records):
            raise CliError(f"no records in {args.records}")
    direction = resolve(args, "strategic_direction")
    result = an.star_comparison(
        star_samples=args.stars,
        ba_samples=args.ba_samples,
        config=config,
        ba_records=ba_records,
        direction=direction,
        workers=resolve(args, "workers"),
    )
    for warning in result.warnings:
        log.warning("%s", warning)
    _write_json(
        {**asdict(result), "strategic_direction": direction},
        guard.track(args.out),
    )
    log.info(
        "star comparison: advantage %+.4f%%, branch/hub %.3f",
        100 * result.stability_advantage,
        result.branch_hub_ratio,
    )


# -- parser -----------------------------------------------------------------


# options that several subcommands take; each defaults to None so that
# resolve() can tell an absent flag from a given one
SHARED_OPTIONS = {
    "--samples": {"type": int}, "--n": {"type": int}, "--k": {"type": int},
    "--lambda": {"type": float}, "--workers": {"type": int},
    "--strategic-fraction": {"type": float},
    "--strategic-direction": {"choices": ("low", "high"),
                              "help": "which stability tail counts as strategic (default high)"},
}


def _add_command(sub, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    """Subcommand `name` running func, with the named shared options and the common ones."""
    p = sub.add_parser(name, help=help)
    for flag in shared:
        p.add_argument(flag, default=None, **SHARED_OPTIONS[flag])
    p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--tolerance", type=float, default=None, help="solver tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="solver iteration cap")
    p.add_argument("--relaxation", type=float, default=None, help="damping factor in (0,1]")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="likenet",
        description="Likedness centrality and like-rate ensemble stability toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate", cmd_generate, "write a graph edge-list file", "--n", "--k")
    p.add_argument("--model", choices=("ba", "star"), default=None)
    p.add_argument("--out", required=True)

    p = _add_command(sub, "solve", cmd_solve, "solve centralities for a graph + rate matrix")
    p.add_argument("--graph", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--measure", choices=("likedness", "eigenvector"), default=None)
    p.add_argument("--out", required=True)

    p = _add_command(
        sub, "ensemble", cmd_ensemble, "run a Monte-Carlo ensemble to record files",
        "--samples", "--n", "--k", "--lambda", "--workers", "--strategic-fraction",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = _add_command(
        sub, "analyze", cmd_analyze, "figure-style analyses over a record file",
        "--strategic-fraction", "--strategic-direction", "--lambda",
    )
    p.add_argument("--records", required=True, help="records.jsonl path")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--converged-only", action="store_true")
    p.add_argument("--out", required=True, help="output directory")

    p = _add_command(sub, "coalition", cmd_coalition, "joint-rate sweep for a coalition pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--joint-rates", default="0,0.5,1,2,4,8,16")
    p.add_argument("--out", required=True)

    p = _add_command(
        sub, "star-compare", cmd_star_compare, "stars versus hub-bearing BA graphs",
        "--n", "--k", "--lambda", "--workers", "--strategic-fraction", "--strategic-direction",
    )
    p.add_argument("--stars", type=int, default=1000)
    p.add_argument("--ba-samples", type=int, default=None)
    p.add_argument("--records", default=None, help="reuse a prior run's records.jsonl")
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s", stream=sys.stderr
    )
    args = build_parser().parse_args(argv)

    guard = OutputGuard()
    try:
        config_path = args.config or os.environ.get(_env_name("config"))
        args._config_values = read_config_file(config_path) if config_path else {}
        args.func(args, guard)
    except (CliError, OSError, ValueError, RuntimeError) as exc:
        guard.discard_partial()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
