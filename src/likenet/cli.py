"""Command-line entry point for reproducible batch workflows.

One binary, six subcommands: generate, solve, ensemble, analyze,
coalition, star-compare. Every option resolves with the precedence
flag > environment variable > config file > built-in default; env
variables mirror flag names with the LIKENET_ prefix (--max-iter ->
LIKENET_MAX_ITER), a LIKENET_ variable that names no option is a usage
error, and a config file's keys are the option names
(max_iterations = 500). DEFAULTS is the one table of the options. main
resolves the options a command reads, and only those, before it reads any
input; a variable or config key of another option is logged as not applied.
All randomness flows from --seed; nothing is ever seeded from the clock.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import re
import signal
import sys
from contextlib import suppress
from dataclasses import asdict, astuple, fields, replace
from itertools import takewhile
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
    check_master_seed,
    check_workers,
    config_to_dict,
    read_records,
    run_to_files,
    write_json,
)
from .graphs import content_lines, generate_ba, generate_star, read_edge_list, write_edge_list
from .stability import check_strategic, classify_strategic

log = logging.getLogger("likenet")

ENV_PREFIX = "LIKENET_"

# an option value that argparse would take for an option: a negative number
# such as -1e-3, -.5 or -inf
NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

# The one table of options. DEFAULTS holds every option's default; its type
# is the type that the flag, the LIKENET_* variable and the config file cast
# the option's value to. The run options' defaults are EnsembleConfig's.
DEFAULTS = {
    **config_to_dict(EnsembleConfig()),
    "workers": 1,
    "measure": "likedness",
    "model": "ba",
    "bins": 50,
    "strategic_fraction": 0.001,
    "strategic_direction": "high",
    "stars": 1000,
    "joint_rates": "0,0.5,1,2,4,8,16",
}

# flag spellings of the options whose flag differs from the option name
FLAGS = {
    "sample_count": "samples",
    "rate_lambda": "lambda",
    "master_seed": "seed",
    "max_iterations": "max_iter",
}

CHOICES = {
    "model": ("ba", "star"),
    "measure": ("likedness", "eigenvector"),
    "strategic_direction": ("low", "high"),
}

HELP = {
    "master_seed": "master RNG seed",
    "measure": "likedness centrality, or the eigenvector-centrality contrast model",
    "tolerance": "solver tolerance",
    "max_iterations": "solver iteration cap",
    "strategic_direction": "which stability tail counts as strategic",
}

SOLVER_KEYS = tuple(f.name for f in fields(SolverOptions))
RUN_KEYS = tuple(f.name for f in fields(EnsembleConfig) if f.name != "solver")


class CliError(Exception):
    pass


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.upper()


def _cast(key: str, raw: str, where: str):
    """raw as the type of key's default, and one of key's CHOICES if it has
    them; a bad value names `where` it came from."""
    cast = type(DEFAULTS[key])
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"{where} must be {cast.__name__}, got {raw!r}") from None
    choices = CHOICES.get(key)
    if choices and value not in choices:
        raise ValueError(f"{where} must be one of {', '.join(choices)}, got {raw!r}")
    return value


def read_config_file(path) -> dict:
    """Parse 'key = value' lines, each key an option name, into typed values."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for where, line in content_lines(fh, path):
            if "=" not in line:
                raise ValueError(f"{where}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in DEFAULTS:
                raise ValueError(f"{where}: unknown config key {key!r}")
            values[key] = _cast(key, raw, f"{where}: {key}")
    return values


def resolve(args: argparse.Namespace, key: str):
    """Option `key` of the command: flag > env > config file > default."""
    flag = FLAGS.get(key, key)
    given = getattr(args, flag)
    if given is not None:
        return given
    env_name = _env_name(flag)
    if env_name in os.environ:
        return _cast(key, os.environ[env_name], env_name)
    return args.config_values.get(key, DEFAULTS[key])


def solver_options(args) -> SolverOptions:
    return SolverOptions(**{key: getattr(args, key) for key in SOLVER_KEYS})


def ensemble_config(args) -> EnsembleConfig:
    """The run options the command takes; the others keep their defaults."""
    taken = {key: getattr(args, key) for key in RUN_KEYS if key in args.options}
    return EnsembleConfig(solver=solver_options(args), **taken)


class OutputGuard:
    """Track written artifacts and the directories made for them; if the
    command fails, drop the partial artifacts, then each of those
    directories that is left empty."""

    def __init__(self):
        self.paths: list[Path] = []
        self.dirs: list[Path] = []

    def track(self, path) -> Path:
        p = Path(path)
        self.paths.append(p)
        return p

    def track_dir(self, path) -> Path:
        """path, a directory the command writes into; it and its missing
        parents, deepest first, are the directories the command makes."""
        p = Path(path)
        self.dirs += takewhile(lambda d: not d.exists(), (p, *p.parents))
        return p

    def discard_partial(self):
        for p in self.paths:
            try:
                if p.is_file():
                    p.unlink()
            except OSError:
                log.warning("could not remove partial output %s", p)
        for d in self.dirs:
            # a directory that was not made, or holds anything, stays
            with suppress(OSError):
                d.rmdir()


def write_csv(path, header, rows) -> None:
    """A header row, then the rows; csv writes each float as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# -- subcommands ------------------------------------------------------------


def cmd_generate(args, guard: OutputGuard) -> None:
    if args.model == "ba":
        check_master_seed(args.master_seed)
        g = generate_ba(args.n, args.k, args.master_seed)
    else:
        g = generate_star(args.n)
    out = guard.track(args.out)
    write_edge_list(g, out)
    log.info("wrote %d-node graph with %d edges to %s", g.n, len(g.edges), out)


def cmd_solve(args, guard: OutputGuard) -> None:
    opts = solver_options(args)
    g = read_edge_list(args.graph)
    rates = read_rates(args.rates)
    solve = likedness_centrality if args.measure == "likedness" else eigenvector_centrality
    cv = solve(g, rates, opts)
    out = guard.track(args.out)
    write_csv(out, ("node", "value", "converged", "iterations"),
              [(node, value, cv.converged, cv.iterations)
               for node, value in enumerate(cv.values.tolist())])
    if not cv.converged:
        log.warning("%s solve did not converge (%d iterations)", args.measure, cv.iterations)
    log.info("wrote %s centralities to %s (converged=%s)", args.measure, out, cv.converged)


def cmd_ensemble(args, guard: OutputGuard) -> None:
    config = ensemble_config(args)
    # checked before an earlier run's files are tracked for removal
    check_workers(args.workers)
    out_dir = guard.track_dir(args.out)
    for name in ("records.jsonl", "summary.json"):
        guard.track(out_dir / name)
    summary = run_to_files(config, out_dir, workers=args.workers)
    log.info(
        "ensemble complete: %d records, %d non-converged",
        summary["count"],
        summary["non_converged"],
    )


def cmd_analyze(args, guard: OutputGuard) -> None:
    fraction, direction = args.strategic_fraction, args.strategic_direction
    # the options are checked before the records are read
    check_strategic(fraction, direction)
    edges = an.percentile_edges(args.bins, args.rate_lambda)
    table = read_records(args.records)
    if not len(table):
        raise CliError(f"no records in {args.records}")
    # counted before --converged-only drops them
    non_converged = len(table) - int(table.solver_converged.sum())
    if args.converged_only:
        table = table.select(table.solver_converged)
        if not len(table):
            raise CliError("no converged records to analyze")
    strategic, threshold = classify_strategic(table.stability, fraction, direction)
    fit = an.logistic_fit(table)
    series = {
        "rate_representation": an.rate_representation(table, strategic, edges),
        "degree_representation": an.degree_representation(table, strategic),
    }
    correlations = {}
    for metric in an.METRIC_FIELDS:
        trend = an.stability_vs_metric(table, metric)
        correlations[metric] = trend.spearman
        series[f"stability_vs_{metric}"] = trend.series
    summary = {
        "record_count": len(table),
        "non_converged": non_converged,
        "strategic_fraction": fraction,
        "strategic_direction": direction,
        "strategic_count": int(strategic.sum()),
        "strategic_threshold": threshold,
        "spearman": correlations,
        "logistic_fit": asdict(fit),
    }
    if 0 < non_converged < len(table) and not args.converged_only:
        converged = table.select(table.solver_converged)
        summary["spearman_converged_only"] = {
            metric: an.stability_vs_metric(converged, metric).spearman
            for metric in an.METRIC_FIELDS
        }

    # every result is computed: a failing analysis leaves no output behind
    out_dir = guard.track_dir(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, binned in series.items():
        write_csv(guard.track(out_dir / f"{name}.csv"), ("bin_low", "bin_high", "value", "count"),
                  binned.rows())
    write_json(summary, guard.track(out_dir / "analysis_summary.json"))
    log.info("analysis written to %s", out_dir)


def _parse_joint_rates(text: str) -> list[float]:
    try:
        rates = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"joint rates must be comma-separated numbers, got {text!r}") from None
    if not rates:
        raise CliError("empty --joint-rates")
    return rates


def cmd_coalition(args, guard: OutputGuard) -> None:
    opts = solver_options(args)
    joint_rates = _parse_joint_rates(args.joint_rates)
    if (args.a is None) != (args.b is None):
        raise CliError("give both --a and --b, or neither")
    g = read_edge_list(args.graph)
    rates = read_rates(args.rates)
    a, b = an.pick_outlying_pair(g) if args.a is None else (args.a, args.b)
    points = an.coalition_sweep(g, rates, a, b, joint_rates, opts)
    unconverged = sum(not p.converged for p in points)
    if unconverged:
        log.warning("%d of %d sweep points did not converge", unconverged, len(points))
    out = guard.track(args.out)
    write_csv(out, [f.name for f in fields(an.CoalitionPoint)], map(astuple, points))
    summary_path = guard.track(Path(str(out) + ".json"))
    write_json(
        {
            "member_a": a,
            "member_b": b,
            "degree_a": int(g.degrees[a]),
            "degree_b": int(g.degrees[b]),
            "points": len(points),
            "all_converged": not unconverged,
        },
        summary_path,
    )
    log.info("coalition sweep for pair (%d, %d) written to %s", a, b, out)


def cmd_star_compare(args, guard: OutputGuard) -> None:
    config = ensemble_config(args)
    fraction, direction = args.strategic_fraction, args.strategic_direction
    # the options are checked before the records are read
    an.check_star_comparison(args.stars, fraction, direction)
    ba_records = read_records(args.records)
    if not len(ba_records):
        raise CliError(f"no records in {args.records}")
    # the stars are of the records' graph size
    config = replace(config, n=ba_records.degree_histogram.shape[1])
    result = an.star_comparison(args.stars, ba_records, config, fraction, direction)
    for warning in result.warnings:
        log.warning("%s", warning)
    write_json({**asdict(result), "strategic_fraction": fraction, "strategic_direction": direction},
               guard.track(args.out))
    log.info(
        "star comparison: advantage %+.4f%%, branch/hub %.3f",
        100 * result.stability_advantage,
        result.branch_hub_ratio,
    )


# -- parser -----------------------------------------------------------------


def _add_command(sub, name: str, func, help: str, *option_keys: str) -> argparse.ArgumentParser:
    """Subcommand `name` running func, with --config and a flag per option key;
    each flag defaults to None, so that resolve() tells an absent flag from a given one."""
    p = sub.add_parser(name, help=help)
    for key in option_keys:
        flag = "--" + FLAGS.get(key, key).replace("_", "-")
        p.add_argument(flag, type=type(DEFAULTS[key]), choices=CHOICES.get(key), default=None,
                       help=f"{HELP.get(key, '')} (default {DEFAULTS[key]})".strip())
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.set_defaults(func=func, options=option_keys)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="likenet",
        description="Likedness centrality and like-rate ensemble stability toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate", cmd_generate, "write a graph edge-list file",
                     "model", "n", "k", "master_seed")
    p.add_argument("--out", required=True)

    p = _add_command(sub, "solve", cmd_solve, "solve centralities for a graph + rate matrix",
                     "measure", *SOLVER_KEYS)
    p.add_argument("--graph", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--out", required=True)

    p = _add_command(sub, "ensemble", cmd_ensemble, "run a Monte-Carlo ensemble to record files",
                     "sample_count", "n", "k", "rate_lambda", "master_seed", "workers",
                     *SOLVER_KEYS)
    p.add_argument("--out", required=True, help="output directory")

    p = _add_command(sub, "analyze", cmd_analyze, "figure-style analyses over a record file",
                     "strategic_fraction", "strategic_direction", "rate_lambda", "bins")
    p.add_argument("--records", required=True, help="records.jsonl path")
    p.add_argument("--converged-only", action="store_true", help="analyze converged records only")
    p.add_argument("--out", required=True, help="output directory")

    p = _add_command(sub, "coalition", cmd_coalition, "joint-rate sweep for a coalition pair",
                     "joint_rates", *SOLVER_KEYS)
    p.add_argument("--graph", required=True)
    p.add_argument("--rates", required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--out", required=True)

    p = _add_command(
        sub, "star-compare", cmd_star_compare, "stars versus hub-bearing BA graphs",
        "rate_lambda", "strategic_fraction", "strategic_direction", "master_seed", "stars",
        *SOLVER_KEYS,
    )
    p.add_argument("--records", required=True, help="a `likenet ensemble` run's records.jsonl")
    p.add_argument("--out", required=True)
    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number that follows a long option written into
    it as --option=value.

    argparse takes a token such as -1e-3 or -inf for an option, not for the
    value of the option before it, and would stop with a usage error before
    the value is checked.
    """
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if option.startswith("--") and "=" not in option and NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    """Run one command and return its exit code; logging and SIGTERM are entry()'s."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(argv))
    options = {_env_name(FLAGS.get(key, key)): key for key in DEFAULTS}
    variables = sorted(name for name in os.environ
                       if name.startswith(ENV_PREFIX) and name != _env_name("config"))
    # a misspelt variable would otherwise leave its option at another value
    for name in variables:
        if name not in options:
            parser.error(f"{name} is not a likenet option")
    # another command's option stays ignored, so that a shared environment
    # or config file keeps working, but the run says so
    for name in variables:
        if options[name] not in args.options:
            log.warning("%s is not applied: %s does not take it", name, args.command)

    guard = OutputGuard()
    try:
        config_path = args.config or os.environ.get(_env_name("config"))
        args.config_values = read_config_file(config_path) if config_path else {}
        for key in args.config_values:
            if key not in args.options:
                log.warning("%s: %s is not applied: %s does not take it",
                            config_path, key, args.command)
        vars(args).update({key: resolve(args, key) for key in args.options})
        args.func(args, guard)
    except (CliError, OSError, ValueError, RuntimeError) as exc:
        guard.discard_partial()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """The likenet process: progress logged to stderr, and SIGTERM unwinding
    like Ctrl-C while the command runs, so that the ensemble's worker
    processes are stopped and their part files removed, and the partial
    records.jsonl stays."""
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s", stream=sys.stderr
    )
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    entry()
