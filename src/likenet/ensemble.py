"""Monte-Carlo sampling of (graph, rates) systems and record persistence.

Each record is fully determined by (master_seed, record_index, config):
per-record seeds come from a counter-based split of the master seed, so
records can be recomputed independently and in parallel without shared
RNG state. Output is JSON-lines (one record per line) plus a CSV
sidecar of the numeric columns.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from multiprocessing import Pool
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .centrality import RateMatrix, SolverOptions
from .graphs import Graph, compute_metrics, generate_ba
from .stability import stability

__all__ = [
    "EnsembleConfig",
    "SystemRecord",
    "sample_rates",
    "compute_record",
    "run_ensemble",
    "write_records",
    "read_records",
    "summarize_records",
    "run_to_files",
    "read_config_file",
    "write_config_file",
    "RECORD_CSV_COLUMNS",
]

log = logging.getLogger("likenet")

RECORD_CSV_COLUMNS = [
    "record_index",
    "stability",
    "gradient_sq_sum",
    "degree_stddev",
    "mean_path_length",
    "mean_local_clustering",
    "solver_converged",
]

STABILITY_QUANTILES = (0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

# seed-stream namespaces, mixed into the spawn key ahead of the counter
MAIN_STREAM = 0
STAR_STREAM = 1


@dataclass(frozen=True)
class EnsembleConfig:
    """Reproducible specification of one Monte-Carlo run.

    Desk-scale default is 10^4 samples; the full-scale 10^6 run is the
    same configuration with a larger sample_count.
    """

    sample_count: int = 10_000
    n: int = 10
    k: int = 2
    rate_lambda: float = 1.0
    master_seed: int = 19
    solver: SolverOptions = field(default_factory=SolverOptions)
    strategic_fraction: float = 0.001

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not self.rate_lambda > 0:
            raise ValueError(f"rate_lambda must be > 0, got {self.rate_lambda}")
        if not 0.0 < self.strategic_fraction < 1.0:
            raise ValueError(
                f"strategic_fraction must be in (0, 1), got {self.strategic_fraction}"
            )


@dataclass(frozen=True)
class SystemRecord:
    """One sampled system: stability plus the graph summary behind it.

    outgoing_rates lists every directed rate as (i, j, rates[i, j]),
    i.e. the rate at which agent j likes agent i, sorted by (i, j).
    """

    record_index: int
    graph_seed: int
    rate_seed: int
    stability: float
    gradient_sq_sum: float
    degree_histogram: tuple[int, ...]
    degree_stddev: float
    mean_path_length: float
    mean_local_clustering: float
    outgoing_rates: tuple[tuple[int, int, float], ...]
    solver_converged: bool

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["degree_histogram"] = list(self.degree_histogram)
        d["outgoing_rates"] = [[i, j, rate] for i, j, rate in self.outgoing_rates]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "SystemRecord":
        return cls(
            record_index=int(d["record_index"]),
            graph_seed=int(d["graph_seed"]),
            rate_seed=int(d["rate_seed"]),
            stability=float(d["stability"]),
            gradient_sq_sum=float(d["gradient_sq_sum"]),
            degree_histogram=tuple(int(x) for x in d["degree_histogram"]),
            degree_stddev=float(d["degree_stddev"]),
            mean_path_length=float(d["mean_path_length"]),
            mean_local_clustering=float(d["mean_local_clustering"]),
            outgoing_rates=tuple(
                (int(i), int(j), float(rate)) for i, j, rate in d["outgoing_rates"]
            ),
            solver_converged=bool(d["solver_converged"]),
        )

    @property
    def max_degree(self) -> int:
        return max(d for d, c in enumerate(self.degree_histogram) if c > 0)

    def rate_values(self) -> list[float]:
        return [rate for _, _, rate in self.outgoing_rates]


def sample_rates(g: Graph, rate_lambda: float, seed) -> RateMatrix:
    """Draw both directed rates of every edge i.i.d. Exp(rate_lambda).

    Entries off the edge set stay exactly zero. Draw order is the
    sorted edge list, entry (i, j) before (j, i), so the result is a
    pure function of (graph, rate_lambda, seed).
    """
    if not rate_lambda > 0:
        raise ValueError(f"rate_lambda must be > 0, got {rate_lambda}")
    rng = np.random.default_rng(seed)
    values = np.zeros((g.n, g.n))
    for i, j in g.edges:
        values[i, j], values[j, i] = rng.exponential(scale=1.0 / rate_lambda, size=2)
    return RateMatrix(n=g.n, values=values)


def record_seeds(master_seed: int, record_index: int, stream: int = MAIN_STREAM) -> tuple[int, int]:
    """Counter-based (graph_seed, rate_seed) split of the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(stream, record_index))
    graph_seed, rate_seed = ss.generate_state(2, dtype=np.uint64)
    return int(graph_seed), int(rate_seed)


def compute_record(config: EnsembleConfig, record_index: int) -> SystemRecord:
    """Build graph and rates from derived seeds, evaluate stability and metrics."""
    graph_seed, rate_seed = record_seeds(config.master_seed, record_index)
    g = generate_ba(config.n, config.k, graph_seed)
    rates = sample_rates(g, config.rate_lambda, rate_seed)
    metrics = compute_metrics(g)
    result = stability(g, rates, config.solver)
    outgoing = tuple(
        sorted(
            ((i, j, float(rates.values[i, j])) for a, b in g.edges for i, j in ((a, b), (b, a)))
        )
    )
    return SystemRecord(
        record_index=record_index,
        graph_seed=graph_seed,
        rate_seed=rate_seed,
        stability=result.stability,
        gradient_sq_sum=result.gradient_sq_sum,
        degree_histogram=metrics.degree_histogram,
        degree_stddev=metrics.degree_stddev,
        mean_path_length=metrics.mean_path_length,
        mean_local_clustering=metrics.mean_local_clustering,
        outgoing_rates=outgoing,
        solver_converged=result.solver_converged,
    )


def _pool_worker(args: tuple[EnsembleConfig, int]) -> SystemRecord:
    config, index = args
    return compute_record(config, index)


def run_ensemble(config: EnsembleConfig, workers: int = 1) -> Iterator[SystemRecord]:
    """Yield sample_count records in record_index order.

    Records are independent, so any worker count produces the same
    multiset; results are always yielded in canonical index order.
    """
    indices = range(config.sample_count)
    next_mark = max(1, config.sample_count // 10)
    if workers <= 1:
        for idx in indices:
            yield compute_record(config, idx)
            if (idx + 1) % next_mark == 0:
                log.info("ensemble progress: %d/%d", idx + 1, config.sample_count)
        return
    chunk = max(1, config.sample_count // (workers * 16))
    with Pool(processes=workers) as pool:
        tasks = ((config, idx) for idx in indices)
        for idx, record in enumerate(pool.imap(_pool_worker, tasks, chunksize=chunk)):
            yield record
            if (idx + 1) % next_mark == 0:
                log.info("ensemble progress: %d/%d", idx + 1, config.sample_count)


def write_records(records: Iterable[SystemRecord], jsonl_path, csv_path=None) -> int:
    """Stream records to JSONL (and optionally the CSV sidecar); returns count."""
    count = 0
    csv_fh = open(csv_path, "w", newline="", encoding="utf-8") if csv_path else None
    try:
        writer = None
        if csv_fh:
            writer = csv.writer(csv_fh)
            writer.writerow(RECORD_CSV_COLUMNS)
        with open(jsonl_path, "w", encoding="utf-8") as jf:
            for record in records:
                jf.write(json.dumps(record.to_json_dict(), separators=(",", ":")) + "\n")
                if writer:
                    writer.writerow([getattr(record, name) for name in RECORD_CSV_COLUMNS])
                count += 1
    finally:
        if csv_fh:
            csv_fh.close()
    return count


def read_records(jsonl_path) -> list[SystemRecord]:
    records = []
    with open(jsonl_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SystemRecord.from_json_dict(json.loads(line)))
    return records


def summarize_records(records: Sequence[SystemRecord]) -> dict:
    stabilities = np.array([r.stability for r in records])
    quantiles = {
        f"q{q}": float(v)
        for q, v in zip(STABILITY_QUANTILES, np.quantile(stabilities, STABILITY_QUANTILES))
    }
    return {
        "count": len(records),
        "non_converged": int(sum(not r.solver_converged for r in records)),
        "stability_min": float(stabilities.min()),
        "stability_max": float(stabilities.max()),
        "stability_mean": float(stabilities.mean()),
        "stability_quantiles": quantiles,
    }


def run_to_files(config: EnsembleConfig, out_dir, workers: int = 1) -> dict:
    """Run the ensemble, writing records.jsonl, records.csv, summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jsonl_path = out / "records.jsonl"
    csv_path = out / "records.csv"
    records = list(run_ensemble(config, workers=workers))
    write_records(records, jsonl_path, csv_path)
    summary = summarize_records(records)
    summary["config"] = config_to_dict(config)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


# -- flat key=value config files ------------------------------------------


def config_to_dict(config: EnsembleConfig) -> dict:
    """Flat field -> value view, the solver's fields following the run's own."""
    values = asdict(config)
    values.update(values.pop("solver"))
    return values


def config_from_dict(values: dict) -> EnsembleConfig:
    """Inverse of config_to_dict; absent keys keep their defaults.

    Each value is cast to the type of its field's default.
    """
    base = config_to_dict(EnsembleConfig())
    unknown = set(values) - set(base)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    typed = {key: type(default)(values.get(key, default)) for key, default in base.items()}
    solver = SolverOptions(**{f.name: typed.pop(f.name) for f in fields(SolverOptions)})
    return EnsembleConfig(solver=solver, **typed)


def read_config_file(path) -> dict:
    """Parse 'key = value' lines into values typed like the config's defaults."""
    defaults = config_to_dict(EnsembleConfig())
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            cast = type(defaults[key])
            try:
                values[key] = cast(raw)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} must be {cast.__name__}, got {raw!r}"
                ) from None
    return values


def write_config_file(config: EnsembleConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in config_to_dict(config).items():
            fh.write(f"{key} = {value}\n")
