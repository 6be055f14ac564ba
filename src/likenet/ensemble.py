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
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from multiprocessing import Pool
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .centrality import RateMatrix, SolverOptions
from .graphs import Graph, compute_metrics, generate_ba
from .stability import _directed_entries, stability

__all__ = [
    "EnsembleConfig",
    "SystemRecord",
    "RecordTable",
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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["degree_histogram"] = list(self.degree_histogram)
        d["outgoing_rates"] = [list(triple) for triple in self.outgoing_rates]
        return d


def sample_rates(g: Graph, rate_lambda: float, seed) -> RateMatrix:
    """Draw both directed rates of every edge i.i.d. Exp(rate_lambda).

    Entries off the edge set stay exactly zero. Draw order is the
    sorted edge list, entry (i, j) before (j, i), so the result is a
    pure function of (graph, rate_lambda, seed).
    """
    if not rate_lambda > 0:
        raise ValueError(f"rate_lambda must be > 0, got {rate_lambda}")
    rng = np.random.default_rng(seed)
    draws = rng.exponential(scale=1.0 / rate_lambda, size=(len(g.edges), 2))
    i, j = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    values = np.zeros((g.n, g.n))
    values[i, j] = draws[:, 0]
    values[j, i] = draws[:, 1]
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
    outgoing = tuple((i, j, float(rates.values[i, j])) for i, j in _directed_entries(g))
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
    with Pool(processes=workers) if workers > 1 else nullcontext() as pool:
        if pool is None:
            records = (compute_record(config, idx) for idx in indices)
        else:
            chunk = max(1, config.sample_count // (workers * 16))
            tasks = ((config, idx) for idx in indices)
            records = pool.imap(_pool_worker, tasks, chunksize=chunk)
        for done, record in enumerate(records, start=1):
            yield record
            if done % next_mark == 0:
                log.info("ensemble progress: %d/%d", done, config.sample_count)


def write_records(records: Iterable[SystemRecord], jsonl_path, csv_path) -> int:
    """Stream records to JSONL and the CSV sidecar; returns the count."""
    count = 0
    with open(csv_path, "w", newline="", encoding="utf-8") as csv_fh, open(
        jsonl_path, "w", encoding="utf-8"
    ) as jf:
        writer = csv.writer(csv_fh)
        writer.writerow(RECORD_CSV_COLUMNS)
        for record in records:
            jf.write(json.dumps(record.to_json_dict(), separators=(",", ":")) + "\n")
            writer.writerow([getattr(record, name) for name in RECORD_CSV_COLUMNS])
            count += 1
    return count


@dataclass(frozen=True)
class RecordTable:
    """The analysed fields of a record set: one NumPy column each, row r for record r.

    `rates` holds every record's outgoing rate values back to back,
    rate_counts[r] of them for record r.
    """

    record_index: np.ndarray
    stability: np.ndarray
    degree_stddev: np.ndarray
    mean_path_length: np.ndarray
    mean_local_clustering: np.ndarray
    solver_converged: np.ndarray
    degree_histogram: np.ndarray
    rate_counts: np.ndarray
    rates: np.ndarray

    def __len__(self) -> int:
        return len(self.stability)

    def rates_of(self, mask: np.ndarray) -> np.ndarray:
        """The rates of the records where mask is true."""
        return self.rates[np.repeat(mask, self.rate_counts)]

    def select(self, mask: np.ndarray) -> RecordTable:
        """The records where mask is true, in order."""
        rows = {f.name: getattr(self, f.name)[mask] for f in fields(self) if f.name != "rates"}
        return RecordTable(**rows, rates=self.rates_of(mask))

    @classmethod
    def from_records(cls, records: Iterable[SystemRecord]) -> RecordTable:
        """Tabulate in-memory records through their JSON form, as read_records does."""
        return _tabulate((f"record {r.record_index}", r.to_json_dict()) for r in records)


# array typecodes of the per-record scalar columns
_SCALARS = {"record_index": "q", "stability": "d", "degree_stddev": "d", "mean_path_length": "d",
            "mean_local_clustering": "d", "solver_converged": "b"}


def _tabulate(items: Iterable[tuple[str, dict]]) -> RecordTable:
    """A RecordTable from (location, record dict) pairs; errors name the location.

    Values go straight into typed arrays: 8 bytes a number, not a Python object.
    """
    columns = {name: array(code) for name, code in _SCALARS.items()}
    histograms, rate_counts, rates = array("q"), array("q"), array("d")
    width = 0
    for where, d in items:
        try:
            for name, column in columns.items():
                column.append(d[name])
            name = "degree_histogram"
            if not rate_counts:
                width = len(d[name])
            if len(d[name]) != width:
                raise ValueError(f"{where}: degree_histogram has {len(d[name])} entries, "
                                 f"the first record's has {width}")
            histograms.extend(d[name])
            name = "outgoing_rates"
            rates.extend(map(itemgetter(2), d[name]))
            rate_counts.append(len(d[name]))
        except KeyError:
            raise ValueError(f"{where}: missing field {name!r}") from None
        except (TypeError, IndexError, OverflowError) as exc:
            raise ValueError(f"{where}: field {name!r} has the wrong type ({exc})") from None
    table = {name: np.frombuffer(col, dtype=col.typecode) for name, col in columns.items()}
    table["solver_converged"] = table["solver_converged"] != 0
    return RecordTable(
        **table,
        degree_histogram=np.frombuffer(histograms, np.int64).reshape(len(rate_counts), width),
        rate_counts=np.frombuffer(rate_counts, np.int64),
        rates=np.frombuffer(rates, np.float64),
    )


def read_records(jsonl_path) -> RecordTable:
    """Stream a records.jsonl file into a RecordTable, one line at a time.

    Errors name the file and line: bad JSON, a missing or mistyped
    field, a degree histogram unlike the first record's in length.
    """

    def parsed() -> Iterator[tuple[str, dict]]:
        with open(jsonl_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.isspace():
                    continue
                where = f"{jsonl_path}:{lineno}"
                try:
                    d = json.loads(line)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not isinstance(d, dict):
                    raise ValueError(f"{where}: expected a JSON object, got {type(d).__name__}")
                yield where, d

    return _tabulate(parsed())


def summarize_records(stabilities: Sequence[float], non_converged: int) -> dict:
    """The run summary from the records' stability column and non-converged count."""
    stabilities = np.asarray(stabilities, dtype=float)
    quantiles = {
        f"q{q}": float(v)
        for q, v in zip(STABILITY_QUANTILES, np.quantile(stabilities, STABILITY_QUANTILES))
    }
    return {
        "count": len(stabilities),
        "non_converged": int(non_converged),
        "stability_min": float(stabilities.min()),
        "stability_max": float(stabilities.max()),
        "stability_mean": float(stabilities.mean()),
        "stability_quantiles": quantiles,
    }


def run_to_files(config: EnsembleConfig, out_dir, workers: int = 1) -> dict:
    """Run the ensemble, writing records.jsonl, records.csv, summary.json.

    Each record is written as it arrives; only its stability and
    convergence flag are kept for the summary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stabilities = array("d")
    non_converged = 0

    def tallied(records: Iterable[SystemRecord]) -> Iterator[SystemRecord]:
        nonlocal non_converged
        for record in records:
            stabilities.append(record.stability)
            non_converged += not record.solver_converged
            yield record

    write_records(
        tallied(run_ensemble(config, workers=workers)), out / "records.jsonl", out / "records.csv"
    )
    summary = summarize_records(stabilities, non_converged)
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
