"""Monte-Carlo sampling of (graph, rates) systems and record persistence.

Each record is fully determined by (master_seed, record_index, config):
per-record seeds come from a counter-based split of the master seed, so
records can be recomputed independently and in parallel without shared
RNG state. Records are written as JSON lines, one record per line, to
the run's one record file. A block of consecutive records is computed
as arrays, and compute_block writes its lines to the file it is given.
A run on P processes is this process and P - 1 workers: this process
computes blocks 0, P, 2P, ... straight into the record file, and worker
w blocks w, w + P, w + 2P, ... into part files that this process
splices into the record file in record order, so no record text
crosses a worker's result pipe.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import shutil
import signal
import time
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from itertools import islice
from multiprocessing import Pipe, Process
from operator import itemgetter
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .centrality import RateMatrix, SolverOptions
# compute_metrics, generate_ba and stability are unused here:
# perfbench/tracing.py patches them by name, with the other layer calls,
# at this call site
from .graphs import Graph, _attach, _metric_columns, compute_metrics, content_lines, generate_ba
from .seeding import generators, spawned_seeds
from .stability import _gradient_block, _stability_columns, block_records, chunk_records, stability

__all__ = [
    "EnsembleConfig",
    "RecordTable",
    "check_rate_lambda",
    "check_master_seed",
    "check_workers",
    "encode_record",
    "sample_rates",
    "record_seeds",
    "compute_block",
    "compute_record",
    "write_records",
    "read_records",
    "summarize_records",
    "run_to_files",
    "write_json",
    "config_to_dict",
]

log = logging.getLogger("likenet")

STABILITY_QUANTILES = (0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

# seed-stream namespaces, mixed into the spawn key ahead of the counter
MAIN_STREAM = 0
STAR_STREAM = 1


def check_rate_lambda(rate_lambda: float) -> None:
    """Reject an Exp(rate_lambda) rate parameter that is not finite and > 0."""
    if not rate_lambda > 0:
        raise ValueError(f"rate_lambda must be > 0, got {rate_lambda}")
    if not math.isfinite(rate_lambda):
        raise ValueError(f"rate_lambda must be finite, got {rate_lambda}")


def check_master_seed(master_seed: int) -> None:
    """Reject a negative master seed, which no SeedSequence takes."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")


def check_workers(workers: int) -> None:
    """Reject a worker count below one."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Reproducible specification of one Monte-Carlo run: every field,
    the solver's included, changes the run's records.

    Desk-scale default is 10^4 samples; the full-scale 10^6 run is the
    same configuration with a larger sample_count.
    """

    sample_count: int = 10_000
    n: int = 10
    k: int = 2
    rate_lambda: float = 1.0
    master_seed: int = 19
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.k < 1 or self.n < max(2, self.k):
            raise ValueError(f"require n >= max(2, k) and k >= 1, got n={self.n}, k={self.k}")
        check_rate_lambda(self.rate_lambda)
        check_master_seed(self.master_seed)


# a record line's fields, in order. outgoing_rates lists every directed rate
# as [i, j, rates[i, j]], the rate at which agent j likes agent i, sorted by (i, j).
RECORD_FIELDS = (
    "record_index", "graph_seed", "rate_seed", "stability", "gradient_sq_sum",
    "degree_histogram", "degree_stddev", "mean_path_length", "mean_local_clustering",
    "outgoing_rates", "solver_converged",
)
# a record line: each slot holds a field's value as JSON spells it
_LINE = "{" + ",".join(f'"{name}":%s' for name in RECORD_FIELDS) + "}\n"
_FLOAT = float.__repr__  # what json writes for a finite float
_BOOL = ("false", "true")


def _rate_list(heads: list[str], rates: list[float]) -> str:
    """outgoing_rates from each triple's "[i,j," head and its rate."""
    return "[" + "],".join(map(str.__add__, heads, map(_FLOAT, rates))) + "]]" if heads else "[]"


@cache
def _heads(n: int) -> np.ndarray:
    """The "[i,j," head of every outgoing rate triple on n nodes, at i * n + j."""
    return np.array([f"[{i},{j}," for i in range(n) for j in range(n)], dtype=object)


def _lines(index, graph_seed, rate_seed, stability, sq_sum, histogram, stddev, path_length,
           clustering, outgoing, converged, finite) -> Iterator[str]:
    """records.jsonl lines, newlines included, of the columns of RECORD_FIELDS'
    values, formatted one record at a time.

    Each line is what json.JSONEncoder(separators=(",", ":")) writes for
    ints, floats, lists of them and bools: floats as float.__repr__, which
    json calls, then NaN, Infinity and -Infinity in a line where finite is
    false. outgoing holds each record's ("[i,j," heads, rates) lists.
    """
    columns = zip(index, graph_seed, rate_seed, map(_FLOAT, stability), map(_FLOAT, sq_sum),
                  ("[" + ",".join(map(str, row)) + "]" for row in histogram), map(_FLOAT, stddev),
                  map(_FLOAT, path_length), map(_FLOAT, clustering),
                  (_rate_list(heads, rates) for heads, rates in outgoing),
                  map(_BOOL.__getitem__, converged))
    for line, plain in zip(map(_LINE.__mod__, columns), finite):
        # float reprs are the only non-finite spellings a line can hold:
        # no field name holds "nan" or "inf"
        yield line if plain else line.replace("nan", "NaN").replace("inf", "Infinity")


def encode_record(values: Sequence) -> str:
    """One records.jsonl line, without its newline: the values of
    RECORD_FIELDS, in that order, as a compact JSON object. It is _lines'
    line for a block of one."""
    *scalars, outgoing, converged = values
    heads = [f"[{i},{j}," for i, j, _ in outgoing]
    rates = [rate for _, _, rate in outgoing]
    floats = [value for value in scalars if isinstance(value, float)] + rates
    line, = _lines(*([value] for value in scalars), [(heads, rates)], [converged],
                   [all(map(math.isfinite, floats))])
    return line[:-1]


def sample_rates(g: Graph, rate_lambda: float, seed) -> RateMatrix:
    """Draw both directed rates of every edge i.i.d. Exp(rate_lambda).

    Entries off the edge set stay exactly zero. Draw order is the
    sorted edge list, entry (i, j) before (j, i), so the result is a
    pure function of (graph, rate_lambda, seed). They are _systems' rates
    for a stack of one graph.
    """
    check_rate_lambda(rate_lambda)
    edges = np.array(g.edges, dtype=np.intp).reshape(1, -1, 2)
    _, rates, _ = _systems(g.n, edges, rate_lambda, [seed])
    return RateMatrix(n=g.n, values=rates[0])


def record_seeds(master_seed: int, record_index: int, stream: int = MAIN_STREAM) -> tuple[int, int]:
    """Counter-based (graph_seed, rate_seed) split of the master seed: the
    two words of SeedSequence(entropy=master_seed, spawn_key=(stream,
    record_index)).generate_state(2, np.uint64). spawned_seeds computes
    them for a block of records; this is its block of one."""
    graph_seeds, rate_seeds = spawned_seeds(master_seed, stream, [record_index])
    return int(graph_seeds[0]), int(rate_seeds[0])


def _systems(
    n: int, edges: np.ndarray, rate_lambda: float, rate_seeds: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(B, n, n) adjacency and rate stacks of B graphs on n nodes, given as
    (B, E, 2) edge arrays of (i, j), i < j, in any order; graph b's rates
    are drawn i.i.d. Exp(rate_lambda) from rate_seeds[b], a row of two,
    (i, j) then (j, i), per edge of its sorted edge list. Rate seeds are
    non-negative ints, or a uint64 array, as seeding.generators takes them.

    Also returns every graph's ordered adjacent pairs, sorted, as a
    (B, 2E, 2) array: the perturbed entries (j, i) of its stability, and
    the (i, j) of its outgoing rates.
    """
    count, edge_count, _ = edges.shape
    own = np.arange(count)[:, None]
    adj = np.zeros((count, n, n))
    adj[own, edges[..., 0], edges[..., 1]] = 1.0
    adj[own, edges[..., 1], edges[..., 0]] = 1.0
    # Generator.exponential(scale) draws scale * standard_exponential()
    draws = np.empty((count, edge_count, 2))
    for row, rng in zip(draws, generators(rate_seeds)):
        rng.standard_exponential(out=row)
    draws *= 1.0 / rate_lambda
    # the upper triangle's nonzeros in row-major order are each graph's
    # sorted edges (i, j), i < j: the draw order
    rows, upper, lower = np.nonzero(np.triu(adj))
    rates = np.zeros_like(adj)
    rates[rows, upper, lower] = draws[..., 0].ravel()
    rates[rows, lower, upper] = draws[..., 1].ravel()
    pairs = np.stack(np.nonzero(adj)[1:], axis=1).reshape(count, -1, 2)
    return adj, rates, pairs


def _block_systems(
    config: EnsembleConfig, stream: int, grow, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Systems start..stop-1 of the config's seed stream: their graph and
    rate seeds, as uint64 columns, then _systems of the graphs that
    grow(n, k, graph_seeds) returns as a (B, E, 2) edge array, as
    graphs._attach does."""
    graph_seeds, rate_seeds = spawned_seeds(config.master_seed, stream, range(start, stop))
    edges = grow(config.n, config.k, graph_seeds)
    return graph_seeds, rate_seeds, *_systems(config.n, edges, config.rate_lambda, rate_seeds)


def compute_block(
    config: EnsembleConfig, start: int, stop: int, out: BinaryIO
) -> tuple[list[float], int]:
    """Records start..stop-1, computed as arrays for the whole block, their
    records.jsonl lines written to the binary file out. Returns the block's
    stability column and how many of its records did not converge.

    Each record's graph and rates come from its own derived seeds; the
    metrics and the stability of the block's records are computed at
    once. A record does not depend on the block it is computed in.
    """
    graph_seeds, rate_seeds, adj, rates, pairs = _block_systems(
        config, MAIN_STREAM, _attach, start, stop)
    count, n, _ = adj.shape
    grads, converged, _ = _gradient_block(adj, rates, pairs, config.solver, "forward")
    stabilities, sq_sums = _stability_columns(grads)
    histograms, stddevs, path_lengths, clusterings, _ = _metric_columns(adj)
    outgoing = rates[np.arange(count)[:, None], pairs[..., 0], pairs[..., 1]]
    finite = np.isfinite(np.column_stack(
        [stabilities, sq_sums, stddevs, path_lengths, clusterings, outgoing]
    )).all(axis=1)
    # one record's rates at a time: as lists for the whole block they would
    # be the largest thing a worker holds
    triples = ((heads.tolist(), values.tolist())
               for heads, values in zip(_heads(n)[pairs[..., 0] * n + pairs[..., 1]], outgoing))
    out.write("".join(_lines(range(start, stop), graph_seeds.tolist(), rate_seeds.tolist(),
                             stabilities, sq_sums, histograms.tolist(), stddevs.tolist(),
                             path_lengths.tolist(), clusterings.tolist(), triples,
                             converged.tolist(), finite.tolist())).encode())
    return stabilities, count - int(converged.sum())


def compute_record(config: EnsembleConfig, record_index: int) -> dict:
    """One record's records.jsonl line, decoded: compute_block with a block of one."""
    line = io.BytesIO()
    compute_block(config, record_index, record_index + 1, line)
    return json.loads(line.getvalue())


def _block_worker(config: EnsembleConfig, spans: list[tuple[int, int]], paths: list[str],
                  receive, results) -> None:
    """compute_block over spans in a worker process, each block's lines
    written to its part file in paths. Sends each block's result, or the
    exception that stops the worker, in order, over results, the send end
    of a one-way Pipe.

    receive is the parent's end of that pipe. A forked worker inherits it
    and closes it, so that once the parent is gone, even SIGKILLed, the
    pipe breaks and the worker stops at its next send.
    """
    # the parent stops a worker with SIGTERM, which a forked worker would
    # otherwise meet with the CLI's Python handler
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    receive.close()
    with results:
        for (start, stop), path in zip(spans, paths):
            try:
                with open(path, "wb") as out:
                    result = compute_block(config, start, stop, out)
            except Exception as exc:
                results.send(exc)
                return
            results.send(result)


def _splice(path: str, records: BinaryIO) -> None:
    """Append the file at path to records and delete it."""
    with open(path, "rb") as part:
        shutil.copyfileobj(part, records)
    os.unlink(path)


def _pooled_blocks(config: EnsembleConfig, spans: list[tuple[int, int]], processes: int,
                   records: BinaryIO) -> Iterator[tuple[list[float], int]]:
    """compute_block over spans on P = processes processes: this one, which
    computes blocks 0, P, 2P, ... straight into records as each comes due,
    and P - 1 worker processes, worker w taking blocks w, w + P, w + 2P,
    ... into part files that are appended to records in turn, then deleted.
    With P = 1 this process computes every block, and no worker or part
    file is made.

    A worker's exception is raised here, and a worker that dies fails the
    run with a RuntimeError. The part files live in a temporary directory
    next to records; it goes, with any part left in it, once the workers
    have stopped, whether the run ends or fails.
    """
    folder = (TemporaryDirectory(prefix="parts-", dir=Path(records.name).parent)
              if processes > 1 else nullcontext())
    with folder as parts:
        paths = [os.path.join(parts, f"{start}.part") if index % processes else None
                 for index, (start, _) in enumerate(spans)]
        workers, pipes = [], []
        try:
            for w in range(1, processes):
                receive, send = Pipe(duplex=False)
                pipes.append(receive)
                worker = Process(target=_block_worker, daemon=True, args=(
                    config, spans[w::processes], paths[w::processes], receive, send))
                worker.start()
                workers.append(worker)
                # only the worker holds its send end, so that the pipe reads
                # as EOF once the worker is gone; a later fork inherits none
                send.close()
            for index, ((start, stop), path) in enumerate(zip(spans, paths)):
                w = index % processes
                if not w:
                    yield compute_block(config, start, stop, records)
                    continue
                # the worker that owes this block has no other result unread
                try:
                    result = pipes[w - 1].recv()
                except EOFError:
                    workers[w - 1].join()
                    raise RuntimeError(
                        f"ensemble worker {w} exited with code {workers[w - 1].exitcode} "
                        f"before its block of records {start}..{stop - 1} was done") from None
                if isinstance(result, Exception):
                    raise result
                _splice(path, records)
                yield result
        except BaseException:
            for worker in workers:
                worker.terminate()
            raise
        finally:
            for worker in workers:
                worker.join()
            for receive in pipes:
                receive.close()


def write_records(records: Iterable[dict], jsonl_path) -> int:
    """Stream record dicts to a JSONL file, one encode_record line each; returns the count."""
    count = 0
    with open(jsonl_path, "w", encoding="utf-8") as jf:
        for record in records:
            jf.write(encode_record([record[name] for name in RECORD_FIELDS]) + "\n")
            count += 1
    return count


@dataclass(frozen=True)
class RecordTable:
    """The analysed fields of a record set: one NumPy column each, row r for record r.

    `rates` holds every record's outgoing rate values back to back,
    rate_counts[r] of them for record r.
    """

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


# the scalar RecordTable columns that read_records fills from the line field
# of the same name, each with its array type, which is NumPy's dtype code too
SCALAR_COLUMNS = {"stability": "d", "degree_stddev": "d", "mean_path_length": "d",
                  "mean_local_clustering": "d", "solver_converged": "b"}


# read_records' decoder. json.loads(s) is raw_decode(s) after a BOM check
# and JSON whitespace, and refuses text after the value; a content line is
# stripped, so a value that ends at len(line) is what json.loads returns.
# A line that fails goes to json.loads for its error message
_decode = json.JSONDecoder().raw_decode


def read_records(jsonl_path) -> RecordTable:
    """Stream a records.jsonl file into a RecordTable, one line at a time.

    Values go straight into typed arrays: 8 bytes a number, not a Python
    object. Errors name the file and line: bad JSON, a missing or
    mistyped field, a degree histogram unlike the first record's in
    length, or with a negative count or counts that do not sum to its
    length (the node count), outgoing rates other than the degree sum
    of its histogram in number, a negative or non-finite outgoing rate.
    """
    columns = {name: array(code) for name, code in SCALAR_COLUMNS.items()}
    histograms, rate_counts, rates = array("q"), array("q"), array("d")
    width = 0
    with open(jsonl_path, encoding="utf-8") as fh:
        for where, line in content_lines(fh, jsonl_path):
            try:
                d, end = _decode(line)
            except (ValueError, RecursionError):
                end = -1
            if end != len(line):
                try:
                    d = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    # RecursionError: nesting past the scanner's depth limit
                    raise ValueError(f"{where}: {exc}") from None
            if not isinstance(d, dict):
                raise ValueError(f"{where}: expected a JSON object, got {type(d).__name__}")
            try:
                for name, column in columns.items():
                    column.append(d[name])
                name = "degree_histogram"
                histogram = d[name]
                if not isinstance(histogram, list):
                    raise TypeError(f"expected a list, got {type(histogram).__name__}")
                if not rate_counts:
                    width = len(histogram)
                if len(histogram) != width:
                    raise ValueError(f"{where}: degree_histogram has {len(histogram)} "
                                     f"entries, the first record's has {width}")
                histograms.extend(histogram)
                name = "outgoing_rates"
                outgoing = d[name]
                rates.extend(map(itemgetter(2), outgoing))
                rate_counts.append(len(outgoing))
            except KeyError:
                raise ValueError(f"{where}: missing field {name!r}") from None
            except (TypeError, IndexError, OverflowError) as exc:
                raise ValueError(f"{where}: field {name!r} has the wrong type ({exc})") from None
    rate_counts, rates = np.frombuffer(rate_counts, np.int64), np.frombuffer(rates, np.float64)
    histograms = np.frombuffer(histograms, np.int64).reshape(len(rate_counts), width)
    # a record's histogram counts its nodes, one per node; the degree
    # representation divides by the population's counts
    counted = (histograms >= 0).all(axis=1) & (histograms.sum(axis=1) == width)
    if not counted.all():
        first = int(np.argmin(counted))
        raise ValueError(f"{_line_of(jsonl_path, first)}: degree_histogram counts must be >= 0 "
                         f"and sum to its {width} entries, got {histograms[first].tolist()}")
    # a graph with histogram h has sum_d d * h_d outgoing rates, two an edge
    implied = histograms @ np.arange(width)
    matched = rate_counts == implied
    if not matched.all():
        first = int(np.argmin(matched))
        raise ValueError(f"{_line_of(jsonl_path, first)}: outgoing_rates has {rate_counts[first]} "
                         f"rates, its degree_histogram implies {implied[first]}")
    # np.histogram would drop a negative or NaN rate from the analyses' counts
    valid = (rates >= 0.0) & (rates < math.inf)
    if not valid.all():
        first = int(np.argmin(valid))
        position = int(np.searchsorted(np.cumsum(rate_counts), first, side="right"))
        raise ValueError(f"{_line_of(jsonl_path, position)}: outgoing rate {rates[first]} "
                         "is not finite and >= 0")
    scalars = {name: np.frombuffer(column, column.typecode) for name, column in columns.items()}
    scalars["solver_converged"] = scalars["solver_converged"] != 0
    return RecordTable(**scalars, degree_histogram=histograms, rate_counts=rate_counts, rates=rates)


def _line_of(jsonl_path, position: int) -> str:
    """The path:line of the record at position in a records file: read
    again, on an error only."""
    with open(jsonl_path, encoding="utf-8") as fh:
        where, _ = next(islice(content_lines(fh, jsonl_path), position, None))
    return where


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
    """Run the ensemble, writing records.jsonl and summary.json.

    The run is laid out in consecutive blocks of block_records(n)
    records, or count / workers records if that is fewer, but no fewer
    than a solver chunk nor more than the run. It runs on P = min(workers,
    blocks) processes, this one included: this process computes blocks 0,
    P, 2P, ... and worker w of the other P - 1 blocks w, w + P, w + 2P,
    ... (_pooled_blocks); with one block or one worker, this process
    computes them all; a record depends on neither. Each block's lines
    reach records.jsonl, in record_index order, as the block is done; only
    its stability column and non-converged count are kept for the summary.
    The layout and the process count are logged at the start; progress,
    throughput and the time left every tenth of the run.
    """
    check_workers(workers)
    count = config.sample_count
    # every BA graph of the run has k(k-1)/2 + k(n-k) edges, two systems each
    edges = config.k * (config.k - 1) // 2 + config.k * (config.n - config.k)
    chunk = chunk_records(2 * edges, config.n)
    # a small run is split evenly over the workers rather than into full
    # blocks, but a process gets at least a chunk: below that, one more
    # process costs more than it saves
    size = min(block_records(config.n), max(chunk, math.ceil(count / workers)), count)
    spans = [(start, min(start + size, count)) for start in range(0, count, size)]
    # no more processes than blocks; a single one is this process
    processes = min(workers, len(spans))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stabilities = array("d")
    non_converged = 0
    step = max(1, count // 10)
    # the run's records.jsonl replaces an earlier run's from its first line;
    # that run's summary goes first, so that a stopped run leaves none
    (out / "summary.json").unlink(missing_ok=True)
    with open(out / "records.jsonl", "wb") as records:
        log.info("ensemble blocks: %d records each, solved in chunks of %d, on %d process(es)",
                 size, chunk, processes)
        began = time.perf_counter()
        for stability, failed in _pooled_blocks(config, spans, processes, records):
            mark = len(stabilities) // step
            stabilities.extend(stability)
            non_converged += failed
            done = len(stabilities)
            if done // step > mark or done == count:
                rate = done / max(time.perf_counter() - began, 1e-9)
                log.info("ensemble progress: %d/%d, %.0f records/s, about %.0f s left",
                         done, count, rate, (count - done) / rate)
    summary = summarize_records(stabilities, non_converged)
    summary["config"] = config_to_dict(config)
    write_json(summary, out / "summary.json")
    return summary


def write_json(payload: dict, path) -> None:
    """Write payload as JSON indented by 2, keys sorted, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_to_dict(config: EnsembleConfig) -> dict:
    """Flat field -> value view, the solver's fields following the run's own."""
    values = asdict(config)
    values.update(values.pop("solver"))
    return values
