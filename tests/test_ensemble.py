import io
import json
import logging
import math
import multiprocessing
import os
import pickle
import re
import signal
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from likenet import ensemble
from likenet.centrality import RateMatrix, SolverOptions
from likenet.cli import main, read_config_file
from likenet.ensemble import (
    RECORD_FIELDS,
    EnsembleConfig,
    compute_block,
    compute_record,
    config_to_dict,
    encode_record,
    read_records,
    run_to_files,
    sample_rates,
    summarize_records,
    write_records,
)
from likenet.graphs import Graph, _attach, compute_metrics, generate_ba, generate_star
import likenet.stability as stability_module
from likenet.stability import StabilityResult, block_records, chunk_records

from conftest import DESK_SEED


def assert_table_matches(table, records):
    """Every column of the table holds the record dicts' values, in order."""
    assert len(table) == len(records)
    for name in ("stability", "degree_stddev", "mean_path_length", "mean_local_clustering",
                 "solver_converged"):
        assert getattr(table, name).tolist() == [r[name] for r in records]
    assert table.degree_histogram.tolist() == [r["degree_histogram"] for r in records]
    assert table.rate_counts.tolist() == [len(r["outgoing_rates"]) for r in records]
    assert table.rates.tolist() == [rate for r in records for _, _, rate in r["outgoing_rates"]]


def decoded(jsonl):
    """The records of a records.jsonl file, each line decoded."""
    with open(jsonl, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def decoded_run(cfg, out, workers=1):
    """The records run_to_files writes for cfg into out, each line decoded."""
    run_to_files(cfg, out, workers=workers)
    return decoded(out / "records.jsonl")


# records in a default desk block, and in a chunk of its perturbed solves
DESK_BLOCK = ensemble.block_records(10)
DESK_CHUNK = chunk_records(34, 10)


def assert_files_independent(cfg, tmp_path, monkeypatch, layouts, workers):
    """Check that cfg's records.jsonl and summary.json are the same bytes
    under every budget of layouts, which maps a stability.BLOCK_VALUES to the
    (records per block, records per solver chunk) it gives, with each worker
    count, and that a run leaves no other file."""
    n, k = cfg.n, cfg.k
    systems = 2 * (k * (k - 1) // 2 + k * (n - k))
    runs = []
    for budget, layout in layouts.items():
        # a block holds n x n values a record, a chunk `systems` systems of n
        monkeypatch.setattr(stability_module, "BLOCK_VALUES", budget)
        assert (block_records(n), chunk_records(systems, n)) == layout
        for count in workers:
            out = tmp_path / f"budget{budget}-workers{count}"
            run_to_files(cfg, out, workers=count)
            assert sorted(path.name for path in out.iterdir()) == ["records.jsonl", "summary.json"]
            runs.append([(out / n).read_bytes() for n in ("records.jsonl", "summary.json")])
    assert all(run == runs[0] for run in runs[1:])


@pytest.fixture
def in_process_pool(monkeypatch):
    """The ensemble's worker processes replaced by ones that run their
    blocks in this process when started: returns each run's count of
    workers and each block's result as this process read it from a
    worker's pipe, pickled."""
    started, results, directories = [], [], []

    class InProcessWorker:
        def __init__(self, target, args, **options):
            self.target, self.args = target, args
            _, _, paths, _, _ = args
            # a run's workers write into its own part directory
            directory = os.path.dirname(paths[0])
            if directories[-1:] != [directory]:
                directories.append(directory)
                started.append(0)
            started[-1] += 1

        def start(self):
            # every result waits in the pipe, whose buffer holds these
            # tests' few small ones. The worker closes the receive end it
            # is given, here the parent's own, so it gets a stand-in; it
            # resets SIGTERM, which is this process's here
            config, spans, paths, _, send = self.args
            stand_in, _ = multiprocessing.Pipe(duplex=False)
            handler = signal.getsignal(signal.SIGTERM)
            try:
                self.target(config, spans, paths, stand_in, send)
            finally:
                signal.signal(signal.SIGTERM, handler)

        def terminate(self):
            pass

        def join(self):
            pass

    class RecordingEnd:
        def __init__(self, end):
            self.end = end

        def recv(self):
            results.append(self.end.recv_bytes())
            return pickle.loads(results[-1])

        def close(self):
            self.end.close()

    def recording_pipe(duplex):
        receive, send = multiprocessing.Pipe(duplex)
        return RecordingEnd(receive), send

    monkeypatch.setattr(ensemble, "Process", InProcessWorker)
    monkeypatch.setattr(ensemble, "Pipe", recording_pipe)
    return started, results


class TestSampleRates:
    def test_exponential_statistics(self):
        g = generate_star(10)
        draws = []
        for seed in range(400):
            rates = sample_rates(g, 1.0, seed)
            draws.extend(rates.values[i, j] for i, j in np.argwhere(rates.values > 0))
        draws = np.array(draws)
        n = len(draws)
        assert n == 400 * 18
        # Exp(1): mean 1, stddev 1; P(X < 1) = 1 - 1/e
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(n)
        below = (draws < 1.0).mean()
        p = 1 - math.exp(-1)
        assert abs(below - p) < 3.0 * math.sqrt(p * (1 - p) / n)

    def test_off_edge_entries_exactly_zero(self):
        g = generate_star(10)
        rates = sample_rates(g, 1.0, 7)
        off = rates.values * (1.0 - g.adjacency)
        assert not off.any()
        assert not np.diag(rates.values).any()
        # both directions of every edge drawn
        assert all(rates.values[i, j] > 0 and rates.values[j, i] > 0 for i, j in g.edges)

    def test_deterministic(self):
        g = generate_ba(10, 2, 1)
        assert (sample_rates(g, 1.0, 9).values == sample_rates(g, 1.0, 9).values).all()
        assert (sample_rates(g, 1.0, 9).values != sample_rates(g, 1.0, 10).values).any()

    def test_lambda_validation(self):
        g = generate_star(3)
        for rate_lambda in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="rate_lambda must be"):
                sample_rates(g, rate_lambda, 1)


class TestRecords:
    def test_record_determinism(self):
        cfg = EnsembleConfig(sample_count=1, master_seed=5)
        assert compute_record(cfg, 3) == compute_record(cfg, 3)

    def test_metrics_match_recomputation_from_seed(self):
        cfg = EnsembleConfig(sample_count=1, master_seed=11)
        rec = compute_record(cfg, 0)
        g = generate_ba(cfg.n, cfg.k, rec["graph_seed"])
        met = compute_metrics(g)
        assert rec["degree_histogram"] == list(met.degree_histogram)
        assert rec["degree_stddev"] == met.degree_stddev
        assert rec["mean_path_length"] == met.mean_path_length
        assert rec["mean_local_clustering"] == met.mean_local_clustering

    def test_json_roundtrip_and_field_names(self, tmp_path):
        rec = compute_record(EnsembleConfig(sample_count=1, master_seed=2), 0)
        assert tuple(rec) == RECORD_FIELDS
        assert set(rec) == {
            "record_index",
            "graph_seed",
            "rate_seed",
            "stability",
            "gradient_sq_sum",
            "degree_histogram",
            "degree_stddev",
            "mean_path_length",
            "mean_local_clustering",
            "outgoing_rates",
            "solver_converged",
        }
        assert json.loads(encode_record([rec[name] for name in RECORD_FIELDS])) == rec
        write_records([rec], tmp_path / "records.jsonl")
        assert_table_matches(read_records(tmp_path / "records.jsonl"), [rec])

    def test_no_field_name_holds_a_non_finite_spelling(self):
        # a line with a non-finite value re-spells every "nan" and "inf" in it,
        # field names included
        assert [name for name in RECORD_FIELDS if "nan" in name or "inf" in name] == []

    def test_outgoing_rates_cover_both_directions(self):
        rec = compute_record(EnsembleConfig(sample_count=1, master_seed=2), 0)
        g = generate_ba(10, 2, rec["graph_seed"])
        assert len(rec["outgoing_rates"]) == 2 * len(g.edges)
        rates = sample_rates(g, 1.0, rec["rate_seed"])
        for i, j, rate in rec["outgoing_rates"]:
            assert rates.values[i, j] == rate

    def test_stability_in_unit_interval(self):
        for idx in range(5):
            rec = compute_record(EnsembleConfig(sample_count=1, master_seed=3), idx)
            assert 0.0 < rec["stability"] <= 1.0


class TestRunEnsemble:
    @pytest.mark.parametrize(
        "samples, workers, started",
        [(10, 8, []), (32, 2, [1]), (33, 8, [1]), (70, 1, []), (70, 2, [1]), (200, 8, [7]),
         (1, 8, []), (130, 2, [1])],
    )
    def test_pool_has_no_more_processes_than_blocks(
        self, tmp_path, monkeypatch, in_process_pool, samples, workers, started
    ):
        # the test's budget sets 64-record desk blocks, or samples / workers
        # records if that is fewer, but no fewer than an 18-record chunk nor
        # more than the run; a run on P processes starts P - 1 workers
        monkeypatch.setattr(stability_module, "BLOCK_VALUES", 64 * 10 * 10)
        assert (block_records(10), chunk_records(34, 10)) == (64, 18)
        records = decoded_run(EnsembleConfig(sample_count=samples), tmp_path, workers=workers)
        assert [r["record_index"] for r in records] == list(range(samples))
        pools, _ = in_process_pool
        assert pools == started

    def test_pool_results_carry_no_record_text(self, tmp_path, in_process_pool):
        # four default desk blocks on two processes, the worker's blocks 1
        # and 3, the last partial; a full block's lines are about 311 KB,
        # its stability column 9 bytes a record pickled
        cfg = EnsembleConfig(sample_count=3 * DESK_BLOCK + 6, master_seed=8)
        run_to_files(cfg, tmp_path, workers=2)
        started, results = in_process_pool
        assert started == [1]
        sizes = [(len(pickle.loads(result)[0]), len(result)) for result in results]
        assert [records for records, _ in sizes] == [DESK_BLOCK, 6]
        assert all(size < 16 * records + 1024 for records, size in sizes)

    @pytest.mark.parametrize(
        "cfg, layouts, workers",
        [
            # one-record blocks at budget 100; blocks of 3 in one-record
            # chunks, the last block partial at 1; blocks of 64 in chunks of
            # 18, the last chunk partial at 10 and the last block at 2
            (EnsembleConfig(sample_count=130, master_seed=21),
             {100: (1, 1), 300: (3, 1), 6400: (64, 18)}, (1, 2, 3)),
            # three default blocks, so that two and three processes start workers
            (EnsembleConfig(sample_count=2 * DESK_BLOCK + 6, master_seed=8),
             {stability_module.BLOCK_VALUES: (DESK_BLOCK, DESK_CHUNK)}, (1, 2, 3)),
            # wide records in blocks of 9 in one-record chunks, of 16 in
            # chunks of two (the default) and of 17 in chunks of three, the
            # last chunk partial at 2: partial last blocks at 4, 8 and 6, and
            # two processes start a worker in every layout
            (EnsembleConfig(sample_count=40, n=40, k=3, master_seed=23),
             {14_400: (9, 1), 25_600: (16, 2), 27_360: (17, 3)}, (1, 2)),
        ],
        ids=["sizes-seed21", "default-seed8", "wide-seed23"],
    )
    def test_files_independent_of_block_size_and_workers(
        self, tmp_path, monkeypatch, cfg, layouts, workers
    ):
        assert_files_independent(cfg, tmp_path, monkeypatch, layouts, workers)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_start_method_keeps_the_files(self, tmp_path, monkeypatch, method):
        # spawn starts macOS's workers, forkserver Linux's from Python 3.14:
        # they import likenet afresh; three default desk blocks start a worker
        cfg = EnsembleConfig(sample_count=2 * DESK_BLOCK + 6, master_seed=8)
        run_to_files(cfg, tmp_path / "serial", workers=1)
        monkeypatch.setattr(ensemble, "Process", multiprocessing.get_context(method).Process)
        run_to_files(cfg, tmp_path / method, workers=2)
        names = ["records.jsonl", "summary.json"]
        assert sorted(path.name for path in (tmp_path / method).iterdir()) == names
        for name in names:
            assert (tmp_path / method / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    def test_blocks_finished_out_of_order_keep_the_files(self, tmp_path, monkeypatch):
        # three default desk blocks on two processes, one a forked worker;
        # block 0, this process's, waits, so that block 1, the worker's, is
        # done first
        cfg = EnsembleConfig(sample_count=2 * DESK_BLOCK + 6, master_seed=8)
        run_to_files(cfg, tmp_path / "serial", workers=1)
        compute = ensemble.compute_block

        def first_block_late(config, start, stop, out):
            if start == 0:
                time.sleep(0.5)
            return compute(config, start, stop, out)

        monkeypatch.setattr(ensemble, "compute_block", first_block_late)
        monkeypatch.setattr(ensemble, "Process", multiprocessing.get_context("fork").Process)
        run_to_files(cfg, tmp_path / "pooled", workers=2)
        for name in ("records.jsonl", "summary.json"):
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    def test_own_blocks_go_straight_to_the_record_file(self, tmp_path, monkeypatch):
        # four default desk blocks on two processes: this one computes blocks
        # 0 and 2 into records.jsonl, and splices only the forked worker's
        # part files of blocks 1 and 3
        cfg = EnsembleConfig(sample_count=3 * DESK_BLOCK + 6, master_seed=8)
        run_to_files(cfg, tmp_path / "serial", workers=1)
        here, own, spliced = os.getpid(), [], []
        compute, splice = ensemble.compute_block, ensemble._splice

        def tracked(config, start, stop, out):
            if os.getpid() == here:
                own.append((start, out.name))
            return compute(config, start, stop, out)

        def tracked_splice(path, records):
            spliced.append(os.path.basename(path))
            splice(path, records)

        monkeypatch.setattr(ensemble, "compute_block", tracked)
        monkeypatch.setattr(ensemble, "_splice", tracked_splice)
        monkeypatch.setattr(ensemble, "Process", multiprocessing.get_context("fork").Process)
        run_to_files(cfg, tmp_path / "pooled", workers=2)
        records = str(tmp_path / "pooled" / "records.jsonl")
        assert own == [(0, records), (2 * DESK_BLOCK, records)]
        assert spliced == [f"{DESK_BLOCK}.part", f"{3 * DESK_BLOCK}.part"]
        for name in ("records.jsonl", "summary.json"):
            assert (tmp_path / "pooled" / name).read_bytes() == (
                tmp_path / "serial" / name
            ).read_bytes()

    def test_run_to_files_streams_records(self, tmp_path, monkeypatch):
        # four default desk blocks, the last one partial; a full block's lines
        # are past the io.DEFAULT_BUFFER_SIZE bytes a file keeps unwritten
        samples = 3 * DESK_BLOCK + 4
        cfg = EnsembleConfig(sample_count=samples, master_seed=12)
        jsonl = tmp_path / "records.jsonl"
        sizes = []
        compute = ensemble.compute_block

        def tracked(config, start, stop, out):
            sizes.append(jsonl.stat().st_size)
            return compute(config, start, stop, out)

        monkeypatch.setattr(ensemble, "compute_block", tracked)
        summary = run_to_files(cfg, tmp_path, workers=1)
        # asked for a block, records.jsonl holds the blocks before it, but
        # for what its buffer keeps
        lines = jsonl.read_bytes().splitlines(keepends=True)
        ends = [sum(map(len, lines[:start])) for start in range(0, samples, DESK_BLOCK)]
        assert len(sizes) == 4
        assert all(end - io.DEFAULT_BUFFER_SIZE <= size <= end for size, end in zip(sizes, ends))
        records = decoded(jsonl)
        assert [r["record_index"] for r in records] == list(range(samples))
        stabilities = [r["stability"] for r in records]
        assert summary == {**summarize_records(stabilities, 0), "config": summary["config"]}

    def test_run_to_files_builds_no_per_record_objects(self, tmp_path, monkeypatch):
        cfg = EnsembleConfig(sample_count=40, master_seed=12)
        run_to_files(cfg, tmp_path / "plain", workers=1)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"the ensemble built a {type(self).__name__}")

        for cls in (Graph, RateMatrix, StabilityResult):
            monkeypatch.setattr(cls, "__init__", refuse)
        run_to_files(cfg, tmp_path / "guarded", workers=1)
        for name in ("records.jsonl", "summary.json"):
            assert (tmp_path / "guarded" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()

    def test_interrupted_run_leaves_no_earlier_summary(self, tmp_path, monkeypatch):
        # two default desk blocks into the directory of an earlier run; the
        # second block is interrupted
        run_to_files(EnsembleConfig(sample_count=20, master_seed=1), tmp_path, workers=1)
        cfg = EnsembleConfig(sample_count=DESK_BLOCK + 6, master_seed=2)
        first = io.BytesIO()
        compute_block(cfg, 0, DESK_BLOCK, first)
        compute = ensemble.compute_block

        def interrupted(config, start, stop, out):
            if start:
                raise KeyboardInterrupt
            return compute(config, start, stop, out)

        monkeypatch.setattr(ensemble, "compute_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_to_files(cfg, tmp_path, workers=1)
        assert [path.name for path in tmp_path.iterdir()] == ["records.jsonl"]
        assert (tmp_path / "records.jsonl").read_bytes() == first.getvalue()

    def test_progress_reports_throughput_and_time_left(self, tmp_path, caplog):
        cfg = EnsembleConfig(sample_count=20, master_seed=12)
        with caplog.at_level(logging.INFO, logger="likenet"):
            run_to_files(cfg, tmp_path, workers=1)
        progress = [r.getMessage() for r in caplog.records if "progress" in r.getMessage()]
        assert progress
        assert all(re.fullmatch(r"ensemble progress: \d+/20, \d+ records/s, about \d+ s left", m)
                   for m in progress)
        assert progress[-1].startswith("ensemble progress: 20/20, ")

    def test_default_blocks_hold_n_squared_values_a_record(self):
        # 25600 values: 256 desk records (n=10), 16 wide (n=40), 1 past n=160
        assert [ensemble.block_records(n) for n in (10, 20, 40, 100, 160, 500)] == [
            256, 64, 16, 2, 1, 1]

    def test_run_start_logs_block_layout(self, tmp_path, caplog):
        # a run smaller than a default block is one block at one worker, and
        # is split evenly over two unless that leaves a worker less than a chunk
        for samples, workers, size, processes in ((20, 1, 20, 1), (300, 2, 150, 2),
                                                  (30, 2, 30, 1)):
            assert samples < DESK_BLOCK * workers
            caplog.clear()
            cfg = EnsembleConfig(sample_count=samples, master_seed=12)
            with caplog.at_level(logging.INFO, logger="likenet"):
                run_to_files(cfg, tmp_path / f"run{samples}-{workers}", workers=workers)
            assert caplog.records[0].getMessage() == (
                f"ensemble blocks: {size} records each, solved in chunks of {DESK_CHUNK}, "
                f"on {processes} process(es)"
            )

    @pytest.mark.parametrize("n, k", [(10, 1), (12, 5), (20, 2), (40, 3)])
    def test_logged_chunk_is_the_solvers_chunk(self, tmp_path, caplog, n, k):
        # run_to_files derives the chunk from a BA graph's edge count,
        # _gradient_block from the perturbed entries of the block's records
        cfg = EnsembleConfig(sample_count=1, n=n, k=k, master_seed=12)
        *_, pairs = ensemble._block_systems(cfg, ensemble.MAIN_STREAM, _attach, 0, 1)
        with caplog.at_level(logging.INFO, logger="likenet"):
            run_to_files(cfg, tmp_path, workers=1)
        chunk = re.search(r"solved in chunks of (\d+),", caplog.records[0].getMessage())
        assert int(chunk.group(1)) == chunk_records(pairs.shape[1], n)

    @pytest.mark.parametrize("n, k, bound_mib", [(10, 2, 3.2), (40, 3, 2.1)])
    def test_block_memory_is_bounded(self, n, k, bound_mib):
        # a default block's peak of traced allocations, NumPy's arrays among
        # them, measured at 2.82 MiB for desk and 1.81 MiB for wide records
        cfg = EnsembleConfig(n=n, k=k)
        size = ensemble.block_records(n)
        with open(os.devnull, "wb") as sink:
            compute_block(cfg, 0, size, sink)
            tracemalloc.start()
            try:
                compute_block(cfg, size, 2 * size, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound_mib * 2**20

    def test_write_read_roundtrip(self, tmp_path):
        cfg = EnsembleConfig(sample_count=12, master_seed=9)
        records = [compute_record(cfg, index) for index in range(12)]
        jsonl = tmp_path / "records.jsonl"
        assert write_records(records, jsonl) == 12
        assert_table_matches(read_records(jsonl), records)

    def test_summary_consistent_with_records(self, tmp_path):
        cfg = EnsembleConfig(sample_count=50, master_seed=10)
        records = decoded_run(cfg, tmp_path)
        stabilities = np.array([r["stability"] for r in records])
        summary = summarize_records(stabilities, sum(not r["solver_converged"] for r in records))
        assert summary["count"] == 50
        assert summary["stability_min"] == stabilities.min()
        assert summary["stability_max"] == stabilities.max()
        assert summary["stability_quantiles"]["q0.5"] == pytest.approx(
            float(np.quantile(stabilities, 0.5)), rel=1e-12
        )

    @pytest.mark.slow
    def test_pilot_distribution_matches_desk_run(self, desk_run, tmp_path):
        # self-consistency: a 10x smaller pilot draws from the same law
        records_path, _ = desk_run
        run_to_files(EnsembleConfig(sample_count=1000, master_seed=DESK_SEED), tmp_path, workers=2)
        pilot = read_records(tmp_path / "records.jsonl")
        ks = stats.ks_2samp(pilot.stability, read_records(records_path).stability).statistic
        assert ks < 0.05


class TestRecordTable:
    def test_mixed_edge_counts(self, tmp_path):
        # k=2 and k=3 graphs on 10 nodes carry 34 and 48 rates per record
        records = [
            rec
            for pair in zip(
                decoded_run(EnsembleConfig(sample_count=4, k=2, master_seed=3), tmp_path / "k2"),
                decoded_run(EnsembleConfig(sample_count=4, k=3, master_seed=4), tmp_path / "k3"),
            )
            for rec in pair
        ]
        jsonl = tmp_path / "records.jsonl"
        write_records(records, jsonl)
        table = read_records(jsonl)
        assert_table_matches(table, records)
        assert table.rate_counts.tolist() == [34, 48] * 4
        mask = np.array([True, True, False, True, False, False, True, False])
        chosen = [rec for rec, keep in zip(records, mask) if keep]
        assert_table_matches(table.select(mask), chosen)
        assert table.rates_of(mask).tolist() == [
            rate for rec in chosen for _, _, rate in rec["outgoing_rates"]
        ]

    def test_blank_lines_skipped(self, tmp_path):
        records = decoded_run(EnsembleConfig(sample_count=2, master_seed=5), tmp_path / "run")
        jsonl = tmp_path / "records.jsonl"
        write_records(records, jsonl)
        first, second = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text("\n" + first + "  \n" + second)
        assert_table_matches(read_records(jsonl), records)

    @pytest.mark.parametrize("rate", [-1.0, math.nan, math.inf])
    def test_bad_rate_names_its_record(self, tmp_path, rate):
        records = decoded_run(EnsembleConfig(sample_count=2, master_seed=5), tmp_path / "run")
        records[1]["outgoing_rates"][5][2] = rate
        message = re.escape(f"outgoing rate {rate} is not finite and >= 0")
        jsonl = tmp_path / "records.jsonl"
        write_records(records, jsonl)
        first, second = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text("\n" + first + "  \n" + second)
        with pytest.raises(ValueError, match=f"^{re.escape(str(jsonl))}:4: {message}$"):
            read_records(jsonl)

    @pytest.mark.parametrize("name", ["stability", "degree_stddev", "mean_path_length",
                                      "mean_local_clustering", "solver_converged",
                                      "degree_histogram", "outgoing_rates"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "wrong_type"])
    def test_every_field_read_names_its_line(self, tmp_path, name, missing):
        records = decoded_run(EnsembleConfig(sample_count=2, master_seed=5), tmp_path / "run")
        if missing:
            del records[1][name]
            message = f"missing field {name!r}"
        else:
            records[1][name] = "high"
            message = f"field {name!r} has the wrong type"
        jsonl = tmp_path / "records.jsonl"
        jsonl.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{jsonl}:2: {message}')}"):
            read_records(jsonl)

    def test_empty_file_gives_empty_table(self, tmp_path):
        jsonl = tmp_path / "records.jsonl"
        jsonl.write_text("")
        table = read_records(jsonl)
        assert len(table) == 0
        assert table.degree_histogram.shape == (0, 0)


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = EnsembleConfig(sample_count=3, master_seed=77, rate_lambda=2.0)
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config_to_dict(cfg).items()))
        assert read_config_file(path) == config_to_dict(cfg)
        assert main(["ensemble", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"] == config_to_dict(cfg)

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nsample_count = 55\nmaster_seed=3\n")
        values = read_config_file(path)
        assert values == {"sample_count": 55, "master_seed": 3}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sample_size = 10\n")
        with pytest.raises(ValueError):
            read_config_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("master_seed = 1\nsample_count = 30\nmaster_seed = 2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: duplicate config "
                                             "key 'master_seed'$"):
            read_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sample_count 10\n")
        with pytest.raises(ValueError):
            read_config_file(path)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(sample_count=0)
        with pytest.raises(ValueError):
            EnsembleConfig(rate_lambda=-1.0)
        with pytest.raises(ValueError, match="rate_lambda must be finite, got inf"):
            EnsembleConfig(rate_lambda=math.inf)
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            EnsembleConfig(master_seed=-1)
        for n, k in [(10, 0), (10, -1), (3, 5), (1, 1), (0, 1)]:
            with pytest.raises(ValueError, match=rf"got n={n}, k={k}"):
                EnsembleConfig(n=n, k=k)
        EnsembleConfig(n=2, k=1)
        EnsembleConfig(n=5, k=5)


# a valid value other than the default of each run config field
OTHER_VALUES = {"sample_count": 6, "n": 11, "k": 3, "rate_lambda": 2.0, "master_seed": 20,
                "tolerance": 1e-6, "max_iterations": 5}


@pytest.mark.parametrize("key", list(config_to_dict(EnsembleConfig())))
def test_every_config_field_changes_the_records(tmp_path, key):
    """The run config holds only values that a run's records depend on."""
    base = EnsembleConfig(sample_count=5)
    if key in {f.name for f in fields(SolverOptions)}:
        changed = replace(base, solver=replace(base.solver, **{key: OTHER_VALUES[key]}))
    else:
        changed = replace(base, **{key: OTHER_VALUES[key]})
    run_to_files(base, tmp_path / "base")
    run_to_files(changed, tmp_path / "changed")
    records = [(tmp_path / run / "records.jsonl").read_bytes() for run in ("base", "changed")]
    assert records[0] != records[1]
