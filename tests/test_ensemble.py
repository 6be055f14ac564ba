import json
import math
import weakref

import numpy as np
import pytest
from scipy import stats

from likenet import ensemble
from likenet.ensemble import (
    EnsembleConfig,
    RECORD_CSV_COLUMNS,
    RecordTable,
    compute_record,
    config_from_dict,
    read_config_file,
    read_records,
    run_ensemble,
    run_to_files,
    sample_rates,
    summarize_records,
    write_config_file,
    write_records,
)
from likenet.graphs import compute_metrics, generate_ba, generate_star

from conftest import DESK_SEED


def assert_table_matches(table, records):
    """Every column of the table holds the records' values, in order."""
    assert len(table) == len(records)
    for name in ("record_index", "stability", "degree_stddev", "mean_path_length",
                 "mean_local_clustering", "solver_converged"):
        assert getattr(table, name).tolist() == [getattr(r, name) for r in records]
    assert table.degree_histogram.tolist() == [list(r.degree_histogram) for r in records]
    assert table.rate_counts.tolist() == [len(r.outgoing_rates) for r in records]
    assert table.rates.tolist() == [rate for r in records for _, _, rate in r.outgoing_rates]


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
        with pytest.raises(ValueError):
            sample_rates(g, 0.0, 1)


class TestRecords:
    def test_record_determinism(self):
        cfg = EnsembleConfig(sample_count=1, master_seed=5)
        assert compute_record(cfg, 3) == compute_record(cfg, 3)

    def test_metrics_match_recomputation_from_seed(self):
        cfg = EnsembleConfig(sample_count=1, master_seed=11)
        rec = compute_record(cfg, 0)
        g = generate_ba(cfg.n, cfg.k, rec.graph_seed)
        met = compute_metrics(g)
        assert rec.degree_histogram == met.degree_histogram
        assert rec.degree_stddev == met.degree_stddev
        assert rec.mean_path_length == met.mean_path_length
        assert rec.mean_local_clustering == met.mean_local_clustering

    def test_json_roundtrip_and_field_names(self):
        rec = compute_record(EnsembleConfig(sample_count=1, master_seed=2), 0)
        payload = rec.to_json_dict()
        assert set(payload) == {
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
        assert json.loads(json.dumps(payload)) == payload
        assert_table_matches(RecordTable.from_records([rec]), [rec])

    def test_outgoing_rates_cover_both_directions(self):
        rec = compute_record(EnsembleConfig(sample_count=1, master_seed=2), 0)
        g = generate_ba(10, 2, rec.graph_seed)
        assert len(rec.outgoing_rates) == 2 * len(g.edges)
        rates = sample_rates(g, 1.0, rec.rate_seed)
        for i, j, rate in rec.outgoing_rates:
            assert rates.values[i, j] == rate

    def test_stability_in_unit_interval(self):
        for idx in range(5):
            rec = compute_record(EnsembleConfig(sample_count=1, master_seed=3), idx)
            assert 0.0 < rec.stability <= 1.0


class TestRunEnsemble:
    def test_rerun_identical(self):
        cfg = EnsembleConfig(sample_count=40, master_seed=6)
        first = list(run_ensemble(cfg))
        second = list(run_ensemble(cfg))
        assert first == second
        assert [r.record_index for r in first] == list(range(40))

    def test_worker_count_invariance(self):
        cfg = EnsembleConfig(sample_count=30, master_seed=8)
        serial = list(run_ensemble(cfg, workers=1))
        parallel = list(run_ensemble(cfg, workers=2))
        assert serial == parallel

    def test_files_byte_identical_across_reruns(self, tmp_path):
        cfg = EnsembleConfig(sample_count=25, master_seed=4)
        run_to_files(cfg, tmp_path / "a", workers=1)
        run_to_files(cfg, tmp_path / "b", workers=2)
        for name in ("records.jsonl", "records.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_run_to_files_streams_records(self, tmp_path, monkeypatch):
        cfg = EnsembleConfig(sample_count=20, master_seed=12)
        alive = weakref.WeakSet()
        peak = 0

        def tracked(config, workers=1):
            nonlocal peak
            for idx in range(config.sample_count):
                record = compute_record(config, idx)
                alive.add(record)
                peak = max(peak, len(alive))
                yield record

        monkeypatch.setattr(ensemble, "run_ensemble", tracked)
        summary = run_to_files(cfg, tmp_path, workers=1)
        # the record being written and the one just computed, never the run
        assert peak <= 2
        records = read_records(tmp_path / "records.jsonl")
        assert records.record_index.tolist() == list(range(20))
        stabilities = records.stability
        assert summary == {**summarize_records(stabilities, 0), "config": summary["config"]}

    def test_write_read_roundtrip(self, tmp_path):
        cfg = EnsembleConfig(sample_count=12, master_seed=9)
        records = list(run_ensemble(cfg))
        jsonl = tmp_path / "records.jsonl"
        csv_path = tmp_path / "records.csv"
        assert write_records(records, jsonl, csv_path) == 12
        assert_table_matches(read_records(jsonl), records)
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == RECORD_CSV_COLUMNS

    def test_summary_consistent_with_records(self):
        cfg = EnsembleConfig(sample_count=50, master_seed=10)
        records = list(run_ensemble(cfg))
        stabilities = np.array([r.stability for r in records])
        summary = summarize_records(stabilities, sum(not r.solver_converged for r in records))
        assert summary["count"] == 50
        assert summary["stability_min"] == stabilities.min()
        assert summary["stability_max"] == stabilities.max()
        assert summary["stability_quantiles"]["q0.5"] == pytest.approx(
            float(np.quantile(stabilities, 0.5)), rel=1e-12
        )

    @pytest.mark.slow
    def test_pilot_distribution_matches_desk_run(self, desk_run):
        # self-consistency: a 10x smaller pilot draws from the same law
        records, _ = desk_run
        pilot = list(run_ensemble(EnsembleConfig(sample_count=1000, master_seed=DESK_SEED), workers=2))
        ks = stats.ks_2samp(
            [r.stability for r in pilot], [r.stability for r in records]
        ).statistic
        assert ks < 0.05


class TestRecordTable:
    def test_mixed_edge_counts(self, tmp_path):
        # k=2 and k=3 graphs on 10 nodes carry 34 and 48 rates per record
        records = [
            rec
            for pair in zip(
                run_ensemble(EnsembleConfig(sample_count=4, k=2, master_seed=3)),
                run_ensemble(EnsembleConfig(sample_count=4, k=3, master_seed=4)),
            )
            for rec in pair
        ]
        jsonl = tmp_path / "records.jsonl"
        write_records(records, jsonl, tmp_path / "records.csv")
        table = read_records(jsonl)
        assert_table_matches(table, records)
        assert table.rate_counts.tolist() == [34, 48] * 4
        mask = np.array([True, True, False, True, False, False, True, False])
        chosen = [rec for rec, keep in zip(records, mask) if keep]
        assert_table_matches(table.select(mask), chosen)
        assert table.rates_of(mask).tolist() == [
            rate for rec in chosen for _, _, rate in rec.outgoing_rates
        ]

    def test_blank_lines_skipped(self, tmp_path):
        records = list(run_ensemble(EnsembleConfig(sample_count=2, master_seed=5)))
        jsonl = tmp_path / "records.jsonl"
        write_records(records, jsonl, tmp_path / "records.csv")
        first, second = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text("\n" + first + "  \n" + second)
        assert_table_matches(read_records(jsonl), records)

    def test_empty_file_gives_empty_table(self, tmp_path):
        jsonl = tmp_path / "records.jsonl"
        jsonl.write_text("")
        table = read_records(jsonl)
        assert len(table) == 0
        assert table.degree_histogram.shape == (0, 0)


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = EnsembleConfig(sample_count=123, master_seed=77, rate_lambda=2.0)
        path = tmp_path / "run.cfg"
        write_config_file(cfg, path)
        assert config_from_dict(read_config_file(path)) == cfg

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
        with pytest.raises(ValueError):
            EnsembleConfig(strategic_fraction=1.0)
