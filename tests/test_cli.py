import csv
import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from likenet.centrality import RateMatrix, write_rates_dense, write_rates_triplets
from likenet.cli import main
from likenet.ensemble import EnsembleConfig, SystemRecord, config_to_dict
from likenet.graphs import generate_ba, read_edge_list
from util import random_rates


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_two_node_inputs(tmp_path, a=3.0, b=1.0):
    graph = tmp_path / "pair.txt"
    graph.write_text("n=2\n0 1\n")
    rates = tmp_path / "rates.csv"
    write_rates_dense(RateMatrix(2, np.array([[0.0, a], [b, 0.0]])), rates)
    return graph, rates


def read_solution(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["value"]) for r in rows], rows[0]["converged"]


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
        assert run_cli("generate", "--model", "ba", "--n", 10, "--k", 2, "--seed", 7, "--out", out1) == 0
        assert run_cli("generate", "--model", "ba", "--n", 10, "--k", 2, "--seed", 7, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_star_edge_list(self, tmp_path):
        out = tmp_path / "star.txt"
        assert run_cli("generate", "--model", "star", "--n", 10, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n=10"
        assert len(lines) == 10

    def test_invalid_parameters_nonzero_exit(self, tmp_path):
        out = tmp_path / "bad.txt"
        assert run_cli("generate", "--model", "ba", "--n", 1, "--k", 2, "--out", out) != 0
        assert not out.exists()


class TestSolve:
    def test_likedness_two_node(self, tmp_path):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 0
        values, converged = read_solution(out)
        assert values == pytest.approx([0.75, 0.25], abs=1e-9)
        assert converged == "True"

    def test_eigenvector_measure(self, tmp_path):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sol.csv"
        assert run_cli(
            "solve", "--graph", graph, "--rates", rates, "--measure", "eigenvector", "--out", out
        ) == 0
        values, _ = read_solution(out)
        s = math.sqrt(3)
        assert values == pytest.approx([s / (1 + s), 1 / (1 + s)], abs=1e-3)
        assert values == pytest.approx([0.634, 0.366], abs=1e-3)

    def test_triplet_rates_accepted(self, tmp_path):
        g = generate_ba(6, 2, 3)
        rng = np.random.default_rng(0)
        rates = random_rates(g, rng)
        gpath = tmp_path / "g.txt"
        from likenet.graphs import write_edge_list

        write_edge_list(g, gpath)
        rpath = tmp_path / "rates.txt"
        write_rates_triplets(rates, rpath)
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", gpath, "--rates", rpath, "--out", out) == 0

    def test_missing_rate_file_fails_cleanly(self, tmp_path, capsys):
        graph, _ = write_two_node_inputs(tmp_path)
        out = tmp_path / "sol.csv"
        code = run_cli("solve", "--graph", graph, "--rates", tmp_path / "nope.csv", "--out", out)
        assert code != 0
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=x\n0 1\n", ":1: node count must be an integer, got 'n=x'"),
            ("n=2\n0\n", ":2: expected 'i j', got '0'"),
        ],
    )
    def test_bad_graph_file_names_the_line(self, tmp_path, capsys, text, message):
        graph, rates = write_two_node_inputs(tmp_path)
        graph.write_text(text)
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 1
        assert f"error: {graph}{message}" in capsys.readouterr().err
        assert not out.exists()


class TestEnsembleCommand:
    def test_rerun_and_worker_invariance(self, tmp_path):
        args = ["ensemble", "--samples", 25, "--seed", 5]
        assert run_cli(*args, "--workers", 1, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--workers", 1, "--out", tmp_path / "b") == 0
        assert run_cli(*args, "--workers", 2, "--out", tmp_path / "c") == 0
        for name in ("records.jsonl", "records.csv", "summary.json"):
            blob = (tmp_path / "a" / name).read_bytes()
            assert blob == (tmp_path / "b" / name).read_bytes()
            assert blob == (tmp_path / "c" / name).read_bytes()

    def test_default_config_is_the_library_default(self, tmp_path):
        assert run_cli("ensemble", "--samples", 5, "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == config_to_dict(replace(EnsembleConfig(), sample_count=5))

    def test_summary_quantiles_match_csv(self, tmp_path):
        assert run_cli("ensemble", "--samples", 30, "--seed", 2, "--out", tmp_path) == 0
        with open(tmp_path / "records.csv", newline="") as fh:
            stabilities = [float(row["stability"]) for row in csv.DictReader(fh)]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["count"] == 30
        assert summary["stability_quantiles"]["q0.5"] == pytest.approx(
            float(np.quantile(stabilities, 0.5)), rel=1e-12
        )


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    assert run_cli("ensemble", "--samples", 300, "--seed", 19, "--workers", 2, "--out", out) == 0
    return out


class TestAnalyzeCommand:
    def test_outputs_complete_and_consistent(self, tmp_path, small_run):
        out = tmp_path / "analysis"
        assert run_cli(
            "analyze",
            "--records", small_run / "records.jsonl",
            "--strategic-fraction", 0.01,
            "--out", out,
        ) == 0
        expected = {
            "rate_representation.csv",
            "degree_representation.csv",
            "stability_vs_mean_path_length.csv",
            "stability_vs_mean_local_clustering.csv",
            "stability_vs_degree_stddev.csv",
            "analysis_summary.json",
        }
        assert expected <= {p.name for p in out.iterdir()}
        summary = json.loads((out / "analysis_summary.json").read_text())
        assert summary["strategic_count"] == 3
        assert summary["strategic_direction"] == "high"
        assert set(summary["spearman"]) == {
            "mean_path_length",
            "mean_local_clustering",
            "degree_stddev",
        }
        with open(out / "rate_representation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50

    def test_direction_flag(self, tmp_path, small_run):
        out = tmp_path / "analysis_low"
        assert run_cli(
            "analyze",
            "--records", small_run / "records.jsonl",
            "--strategic-fraction", 0.01,
            "--strategic-direction", "low",
            "--out", out,
        ) == 0
        summary = json.loads((out / "analysis_summary.json").read_text())
        assert summary["strategic_direction"] == "low"

    def test_too_few_records_fail_before_any_output(self, tmp_path, small_run, capsys):
        few = tmp_path / "few.jsonl"
        lines = (small_run / "records.jsonl").read_text().splitlines(keepends=True)
        few.write_text("".join(lines[:40]))
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", few, "--out", out) == 1
        assert "need >= 50 records with finite metrics, got 40" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_records_fails(self, tmp_path):
        assert run_cli("analyze", "--records", tmp_path / "nope.jsonl", "--out", tmp_path) != 0


def corrupt_second_line(small_run, tmp_path, edit):
    """A three-record copy of the run whose second line is edit(line)."""
    lines = (small_run / "records.jsonl").read_text().splitlines()[:3]
    lines[1] = edit(lines[1])
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def drop_field(line, name):
    record = json.loads(line)
    del record[name]
    return json.dumps(record)


def set_field(line, name, value):
    return json.dumps({**json.loads(line), name: value})


class TestRecordFileErrors:
    """A malformed records file exits 1 with `error: path:line: ...` and writes nothing."""

    @pytest.mark.parametrize("command", ["analyze", "star-compare"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line[:150], "Expecting"),
            (lambda line: "[1, 2]", "expected a JSON object, got list"),
            (lambda line: drop_field(line, "mean_path_length"), "missing field 'mean_path_length'"),
            (lambda line: set_field(line, "stability", "high"), "field 'stability' has the wrong type"),
            (
                lambda line: set_field(line, "degree_histogram", [1, 2, 3]),
                "degree_histogram has 3 entries, the first record's has 10",
            ),
        ],
        ids=["bad_json", "not_object", "missing_field", "wrong_type", "histogram_length"],
    )
    def test_error_names_file_and_line(self, tmp_path, small_run, capsys, command, edit, message):
        records = corrupt_second_line(small_run, tmp_path, edit)
        out = tmp_path / "out"
        argv = ["--stars", 2] if command == "star-compare" else []
        assert run_cli(command, "--records", records, *argv, "--out", out) == 1
        assert f"error: {records}:2: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_record_analyses_build_no_system_records(tmp_path, small_run, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an analysis built a SystemRecord")

    monkeypatch.setattr(SystemRecord, "__init__", refuse)
    records = small_run / "records.jsonl"
    assert run_cli("analyze", "--records", records, "--out", tmp_path / "all") == 0
    assert run_cli(
        "analyze", "--records", records, "--converged-only", "--out", tmp_path / "converged"
    ) == 0
    assert run_cli(
        "star-compare", "--stars", 5, "--records", records, "--out", tmp_path / "stars.json"
    ) == 0


class TestCoalitionCommand:
    def test_baseline_sweep_point(self, tmp_path):
        g = generate_ba(6, 2, 3)
        rng = np.random.default_rng(5)
        rates = random_rates(g, rng)
        a, b = g.edges[0]
        symmetric = rates.replace_entry(a, b, 0.9).replace_entry(b, a, 0.9)
        gpath, rpath = tmp_path / "g.txt", tmp_path / "r.csv"
        from likenet.graphs import write_edge_list

        write_edge_list(g, gpath)
        write_rates_dense(symmetric, rpath)
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "coalition", "--graph", gpath, "--rates", rpath,
            "--a", a, "--b", b, "--joint-rates", "0.9", "--out", out,
        ) == 0
        from likenet.centrality import likedness_centrality

        baseline = likedness_centrality(g, symmetric)
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["member_a"]) == pytest.approx(baseline.values[a], abs=1e-12)
        assert float(row["member_b"]) == pytest.approx(baseline.values[b], abs=1e-12)
        assert json.loads((tmp_path / "sweep.csv.json").read_text())["all_converged"]


class TestStarCompareCommand:
    def test_single_sample_warns_but_writes(self, tmp_path, small_run):
        out = tmp_path / "stars.json"
        assert run_cli(
            "star-compare", "--stars", 1,
            "--records", small_run / "records.jsonl",
            "--seed", 19, "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["star_count"] == 1
        assert payload["warnings"]
        assert payload["ba_hub_count"] >= 1

    def test_unknown_direction_fails_without_output(self, tmp_path, small_run, monkeypatch, capsys):
        monkeypatch.setenv("LIKENET_STRATEGIC_DIRECTION", "bogus")
        out = tmp_path / "stars.json"
        assert run_cli(
            "star-compare", "--stars", 2, "--records", small_run / "records.jsonl", "--out", out
        ) == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestOptionResolution:
    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("master_seed = 5\n")
        with_flag = tmp_path / "flag.txt"
        plain = tmp_path / "plain.txt"
        assert run_cli("generate", "--model", "ba", "--config", cfg, "--seed", 7, "--out", with_flag) == 0
        assert run_cli("generate", "--model", "ba", "--seed", 7, "--out", plain) == 0
        assert with_flag.read_bytes() == plain.read_bytes()

    def test_config_supplies_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("master_seed = 5\n")
        from_config = tmp_path / "cfg.txt"
        explicit = tmp_path / "explicit.txt"
        assert run_cli("generate", "--model", "ba", "--config", cfg, "--out", from_config) == 0
        assert run_cli("generate", "--model", "ba", "--seed", 5, "--out", explicit) == 0
        assert from_config.read_bytes() == explicit.read_bytes()

    def test_env_beats_config_and_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("master_seed = 3\n")
        monkeypatch.setenv("LIKENET_SEED", "5")
        via_env = tmp_path / "env.txt"
        assert run_cli("generate", "--model", "ba", "--config", cfg, "--out", via_env) == 0
        reference5 = tmp_path / "ref5.txt"
        monkeypatch.delenv("LIKENET_SEED")
        assert run_cli("generate", "--model", "ba", "--seed", 5, "--out", reference5) == 0
        assert via_env.read_bytes() == reference5.read_bytes()

        monkeypatch.setenv("LIKENET_SEED", "5")
        via_flag = tmp_path / "flag.txt"
        assert run_cli("generate", "--model", "ba", "--seed", 7, "--out", via_flag) == 0
        monkeypatch.delenv("LIKENET_SEED")
        reference7 = tmp_path / "ref7.txt"
        assert run_cli("generate", "--model", "ba", "--seed", 7, "--out", reference7) == 0
        assert via_flag.read_bytes() == reference7.read_bytes()

    def test_env_cast_error_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIKENET_N", "abc")
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--model", "ba", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: LIKENET_N must be int, got 'abc'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("# run\nsample_size = 10\n", "run.cfg:2: unknown config key 'sample_size'"),
            ("# run\nn = abc\n", "run.cfg:2: n must be int, got 'abc'"),
        ],
        ids=["missing", "unknown_key", "bad_value"],
    )
    def test_bad_config_file_fails_cleanly(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not (out / "records.jsonl").exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "likenet", "generate", "--model", "star", "--n", "4", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_edge_list(out).n == 4
