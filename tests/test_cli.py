import csv
import json
import logging
import math
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from likenet.analysis import star_comparison
from likenet.centrality import RateMatrix
from likenet import cli, ensemble
from likenet.cli import main
from likenet.ensemble import (
    EnsembleConfig,
    block_records,
    compute_record,
    config_to_dict,
    read_records,
    write_json,
)
from likenet.stability import StabilityResult
from likenet.graphs import generate_ba, read_edge_list
from util import child_env, random_rates, run_likenet, with_pair_rate


# the inputs each command requires that are not options
REQUIRED = {
    "generate": ["--out", "g.txt"],
    "solve": ["--graph", "g.txt", "--rates", "r.csv", "--out", "s.csv"],
    "ensemble": ["--out", "run"],
    "analyze": ["--records", "records.jsonl", "--out", "analysis"],
    "coalition": ["--graph", "g.txt", "--rates", "r.csv", "--out", "c.csv"],
    "star-compare": ["--records", "records.jsonl", "--out", "stars.json"],
}


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_two_node_inputs(tmp_path, a=3.0, b=1.0):
    graph = tmp_path / "pair.txt"
    graph.write_text("n=2\n0 1\n")
    rates = tmp_path / "rates.csv"
    np.savetxt(rates, [[0.0, a], [b, 0.0]], delimiter=",")
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

    def test_invalid_parameters_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        assert run_cli("generate", "--model", "ba", "--n", 1, "--k", 2, "--out", out) != 0
        assert not out.exists()
        assert run_cli("generate", "--seed", -1, "--out", out) == 1
        assert "error: master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_k_above_n_fails_with_the_generators_message(self, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        assert run_cli("generate", "--n", 5, "--k", 6, "--out", out) == 1
        assert capsys.readouterr().err == "error: require n >= k >= 1, got n=5, k=6\n"
        assert not out.exists()

    def test_seed_gives_a_records_graph(self, tmp_path):
        # a record's graph_seed rebuilds its graph, the edges of its outgoing rates
        record = compute_record(EnsembleConfig(sample_count=1), 0)
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--n", 10, "--k", 2, "--seed", record["graph_seed"],
                       "--out", out) == 0
        edges = tuple((i, j) for i, j, _ in record["outgoing_rates"] if i < j)
        assert read_edge_list(out).edges == edges


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

    @pytest.mark.parametrize("measure", ["likedness", "eigenvector"])
    def test_unconverged_solve_warns_and_writes(self, tmp_path, caplog, measure):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sol.csv"
        with caplog.at_level(logging.WARNING, logger="likenet"):
            assert run_cli("solve", "--graph", graph, "--rates", rates, "--measure", measure,
                           "--max-iter", 1, "--out", out) == 0
        assert read_solution(out)[1] == "False"
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"{measure} solve did not converge (1 iterations)"]

    def test_triplet_rates_accepted(self, tmp_path):
        # write_two_node_inputs' rates as triplets
        graph, _ = write_two_node_inputs(tmp_path)
        rates = tmp_path / "rates.txt"
        rates.write_text("n=2\n0 1 3.0\n1 0 1.0\n")
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 0
        assert read_solution(out) == (pytest.approx([0.75, 0.25], abs=1e-9), "True")

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
            ("n=3\n0 1\n1 5\n", ":3: edge (1, 5) out of range for n=3"),
            ("n=3\n0 1\n# repeated\n1 0\n", ":4: duplicate edge (0, 1)"),
            ("n=3\n0 1\n2 2\n", ":3: self-loop at node 2"),
            ("n=0\n", ":1: node count must be positive, got 0"),
            ("n=-3\n0 1\n", ":1: node count must be positive, got -3"),
        ],
    )
    def test_bad_graph_file_names_the_line(self, tmp_path, capsys, text, message):
        graph, rates = write_two_node_inputs(tmp_path)
        graph.write_text(text)
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 1
        assert f"error: {graph}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, shape", [("", "(0,)"), ("0.0,1.0,2.0\n1.0,0.0,3.0\n", "(2, 3)")],
        ids=["empty", "not_square"],
    )
    def test_bad_dense_rate_file_names_the_file(self, tmp_path, capsys, text, shape):
        graph, rates = write_two_node_inputs(tmp_path)
        rates.write_text(text)
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 1
        message = f"error: {rates}: dense rate CSV must be square, got {shape}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_triplet_rate_file_names_the_line(self, tmp_path, capsys):
        graph, _ = write_two_node_inputs(tmp_path)
        rates = tmp_path / "rates.txt"
        rates.write_text("n=0\n")
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", graph, "--rates", rates, "--out", out) == 1
        assert f"error: {rates}:1: node count must be positive, got 0" in capsys.readouterr().err
        assert not out.exists()


def forked_workers(monkeypatch):
    """The ensemble's workers forked from this process: returns the list
    that each worker process joins as it is started."""
    started = []

    class Counted(multiprocessing.get_context("fork").Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(ensemble, "Process", Counted)
    return started


class TestEnsembleCommand:
    def test_rerun_and_worker_invariance(self, tmp_path):
        # three default desk blocks, so that two processes start a worker;
        # reruns at one worker are criterion 11's
        args = ["ensemble", "--samples", 2 * block_records(10) + 6, "--seed", 5]
        assert run_cli(*args, "--workers", 1, "--out", tmp_path / "a") == 0
        assert run_cli(*args, "--workers", 2, "--out", tmp_path / "b") == 0
        for name in ("records.jsonl", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_pool_block_leaves_no_part_files(self, tmp_path, monkeypatch, capsys):
        # three default desk blocks on two processes, the worker forked from
        # this process with the failing compute_block (forkserver and spawn
        # workers would import it unpatched); the second block, the worker's,
        # fails
        size = block_records(10)
        compute = ensemble.compute_block

        def fail_second(config, start, stop, lines):
            if start == size:
                raise RuntimeError("second block failed")
            return compute(config, start, stop, lines)

        monkeypatch.setattr(ensemble, "compute_block", fail_second)
        monkeypatch.setattr(ensemble, "Process", multiprocessing.get_context("fork").Process)
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 2 * size + 6, "--workers", 2, "--out", out) == 1
        assert "error: second block failed" in capsys.readouterr().err
        # the partial records.jsonl is discarded, and the directory the run made
        assert not out.exists()

    def test_killed_worker_fails_the_run(self, tmp_path):
        # four default desk blocks on two processes, the worker forked from a
        # run whose compute_block SIGKILLs the worker of blocks 1 and 3 at
        # block 3
        hooks = tmp_path / "hooks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(
            "import multiprocessing, os, signal\n"
            "from likenet import ensemble\n"
            "compute = ensemble.compute_block\n"
            "def killed_at_fourth_block(config, start, stop, out):\n"
            "    if start == 3 * ensemble.block_records(config.n):\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return compute(config, start, stop, out)\n"
            "ensemble.compute_block = killed_at_fourth_block\n"
            "ensemble.Process = multiprocessing.get_context('fork').Process\n"
        )
        out = tmp_path / "run"
        path = os.pathsep.join([str(hooks), child_env()["PYTHONPATH"]])
        code, err = run_likenet("ensemble", "--samples", 1000, "--workers", 2, "--out", out,
                                deadline=60, env={"PYTHONPATH": path})
        assert code == 1
        assert "error: ensemble worker 1 exited with code -9" in err
        assert not (out / "records.jsonl").exists()
        assert not list(out.glob("parts-*"))

    def test_two_workers_start_one_worker_process(self, tmp_path, monkeypatch):
        # three default desk blocks: this process computes blocks 0 and 2
        started = forked_workers(monkeypatch)
        out = tmp_path / "run"
        samples = 2 * block_records(10) + 6
        assert run_cli("ensemble", "--samples", samples, "--workers", 2, "--out", out) == 0
        assert [worker.exitcode for worker in started] == [0]
        assert sorted(path.name for path in out.iterdir()) == ["records.jsonl", "summary.json"]

    def test_failed_own_block_stops_the_workers(self, tmp_path, monkeypatch, capsys):
        # four default desk blocks on two processes; block 2, this process's,
        # fails while the forked worker is held in block 3
        size = block_records(10)
        here = os.getpid()
        compute = ensemble.compute_block

        def fail_own_block(config, start, stop, out):
            if os.getpid() == here and start == 2 * size:
                raise RuntimeError("own block failed")
            if os.getpid() != here and start == 3 * size:
                time.sleep(30)
            return compute(config, start, stop, out)

        monkeypatch.setattr(ensemble, "compute_block", fail_own_block)
        started = forked_workers(monkeypatch)
        out = tmp_path / "run"
        out.mkdir()
        began = time.monotonic()
        assert run_cli("ensemble", "--samples", 3 * size + 6, "--workers", 2, "--out", out) == 1
        assert time.monotonic() - began < 20
        assert "error: own block failed" in capsys.readouterr().err
        # the worker was stopped in its held block, and the run's outputs and
        # part directory are gone
        assert [worker.exitcode for worker in started] == [-signal.SIGTERM]
        assert list(out.iterdir()) == []

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(ensemble, "compute_block", fail)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("kept\n")
        assert run_cli("ensemble", "--samples", 5, "--out", kept) == 1
        assert run_cli("ensemble", "--samples", 5, "--out", tmp_path / "a" / "b") == 1
        assert capsys.readouterr().err.count("error: block failed") == 2
        assert [path.name for path in tmp_path.iterdir()] == ["kept"]
        assert [path.name for path in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_rejected_workers_keep_an_earlier_run(self, tmp_path, monkeypatch, capsys, via_env):
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 20, "--out", out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        if via_env:
            monkeypatch.setenv("LIKENET_WORKERS", "0")
            workers = []
        else:
            workers = ["--workers", 0]
        assert run_cli("ensemble", "--samples", 20, *workers, "--out", out) == 1
        assert "error: workers must be >= 1, got 0" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_sigterm_stops_the_pool_and_removes_its_part_files(self, tmp_path):
        # a paper-scale run on two workers, in a session of its own, is sent
        # SIGTERM once its first block is in records.jsonl
        out = tmp_path / "run"
        records = out / "records.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "likenet", "ensemble", "--samples", "1000000",
             "--workers", "2", "--out", str(out)],
            env=child_env(), start_new_session=True, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not (records.exists() and records.stat().st_size):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            assert list(out.glob("parts-*"))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
            # the workers ended with the run, and its part files went; the
            # partial records.jsonl stays, as after Ctrl-C
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
            assert [path.name for path in out.iterdir()] == ["records.jsonl"]
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    @pytest.mark.parametrize(
        "argv, code",
        [(["generate", "--model", "star", "--n", "4"], 0),
         (["generate", "--n", "1"], 1),
         (["generate", "--bogus"], 2)],
        ids=["done", "failed", "usage_error"],
    )
    def test_main_sets_no_process_state(self, tmp_path, monkeypatch, argv, code):
        # the command runs under the SIGTERM handler the caller set, and no
        # logging handler is added: both are entry()'s to set
        def handler(signum, frame):
            pass

        seen = []
        build_parser = cli.build_parser

        def spy():
            seen.append(signal.getsignal(signal.SIGTERM))
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", spy)
        previous = signal.signal(signal.SIGTERM, handler)
        handlers = logging.root.handlers[:]
        logging.root.handlers.clear()
        try:
            try:
                assert main([*argv, "--out", str(tmp_path / "g.txt")]) == code
            except SystemExit as exc:
                assert exc.code == code
            added = logging.root.handlers[:]
        finally:
            logging.root.handlers[:] = handlers
            signal.signal(signal.SIGTERM, previous)
        assert seen == [handler]
        assert added == []

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_fail_before_any_output(self, tmp_path, capsys, workers):
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--workers", workers, "--out", out) == 1
        assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, k", [(10, 0), (3, 5), (1, 1)])
    def test_invalid_graph_size_fails_before_any_output(self, tmp_path, capsys, n, k):
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--n", n, "--k", k, "--out", out) == 1
        assert f"got n={n}, k={k}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_lambda_fails_before_any_output(self, tmp_path, capsys):
        # an infinite lambda draws every rate as 0.0: stability 0 on every record
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--lambda", "inf", "--out", out) == 1
        assert "error: rate_lambda must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_tolerance_fails_before_any_output(self, tmp_path, capsys):
        # an infinite tolerance counts every row converged before its first step
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--tolerance", "inf", "--out", out) == 1
        assert "error: tolerance must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rate_lambda", ["-1e-3", "-inf"])
    def test_negative_lambda_fails_before_any_output(self, tmp_path, capsys, rate_lambda):
        # argparse takes these for options unless they are attached to --lambda
        out = tmp_path / "run"
        assert run_cli("ensemble", "--samples", 5, "--lambda", rate_lambda, "--out", out) == 1
        message = f"error: rate_lambda must be > 0, got {float(rate_lambda)}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_config_is_the_library_default(self, tmp_path):
        assert run_cli("ensemble", "--samples", 5, "--out", tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == config_to_dict(replace(EnsembleConfig(), sample_count=5))

    def test_summary_quantiles_match_csv(self, tmp_path):
        assert run_cli("ensemble", "--samples", 30, "--seed", 2, "--out", tmp_path) == 0
        stabilities = read_records(tmp_path / "records.jsonl").stability
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

    def test_failing_analysis_leaves_no_directory(self, tmp_path, small_run, capsys):
        out = tmp_path / "analysis"
        assert run_cli(
            "analyze", "--records", small_run / "records.jsonl", "--bins", 0, "--out", out
        ) == 1
        assert "need at least one bin, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_write_removes_the_directory_it_made(self, tmp_path, small_run, monkeypatch):
        def fail(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(cli, "write_json", fail)
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", small_run / "records.jsonl", "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("rate_lambda", ["-1", "0", "nan", "-1e-3", "-inf"])
    def test_non_positive_lambda_fails_before_any_output(
        self, tmp_path, small_run, capsys, rate_lambda
    ):
        out = tmp_path / "analysis"
        assert run_cli(
            "analyze", "--records", small_run / "records.jsonl", "--lambda", rate_lambda,
            "--out", out,
        ) == 1
        message = f"error: rate_lambda must be > 0, got {float(rate_lambda)}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_lambda_fails_before_any_output(self, tmp_path, small_run, capsys):
        out = tmp_path / "analysis"
        assert run_cli(
            "analyze", "--records", small_run / "records.jsonl", "--lambda", "inf", "--out", out,
        ) == 1
        assert "error: rate_lambda must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_records_fails(self, tmp_path):
        assert run_cli("analyze", "--records", tmp_path / "nope.jsonl", "--out", tmp_path) != 0

    def test_converged_only_counts_the_records_it_drops(self, tmp_path, small_run):
        records = flag_non_converged(small_run, tmp_path, [7])
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", records, "--converged-only", "--out", out) == 0
        summary = json.loads((out / "analysis_summary.json").read_text())
        assert (summary["record_count"], summary["non_converged"]) == (299, 1)
        assert "spearman_converged_only" not in summary

    def test_mixed_records_add_the_converged_only_spearman(self, tmp_path, small_run):
        records = flag_non_converged(small_run, tmp_path, [7])
        mixed, only = tmp_path / "mixed", tmp_path / "only"
        assert run_cli("analyze", "--records", records, "--out", mixed) == 0
        assert run_cli("analyze", "--records", records, "--converged-only", "--out", only) == 0
        summary = json.loads((mixed / "analysis_summary.json").read_text())
        assert (summary["record_count"], summary["non_converged"]) == (300, 1)
        expected = json.loads((only / "analysis_summary.json").read_text())["spearman"]
        assert summary["spearman_converged_only"] == expected

    def test_converged_only_without_converged_records_fails(self, tmp_path, small_run, capsys):
        records = flag_non_converged(small_run, tmp_path, range(300))
        out = tmp_path / "analysis"
        assert run_cli("analyze", "--records", records, "--converged-only", "--out", out) == 1
        assert "error: no converged records to analyze" in capsys.readouterr().err
        assert not out.exists()


def flag_non_converged(small_run, tmp_path, indices):
    """A copy of the run with the records at `indices` flagged not converged."""
    lines = (small_run / "records.jsonl").read_text().splitlines()
    for index in indices:
        lines[index] = set_field(lines[index], "solver_converged", False)
    path = tmp_path / "flagged.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


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


def set_degree_count(line, degree, value):
    """The line with its degree histogram's count at degree set to value."""
    record = json.loads(line)
    record["degree_histogram"][degree] = value
    return json.dumps(record)


def set_rate(line, value):
    """The line with its fourth outgoing rate set to value."""
    record = json.loads(line)
    record["outgoing_rates"][3][2] = value
    return json.dumps(record)


def drop_rate(line):
    """The line without its fourth outgoing rate triple."""
    record = json.loads(line)
    del record["outgoing_rates"][3]
    return json.dumps(record)


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
            (
                lambda line: set_degree_count(line, 0, -5),
                "degree_histogram counts must be >= 0 and sum to its 10 entries",
            ),
            (
                lambda line: set_degree_count(line, 9, 1),
                "degree_histogram counts must be >= 0 and sum to its 10 entries",
            ),
            (drop_rate, "outgoing_rates has 33 rates, its degree_histogram implies 34"),
            (lambda line: set_rate(line, -1.0), "outgoing rate -1.0 is not finite and >= 0"),
            (lambda line: set_rate(line, math.nan), "outgoing rate nan is not finite and >= 0"),
            (lambda line: line + " {}", "Extra data"),
            (lambda line: "\ufeff" + line, "Unexpected UTF-8 BOM"),
            (
                lambda line: set_field(line, "degree_histogram", "abc"),
                "field 'degree_histogram' has the wrong type",
            ),
        ],
        ids=["bad_json", "not_object", "missing_field", "wrong_type", "histogram_length",
             "negative_count", "count_sum", "rate_count", "negative_rate", "nan_rate",
             "extra_data", "bom", "histogram_not_list"],
    )
    def test_error_names_file_and_line(self, tmp_path, small_run, capsys, command, edit, message):
        records = corrupt_second_line(small_run, tmp_path, edit)
        out = tmp_path / "out"
        argv = ["--stars", 2] if command == "star-compare" else []
        assert run_cli(command, "--records", records, *argv, "--out", out) == 1
        assert f"error: {records}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_nesting_past_the_recursion_limit_names_file_and_line(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("[" * 100_000 + "\n")
        out = tmp_path / "out"
        assert run_cli("analyze", "--records", records, "--out", out) == 1
        assert f"error: {records}:1: maximum recursion depth exceeded" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "star-compare"])
    def test_empty_file_fails(self, tmp_path, capsys, command):
        records = tmp_path / "records.jsonl"
        records.write_text("")
        out = tmp_path / "out"
        assert run_cli(command, "--records", records, "--out", out) == 1
        assert f"error: no records in {records}" in capsys.readouterr().err
        assert not out.exists()


class TestFailedCommandRemovesPartialOutputs:
    """The last output is a directory, so writing it fails after the others are written."""

    def test_analyze(self, tmp_path, small_run):
        out = tmp_path / "analysis"
        (out / "analysis_summary.json").mkdir(parents=True)
        assert run_cli("analyze", "--records", small_run / "records.jsonl", "--out", out) == 1
        assert [p.name for p in out.iterdir()] == ["analysis_summary.json"]

    def test_ensemble(self, tmp_path):
        (tmp_path / "summary.json").mkdir()
        assert run_cli("ensemble", "--samples", 5, "--out", tmp_path) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_coalition(self, tmp_path):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sweep.csv"
        Path(str(out) + ".json").mkdir()
        assert run_cli("coalition", "--graph", graph, "--rates", rates, "--out", out) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.txt", "rates.csv", "sweep.csv.json"]

    def test_output_that_cannot_be_removed_is_logged(self, tmp_path, monkeypatch, caplog):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sweep.csv"
        Path(str(out) + ".json").mkdir()

        def refuse(path, missing_ok=False):
            raise PermissionError(f"cannot remove {path}")

        monkeypatch.setattr(Path, "unlink", refuse)
        with caplog.at_level(logging.WARNING, logger="likenet"):
            assert run_cli("coalition", "--graph", graph, "--rates", rates, "--out", out) == 1
        assert f"could not remove partial output {out}" in [r.getMessage() for r in caplog.records]
        assert out.is_file()


class TestCoalitionCommand:
    def test_baseline_sweep_point(self, tmp_path):
        g = generate_ba(6, 2, 3)
        rng = np.random.default_rng(5)
        rates = random_rates(g, rng)
        a, b = g.edges[0]
        symmetric = with_pair_rate(rates, a, b, 0.9)
        gpath, rpath = tmp_path / "g.txt", tmp_path / "r.csv"
        from likenet.graphs import write_edge_list

        write_edge_list(g, gpath)
        np.savetxt(rpath, symmetric.values, delimiter=",")
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

    def test_unconverged_sweep_points_are_warned_about(self, tmp_path, caplog):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sweep.csv"
        with caplog.at_level(logging.WARNING, logger="likenet"):
            assert run_cli("coalition", "--graph", graph, "--rates", rates, "--a", 0, "--b", 1,
                           "--joint-rates", "0.5,1,2", "--max-iter", 1, "--out", out) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        # at 0.5 the uniform start is the fixed point
        assert warnings == ["2 of 3 sweep points did not converge"]
        assert not json.loads((tmp_path / "sweep.csv.json").read_text())["all_converged"]

    @pytest.mark.parametrize("a, b", [(-1, 4), (99, 0)])
    def test_node_outside_the_graph_fails_without_output(self, tmp_path, capsys, a, b):
        gpath = tmp_path / "g.txt"
        assert run_cli("generate", "--n", 10, "--k", 2, "--seed", 7, "--out", gpath) == 0
        rpath = tmp_path / "r.csv"
        rates = random_rates(read_edge_list(gpath), np.random.default_rng(7))
        np.savetxt(rpath, rates.values, delimiter=",")
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "coalition", "--graph", gpath, "--rates", rpath, "--a", a, "--b", b, "--out", out,
        ) == 1
        assert f"({a}, {b}) is not an edge" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "r.csv"]

    def test_edgeless_graph_fails_without_output(self, tmp_path, capsys):
        gpath, rpath = tmp_path / "g.txt", tmp_path / "r.csv"
        gpath.write_text("n=3\n")
        np.savetxt(rpath, np.zeros((3, 3)), delimiter=",")
        out = tmp_path / "sweep.csv"
        assert run_cli("coalition", "--graph", gpath, "--rates", rpath, "--out", out) == 1
        assert "error: the graph has no edges" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "r.csv"]

    @pytest.mark.parametrize(
        "given, message",
        [(["--a", 0], "give both --a and --b, or neither"),
         (["--joint-rates", ","], "empty --joint-rates")],
        ids=["a_without_b", "empty_joint_rates"],
    )
    def test_input_error_fails_without_output(self, tmp_path, capsys, given, message):
        graph, rates = write_two_node_inputs(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("coalition", "--graph", graph, "--rates", rates, *given, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.txt", "rates.csv"]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_joint_rate_fails_before_any_solve(self, tmp_path, monkeypatch, capsys, bad):
        graph, rates = write_two_node_inputs(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("solved before the joint rates were checked")

        monkeypatch.setattr("likenet.analysis.solve_rate_batch", refuse)
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "coalition", "--graph", graph, "--rates", rates, "--joint-rates", f"1,{bad}",
            "--out", out,
        ) == 1
        err = capsys.readouterr().err
        assert f"error: joint rate must be finite and nonnegative, got {bad}" in err
        assert not out.exists()


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

    def test_builds_no_rate_matrix_or_stability_result(self, tmp_path, small_run, monkeypatch):
        args = ["star-compare", "--stars", 70, "--records", small_run / "records.jsonl"]
        assert run_cli(*args, "--out", tmp_path / "plain.json") == 0

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"star-compare built a {type(self).__name__}")

        for cls in (RateMatrix, StabilityResult):
            monkeypatch.setattr(cls, "__init__", refuse)
        assert run_cli(*args, "--out", tmp_path / "guarded.json") == 0
        assert (tmp_path / "guarded.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_node_count_comes_from_the_records(self, tmp_path):
        run = tmp_path / "run"
        assert run_cli("ensemble", "--n", 6, "--k", 2, "--samples", 200, "--seed", 3,
                       "--out", run) == 0
        out = tmp_path / "stars.json"
        assert run_cli("star-compare", "--stars", 20, "--records", run / "records.jsonl",
                       "--out", out) == 0
        result = star_comparison(20, read_records(run / "records.jsonl"), EnsembleConfig(n=6), 0.001)
        expected = tmp_path / "expected.json"
        write_json({**asdict(result), "strategic_fraction": 0.001, "strategic_direction": "high"},
                   expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_unknown_direction_fails_without_output(self, tmp_path, small_run, monkeypatch, capsys):
        monkeypatch.setenv("LIKENET_STRATEGIC_DIRECTION", "bogus")
        out = tmp_path / "stars.json"
        assert run_cli(
            "star-compare", "--stars", 2, "--records", small_run / "records.jsonl", "--out", out
        ) == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestCsvFormat:
    """Each CSV the CLI writes, byte for byte: a header row, then one row per
    value, floats spelled as their repr, bools as True/False, CRLF line ends.
    The expected text is built from the library's own return values."""

    @staticmethod
    def expected(header, rows):
        return "".join(",".join(row) + "\r\n" for row in [header, *rows])

    @pytest.fixture
    def inputs(self, tmp_path):
        g = generate_ba(8, 2, 3)
        gpath, rpath = tmp_path / "g.txt", tmp_path / "r.csv"
        from likenet.graphs import write_edge_list

        write_edge_list(g, gpath)
        np.savetxt(rpath, random_rates(g, np.random.default_rng(5)).values, delimiter=",")
        return gpath, rpath

    @pytest.mark.parametrize("measure", ["likedness", "eigenvector"])
    def test_solve(self, tmp_path, inputs, measure):
        from likenet.centrality import eigenvector_centrality, likedness_centrality, read_rates

        gpath, rpath = inputs
        out = tmp_path / "sol.csv"
        assert run_cli("solve", "--graph", gpath, "--rates", rpath, "--measure", measure,
                       "--out", out) == 0
        solve = likedness_centrality if measure == "likedness" else eigenvector_centrality
        cv = solve(read_edge_list(gpath), read_rates(rpath))
        rows = [[str(node), repr(float(value)), str(cv.converged), str(cv.iterations)]
                for node, value in enumerate(cv.values)]
        assert out.read_bytes().decode() == self.expected(
            ["node", "value", "converged", "iterations"], rows
        )

    def test_coalition(self, tmp_path, inputs):
        from likenet.analysis import coalition_sweep, pick_outlying_pair
        from likenet.centrality import read_rates

        gpath, rpath = inputs
        out = tmp_path / "sweep.csv"
        assert run_cli("coalition", "--graph", gpath, "--rates", rpath,
                       "--joint-rates", "0,0.5,3", "--out", out) == 0
        g = read_edge_list(gpath)
        points = coalition_sweep(g, read_rates(rpath), *pick_outlying_pair(g), [0.0, 0.5, 3.0])
        rows = [[repr(p.joint_rate), repr(p.member_a), repr(p.member_b), repr(p.others_mean),
                 str(p.converged)] for p in points]
        assert out.read_bytes().decode() == self.expected(
            ["joint_rate", "member_a", "member_b", "others_mean", "converged"], rows
        )

    def test_analyze_series(self, tmp_path, small_run):
        from likenet.analysis import percentile_edges, rate_representation
        from likenet.stability import classify_strategic

        out = tmp_path / "analysis"
        records = small_run / "records.jsonl"
        assert run_cli("analyze", "--records", records, "--strategic-fraction", 0.01,
                       "--out", out) == 0
        table = read_records(records)
        strategic, _ = classify_strategic(table.stability, 0.01, "high")
        series = rate_representation(table, strategic, percentile_edges(50, 1.0))
        edges, values, counts = series.bin_edges, series.bin_values, series.bin_counts
        rows = [[repr(float(low)), repr(float(high)), repr(float(value)), str(int(count))]
                for low, high, value, count in zip(edges, edges[1:], values, counts)]
        assert rows[-1][1] == "inf"
        assert (out / "rate_representation.csv").read_bytes().decode() == self.expected(
            ["bin_low", "bin_high", "value", "count"], rows
        )


@pytest.mark.parametrize(
    "env, config",
    [({"LIKENET_K": "0"}, None), ({"LIKENET_SAMPLES": "abc"}, None), ({}, "sample_count = 0\n")],
    ids=["env_k", "env_samples", "config_sample_count"],
)
def test_star_compare_ignores_options_it_does_not_take(
    tmp_path, small_run, monkeypatch, env, config
):
    args = ["star-compare", "--stars", 5, "--records", small_run / "records.jsonl"]
    assert run_cli(*args, "--out", tmp_path / "plain.json") == 0
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", tmp_path / "run.cfg"]
    assert run_cli(*args, "--out", tmp_path / "set.json") == 0
    assert (tmp_path / "set.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


class TestOptionsCheckedBeforeRecords:
    """A bad option fails with its own message before any record is read."""

    @pytest.mark.parametrize(
        "command, options, env, message",
        [
            ("analyze", ["--lambda", "-1"], None, "rate_lambda must be > 0, got -1.0"),
            ("analyze", ["--bins", "0"], None, "need at least one bin, got 0"),
            ("analyze", ["--strategic-fraction", "2"], None, "fraction must be in (0, 1), got 2.0"),
            ("analyze", [], "bogus",
             "LIKENET_STRATEGIC_DIRECTION must be one of low, high, got 'bogus'"),
            ("star-compare", ["--stars", "0"], None, "star_samples must be >= 1"),
            ("star-compare", ["--strategic-fraction", "2"], None,
             "fraction must be in (0, 1), got 2.0"),
            ("star-compare", [], "bogus",
             "LIKENET_STRATEGIC_DIRECTION must be one of low, high, got 'bogus'"),
            ("star-compare", ["--seed", "-3"], None, "master_seed must be >= 0, got -3"),
        ],
    )
    def test_bad_option_fails_without_reading_records(
        self, tmp_path, monkeypatch, capsys, command, options, env, message
    ):
        def refuse(path):
            raise AssertionError(f"{command} read {path} before checking its options")

        monkeypatch.setattr(cli, "read_records", refuse)
        if env is not None:
            monkeypatch.setenv("LIKENET_STRATEGIC_DIRECTION", env)
        out = tmp_path / "out"
        assert run_cli(command, *options, "--records", tmp_path / "records.jsonl",
                       "--out", out) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestOptionsCheckedBeforeInputs:
    """solve and coalition check their options before they read --graph or --rates."""

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("solve", ["--tolerance", "-1"], "tolerance must be > 0, got -1.0"),
            ("solve", ["--max-iter", "0"], "max_iterations must be >= 1, got 0"),
            ("coalition", ["--tolerance", "-1"], "tolerance must be > 0, got -1.0"),
            ("coalition", ["--max-iter", "0"], "max_iterations must be >= 1, got 0"),
            ("coalition", ["--joint-rates", ","], "empty --joint-rates"),
        ],
        ids=["solve_tolerance", "solve_max_iter", "coalition_tolerance", "coalition_max_iter",
             "coalition_joint_rates"],
    )
    def test_bad_option_fails_without_reading_inputs(
        self, tmp_path, monkeypatch, capsys, command, options, message
    ):
        def refuse(path):
            raise AssertionError(f"{command} read {path} before checking its options")

        monkeypatch.setattr(cli, "read_edge_list", refuse)
        monkeypatch.setattr(cli, "read_rates", refuse)
        out = tmp_path / "out.csv"
        assert run_cli(command, *options, "--graph", tmp_path / "g.txt",
                       "--rates", tmp_path / "r.csv", "--out", out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_star_count_from_env_and_flag_beats_env(self, tmp_path, small_run, monkeypatch):
        monkeypatch.setenv("LIKENET_STARS", "7")
        records = small_run / "records.jsonl"
        via_env, via_flag = tmp_path / "env.json", tmp_path / "flag.json"
        assert run_cli("star-compare", "--records", records, "--out", via_env) == 0
        assert run_cli("star-compare", "--stars", 3, "--records", records, "--out", via_flag) == 0
        assert json.loads(via_env.read_text())["star_count"] == 7
        assert json.loads(via_flag.read_text())["star_count"] == 3

    def test_joint_rates_from_env_and_flag_beats_env(self, tmp_path, monkeypatch):
        graph, rates = write_two_node_inputs(tmp_path)
        monkeypatch.setenv("LIKENET_JOINT_RATES", "0.5,2")
        via_env, via_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
        common = ["coalition", "--graph", graph, "--rates", rates, "--a", 0, "--b", 1]
        assert run_cli(*common, "--out", via_env) == 0
        assert run_cli(*common, "--joint-rates", "3", "--out", via_flag) == 0
        for out, expected in ((via_env, [0.5, 2.0]), (via_flag, [3.0])):
            with open(out, newline="") as fh:
                assert [float(row["joint_rate"]) for row in csv.DictReader(fh)] == expected

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_bad_joint_rates_name_the_text(self, tmp_path, monkeypatch, capsys, via_env):
        graph, rates = write_two_node_inputs(tmp_path)
        given = ["--joint-rates", "a,1"]
        if via_env:
            monkeypatch.setenv("LIKENET_JOINT_RATES", "a,1")
            given = []
        out = tmp_path / "sweep.csv"
        assert run_cli("coalition", "--graph", graph, "--rates", rates, *given, "--out", out) == 1
        err = capsys.readouterr().err
        assert "error: joint rates must be comma-separated numbers, got 'a,1'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, flag_value",
        [
            ("ensemble", "workers", 2, 3),
            ("analyze", "bins", 10, 20),
            ("star-compare", "stars", 7, 3),
            ("coalition", "joint_rates", "0.5,2", "3"),
            ("generate", "model", "star", "ba"),
            ("solve", "measure", "eigenvector", "likedness"),
            ("analyze", "strategic_direction", "low", "high"),
        ],
    )
    def test_config_file_takes_every_option(
        self, tmp_path, monkeypatch, command, key, value, flag_value
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        resolved = []
        monkeypatch.setattr(
            cli, "cmd_" + command.replace("-", "_"),
            lambda args, guard: resolved.append(getattr(args, key)),
        )
        flag = "--" + key.replace("_", "-")
        assert run_cli(command, *REQUIRED[command], "--config", cfg) == 0
        assert run_cli(command, *REQUIRED[command], "--config", cfg, flag, flag_value) == 0
        assert resolved == [value, flag_value]

    def test_env_cast_error_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIKENET_N", "abc")
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--model", "ba", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: LIKENET_N must be int, got 'abc'")
        assert not out.exists()

    def test_env_cast_error_fails_where_the_option_is_unused(self, tmp_path, monkeypatch, capsys):
        # a star uses no seed, but generate takes --seed, so its value is resolved all the same
        monkeypatch.setenv("LIKENET_SEED", "abc")
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--model", "star", "--out", out) == 1
        assert capsys.readouterr().err == "error: LIKENET_SEED must be int, got 'abc'\n"
        assert not out.exists()

    def test_env_choice_error_names_the_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LIKENET_MODEL", "tree")
        out = tmp_path / "g.txt"
        assert run_cli("generate", "--out", out) == 1
        assert capsys.readouterr().err == "error: LIKENET_MODEL must be one of ba, star, got 'tree'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_config_choice_error_names_the_line(self, tmp_path, monkeypatch, capsys, command):
        # a config value is checked whether or not the command takes its key
        monkeypatch.chdir(tmp_path)
        Path("c.cfg").write_text("measure = foo\n")
        assert run_cli(command, *REQUIRED[command], "--config", "c.cfg") == 1
        err = capsys.readouterr().err
        assert err == "error: c.cfg:1: measure must be one of likedness, eigenvector, got 'foo'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("# run\nsample_size = 10\n", "run.cfg:2: unknown config key 'sample_size'"),
            ("# run\nn = abc\n", "run.cfg:2: n must be int, got 'abc'"),
            ("master_seed = -1\n", "master_seed must be >= 0, got -1"),
        ],
        ids=["missing", "unknown_key", "bad_value", "negative_seed"],
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
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("generate", "--tolerance"),
        ("generate", "--max-iter"),
        ("solve", "--seed"),
        ("coalition", "--seed"),
        ("ensemble", "--strategic-fraction"),
        ("analyze", "--seed"),
        ("analyze", "--tolerance"),
        ("analyze", "--max-iter"),
        ("star-compare", "--n"),
    ],
)
def test_command_rejects_options_it_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(REQUIRED))
def test_unknown_environment_variable_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LIKENET_TOLERENCE", "1e-13")
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command]])
    assert exc.value.code == 2
    assert "error: LIKENET_TOLERENCE is not a likenet option" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "env, config, message",
    [({"LIKENET_SAMPLES": "5"}, None, "LIKENET_SAMPLES is not applied: analyze does not take it"),
     ({}, "sample_count = 5\n", "run.cfg: sample_count is not applied: analyze does not take it")],
    ids=["env_samples", "config_sample_count"],
)
def test_option_the_command_does_not_take_is_logged_as_not_applied(
    tmp_path, small_run, monkeypatch, caplog, env, config, message
):
    args = ["analyze", "--records", small_run / "records.jsonl", "--out", tmp_path / "analysis"]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", "run.cfg"]
    with caplog.at_level(logging.WARNING, logger="likenet"):
        assert run_cli(*args) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == [message]


def test_config_file_named_by_environment(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text("master_seed = 5\n")
    monkeypatch.setenv("LIKENET_CONFIG", str(tmp_path / "run.cfg"))
    assert run_cli("generate", "--out", tmp_path / "env.txt") == 0
    monkeypatch.delenv("LIKENET_CONFIG")
    assert run_cli("generate", "--seed", 5, "--out", tmp_path / "flag.txt") == 0
    assert (tmp_path / "env.txt").read_bytes() == (tmp_path / "flag.txt").read_bytes()


@pytest.mark.parametrize("command", list(REQUIRED))
def test_help_shows_each_default(capsys, command):
    options = cli.build_parser().parse_args([command, *REQUIRED[command]]).options
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for key in options:
        assert f"{cli.HELP.get(key, '')} (default {cli.DEFAULTS[key]})".strip() in text


def test_readme_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("The defaults"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    listed = re.findall(r"`--([a-z-]+) ([^`]+)`", paragraph)
    keys = {cli.FLAGS.get(key, key).replace("_", "-"): key for key in cli.DEFAULTS}
    defaults = {keys[flag]: cli._cast(keys[flag], value, flag) for flag, value in listed}
    assert len(listed) == len(defaults)
    assert defaults == cli.DEFAULTS


def test_readme_examples_parse():
    # a renamed or removed option would leave a README example that fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("likenet ")]
    parser = cli.build_parser()
    parsed = {parser.parse_args(cli._attach_negative_values(argv)).command for argv in commands}
    assert parsed == {"generate", "solve", "ensemble", "analyze", "coalition", "star-compare"}


def test_module_entry_point(tmp_path):
    out = tmp_path / "g.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "likenet", "generate", "--model", "star", "--n", "4", "--out", str(out)],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert read_edge_list(out).n == 4


def test_console_script_is_the_module_entry_point():
    # `likenet` and `python -m likenet` run the one process entry, cli.entry
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'likenet = "likenet.cli:entry"'
    module_main = (root / "src" / "likenet" / "__main__.py").read_text()
    assert module_main == "from .cli import entry\n\nentry()\n"
