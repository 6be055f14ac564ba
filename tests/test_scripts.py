"""Smoke test of scripts/reproduce_analyses.py on a small run."""

import csv
import json
import runpy
from pathlib import Path

import numpy as np

from likenet.centrality import read_rates
from likenet.cli import main
from likenet.ensemble import sample_rates
from likenet.graphs import generate_ba, read_edge_list

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_analyses.py"


def test_reproduce_analyses_writes_every_output(tmp_path):
    # 60 records: the logistic fit in `analyze` needs at least 50
    run = tmp_path / "run"
    assert main(["ensemble", "--samples", "60", "--seed", "19", "--out", str(run)]) == 0
    out = tmp_path / "analysis"
    script = runpy.run_path(str(SCRIPT))
    assert script["main"]([str(run / "records.jsonl"), str(out)]) == 0

    assert {p.name for p in out.iterdir()} == {
        "analysis_summary.json",
        "rate_representation.csv",
        "degree_representation.csv",
        "stability_vs_mean_path_length.csv",
        "stability_vs_mean_local_clustering.csv",
        "stability_vs_degree_stddev.csv",
        "star_comparison.json",
        "most_stable_graph.txt",
        "most_stable_rates.txt",
        "reciprocity_most_stable.csv",
        "coalition_most_stable.csv",
        "coalition_most_stable.csv.json",
    }
    assert json.loads((out / "analysis_summary.json").read_text())["record_count"] == 60
    stars = json.loads((out / "star_comparison.json").read_text())
    assert stars["star_count"] == 1000 and stars["ba_hub_count"] >= 1

    # the system rebuilt from stored rates is the one its seeds generate
    records = [json.loads(line) for line in (run / "records.jsonl").read_text().splitlines()]
    best = max(records, key=lambda r: r["stability"])
    g = generate_ba(10, 2, best["graph_seed"])
    assert read_edge_list(out / "most_stable_graph.txt") == g
    rates = read_rates(out / "most_stable_rates.txt")
    assert np.array_equal(rates.values, sample_rates(g, 1.0, best["rate_seed"]).values)

    with open(out / "reciprocity_most_stable.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3
    with open(out / "coalition_most_stable.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 7
    assert json.loads((out / "coalition_most_stable.csv.json").read_text())["all_converged"]
