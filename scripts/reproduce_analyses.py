#!/usr/bin/env python3
"""Reproduce the figure-style analyses from a record file.

Runs `likenet analyze` and `likenet star-compare` on the records, then
adds what no subcommand computes from a record file: the reciprocity
curve of the most stable system and a `likenet coalition` sweep on it.
That system's graph and rates are rebuilt from the record's stored
rates. Options reach both subcommands the usual way, through LIKENET_*
environment variables or a LIKENET_CONFIG file.

Usage: python scripts/reproduce_analyses.py RECORDS_JSONL OUT_DIR

OUT_DIR receives analyze's files, star_comparison.json,
most_stable_graph.txt, most_stable_rates.txt,
reciprocity_most_stable.csv and coalition_most_stable.csv (+ .json).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from likenet import cli
from likenet.analysis import reciprocity_curve
from likenet.centrality import RateMatrix, write_rates_triplets
from likenet.graphs import Graph, write_edge_list


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("records")
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    out = Path(args.out_dir)

    for command in (
        ["analyze", "--records", args.records, "--out", str(out)],
        ["star-compare", "--records", args.records, "--out", str(out / "star_comparison.json")],
    ):
        code = cli.main(command)
        if code:
            return code

    with open(args.records, encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if not line.isspace())
        best = max(records, key=lambda r: (r["stability"], -r["record_index"]))
    n = len(best["degree_histogram"])
    g = Graph(n, tuple((i, j) for i, j, _ in best["outgoing_rates"] if i < j))
    values = np.zeros((n, n))
    for i, j, rate in best["outgoing_rates"]:
        values[i, j] = rate
    rates = RateMatrix(n, values)
    graph_path, rates_path = out / "most_stable_graph.txt", out / "most_stable_rates.txt"
    write_edge_list(g, graph_path)
    write_rates_triplets(rates, rates_path)
    cli.write_series_csv(reciprocity_curve(g, rates, 3), out / "reciprocity_most_stable.csv")
    return cli.main(
        ["coalition", "--graph", str(graph_path), "--rates", str(rates_path),
         "--out", str(out / "coalition_most_stable.csv")]
    )


if __name__ == "__main__":
    sys.exit(main())
