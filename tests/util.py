"""Shared helpers for the test suite: random instances, the independent
fixed-point oracle used to cross-check the solver, a block's record lines,
and the environment and bounded run of a child python."""

import io
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from likenet.centrality import RateMatrix
from likenet.ensemble import compute_block
from likenet.graphs import Graph, compute_metrics


def child_env():
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    child python imports the likenet under test, not an installed one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_likenet(*args, deadline, env=()):
    """Run `python -m likenet *args` in a session of its own, with
    child_env() updated by env, and return its exit code and stderr.

    The test fails if the command and every process it started have not
    ended within deadline seconds, after the session is killed: nothing
    else would stop a hang.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "likenet", *map(str, args)], env={**child_env(), **dict(env)},
        start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        # stderr reaches EOF once every process of the session has closed it
        _, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"likenet {' '.join(map(str, args))} did not end within {deadline} s")
    return proc.returncode, err


def block_text(config, start, stop):
    """The records.jsonl lines that compute_block writes for records start..stop-1."""
    lines = io.BytesIO()
    compute_block(config, start, stop, lines)
    return lines.getvalue().decode()


def random_connected_graph(n, rng):
    """Random connected graph: spanning tree plus a few extra edges."""
    while True:
        edges = set()
        order = list(rng.permutation(n))
        for idx in range(1, n):
            a, b = order[idx], order[int(rng.integers(idx))]
            edges.add((min(a, b), max(a, b)))
        for _ in range(int(rng.integers(0, n))):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        g = Graph(n=n, edges=tuple(sorted(edges)))
        if compute_metrics(g).connected:
            return g


def random_rates(g, rng, low=0.05, high=3.0):
    values = np.zeros((g.n, g.n))
    for i, j in g.edges:
        values[i, j] = rng.uniform(low, high)
        values[j, i] = rng.uniform(low, high)
    return RateMatrix(n=g.n, values=values)


def with_pair_rate(rates, a, b, rho):
    """rates with the rates of a and b for each other both set to rho."""
    values = rates.values.copy()
    values[a, b] = values[b, a] = rho
    return RateMatrix(n=rates.n, values=values)


def undamped_fixed_point(g, rates, tol, max_iter=500_000):
    """Independent oracle: plain substitution, no damping, no batching.

    Returns (raw_values, converged). Deliberately written as a direct
    translation of the defining equation.
    """
    adj = g.adjacency
    values = np.full(g.n, 1.0 / g.n)
    values[g.degrees == 0] = 0.0
    for _ in range(max_iter):
        numer = rates.values @ values
        denom = adj @ values
        nxt = np.where(denom > 0, numer / np.where(denom > 0, denom, 1.0), 0.0)
        nxt[g.degrees == 0] = 0.0
        if np.abs(nxt - values).max() <= tol:
            return nxt, True
        values = nxt
    return values, False
