"""Spans around likenet's layer boundaries, recorded from outside the package.

The tracer replaces module attributes such as ``likenet.ensemble.generate_ba``
with wrappers, so every call the program makes through that name opens a
span. Nothing under ``src/`` is edited: the wrappers sit at the call sites,
which is why a function imported into another module (``cli.read_records``)
is patched in the importing module.

A span is ``[name, start_ns, end_ns, parent, attrs]`` where ``parent`` is the
index of the enclosing span or -1. Spans stay in memory and are written out
once, when the traced process finishes. A layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import json
import time

# (module, attribute at the call site, span name). The span name's first
# component is the layer: the module that defines the function.
CALL_SITES = (
    ("likenet.cli", "run_to_files", "ensemble.run_to_files"),
    ("likenet.ensemble", "compute_record", "ensemble.compute_record"),
    ("likenet.ensemble", "record_seeds", "ensemble.record_seeds"),
    ("likenet.ensemble", "generate_ba", "graphs.generate_ba"),
    ("likenet.ensemble", "sample_rates", "ensemble.sample_rates"),
    ("likenet.ensemble", "compute_metrics", "graphs.compute_metrics"),
    ("likenet.ensemble", "stability", "stability.stability"),
    ("likenet.stability", "solve_rate_batch", "centrality.solve_rate_batch"),
    ("likenet.ensemble", "write_records", "ensemble.write_records"),
    ("likenet.ensemble", "summarize_records", "ensemble.summarize_records"),
    ("likenet.cli", "read_records", "ensemble.read_records"),
    ("likenet.cli", "classify_strategic", "stability.classify_strategic"),
    ("likenet.analysis", "rate_representation", "analysis.rate_representation"),
    ("likenet.analysis", "degree_representation", "analysis.degree_representation"),
    ("likenet.analysis", "stability_vs_metric", "analysis.stability_vs_metric"),
    ("likenet.analysis", "logistic_fit", "analysis.logistic_fit"),
)

LAYERS = ("graphs", "centrality", "stability", "ensemble", "analysis", "cli")


def _solve_counts(result) -> dict:
    """Row counts of one batched solve: the work needed and the work done."""
    _, converged, iterations = result
    rows = int(iterations.shape[0])
    slowest = int(iterations.max())
    return {
        "rows": rows,
        "row_iterations": int(iterations.sum()),
        "batch_iterations": slowest,
        # each row needs its updates plus one final residual check; the loop
        # evaluates every row until the slowest one settles
        "needed": int(iterations.sum()) + rows,
        "computed": rows * (slowest + 1),
        "nonconverged": int(rows - converged.sum()),
    }


ATTRS = {
    "centrality.solve_rate_batch": _solve_counts,
    "analysis.logistic_fit": lambda fit: {"iterations": int(fit.iterations)},
    "ensemble.write_records": lambda count: {"records": int(count)},
    "ensemble.read_records": lambda records: {"records": len(records)},
}


class Tracer:
    """Records nested spans in memory while its patches are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, None]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()
        attrs = ATTRS.get(name)
        if attrs is not None:
            record[4] = attrs(result)
        return result

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, name in CALL_SITES:
            module = modules[module_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return [end - start - child for (_, start, end, _, _), child in zip(spans, child_ns)]
