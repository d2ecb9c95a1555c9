"""Run the randomx-eval CLI in-process with a span around every layer call.

Usage: ``python3 tracer.py SPANS_JSON CLI_ARG...`` with the package on
``PYTHONPATH``.  Exits with the CLI's own exit code and writes the spans to
``SPANS_JSON`` when the CLI returns.

Nothing in the package changes: each layer's functions are replaced, as bound
in the module that calls them, by a wrapper that records a span (name, start,
end, parent) or a count.  A layer's self time is its spans' durations minus
the time their direct child spans cover.  Spans are kept in memory and
written once at the end.  Only ``--threads 1`` can be traced: one stack of
open spans assumes one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import uuid
from collections import Counter, defaultdict

#: Per-layer metrics derived from one traced invocation, with their units.
LAYER_UNITS = {
    "_pool.replicates": "count",
    "_pool.self_ms": "ms",
    "datagen.stream.calls": "count",
    "datagen.stream.self_ms": "ms",
    "datagen.draw_covariates.calls": "count",
    "datagen.draw_covariates.rows": "count",
    "datagen.draw_covariates.normal_block.self_ms": "ms",
    "datagen.draw_covariates.copula_uniform.self_ms": "ms",
    "datagen.draw_covariates.copula_t4.self_ms": "ms",
    "datagen.evaluate.self_ms": "ms",
    "datagen.draw_response.self_ms": "ms",
    "smoothers.fit.calls": "count",
    "smoothers.fit.self_ms": "ms",
    "smoothers.predict.rows": "count",
    "smoothers.predict.self_ms": "ms",
    "smoothers.neighbor_sets.self_ms": "ms",
    "smoothers.kernel_matrix.self_ms": "ms",
    "smoothers.gaussian_bandwidth.self_ms": "ms",
    "smoothers.distance_bytes_computed": "bytes",
    "linalg.cholesky.calls": "count",
    "linalg.cholesky.self_ms": "ms",
    "linalg.cholesky.flops_computed": "flop",
    "decomp.conditional_moments.calls": "count",
    "decomp.conditional_moments.self_ms": "ms",
    "decomp.self_ms": "ms",
    "experiments.err_r_target.self_ms": "ms",
    "experiments.self_ms": "ms",
    "criteria.calls": "count",
    "criteria.self_ms": "ms",
    "cli.self_ms": "ms",
}

_CRITERIA_FUNCTIONS = ("rcp", "rcp_hat", "gcv", "bplus_hat", "ocv")


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns, attrs]
        self.counters: Counter = Counter()
        self._open = [None]

    def call(self, name: str, fn, args, kwargs, attrs=None):
        record = [len(self.spans), self._open[-1], name, 0, 0, attrs]
        self.spans.append(record)
        self._open.append(record[0])
        record[3] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter_ns()
            self._open.pop()

    def patch(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``attrs`` maps the arguments to the span's attributes.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, args, kwargs, attrs(*args, **kwargs) if attrs else None)

        setattr(owner, attr, traced)

    def patch_pool(self, owner, layer: str) -> None:
        """Span ``run_replicates`` as bound in ``owner``, and each replicate as a child."""
        fn = owner.run_replicates

        def traced(one_rep, reps, threads, master_seed):
            if threads > 1:
                raise RuntimeError("only --threads 1 can be traced")

            def replicate(r):
                return self.call(f"{layer}.replicate", one_rep, (r,), {})

            return self.call("_pool.run_replicates", fn, (replicate, reps, threads, master_seed),
                             {}, {"reps": reps})

        owner.run_replicates = traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark's workloads cross."""
    from randomx_eval import cli, datagen, decomp, experiments, smoothers

    def rows(model, n, rng):
        return {"rows": n}

    def variant(model, n, rng):
        return f"datagen.draw_covariates.{model.variant}"

    def flops(A):
        return {"flops": A.shape[0] ** 3 / 3}

    for owner in (decomp, experiments):
        tracer.patch(owner, "stream", "datagen.stream")
        tracer.patch(owner, "draw_covariates", variant, rows)
    tracer.patch(datagen.MeanModel, "evaluate", "datagen.evaluate")
    tracer.patch(experiments, "draw_response", "datagen.draw_response")
    tracer.patch_pool(decomp, "decomp")
    tracer.patch_pool(experiments, "experiments")

    tracer.patch(cli, "run_decomposition_study", "experiments.run_decomposition_study")
    tracer.patch(cli, "run_criteria_study", "experiments.run_criteria_study")
    tracer.patch(experiments, "err_r_target", "experiments.err_r_target")
    tracer.patch(experiments, "estimate_decomposition", "decomp.estimate_decomposition")
    tracer.patch(decomp, "conditional_moments", "decomp.conditional_moments")

    for owner in (cli, experiments):
        tracer.patch(owner, "fit", "smoothers.fit")
    tracer.patch(experiments, "predict", "smoothers.predict",
                 lambda model, X0: {"rows": len(X0)})
    for owner in (decomp, smoothers):
        for fn in ("neighbor_sets", "kernel_matrix", "gaussian_bandwidth"):
            tracer.patch(owner, fn, f"smoothers.{fn}")
        tracer.patch(owner, "_cholesky_spd", "linalg.cholesky", flops)

    distances = smoothers._sq_distances

    def counted_distances(X0, X):
        tracer.counters["distance_bytes"] += 8 * X0.shape[0] * X.shape[0] * X.shape[1]
        return distances(X0, X)

    smoothers._sq_distances = counted_distances

    tracer.patch(cli, "criteria_report", "criteria.criteria_report")
    for fn in _CRITERIA_FUNCTIONS:
        tracer.patch(experiments, fn, f"criteria.{fn}")


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer counts and self times (ms) of one traced invocation."""
    spans = doc["spans"]
    child_ns = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    attrs: Counter = Counter()
    for sid, _, name, start, end, extra in spans:
        self_ms[name] += (end - start - child_ns[sid]) / 1e6
        calls[name] += 1
        for key, value in (extra or {}).items():
            attrs[f"{name}.{key}"] += value

    def layer_ms(prefix: str) -> float:
        return sum(v for k, v in self_ms.items() if k.startswith(prefix))

    def layer_calls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    draws = "datagen.draw_covariates."
    out = {
        "_pool.replicates": attrs["_pool.run_replicates.reps"],
        "_pool.self_ms": self_ms["_pool.run_replicates"],
        "datagen.stream.calls": calls["datagen.stream"],
        "datagen.draw_covariates.calls": layer_calls(draws),
        "datagen.draw_covariates.rows": sum(v for k, v in attrs.items() if k.startswith(draws)),
        "datagen.evaluate.self_ms": self_ms["datagen.evaluate"],
        "datagen.draw_response.self_ms": self_ms["datagen.draw_response"],
        "smoothers.fit.calls": calls["smoothers.fit"],
        "smoothers.predict.rows": attrs["smoothers.predict.rows"],
        "smoothers.distance_bytes_computed": doc["counters"].get("distance_bytes", 0),
        "linalg.cholesky.calls": calls["linalg.cholesky"],
        "linalg.cholesky.self_ms": self_ms["linalg.cholesky"],
        "linalg.cholesky.flops_computed": attrs["linalg.cholesky.flops"],
        "decomp.conditional_moments.calls": calls["decomp.conditional_moments"],
        "decomp.self_ms": layer_ms("decomp."),
        "experiments.self_ms": layer_ms("experiments."),
        "criteria.calls": layer_calls("criteria."),
        "criteria.self_ms": layer_ms("criteria."),
        "cli.self_ms": self_ms["cli.main"],
    }
    for variant in ("normal_block", "copula_uniform", "copula_t4"):
        out[f"{draws}{variant}.self_ms"] = self_ms[draws + variant]
    for name in ("datagen.stream", "smoothers.fit", "smoothers.predict", "smoothers.neighbor_sets",
                 "smoothers.kernel_matrix", "smoothers.gaussian_bandwidth",
                 "decomp.conditional_moments", "experiments.err_r_target"):
        out[f"{name}.self_ms"] = self_ms[name]
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from randomx_eval import cli

    try:
        return tracer.call("cli.main", cli.main, (cli_args,), {})
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
