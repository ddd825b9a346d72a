"""Spans around cmlab's layers, recorded from outside the package.

For one job, ``Tracer.job_span()`` swaps the names the CLI calls (and the
consistency function's ``__call__``, the PF-ODE field factory and the score
path) for wrappers that record a span: name, start, end, parent span and
job id.
Spans stay in memory until ``write()``; ``layer_metrics()`` turns them into
per-job layer figures.  Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np


def _n_samples(samples, *_args, **_kwargs) -> int:
    return len(samples)


def _n_levels(_target, u, *_args, **_kwargs) -> int:
    return int(np.size(u))


# (module, attribute, span name, points counted from the call arguments)
_PATCHES = [
    ("cli", "multistep_sample", "sampler.multistep_sample", None),
    ("cli", "w2_vs_target_1d", "metrics.w2", _n_samples),
    ("cli", "w2_stderr_proxy", "metrics.w2_proxy", _n_samples),
    ("cli", "tv_grid", "metrics.tv", None),
    ("cli", "w2_bound_general", "bounds.w2_general", None),
    ("cli", "w2_bound_modified", "bounds.w2_modified", None),
    ("cli", "kl_bound", "bounds.kl", None),
    ("cli", "tv_bound", "bounds.tv", None),
    ("cli", "write_rows_csv", "cli.write_rows_csv", None),
    ("metrics", "target_quantiles_1d", "target.quantile", _n_levels),
    ("consistency_oracle", "marginal_quantile_1d", "oracle.boundary", None),
]


# Every per-layer metric of a traced run, in report order, with its unit.
LAYER_UNITS = {
    "cli.self_s": "s", "cli.csv_write_s": "s",
    "sampler.self_s": "s", "sampler.oracle_calls": "count",
    "oracle.fhat_s": "s", "oracle.boundary_solves": "count", "oracle.boundary_s": "s",
    "oracle.field_evals": "count", "oracle.field_points": "count",
    "target.score_s": "s", "target.quantile_s": "s", "target.quantile_points": "count",
    "metrics.w2_s": "s", "metrics.w2_proxy_s": "s", "metrics.sorted_points": "count",
    "metrics.tv_s": "s", "bounds.s": "s", "bounds.evals": "count",
    "setup.scipy_import_s": "s", "setup.cmlab_import_s": "s",
    "trace.job_s": "s", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self, cmlab_modules: dict):
        self.modules = cmlab_modules  # short name -> imported cmlab module
        self.spans: list[list] = []  # [id, name, parent, job, start, end, points]
        self.stack: list[int] = []
        self.job = -1
        self.jobs: list[int] = []
        self.counts: dict[str, int] = {"oracle.field_evals": 0, "oracle.field_points": 0}

    def _open(self, name: str, points: int = 0) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, parent, self.job, time.perf_counter(), 0.0, points])
        self.stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, points=None):
        def traced(*args, **kwargs):
            sid = self._open(name, points(*args, **kwargs) if points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    @contextmanager
    def job_span(self, job: int):
        """Patch every layer, open the root span of one CLI job, and put
        the original names back afterwards."""
        co = self.modules["consistency_oracle"]
        saved = [(self.modules[m], attr, getattr(self.modules[m], attr))
                 for m, attr, _, _ in _PATCHES]
        saved += [(co.ConsistencyFn, "__call__", co.ConsistencyFn.__call__),
                  (co, "_pf_ode_field", co._pf_ode_field),
                  (co, "marginal_score_path", co.marginal_score_path)]
        for module, attr, name, points in _PATCHES:
            mod = self.modules[module]
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), points))
        co.ConsistencyFn.__call__ = self._wrap("oracle.fhat", co.ConsistencyFn.__call__)
        field_factory = co._pf_ode_field
        score_path = co.marginal_score_path
        counts = self.counts

        def counted_field_factory(*args, **kwargs):
            field = field_factory(*args, **kwargs)

            def field_counted(j, y):
                counts["oracle.field_evals"] += 1
                counts["oracle.field_points"] += len(y)
                return field(j, y)
            return field_counted

        def traced_score_path(*args, **kwargs):
            return self._wrap("target.score", score_path(*args, **kwargs))

        co._pf_ode_field = counted_field_factory
        co.marginal_score_path = traced_score_path
        self.job = job
        self.jobs.append(job)
        sid = self._open("cli.job")
        try:
            yield
        finally:
            self._close(sid)
            for owner, attr, value in saved:
                setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("job,id,parent,name,start_s,end_s,points\n")
            for sid, name, parent, job, start, end, points in self.spans:
                fh.write(f"{job},{sid},{parent},{name},{start!r},{end!r},{points}\n")

    def layer_metrics(self) -> dict:
        """Per-job figures of every layer, averaged over the traced jobs.
        A self time is the span's duration minus that of its child spans."""
        children = [0.0] * len(self.spans)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        points: dict[str, int] = {}
        sampler_calls = 0
        for sid, name, parent, _, start, end, pts in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start - children[sid])
            points[name] = points.get(name, 0) + pts
            if name == "oracle.fhat" and parent >= 0 and \
                    self.spans[parent][1] == "sampler.multistep_sample":
                sampler_calls += 1
        bound_names = [n for n in total if n.startswith("bounds.")]
        jobs = max(len(self.jobs), 1)
        values = {
            "cli.self_s": self_time.get("cli.job", 0.0),
            "cli.csv_write_s": total.get("cli.write_rows_csv", 0.0),
            "sampler.self_s": self_time.get("sampler.multistep_sample", 0.0),
            "sampler.oracle_calls": sampler_calls,
            "oracle.fhat_s": total.get("oracle.fhat", 0.0),
            "oracle.boundary_solves": calls.get("oracle.boundary", 0),
            "oracle.boundary_s": total.get("oracle.boundary", 0.0),
            "oracle.field_evals": self.counts["oracle.field_evals"],
            "oracle.field_points": self.counts["oracle.field_points"],
            "target.score_s": total.get("target.score", 0.0),
            "target.quantile_s": total.get("target.quantile", 0.0),
            "target.quantile_points": points.get("target.quantile", 0),
            "metrics.w2_s": self_time.get("metrics.w2", 0.0),
            "metrics.w2_proxy_s": self_time.get("metrics.w2_proxy", 0.0),
            "metrics.sorted_points": points.get("metrics.w2", 0) + points.get("metrics.w2_proxy", 0),
            "metrics.tv_s": total.get("metrics.tv", 0.0),
            "bounds.s": sum(total[n] for n in bound_names),
            "bounds.evals": sum(calls[n] for n in bound_names),
        }
        return {k: v / jobs for k, v in values.items()}


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Cumulative import time of scipy and the self import time of cmlab's
    own modules, in seconds, from ``python -X importtime`` output."""
    entries = []  # (depth, name, self_us, cumulative_us), children first
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(self_us), int(cum_us)))
    scipy_us = cmlab_us = 0
    ancestors: list[str] = []  # ancestors[d] = the enclosing entry at depth d
    for depth, name, self_us, cum_us in reversed(entries):
        del ancestors[depth:]
        ancestors.append(name)
        top = name.split(".")[0]
        if top == "scipy" and not any(a.split(".")[0] == "scipy" for a in ancestors[:-1]):
            scipy_us += cum_us
        if top == "cmlab":
            cmlab_us += self_us
    return scipy_us * 1e-6, cmlab_us * 1e-6


def median(values) -> float:
    return statistics.median(values) if values else 0.0
