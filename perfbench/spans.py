"""Span tracer wrapped around halflearn's public functions, and the per-layer
metrics computed from its spans.

The tracer replaces each traced function at every module attribute through
which the program calls it (``pipeline.band_mass_tester`` as well as
``testers.band_mass_tester``), records spans in memory and writes them out
once, at the end of the run.  Nothing inside the program changes.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import time

import numpy as np

# (module, attribute, span name).  The optimizer reaches the surrogate through
# its own imports, so the minibatch ramp and the full-sample gradient are
# wrapped there; the gradient's internal ramp call stays inside its span.
WRAPPED = (
    ("datagen", "sample_marginal", "datagen.sample_marginal"),
    ("datagen", "apply_noise", "datagen.apply_noise"),
    ("datagen", "write_dataset_csv", "datagen.write_dataset_csv"),
    ("datagen", "read_dataset_csv", "datagen.read_dataset_csv"),
    ("pipeline", "learn_massart", "pipeline.learn_massart"),
    ("pipeline", "learn_agnostic", "pipeline.learn_agnostic"),
    ("pipeline", "select_best_candidate", "pipeline.select_best_candidate"),
    ("pipeline", "psgd_candidates", "optimizer.psgd_candidates"),
    ("optimizer", "ramp_derivative", "surrogate.ramp_derivative"),
    ("optimizer", "empirical_surrogate_gradient", "surrogate.empirical_surrogate_gradient"),
    ("pipeline", "moment_tester", "testers.moment_tester"),
    ("testers", "moment_tester", "testers.moment_tester"),
    ("pipeline", "band_mass_tester", "testers.band_mass_tester"),
    ("testers", "band_mass_tester", "testers.band_mass_tester"),
    ("pipeline", "band_moment_tester", "testers.band_moment_tester"),
    ("testers", "band_moment_tester", "testers.band_moment_tester"),
    ("pipeline", "strip_tester", "testers.strip_tester"),
    ("testers", "strip_tester", "testers.strip_tester"),
)

LEARNERS = ("pipeline.learn_massart", "pipeline.learn_agnostic")
# spans whose arguments or result feed a counter
NOTED = LEARNERS + (
    "datagen.write_dataset_csv",
    "optimizer.psgd_candidates",
    "testers.band_mass_tester",
    "testers.band_moment_tester",
)

# Summed inclusive span time per metric.
TIMED = {
    "datagen.sample_s": ("datagen.sample_marginal", "datagen.apply_noise"),
    "datagen.csv_write_s": ("datagen.write_dataset_csv",),
    "datagen.csv_read_s": ("datagen.read_dataset_csv",),
    "optimizer.psgd_s": ("optimizer.psgd_candidates",),
    "surrogate.ramp_derivative_s": ("surrogate.ramp_derivative",),
    "surrogate.gradient_s": ("surrogate.empirical_surrogate_gradient",),
    "testers.t1_s": ("testers.moment_tester",),
    "testers.t2_s": ("testers.band_mass_tester",),
    "testers.t3_s": ("testers.band_moment_tester",),
    "testers.t4_s": ("testers.strip_tester",),
    "pipeline.select_s": ("pipeline.select_best_candidate",),
}

# Every per-layer metric and its unit, in the order they are reported.
PER_LAYER = (
    ("datagen.sample_s", "s"),
    ("datagen.csv_write_s", "s"),
    ("datagen.csv_bytes", "bytes"),
    ("datagen.csv_read_s", "s"),
    ("optimizer.psgd_s", "s"),
    ("optimizer.psgd_iters", "count"),
    ("surrogate.ramp_derivative_s", "s"),
    ("surrogate.gradient_s", "s"),
    ("testers.t1_s", "s"),
    ("testers.t2_s", "s"),
    ("testers.t2_calls", "count"),
    ("testers.t2_per_band", "ratio"),
    ("testers.t3_s", "s"),
    ("testers.t3_calls", "count"),
    ("testers.t3_band_rows", "count"),
    ("testers.t4_s", "s"),
    ("testers.t4_calls", "count"),
    ("testers.calibration_s", "s"),
    ("testers.checks", "count"),
    ("pipeline.orientations_vetted", "count"),
    ("pipeline.select_s", "s"),
    ("pipeline.self_s", "s"),
    ("cli.import_s", "s"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans as [name, start, end, parent index, phase]; parent -1 is a root.

    ``phase`` is "main" for the work the metrics describe and "repeat" for
    the warm repeats that only ``testers.calibration_s`` reads.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.notes: list[tuple[int, tuple, dict, object]] = []
        self.phase = "main"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        for mod_name, attr, name in WRAPPED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase])
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        noted = name in NOTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            span = self.spans[idx]
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if noted:
                self.notes.append((idx, args, kwargs, out))
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for the benchmark's own calls into the program."""
        idx = self._open(name)
        span = self.spans[idx]
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p, ph == "main"] for n, a, b, p, ph in self.spans]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "main"], "names": names, "spans": rows}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures from the spans of the main phase."""
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        main = np.array([s[4] == "main" for s in self.spans], dtype=bool)
        names = np.array([s[0] for s in self.spans], dtype=object)
        child = np.zeros(len(dur))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])

        def total(span_names, phase=main) -> float:
            return float(dur[phase & np.isin(names, span_names)].sum())

        def count(name) -> int:
            return int(np.count_nonzero(main & (names == name)))

        out = {metric: total(span_names) for metric, span_names in TIMED.items()}
        out["pipeline.self_s"] = float((dur - child)[main & np.isin(names, LEARNERS)].sum())
        # cold minus warm t1 + t3 time of the same learner calls
        calib = ["testers.moment_tester", "testers.band_moment_tester"]
        out["testers.calibration_s"] = total(calib) - total(calib, ~main)
        out["testers.t2_calls"] = count("testers.band_mass_tester")
        out["testers.t3_calls"] = count("testers.band_moment_tester")
        out["testers.t4_calls"] = count("testers.strip_tester")

        def learner_of(idx: int) -> int:
            while idx >= 0 and self.spans[idx][0] not in LEARNERS:
                idx = self.spans[idx][3]
            return idx

        csv_bytes = iters = t3_rows = checks = vetted = 0
        bands: set[tuple[int, bytes, float]] = set()  # distinct (learner call, w, band)
        for idx, args, kwargs, result in self.notes:
            if self.spans[idx][4] != "main":
                continue
            name = self.spans[idx][0]
            if name == "datagen.write_dataset_csv":
                csv_bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))
            elif name == "optimizer.psgd_candidates":
                cfg = _arg(args, kwargs, 2, "cfg")
                iters += min((len(result.candidates) - 1) * cfg.record_every, cfg.max_iters)
            elif name == "testers.band_mass_tester":
                w = _arg(args, kwargs, 1, "w")
                bands.add((learner_of(idx), w.coords.tobytes(), float(_arg(args, kwargs, 2, "sigma"))))
            elif name == "testers.band_moment_tester":
                S, w = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "w")
                sigma = _arg(args, kwargs, 2, "sigma")
                t3_rows += int(np.count_nonzero(np.abs(S.points @ w.coords) <= sigma))
            else:  # learner
                checks += sum(len(r.checks) for r in result.tester_reports)
                vetted += result.candidates_examined
        out["datagen.csv_bytes"] = csv_bytes
        out["optimizer.psgd_iters"] = iters
        out["testers.t3_band_rows"] = t3_rows
        out["testers.checks"] = checks
        out["pipeline.orientations_vetted"] = vetted
        out["testers.t2_per_band"] = out["testers.t2_calls"] / len(bands) if bands else 0.0
        return out
