"""Spans around the public functions of each hklab layer.

``Tracer.install`` replaces every public function of a layer module by a
wrapper, in every hklab module namespace that binds it, so calls made inside
the package are caught as well as the benchmark's own.  Each call leaves one
span (function, start, end, parent span, task id) in memory; ``remove``
restores the originals.  A layer's self time is the time its spans cover
minus the time covered by their child spans.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("graph", "kernels", "spectral", "locality", "twoparticle", "wiener", "energy")

# Leaf primitives called once per walk or per grid row; a span each would
# cost more than the call.  Their time stays in the calling span's self time.
UNTRACED = {"kernels.gauss_free", "wiener.time_step", "wiener.n_steps"}

# walk-sum evaluators: each certifies one truncation length and returns values
EVALUATORS = ("kernel_pathsum", "pathsum_profile", "pathsum_diag", "pathsum_cross")

# delivered tail bound this far below the requested tolerance is wasted work
OVERSHOOT_FACTOR = 1e3


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _tol_getter(fn):
    """Read the ``tol`` argument of a call without binding the signature."""
    params = list(inspect.signature(fn).parameters.values())
    names = [p.name for p in params]
    pos = names.index("tol")
    default = params[pos].default

    def get(args, kwargs):
        if "tol" in kwargs:
            return kwargs["tol"]
        return args[pos] if len(args) > pos else default

    return get


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # "layer.function", indexed by span name id
        self.spans: list = []  # (name id, start, end, parent index, task id)
        self.task = None
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original, wrapper)
        self.counts = defaultdict(float)
        self.tail_ratios: list[float] = []  # log10(delivered tail / tol)
        self.engine_steps = defaultdict(lambda: [0, 0.0, 0])  # steps, seconds, runs

    # -- patching --------------------------------------------------------------

    def install(self):
        if not self._patches:
            self._prepare()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _prepare(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hklab" or n.startswith("hklab."))]
        for layer in LAYERS:
            for name, fn in _public_functions(sys.modules[f"hklab.{layer}"]):
                qual = f"{layer}.{name}"
                if qual in UNTRACED:
                    continue
                wrapper = self._wrap(fn, qual)
                for m in modules:
                    for attr, val in vars(m).items():
                        if val is fn:
                            self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, fn, qual):
        name_id = len(self.names)
        self.names.append(qual)
        spans, stack = self.spans, self._stack
        after = self._after_hook(fn, qual)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.task)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _after_hook(self, fn, qual):
        layer, name = qual.split(".", 1)
        counts = self.counts
        if layer == "kernels" and name in EVALUATORS:
            get_tol = _tol_getter(fn)
            ratios = self.tail_ratios

            def after(args, kwargs, result, _dt):
                if name == "kernel_pathsum":
                    values, tail = 1, result.tail_bound
                else:
                    values, tail = np.size(result[0]), result[1]
                counts["kernels.values"] += values
                counts["kernels.evals"] += 1
                ratios.append(math.log10(max(tail, 1e-300) / get_tol(args, kwargs)))

            return after
        if qual == "spectral.eigen":
            def after(args, kwargs, result, dt):
                counts["spectral.modes"] += len(result)
                counts["spectral.eigen_s"] += dt

            return after
        if qual == "energy.energy_Er":
            def after(args, kwargs, result, dt):
                f = args[1] if len(args) > 1 else kwargs["f"]
                counts["energy.nodes"] += sum(len(v) for v in f.values.values())

            return after
        if qual in ("wiener.simulate_ensemble", "wiener.splice"):
            steps = sys.modules["hklab.wiener"].n_steps
            engine_steps = self.engine_steps

            def after(args, kwargs, result, dt):
                row = engine_steps[result.engine]
                row[0] += result.n_paths * steps(result.T, result.h)
                row[1] += dt
                row[2] += 1

            return after
        return None

    # -- analysis ----------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        parents = np.empty(n, dtype=np.int64)
        for i, (_, start, end, parent, _) in enumerate(self.spans):
            dur[i] = end - start
            parents[i] = parent
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def layer_metrics(self, task_seconds: float) -> dict:
        """Per-layer metrics over the traced tasks that took ``task_seconds``."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        by_name = defaultdict(int)
        for (name_id, *_), st in zip(self.spans, selfs):
            qual = self.names[name_id]
            layer = qual.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += float(st)
            by_name[qual] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            share = self_s[layer] / task_seconds if task_seconds > 0 else 0.0
            out[f"{layer}.share"] = (share, "fraction")
        c = self.counts
        evals = c["kernels.evals"]
        ratios = np.array(self.tail_ratios)
        out["kernels.values"] = (int(c["kernels.values"]), "count")
        out["kernels.tail_bound_calls_per_eval"] = (
            by_name["kernels.pathsum_tail_bound"] / evals if evals else 0.0, "calls/eval")
        out["kernels.tail_over_tol_log10.p50"] = (
            float(np.median(ratios)) if ratios.size else 0.0, "log10")
        out["kernels.overshoot_share"] = (
            float(np.mean(ratios < -math.log10(OVERSHOOT_FACTOR))) if ratios.size else 0.0,
            "fraction")
        out["spectral.eigen_s"] = (c["spectral.eigen_s"], "s")
        out["spectral.modes"] = (int(c["spectral.modes"]), "count")
        out["locality.exit_density_calls"] = (by_name["locality.exit_density"], "count")
        out["energy.node_evals_per_s"] = (
            c["energy.nodes"] / self_s["energy"] if self_s["energy"] > 0 else 0.0, "1/s")
        for engine in ("lattice", "general"):
            steps, secs, _ = self.engine_steps[engine]
            out[f"wiener.{engine}.path_steps_per_s"] = (
                steps / secs if secs > 0 else 0.0, "1/s")
        runs = {e: row[2] for e, row in self.engine_steps.items()}
        total_runs = sum(runs.values())
        out["wiener.lattice_share"] = (
            runs.get("lattice", 0) / total_runs if total_runs else 0.0, "fraction")
        return out

    def write_spans(self, path):
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tself_s\tparent\ttask\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, ((name_id, start, end, parent, task), st) in enumerate(
                    zip(self.spans, selfs)):
                fh.write(f"{i}\t{self.names[name_id]}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{st:.9f}\t{parent}\t{task}\n")
