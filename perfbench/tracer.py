"""Span tracer that attributes time and counts to descentlab's six layers.

The tracer never edits the program.  ``Tracer.install`` replaces public
functions and methods *as their callers bind them* (``harness.run_algorithm``,
``cli.run_algorithm``, ``FiniteSumProblem.grad_i`` ...) with wrappers that
time the call, and ``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper exist:

* span wrappers open a ``Span`` at op, verdict, estimate, trial, suite,
  bound-curve and fixture-build boundaries.  Spans carry their parent id and
  are kept in memory until ``write_spans``.
* leaf wrappers cover per-step calls (oracles, prox maps, bound evaluation,
  averaging).  One object per call would hold millions of objects, so a leaf
  call only adds to a ``[count, seconds]`` pair on the enclosing span.  A leaf
  called inside another leaf is counted but not timed again.

A span's self time is its duration minus its direct child spans and minus the
leaf time aggregated into it.  ``--jobs`` workers are forked from the traced
process; a pool initializer uninstalls the wrappers in each worker, so worker
time shows only as the parent's ``pool_wait`` leaf.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

from descentlab import algorithms, cli, harness, nonsmooth, problems, theory

_clock = time.perf_counter

LAYERS = ("problems", "nonsmooth", "algorithms", "theory", "harness", "cli")

# leaf key -> layer whose self time it is
LEAF_LAYER = {
    "problems.grad_i": "problems",
    "problems.value": "problems",
    "problems.grad": "problems",
    "nonsmooth.prox": "nonsmooth",
    "nonsmooth.subgradient": "nonsmooth",
    "nonsmooth.reg_value": "nonsmooth",
    "theory.eval": "theory",
    "algorithms.averaged_iterate": "algorithms",
    "cli.pool_wait": "pool",
}

ORACLE_KEYS = ("problems.grad_i", "problems.value", "problems.grad")

# per-round sums that start at zero on every workload
ACCUMULATED = ("algorithms.trial_runs", "algorithms.trial_steps", "algorithms.self_s",
               "harness.trials_diverged", "harness.estimate_self_s",
               "harness.property_suite_self_s", "theory.bound_curve_calls",
               "theory.bound_curve_s", "theory.complexity_table_s",
               "_oracle_calls_in_trials")


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "child_s",
                 "calls", "info")

    def __init__(self, sid, parent, layer, name, info=None):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = _clock()
        self.end = None
        self.child_s = 0.0
        self.calls = {}
        self.info = info or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "calls": self.calls, "info": self.info}


class Tracer:
    """Holds the spans of one benchmark process and the patches it installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def open(self, layer: str, name: str, info=None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, layer, name, info)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self.stack:
            self.stack[-1].child_s += span.duration

    def _leaf_done(self, key: str, dt: float, timed: bool) -> None:
        top = self.stack[-1]
        pair = top.calls.get(key)
        if pair is None:
            pair = top.calls[key] = [0, 0.0]
        pair[0] += 1
        if timed:
            pair[1] += dt
            top.child_s += dt

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, layer, name_of, info_of=None):
        tracer = self

        def traced(*args, **kwargs):
            info = info_of(args, kwargs) if info_of else None
            span = tracer.open(layer, name_of(args, kwargs), info)
            try:
                return fn(*args, **kwargs)
            except algorithms.DivergenceError:
                span.info["diverged"] = 1
                raise
            finally:
                tracer.close(span)

        return traced

    def _leaf_wrapper(self, fn, key):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.in_leaf or not tracer.stack:
                if tracer.stack:
                    tracer._leaf_done(key, 0.0, timed=False)
                return fn(*args, **kwargs)
            tracer.in_leaf = True
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                tracer.in_leaf = False
                tracer._leaf_done(key, dt, timed=True)

        return traced

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the CLI crosses."""
        span, leaf = self._span_wrapper, self._leaf_wrapper

        def trial_info(args, kwargs):
            cfg = args[0]
            return {"method": args[1] if len(args) > 1 else kwargs["algorithm"],
                    "steps": int(cfg.iterations)}

        def trial_name(args, kwargs):
            return "trial:" + (args[1] if len(args) > 1 else kwargs["algorithm"])

        for owner in (harness, cli):
            self._patch(owner, "run_algorithm",
                        span(owner.run_algorithm, "algorithms", trial_name, trial_info))
        self._patch(harness, "averaged_iterate",
                    leaf(harness.averaged_iterate, "algorithms.averaged_iterate"))

        self._patch(harness, "run_verification",
                    span(harness.run_verification, "harness",
                         lambda a, k: "verdict:" + a[0]))
        self._patch(harness, "estimate",
                    span(harness.estimate, "harness", lambda a, k: "estimate"))
        self._patch(harness, "property_suite",
                    span(harness.property_suite, "harness",
                         lambda a, k: "property_suite:" + a[0].name))

        self._patch(harness, "bound_curve",
                    span(harness.bound_curve, "theory", lambda a, k: "bound_curve"))
        self._patch(theory, "complexity_table",
                    span(theory.complexity_table, "theory", lambda a, k: "complexity_table"))
        self._patch(theory, "table_to_text",
                    span(theory.table_to_text, "theory", lambda a, k: "table_to_text"))
        self._patch(theory.BoundCurve, "eval", leaf(theory.BoundCurve.eval, "theory.eval"))

        fsp = problems.FiniteSumProblem
        for method in ("grad_i", "value", "grad"):
            self._patch(fsp, method, leaf(fsp.__dict__[method], "problems." + method))
        for builder in ("build_least_squares", "build_abs_loss", "build_scalar_pl",
                        "make_composite"):
            self._patch(problems, builder,
                        span(getattr(problems, builder), "problems",
                             lambda a, k, b=builder: "build:" + b))

        for owner in (algorithms, nonsmooth, problems):
            self._patch(owner, "prox", leaf(owner.prox, "nonsmooth.prox"))
        self._patch(nonsmooth, "subgradient",
                    leaf(nonsmooth.subgradient, "nonsmooth.subgradient"))
        self._patch(nonsmooth.Regularizer, "value",
                    leaf(nonsmooth.Regularizer.value, "nonsmooth.reg_value"))

        self._patch(cli, "ProcessPoolExecutor", self._traced_pool_class())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Times how long the caller blocks on workers; workers run untraced."""

            def __init__(self, max_workers=None, **kwargs):
                kwargs.setdefault("initializer", tracer.uninstall)
                super().__init__(max_workers, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                t0 = _clock()
                it = super().map(fn, *iterables, **kwargs)
                tracer._leaf_done("cli.pool_wait", _clock() - t0, timed=True)
                return self._timed(it)

            @staticmethod
            def _timed(it):
                done = object()
                while True:
                    t0 = _clock()
                    item = next(it, done)
                    tracer._leaf_done("cli.pool_wait", _clock() - t0, timed=True)
                    if item is done:
                        return
                    yield item

            def shutdown(self, *args, **kwargs):
                t0 = _clock()
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    tracer._leaf_done("cli.pool_wait", _clock() - t0, timed=True)

        return TracedPool

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def _descendants(spans, root: Span):
    """Spans under ``root`` (exclusive), relying on ids increasing in open order."""
    inside = {root.id}
    for span in spans[root.id + 1:]:
        if span.start > root.end:
            break
        if span.parent in inside:
            inside.add(span.id)
            yield span


def round_metrics(spans, round_span: Span) -> dict:
    """Per-layer times and counts of one traced round (the round's own span)."""
    self_s = defaultdict(float)
    calls = defaultdict(lambda: [0, 0.0])
    m = dict.fromkeys(ACCUMULATED, 0.0)
    steps_by_method = defaultdict(int)
    time_by_method = defaultdict(float)

    for span in [round_span, *_descendants(spans, round_span)]:
        self_s[span.layer] += span.self_s
        for key, (count, secs) in span.calls.items():
            calls[key][0] += count
            calls[key][1] += secs
            self_s[LEAF_LAYER[key]] += secs
        name = span.name
        if span.layer == "algorithms":
            method, steps = span.info["method"], span.info["steps"]
            m["algorithms.trial_runs"] += 1
            m["algorithms.trial_steps"] += steps
            steps_by_method[method] += steps
            time_by_method[method] += span.duration
            m["harness.trials_diverged"] += span.info.get("diverged", 0)
            for key in ("problems.grad_i", "problems.value"):
                m["_oracle_calls_in_trials"] += span.calls.get(key, (0, 0.0))[0]
            # trial span time minus the problems/nonsmooth leaf time inside it
            m["algorithms.self_s"] += span.self_s
        elif name.startswith("verdict:"):
            key = "harness.verdict_s." + name.split(":", 1)[1]
            m[key] = m.get(key, 0.0) + span.duration
        elif name == "estimate":
            m["harness.estimate_self_s"] += span.self_s
        elif name.startswith("property_suite:"):
            key = "harness.property_suite_s." + name.split(":", 1)[1]
            m[key] = m.get(key, 0.0) + span.duration
            m["harness.property_suite_self_s"] += span.self_s
        elif name == "bound_curve":
            m["theory.bound_curve_calls"] += 1
            m["theory.bound_curve_s"] += span.duration
        elif name == "complexity_table":
            m["theory.complexity_table_s"] += span.duration

    m["round_wall_s"] = round_span.duration
    m["problems.grad_i_calls"] = calls["problems.grad_i"][0]
    m["problems.value_calls"] = calls["problems.value"][0]
    m["problems.grad_calls"] = calls["problems.grad"][0]
    m["problems.oracle_self_s"] = sum(calls[k][1] for k in ORACLE_KEYS)
    steps = m["algorithms.trial_steps"]
    m["problems.oracle_calls_per_step"] = m["_oracle_calls_in_trials"] / steps if steps else 0.0
    m["nonsmooth.prox_calls"] = calls["nonsmooth.prox"][0]
    m["nonsmooth.prox_self_s"] = calls["nonsmooth.prox"][1]
    m["algorithms.averaged_iterate_calls"] = calls["algorithms.averaged_iterate"][0]
    m["algorithms.averaged_iterate_s"] = calls["algorithms.averaged_iterate"][1]
    for method, n_steps in steps_by_method.items():
        m[f"algorithms.us_per_step.{method}"] = 1e6 * time_by_method[method] / n_steps
    m["theory.eval_calls"] = calls["theory.eval"][0]
    m["theory.eval_s"] = calls["theory.eval"][1]
    m["cli.pool_wait_s"] = calls["cli.pool_wait"][1]
    for layer in LAYERS:
        if layer != "algorithms":  # algorithms.self_s covers trial spans only
            m[layer + ".self_s"] = self_s[layer]
    attributed = sum(self_s[layer] for layer in LAYERS) + self_s["pool"]
    m["unattributed_s"] = round_span.duration - attributed
    for key in [k for k in m if k.startswith("_")]:
        del m[key]
    return m


def build_time(spans, phase: Span) -> float:
    """Total duration of the outermost fixture-build spans under ``phase``."""
    return sum(s.duration for s in _descendants(spans, phase)
               if s.layer == "problems" and s.parent == phase.id)
