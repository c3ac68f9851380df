"""Traced run: times each seqtune layer from outside the package.

The run goes through the public Python API (``spot``, ``save_bundle``,
``load_bundle``).  Timed wrappers are handed to the engine through its
callable slots (design, model, stack members, objective); no module
attribute is patched.  The search is not wrapped: passing the optimizer as a
callable changes the engine's behaviour (see NOTES.md), so a search span is
opened when the engine's model fit returns and closed at the next objective
call.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# fit_stack's default members, in the order it fits them
STACK_MEMBERS = ("kriging", "forest", "rsm")
MODEL_KINDS = ("kriging", "forest", "rsm", "stack")


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans recorded in memory, in the order they began."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._search: Optional[int] = None

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter(), attrs=attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def open_search(self) -> None:
        self._search = self.begin("optimizers.search")

    def close_search(self) -> None:
        if self._search is not None:
            self.end(self._search)
            self._search = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "parent": s.parent,
                       "start": s.start, "end": s.end, **s.attrs}
                fh.write(json.dumps(row) + "\n")


def count_nodes(forest) -> int:
    """Nodes over all trees of linked node objects."""
    total = 0
    for tree in forest.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node is not None:
                total += 1
                stack += [node.left, node.right]
    return total


class TracedModel:
    """A fitted model whose predict calls are recorded as spans."""

    def __init__(self, tracer: Tracer, kind: str, model):
        self._tracer = tracer
        self._kind = kind
        self.model = model

    def predict(self, xnew):
        rows = np.atleast_2d(np.asarray(xnew)).shape[0]
        with self._tracer.span(f"{self._kind}.predict", rows=rows):
            return self.model.predict(xnew)

    def __getattr__(self, name):
        return getattr(self.model, name)


def traced_fitter(tracer: Tracer, kind: str, fitter, opens_search: bool = False):
    def fit(X, y, control=None):
        with tracer.span(f"{kind}.fit", rows=len(X)) as span:
            model = fitter(X, y, control)
        if kind == "kriging":
            span.attrs["likelihood_evals"] = int(model.likelihood_evals)
        elif kind == "forest":
            span.attrs["nodes"] = count_nodes(model)
        elif kind == "stack":
            span.attrs["members_kept"] = len(model.members)
            span.attrs["members_tried"] = len(control["members"])
        if opens_search:
            tracer.open_search()
        return TracedModel(tracer, kind, model)

    # fit_stack picks each member's control by the callable's name
    fit.__name__ = kind
    return fit


def traced_design(tracer: Tracer, make):
    def design(existing, space, control):
        with tracer.span("design.make") as span:
            rows = make(existing, space, control)
        span.attrs["rows"] = int(np.shape(rows)[0])
        return rows

    return design


def traced_objective(tracer: Tracer, fun):
    def call(x, kwargs):
        tracer.close_search()
        with tracer.span("objectives.eval", rows=np.atleast_2d(x).shape[0]):
            return fun(x, **kwargs)

    # the engine passes per-row seeds only to objectives that take `seed`
    if "seed" in inspect.signature(fun).parameters:
        def objective(x, seed=None):
            return call(x, {} if seed is None else {"seed": seed})
    else:
        def objective(x):
            return call(x, {})
    return objective


def traced_run(seqtune, spec, out_dir: str):
    """One traced run; returns (tracer, SpotResult, loaded bundle)."""
    tracer = Tracer()
    fitters = {
        "kriging": seqtune.fit_kriging,
        "forest": seqtune.fit_forest,
        "rsm": seqtune.fit_rsm,
        "stack": seqtune.fit_stack,
    }
    designs = {"lhd": seqtune.make_lhd, "uniform": seqtune.make_uniform}
    fields = dict(spec.fields)
    kind = fields.get("model", "kriging")
    fields["model"] = traced_fitter(tracer, kind, fitters[kind], opens_search=True)
    if kind == "stack":
        ctl = dict(fields.get("modelControl", {}))
        names = ctl.get("members", STACK_MEMBERS)
        ctl["members"] = [traced_fitter(tracer, m, fitters[m]) for m in names]
        fields["modelControl"] = ctl
    fields["design"] = traced_design(tracer, designs[fields.get("design", "lhd")])
    fun = traced_objective(tracer, seqtune.get_objective(spec.fun))
    cfg = seqtune.SpotConfig(**fields)

    with tracer.span("engine.run"):
        result = seqtune.spot(None, fun, spec.lower, spec.upper, cfg)
        tracer.close_search()
    meta = {"fun": spec.fun, "lower": spec.lower, "upper": spec.upper,
            "xbest": [float(v) for v in result.xbest], "ybest": result.ybest}
    with tracer.span("bundle.save"):
        seqtune.save_bundle(out_dir, result.x, result.y, result.seeds,
                            result.replicates, meta)
    with tracer.span("bundle.load"):
        data = seqtune.load_bundle(out_dir)
    return tracer, result, data


def layer_metrics(tracer: Tracer, out_dir: str) -> dict:
    """Per-layer totals of one traced run, keyed <module>.<metric>."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    def pick(name, parent_name=None):
        return [
            (i, s) for i, s in enumerate(spans)
            if s.name == name
            and (parent_name is None
                 or (s.parent is not None and spans[s.parent].name == parent_name))
        ]

    def seconds(name, **kw):
        return sum(s.seconds for _, s in pick(name, **kw))

    def self_s(name):
        return sum(s.seconds - child_s[i] for i, s in pick(name))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for _, s in pick(name))

    m = {
        "design.make_s": seconds("design.make"),
        "design.calls": len(pick("design.make")),
    }
    for kind in ("kriging", "forest", "rsm"):
        m[f"{kind}.fit_s"] = seconds(f"{kind}.fit")
        m[f"{kind}.fits"] = len(pick(f"{kind}.fit"))
        m[f"{kind}.predict_s"] = seconds(f"{kind}.predict")
        m[f"{kind}.predict_calls"] = len(pick(f"{kind}.predict"))
        m[f"{kind}.predict_rows"] = attr(f"{kind}.predict", "rows")
    m["kriging.fit_rows"] = attr("kriging.fit", "rows")
    m["kriging.likelihood_evals"] = attr("kriging.fit", "likelihood_evals")
    m["kriging.likelihood_evals_per_s"] = (
        m["kriging.likelihood_evals"] / m["kriging.fit_s"] if m["kriging.fit_s"] else 0.0
    )
    m["forest.nodes"] = attr("forest.fit", "nodes")
    m["stack.fit_s"] = seconds("stack.fit")
    m["stack.self_s"] = self_s("stack.fit")
    m["stack.members_kept"] = attr("stack.fit", "members_kept")
    m["stack.members_tried"] = attr("stack.fit", "members_tried")
    m["optimizers.search_s"] = seconds("optimizers.search")
    m["optimizers.searches"] = len(pick("optimizers.search"))
    m["optimizers.predict_calls"] = sum(
        len(pick(f"{kind}.predict", parent_name="optimizers.search")) for kind in MODEL_KINDS
    )
    m["optimizers.self_s"] = self_s("optimizers.search")
    m["objectives.eval_s"] = seconds("objectives.eval")
    m["objectives.calls"] = len(pick("objectives.eval"))
    m["objectives.rows"] = attr("objectives.eval", "rows")
    m["engine.self_s"] = self_s("engine.run")
    m["engine.iterations"] = sum(
        len(pick(f"{kind}.fit", parent_name="engine.run")) for kind in MODEL_KINDS
    )
    m["bundle.save_s"] = seconds("bundle.save")
    m["bundle.load_s"] = seconds("bundle.load")
    m["bundle.archive_bytes"] = os.path.getsize(os.path.join(out_dir, "archive.csv"))
    m["trace.run_s"] = seconds("engine.run") + m["bundle.save_s"]
    return m
