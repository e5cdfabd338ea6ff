"""Per-layer spans and counters for quadfock, installed from outside the package.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
traced functions and methods with wrappers at every place they are bound:
the defining module or class, every other quadfock module that imported the
name (``inner`` is bound in ``stepfn``, ``fock``, ``quantization`` and
``acceptance``), and module-level lists such as ``acceptance.CRITERIA``.
``Tracer.uninstall`` puts every original back.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written out once, by ``dump``, when the run ends.
The self time of a span is its duration less the durations of its direct
children.  Every operation has one root span, ``cli.main``, so the self
times of all spans of an operation add up to the root span's duration.

Functions that are not traced (small accessors such as ``value_at`` or
``sup_norm``, and private helpers) count toward the self time of the traced
caller.  Generators (``refine``, ``partition_terms``) are counted but get no
span: their body runs while the caller iterates, so their time is the
caller's.  ``ExactComplex`` arithmetic is counted only, for the same reason
and because a span per scalar operation would dominate the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict

# Span names, per quadfock module, mapped to the metric group they report
# under.  "Class.attr" names a method.
SPANS = {
    "stepfn": {
        "inner": "stepfn.inner",
        "StepFunction.__add__": "stepfn.algebra",
        "StepFunction.__sub__": "stepfn.algebra",
        "StepFunction.__mul__": "stepfn.algebra",
        "StepFunction.__pow__": "stepfn.algebra",
        "StepFunction.conj": "stepfn.algebra",
        "StepFunction.scale": "stepfn.algebra",
        "compose": "stepfn.compose",
        "restrict": "stepfn.compose",
        "map_compose": "stepfn.compose",
        "map_invert": "stepfn.compose",
        "PiecewiseAffineMap.restrict": "stepfn.compose",
        "value_signature": "stepfn.other",
        "step_allclose": "stepfn.other",
        "is_measure_preserving": "stepfn.other",
        "StepFunction.from_json": "stepfn.other",
        "StepFunction.from_segments": "stepfn.other",
    },
    "fock": {
        "moments": "fock.moments",
        "n_particle_inner_rec": "fock.recursion",
        "n_particle_table": "fock.recursion",
        "n_particle_inner_partition": "fock.partition",
        "exp_inner_closed": "fock.closed",
        "exp_inner_closed_scaled": "fock.closed",
        "exp_inner_series": "fock.series",
        "gram_matrix": "fock.gram",
        "gram_min_eig": "fock.gram",
        "is_psd": "fock.gram",
        "exp_vector_exists": "fock.other",
    },
    "quantization": {
        "apply_operator": "quantization.apply",
        "adjoint_operator": "quantization.adjoint",
        "check_selfadjoint_structure": "quantization.checks",
        "check_selfadjoint_numeric": "quantization.checks",
        "check_homomorphism_powers": "quantization.checks",
        "check_contraction_gram": "quantization.checks",
        "check_l2_contraction": "quantization.checks",
        "lemma4_derivative_check": "quantization.checks",
        "counterexample_report": "quantization.checks",
        "gamma2_matrix_element": "quantization.other",
        "dilation_operator": "quantization.other",
        "window_radius": "quantization.other",
        "QuadOperator.from_json": "quantization.other",
    },
    "families": {
        "random_step_function": "families",
        "random_family": "families",
        "random_injective_operator": "families",
        "reflection_operator": "families",
    },
    "acceptance": {
        **{f"criterion_{k}": f"acceptance.criterion_{k}" for k in range(1, 11)},
        "run_all": "acceptance.run_all",
    },
    "cli": {
        "build_parser": "cli.parse",
        "_load_json": "cli.parse",
        "_parse_step": "cli.parse",
        "_parse_operator": "cli.parse",
        "_emit": "cli.emit",
    },
}
ROOT = "cli.main"

# Methods counted without a span.  Subtraction counts as addition.
COUNTED = {
    "scalars": {
        "ExactComplex.__mul__": "scalars.mul.calls",
        "ExactComplex.__rmul__": "scalars.mul.calls",
        "ExactComplex.__add__": "scalars.add.calls",
        "ExactComplex.__radd__": "scalars.add.calls",
        "ExactComplex.__sub__": "scalars.add.calls",
        "ExactComplex.__rsub__": "scalars.add.calls",
    },
}

# Generators counted without a span: counter of calls and counter of items.
GENERATORS = {
    "stepfn": {"refine": ("stepfn.refine.calls", "stepfn.refine.cells")},
    "fock": {"partition_terms": (None, "fock.partition.terms")},
}

GROUP = {f"{mod}.{attr}": group
         for mod, attrs in SPANS.items() for attr, group in attrs.items()}
GROUP[ROOT] = "cli.main"
GROUP["cli.parse_args"] = "cli.parse"


# Work counters read off a traced call's arguments.
WORK = {
    "fock.moments": ("fock.moments.k_total", lambda args: args[2]),
    "fock.gram_matrix": ("fock.gram.entries", lambda args: len(args[0]) ** 2),
}


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"quadfock.{name}")
                        for name in ("scalars", "stepfn", "fock", "quantization",
                                     "families", "acceptance", "cli", "errors")}
        self.modules["quadfock"] = importlib.import_module("quadfock")
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = None
        self._restore: list = []
        self._domain_error = self.modules["errors"].DomainError

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        perf_counter = time.perf_counter
        fock_layer = name.startswith("fock.")
        work_key, work_of = WORK.get(name, (None, None))
        domain_error = self._domain_error
        tracer = self

        def traced(*args, **kwargs):
            if work_key:
                counts[work_key] += work_of(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except domain_error as exc:
                if fock_layer and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    counts["fock.domain_errors"] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _generator(self, calls_key, items_key, fn):
        counts, spans, stack = self.counts, self.spans, self.stack

        def counted(*args):
            if calls_key:
                counts[calls_key] += 1
            in_inner = bool(stack) and spans[stack[-1]][0] == "stepfn.inner"
            for item in fn(*args):
                counts[items_key] += 1
                if in_inner:
                    counts["stepfn.inner.cells"] += 1
                    if item[2] != 0 and item[3] != 0:
                        counts["stepfn.inner.useful_cells"] += 1
                yield item

        return counted

    def _parser_span(self, fn):
        """build_parser, with parse_args of the parser it returns traced too."""
        span = self._span

        def build_parser():
            parser = fn()
            parser.parse_args = span("cli.parse_args", parser.parse_args)
            return parser

        return span("cli.build_parser", build_parser)

    # --- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, mod, attr, make):
        """Wrap mod.attr (or mod.Class.attr) with make(function)."""
        owner = mod
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(mod, cls)
        original = owner.__dict__[attr]
        if isinstance(original, staticmethod):
            self._set(owner, attr, staticmethod(make(original.__func__)))
            return
        wrapped = make(original)
        self._set(owner, attr, wrapped)
        if owner is not mod:
            return
        for other in self.modules.values():
            for name, value in list(vars(other).items()):
                if value is original and (other, name) != (mod, attr):
                    self._set(other, name, wrapped)
                elif isinstance(value, list) and any(v is original for v in value):
                    idx = [i for i, v in enumerate(value) if v is original]
                    self._restore.append((value, idx, original))
                    for i in idx:
                        value[i] = wrapped

    def install(self) -> None:
        for modname, attrs in SPANS.items():
            mod = self.modules[modname]
            for attr, _ in attrs.items():
                name = f"{modname}.{attr}"
                if name == "cli.build_parser":
                    self._replace(mod, attr, self._parser_span)
                else:
                    self._replace(mod, attr, lambda fn, n=name: self._span(n, fn))
        for modname, attrs in COUNTED.items():
            for attr, key in attrs.items():
                self._replace(self.modules[modname], attr,
                              lambda fn, k=key: self._counted(k, fn))
        for modname, gens in GENERATORS.items():
            for attr, (calls, items) in gens.items():
                self._replace(self.modules[modname], attr,
                              lambda fn, c=calls, i=items: self._generator(c, i, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, list):
                for i in attr:
                    owner[i] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- operations and results -------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) under the root span of operation op_id."""
        self.op = op_id
        try:
            return self._span(ROOT, fn)(*args)
        finally:
            self.op = None

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times over every span recorded."""
        group_self: defaultdict = defaultdict(float)
        group_calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        for (name, start, end, _, _), s in zip(self.spans, self.self_times()):
            group = GROUP.get(name, name)
            group_self[group] += s
            group_calls[group] += 1
            inclusive[group] += end - start

        def layer_self(layer):
            return sum((v for g, v in group_self.items() if g.split(".")[0] == layer), 0.0)

        c = self.counts
        inner_cells = c["stepfn.inner.cells"]
        out = {
            "scalars.mul.calls": c["scalars.mul.calls"],
            "scalars.add.calls": c["scalars.add.calls"],
            "stepfn.refine.calls": c["stepfn.refine.calls"],
            "stepfn.refine.cells": c["stepfn.refine.cells"],
            "stepfn.inner.calls": group_calls["stepfn.inner"],
            "stepfn.inner.self_s": group_self["stepfn.inner"],
            "stepfn.inner.useful_cell_ratio":
                c["stepfn.inner.useful_cells"] / inner_cells if inner_cells else 1.0,
            "stepfn.algebra.calls": group_calls["stepfn.algebra"],
            "stepfn.algebra.self_s": group_self["stepfn.algebra"],
            "stepfn.compose.calls": group_calls["stepfn.compose"],
            "stepfn.compose.self_s": group_self["stepfn.compose"],
            "stepfn.self_s": layer_self("stepfn"),
            "fock.moments.calls": group_calls["fock.moments"],
            "fock.moments.k_total": c["fock.moments.k_total"],
            "fock.moments.self_s": group_self["fock.moments"],
            "fock.recursion.calls": group_calls["fock.recursion"],
            "fock.recursion.self_s": group_self["fock.recursion"],
            "fock.partition.calls": group_calls["fock.partition"],
            "fock.partition.terms": c["fock.partition.terms"],
            "fock.partition.self_s": group_self["fock.partition"],
            "fock.closed.calls": group_calls["fock.closed"],
            "fock.closed.self_s": group_self["fock.closed"],
            "fock.series.calls": group_calls["fock.series"],
            "fock.series.self_s": group_self["fock.series"],
            "fock.gram.entries": c["fock.gram.entries"],
            "fock.gram.self_s": group_self["fock.gram"],
            "fock.domain_errors": c["fock.domain_errors"],
            "fock.self_s": layer_self("fock"),
            "quantization.apply.calls": group_calls["quantization.apply"],
            "quantization.apply.self_s": group_self["quantization.apply"],
            "quantization.adjoint.calls": group_calls["quantization.adjoint"],
            "quantization.adjoint.self_s": group_self["quantization.adjoint"],
            "quantization.checks.self_s": group_self["quantization.checks"],
            "quantization.self_s": layer_self("quantization"),
            "families.calls": group_calls["families"],
            "families.self_s": layer_self("families"),
            **{f"acceptance.criterion_{k}.s": inclusive[f"acceptance.criterion_{k}"]
               for k in range(1, 11)},
            "acceptance.self_s": layer_self("acceptance"),
            "cli.parse.self_s": group_self["cli.parse"],
            "cli.emit.self_s": group_self["cli.emit"],
            "cli.self_s": layer_self("cli"),
        }
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
