"""Outside-in span tracer for the metaline benchmark.

The tracer wraps public callables of the `metaline` package from the
outside: class attributes for methods, and module attributes for
functions, in every `metaline` module that binds the function (the
defining module and each consumer that imported it by name).  Nothing
inside the package changes; `uninstall` puts every original back.

Each call opens a span.  One root span per verify call carries the
verify ID that every span below it shares.  Spans are aggregated per
(verify ID, name, parent name), so memory stays bounded however many
calls a kernel takes.  Self time is a span's duration minus the time
its child spans cover.  Exact counts (cells, bit sizes, scalar
multiplies, visited table entries) are taken at the same boundaries;
their bookkeeping runs after the span closes, so it lands in the
parent's self time and in the measured tracing overhead, never in the
kernel's own self time.
"""

from __future__ import annotations

import functools
import sys
import time

_JET_DUNDERS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)
# Dunders whose result costs one scalar multiply or divide per eps entry.
# __rtruediv__ is left out: it delegates to __truediv__, which counts.
_JET_SCALING = frozenset(("__mul__", "__rmul__", "__truediv__", "__pow__"))

_FAMILY_GEOMETRY = (
    "check_slide_identity",
    "basepoint_variation",
    "direction_variation",
    "direction_variation_symbolic",
    "chart_block",
    "pencil_frames",
    "check_splitting_type",
    "family_dimension",
)
_GROUP_LAW = (
    "associativity_holds",
    "commutator_matches_bracket",
    "one_parameter_subgroup_holds",
)

# Spans whose metrics are exact counts plus self time, in report order.
CALL_SPANS = (
    "linalg.solve_in_span",
    "linalg.Mat.rank",
    "linalg.Mat.rref",
    "linalg.SpanAccumulator.insert",
    "jets.Jet1",
    "metabelian.OmegaForm.apply",
    "polynomials.Poly.evaluate",
    "polynomials.Poly.compose",
    "polynomials.Poly.mul",
    "varieties.affine_tangent_frame",
    *(f"family_geometry.{name}" for name in _FAMILY_GEOMETRY),
    "lines.line_matrix_rows",
    "lines.line_through",
    "compactification.bundle_to_space",
    "compactification.g_action",
    "compactification.boundary_point",
)


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Span aggregation and exact counters for one traced run."""

    def __init__(self):
        self.verify_id = None
        self.stack = []
        self.agg = {}
        self.counts = {}
        self.roots = []
        self._patches = []
        self._nonzero = {}

    # -- spans ---------------------------------------------------------

    def root(self, verify_id, label, call):
        """Run call() as the root span of one verify call."""
        self.verify_id = verify_id
        start = time.perf_counter()
        try:
            return self._span("verify", call, ())
        finally:
            self.roots.append(
                {"id": verify_id, "name": label, "start": start, "end": time.perf_counter()}
            )
            self.verify_id = None

    def _span(self, name, fn, args, kwargs=None):
        stack = self.stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            key = (self.verify_id, name, parent)
            row = self.agg.get(key)
            if row is None:
                row = self.agg[key] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - frame[1]

    def _wrap(self, name, fn, hook=None):
        span = self._span

        if hook is None:

            def wrapper(*args, **kwargs):
                return span(name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = None
                try:
                    result = span(name, fn, args, kwargs)
                    return result
                finally:
                    # counted on failure too, with result None
                    hook(result, *args)

        return functools.update_wrapper(wrapper, fn)

    # -- counters ------------------------------------------------------

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def raise_to(self, key, value):
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _count_solve(self, result, basis, target):
        self.add("linalg.solve_in_span.cells", basis.nrows * basis.ncols)
        operands = [x for row in basis.entries for x in row]
        operands.extend(target)
        operands.extend(result or ())
        self.raise_to("linalg.solve_in_span.max_bits", max(map(_bits, operands), default=0))

    def _count_rank(self, result, mat):
        self.add("linalg.Mat.rank.cells", mat.nrows * mat.ncols)

    def _count_insert(self, result, accumulator, vec):
        self.add("linalg.SpanAccumulator.insert.useful", 1 if result else 0)

    def _count_apply(self, result, omega, u, v):
        table = omega.table
        entry = self._nonzero.get(id(table))
        if entry is None:
            # holding the table keeps its id from being reused
            entry = self._nonzero[id(table)] = (
                table,
                sum(1 for row in table for x in row if x != 0),
            )
        self.add("metabelian.OmegaForm.apply.entries_visited", len(table) * omega.dim_u)
        self.add("metabelian.OmegaForm.apply.nonzero_visited", entry[1])

    def _count_jet(self, result, jet, *rest):
        self.add("jets.Jet1.scalar_mults", len(jet.eps))

    def _count_build(self, result, *args):
        if result is not None:
            self.add("omega_builder.points", len(result.rank_history))

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr, name, hook=None):
        self._set(cls, attr, self._wrap(name, vars(cls)[attr], hook))

    def _patch_function(self, module, attr, name, hook=None):
        """Wrap module.attr wherever a metaline module binds that object."""
        original = vars(module)[attr]
        wrapper = self._wrap(name, original, hook)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "metaline" or mod_name.startswith("metaline.")):
                continue
            if vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)

    def install(self):
        """Wrap every traced callable; call uninstall() to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from metaline import (
            compactification,
            family_geometry,
            jets,
            linalg,
            lines,
            metabelian,
            omega_builder,
            polynomials,
            report,
            varieties,
        )

        try:
            self._patch_function(linalg, "solve_in_span", "linalg.solve_in_span", self._count_solve)
            self._patch_method(linalg.Mat, "rank", "linalg.Mat.rank", self._count_rank)
            self._patch_method(linalg.Mat, "rref", "linalg.Mat.rref")
            self._patch_method(
                linalg.SpanAccumulator,
                "insert",
                "linalg.SpanAccumulator.insert",
                self._count_insert,
            )
            for attr in _JET_DUNDERS:
                hook = self._count_jet if attr in _JET_SCALING else None
                self._patch_method(jets.Jet1, attr, "jets.Jet1", hook)
            self._patch_method(
                metabelian.OmegaForm, "apply", "metabelian.OmegaForm.apply", self._count_apply
            )
            self._patch_function(metabelian, "multiply", "metabelian.multiply")
            for attr in _GROUP_LAW:
                self._patch_function(metabelian, attr, "metabelian.group_law")
            self._patch_function(metabelian, "levi_tensor", "metabelian.levi_tensor")
            self._patch_method(polynomials.Poly, "evaluate", "polynomials.Poly.evaluate")
            self._patch_method(polynomials.Poly, "compose", "polynomials.Poly.compose")
            for attr in ("__mul__", "__rmul__"):
                self._patch_method(polynomials.Poly, attr, "polynomials.Poly.mul")
            self._patch_function(varieties, "certify_isotropic", "varieties.certify_isotropic")
            self._patch_function(
                varieties, "affine_tangent_frame", "varieties.affine_tangent_frame"
            )
            self._patch_function(
                omega_builder, "build_omega", "omega_builder.build_omega", self._count_build
            )
            for attr in _FAMILY_GEOMETRY:
                self._patch_function(family_geometry, attr, f"family_geometry.{attr}")
            for attr in ("line_matrix_rows", "line_through"):
                self._patch_function(lines, attr, f"lines.{attr}")
            for attr in ("bundle_to_space", "g_action", "boundary_point"):
                self._patch_function(compactification, attr, f"compactification.{attr}")
            self._patch_method(report.VerificationReport, "to_json", "report.to_json")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def totals(self):
        """name -> [calls, total seconds, self seconds] over all parents."""
        out = {}
        for (_, name, _), (calls, total, self_s) in self.agg.items():
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def layer_metrics(self):
        """Per-layer metrics from spans and counters: name -> (value, unit)."""
        totals = self.totals()
        counts = self.counts

        def calls(name):
            return totals.get(name, (0, 0.0, 0.0))[0]

        def total_s(name):
            return totals.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return totals.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {}
        for name in CALL_SPANS:
            metrics[f"{name}.calls"] = (calls(name), "count")
            metrics[f"{name}.self_s"] = (self_s(name), "s")
        for key in (
            "linalg.solve_in_span.cells",
            "linalg.Mat.rank.cells",
            "jets.Jet1.scalar_mults",
            "metabelian.OmegaForm.apply.entries_visited",
            "omega_builder.points",
        ):
            metrics[key] = (counts.get(key, 0), "count")
        metrics["linalg.solve_in_span.max_bits"] = (
            counts.get("linalg.solve_in_span.max_bits", 0),
            "bits",
        )
        metrics["linalg.SpanAccumulator.insert.useful_ratio"] = (
            ratio(
                counts.get("linalg.SpanAccumulator.insert.useful", 0),
                calls("linalg.SpanAccumulator.insert"),
            ),
            "ratio",
        )
        metrics["metabelian.OmegaForm.apply.useful_ratio"] = (
            ratio(
                counts.get("metabelian.OmegaForm.apply.nonzero_visited", 0),
                counts.get("metabelian.OmegaForm.apply.entries_visited", 0),
            ),
            "ratio",
        )
        metrics["metabelian.multiply.calls"] = (calls("metabelian.multiply"), "count")
        metrics["metabelian.group_law_s"] = (total_s("metabelian.group_law"), "s")
        metrics["metabelian.levi_tensor.self_s"] = (self_s("metabelian.levi_tensor"), "s")
        metrics["omega_builder.build_omega_s"] = (total_s("omega_builder.build_omega"), "s")
        metrics["varieties.certify_isotropic_s"] = (total_s("varieties.certify_isotropic"), "s")
        metrics["report.to_json_s"] = (total_s("report.to_json"), "s")
        return metrics

    def dump(self):
        """JSON-ready record of the root spans, aggregated spans and counters."""
        return {
            "roots": self.roots,
            "spans": [
                {
                    "verify": verify_id,
                    "name": name,
                    "parent": parent,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_s,
                }
                for (verify_id, name, parent), (calls, total, self_s) in sorted(
                    self.agg.items(), key=lambda item: tuple(map(str, item[0]))
                )
            ],
            "counts": dict(sorted(self.counts.items())),
        }
