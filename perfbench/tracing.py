"""Spans at the module boundaries of h2star, for the traced benchmark run.

``Tracer.install`` replaces every binding of each boundary function in the
loaded h2star namespaces with a wrapper that records one span: name, start,
end, parent span and op id.  That covers the defining module (so
``search``'s ``hankel._param_form_raw`` and ``random_lemma_point``'s own
``random_disk_point`` calls are seen), every module that imported the name
with ``from ... import`` (``search.hankel_det``, ``checks.functional_param_form``,
...), and the ``CHECKS_BY_NAME`` / ``ALL_CHECKS`` tables.  ``uninstall`` puts
every original back.

Spans are kept in flat typed arrays (about 26 bytes each), because one
pointwise-gate pass records about 1.3 million of them.  Per-layer metrics
are computed from the arrays after the pass, outside the timed region.  A
span's self time is its duration minus the time its child spans cover; the
program runs on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# Layers are the h2star modules.  ``series`` is absent on purpose: no search,
# check or CLI command reaches it (see README.md).
LAYERS = ("caratheodory", "starlike", "hankel", "search", "cli", "checks")

# (module, attribute, span name) of every wrapped boundary function.
BOUNDARIES = (
    ("caratheodory", "random_disk_point", "caratheodory.random_disk_point"),
    ("caratheodory", "random_lemma_point", "caratheodory.random_lemma_point"),
    ("caratheodory", "lemma_forward", "caratheodory.lemma_forward"),
    ("caratheodory", "toeplitz_psd", "caratheodory.toeplitz_psd"),
    ("starlike", "coeffs_from_moments", "starlike.coeffs_from_moments"),
    ("starlike", "closed_form_a234", "starlike.closed_form_a234"),
    ("hankel", "_param_form_raw", "hankel.param_form"),
    ("hankel", "hankel_det", "hankel.hankel_det"),
    ("hankel", "functional_param_form", "hankel.functional_param_form"),
    ("hankel", "functional_moment_form", "hankel.functional_moment_form"),
    ("hankel", "phi", "hankel.phi"),
    ("search", "maximize_param", "search.maximize_param"),
    ("search", "maximize_herglotz", "search.maximize_herglotz"),
    ("search", "maximize_phi", "search.maximize_phi"),
    ("search", "monotonicity_scan", "search.monotonicity_scan"),
    ("search", "sweep_alpha", "search.sweep_alpha"),
    ("cli", "main", "cli.main"),
)

# The acceptance checks of the pointwise-gate workload; each is a span
# named checks.<check-name>.
GATE_CHECKS = (
    "algebra-reconciliation",
    "proof-step-properties",
    "caratheodory-admissibility",
    "sharpness-attainment",
    "prior-result-anchors",
    "sharp-bound-reproduction",
)

SPAN_NAMES = tuple(span for _, _, span in BOUNDARIES) + tuple(
    f"checks.{name}" for name in GATE_CHECKS
)

# Searches whose SearchOutcome.evaluations add up to search.evaluations.
_EVALUATING = frozenset(
    ("search.maximize_param", "search.maximize_herglotz", "search.maximize_phi")
)


def _metric_table():
    """(name, unit, better, is_count) of every per-layer metric, in order."""
    rows = []
    for span in SPAN_NAMES:
        rows.append((f"{span}.calls", "count", "lower", True))
        rows.append((f"{span}.s", "s", "lower", False))
    rows += [(f"{layer}.self_s", "s", "lower", False) for layer in LAYERS]
    rows += [
        ("hankel.param_form.points", "count", "lower", True),
        ("hankel.param_form.ns_per_point", "ns", "lower", False),
        ("starlike.coeffs_from_moments.us_per_call", "us", "lower", False),
        ("search.evaluations", "count", "lower", True),
        ("search.evals_per_s", "1/s", "higher", False),
        ("trace.overhead_ratio", "ratio", "lower", False),
    ]
    return tuple(rows)


PER_LAYER_METRICS = _metric_table()


def _h2star_namespaces():
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "h2star" or mod_name.startswith("h2star.")):
            yield module


class Tracer:
    """Records spans for one traced pass; install, run the pass, uninstall."""

    def __init__(self):
        self.op_id = -1
        self._name = array("H")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._points = 0
        self._evaluations = 0
        self._restore = []

    def _wrap(self, name_id, span, fn):
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter_ns
        counts_points = span == "hankel.param_form"
        counts_evals = span in _EVALUATING

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counts_points:
                self._points += int(np.size(result))
            elif counts_evals:
                self._evaluations += int(result.evaluations)
            return result

        return traced

    def install(self):
        """Wrap every binding of every boundary function in h2star."""
        from h2star import checks

        originals = [
            (getattr(importlib.import_module(f"h2star.{module}"), attr), span)
            for module, attr, span in BOUNDARIES
        ]
        originals += [(checks.CHECKS_BY_NAME[name], f"checks.{name}") for name in GATE_CHECKS]
        wrapped = {
            id(fn): (fn, self._wrap(SPAN_NAMES.index(span), span, fn))
            for fn, span in originals
        }

        def swap(container, key, value, set_item):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                set_item(container, key, hit[1])
                self._restore.append((container, key, value, set_item))

        for module in _h2star_namespaces():
            for attr, value in list(vars(module).items()):
                swap(module, attr, value, setattr)
                if isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        swap(value, key, item, dict.__setitem__)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        swap(value, i, item, list.__setitem__)

    def uninstall(self):
        """Put every original binding back, in reverse order."""
        while self._restore:
            container, key, orig, set_item = self._restore.pop()
            set_item(container, key, orig)

    @property
    def span_count(self) -> int:
        return len(self._name)

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans, except trace.overhead_ratio."""
        names = np.frombuffer(self._name, dtype=np.uint16)
        parents = np.frombuffer(self._parent, dtype=np.intc)
        starts = np.frombuffer(self._start, dtype=np.int64)
        ends = np.frombuffer(self._end, dtype=np.int64)
        dur = (ends - starts).astype(np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=names.size)
        self_ns = dur - child

        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        total_ns = np.bincount(names, weights=dur, minlength=k)
        self_by_span = np.bincount(names, weights=self_ns, minlength=k)

        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.s"] = float(total_ns[i]) / 1e9
        layer_of_span = np.array([LAYERS.index(s.split(".")[0]) for s in SPAN_NAMES])
        for j, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(self_by_span[layer_of_span == j].sum()) / 1e9

        pf = SPAN_NAMES.index("hankel.param_form")
        out["hankel.param_form.points"] = self._points
        out["hankel.param_form.ns_per_point"] = _ratio(float(total_ns[pf]), self._points)
        cm = SPAN_NAMES.index("starlike.coeffs_from_moments")
        out["starlike.coeffs_from_moments.us_per_call"] = _ratio(
            float(total_ns[cm]) / 1e3, int(calls[cm])
        )

        # Time in the search layer: search spans not nested in another search span.
        span_layer = layer_of_span[names]
        parent_layer = np.where(nested, span_layer[np.maximum(parents, 0)], -1)
        search = LAYERS.index("search")
        outer = (span_layer == search) & (parent_layer != search)
        out["search.evaluations"] = self._evaluations
        out["search.evals_per_s"] = _ratio(self._evaluations, float(dur[outer].sum()) / 1e9)
        return out


def _ratio(num, den) -> float:
    """num / den, or 0.0 where the workload never reaches the layer."""
    return float(num) / den if den else 0.0
