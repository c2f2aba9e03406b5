"""In-memory span tracing of tiltreg's public names, installed from outside.

``Tracer.installed()`` replaces every public function and every public method
of a public class defined in the traced modules by a wrapper that records one
span per call: name, start, end and the index of the enclosing span.  A
function is replaced wherever a tiltreg module refers to it, because modules
import names from each other (``cli`` calls ``fit`` through its own
namespace).  Leaving the context restores the originals, so untraced ops run
the unmodified library.

Span names are ``<module>.<name>``; methods drop the class name, so
``TiltedDistribution.sample`` is ``family.sample``.  ``scipy.optimize.minimize``
as looked up by ``tiltreg.regression`` is traced as ``regression.bfgs``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import os
import sys
import time

TRACED_MODULES = ("data", "regression", "exponential", "family", "baseline",
                  "diagnostics", "cli")

# Counts that must repeat exactly from op to op and from run to run.
EXACT_COUNTS = (
    "regression.fit.iterations",
    "regression.log_likelihood.calls",
    "regression.numerical_hessian.calls",
    "family.cdf.calls",
    "family.pdf.calls",
)


def _loglik_attrs(result, args, kwargs):
    return {"nonfinite": 1} if result == -math.inf else None


def _fit_attrs(result, args, kwargs):
    return {"iterations": result.iterations}


def _svg_attrs(result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# Per-span attributes read from a call's arguments or result after it ends.
_ATTRS = {
    "regression.log_likelihood": _loglik_attrs,
    "regression.fit": _fit_attrs,
    "diagnostics.render_svg": _svg_attrs,
}


def _targets():
    """(owner, attribute, span name) for everything the tracer wraps."""
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"tiltreg.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, attr, f"{short}.{attr}"
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield obj, meth, f"{short}.{meth}"
    yield importlib.import_module("tiltreg.regression"), "minimize", "regression.bfgs"


class Tracer:
    """Records spans of the calls made while installed; one op at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, outermost, attrs]
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        attrs = _ATTRS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            rec = [name, 0, 0, stack[-1] if stack else -1, depth == 0, None]
            stack.append(len(spans))
            spans.append(rec)
            active[name] = depth + 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] = depth
            if attrs is not None:
                rec[5] = attrs(result, args, kwargs)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        """Trace the library inside the block; spans start empty."""
        self.spans.clear()
        namespaces = [m for n, m in sys.modules.items()
                      if n == "tiltreg" or n.startswith("tiltreg.")]
        patches = []  # (owner, attribute, original, wrapper)
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                patches.append((owner, attr, original, wrapper))
                continue
            for ns in namespaces:
                for key, val in vars(ns).items():
                    if val is original:
                        patches.append((ns, key, original, wrapper))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)


def layer_stats(spans) -> dict[str, float]:
    """Per-layer figures of one op's spans.

    For each span name: ``calls``; ``ms``, the time covered by its outermost
    spans; and ``self_ms``, its spans' durations minus what their direct
    children cover.  Adds the span attributes summed by name
    (``nonfinite``, ``iterations``, ``bytes``) and ``regression.polish.ms``,
    the time inside ``fit`` from the end of BFGS to the start of
    ``observed_information``.
    """
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, float] = {}

    def add(key, value):
        stats[key] = stats.get(key, 0) + value

    bfgs_end, info_start = {}, {}
    for i, (name, start, end, parent, outermost, attrs) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.self_ms", (end - start - covered[i]) / 1e6)
        if outermost:
            add(f"{name}.ms", (end - start) / 1e6)
        for key, value in (attrs or {}).items():
            add(f"{name}.{key}", value)
        if parent >= 0 and spans[parent][0] == "regression.fit":
            if name == "regression.bfgs":
                bfgs_end[parent] = end
            elif name == "regression.observed_information":
                info_start[parent] = start
    for fit_span, end in bfgs_end.items():
        if fit_span in info_start:
            add("regression.polish.ms", (info_start[fit_span] - end) / 1e6)
    return stats
