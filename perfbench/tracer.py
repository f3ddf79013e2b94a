"""Per-layer call tracing for the benchmark, installed from outside the library.

Every public function and method of each arguesia layer is replaced by a
wrapper that counts the call and, where the call crosses from one layer into
another, records a span.  Modules bind each other's functions with
``from ... import ...``, so the wrapper is also bound in every ``arguesia``
module namespace that holds the original.  A layer's self time is the time of
its spans minus the time of their child spans; calls that stay inside one
layer add no span, which leaves that layer's self time unchanged.

``fractions.Fraction`` construction is counted, not timed: its time stays in
the layer that asked for the rational.
"""

from __future__ import annotations

import fractions
import inspect
import sys
from time import perf_counter

LAYERS = {
    "arguesia.cli": "cli",
    "arguesia.instances": "instances",
    "arguesia.rng": "rng",
    "arguesia.theorems": "theorems",
    "arguesia.menelaus_engine": "menelaus_engine",
    "arguesia.conics": "conics",
    "arguesia.involution": "involution",
    "arguesia.projective_core": "projective_core",
    "arguesia.exact_scalar": "exact_scalar",
}
# The kernel layer is whichever implementation arguesia._kernel selected.

# Dunder methods worth wrapping: constructions and the exact-scalar arithmetic.
_DUNDERS = frozenset({
    "__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
})

# Private names that the benchmark needs to see: the serialize phase.
_PRIVATE = {"arguesia.cli": ("_json_dump",)}

# Calls whose inclusive time is kept by name, even inside their own layer.
TIMED = frozenset({
    "cli.verify_one",
    "cli.replay_one",
    "cli._json_dump",
    "instances.generate_instance",
    "exact_scalar.square_free_decomposition",
})

SPAN_CAP = 100_000


class Tracer:
    """Counts, self times and spans for one process; ``summary()`` merges."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[tuple, float] = {}  # (op kind, layer) -> seconds
        self.incl_s: dict[str, float] = {name: 0.0 for name in TIMED}
        self.fractions = 0
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = -1
        self.op_kind = ""
        # frame: [layer, start, child seconds, span id]
        self._stack: list[list] = [["bench", 0.0, 0.0, -1]]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables; undo with ``uninstall``."""
        import arguesia.cli  # noqa: F401  (imports every traced layer)
        from arguesia import _kernel

        layers = dict(LAYERS, **{_kernel._impl.__name__: "kernel"})
        wrapped: dict[int, object] = {}
        for modname, layer in layers.items():
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer, wrapped)
                elif (callable(obj) and getattr(obj, "__module__", None) == modname
                      and (not name.startswith("_") or name in _PRIVATE.get(modname, ()))):
                    wrapped[id(obj)] = self._wrapper(obj, f"{layer}.{name}", layer)
        instances = sys.modules["arguesia.instances"]
        for kind, maker in list(instances._MAKERS.items()):
            wrapper = self._wrapper(maker, f"instances.{maker.__name__}", "instances")
            self._set_item(instances._MAKERS, kind, wrapper)
        for mod in [m for n, m in sys.modules.items() if n.startswith("arguesia")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set_attr(mod, name, wrapped[id(obj)])
        self._install_fraction_counter()

    def uninstall(self) -> None:
        for setter, target, key, old in reversed(self._undo):
            setter(target, key, old)
        self._undo.clear()

    def _set_attr(self, obj, name, value):
        # vars(), not getattr(): a class must get back its staticmethod object.
        self._undo.append((setattr, obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def _set_item(self, mapping, key, value):
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def _wrap_class(self, cls, layer, wrapped):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._set_attr(cls, name, staticmethod(self._wrapper(attr.__func__, qual, layer)))
            elif inspect.isfunction(attr):
                key = id(attr)
                if key not in wrapped:  # aliases such as __radd__ = __add__
                    wrapped[key] = self._wrapper(attr, qual, layer)
                self._set_attr(cls, name, wrapped[key])

    def _install_fraction_counter(self):
        original = fractions.Fraction.__dict__["__new__"]
        new = original.__func__ if isinstance(original, staticmethod) else original
        tracer = self

        def counting_new(cls, *args, **kwargs):
            tracer.fractions += 1
            return new(cls, *args, **kwargs)

        self._set_attr(fractions.Fraction, "__new__", staticmethod(counting_new))

    # -- the wrapper ------------------------------------------------------

    def _wrapper(self, func, name, layer):
        calls = self.calls
        calls.setdefault(name, 0)
        stack = self._stack
        timed = name in TIMED
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            if parent[0] == layer and not timed:
                return func(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [layer, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                key = (tracer.op_kind, layer)
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + duration - frame[2]
                parent[2] += duration
                if timed:
                    tracer.incl_s[name] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, parent[3], tracer.op_id, layer, name, frame[1], end)
                    )
                else:
                    tracer.spans_dropped += 1

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__qualname__ = getattr(func, "__qualname__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts and times as plain data; summaries of processes add up."""
        from arguesia.projective_core import default_chart

        chart = default_chart
        while not hasattr(chart, "cache_info"):
            chart = chart.__wrapped__
        info = chart.cache_info()
        return {
            "calls": dict(self.calls),
            "self_s": {f"{kind}|{layer}": t for (kind, layer), t in self.self_s.items()},
            "incl_s": dict(self.incl_s),
            "fractions": self.fractions,
            "chart_hits": info.hits,
            "chart_misses": info.misses,
            "chart_entries": info.currsize,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (chart cache entries: the largest)."""
    for key in ("calls", "self_s", "incl_s"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    for key in ("fractions", "chart_hits", "chart_misses", "spans_dropped"):
        total[key] = total.get(key, 0) + part[key]
    total["chart_entries"] = max(total.get("chart_entries", 0), part["chart_entries"])
    total.setdefault("spans", []).extend(tuple(s) for s in part["spans"])
    return total
