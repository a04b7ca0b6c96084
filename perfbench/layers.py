"""Per-layer tracing for the benchmark's traced run.

The tracer wraps, from outside the program, every public function of each
layer module and the public and arithmetic methods of the classes those
modules define.  Every hopfscf module attribute that is the same object as a
wrapped function is patched too, so a name imported with `from .x import f`
(or an alias such as `ScalarQT.__radd__ = __add__`) is traced like the
original.

A span is recorded when a call enters a layer other than the innermost open
span's layer; calls inside the same layer only count.  Spans live in memory
until the run ends.  A layer's self time is its spans' time minus the time
covered by their child spans.  Generator functions are timed only while they
create the generator: their bodies run in the caller's span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
import types
from array import array
from contextlib import contextmanager

LAYERS = ("scalars", "compositions", "qsym", "nsym", "groupscf", "charmap", "cli", "verify")
# Methods traced besides the public ones: construction, arithmetic, equality, printing.
TRACED_DUNDERS = frozenset({
    "__init__", "__new__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__",
    "__eq__", "__str__",
})
SCALAR_OPS = tuple(
    f"scalars.ScalarQT.{name}"
    for name in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__neg__", "__eq__")
)
SHUFFLES = tuple(
    f"compositions.{name}"
    for name in ("preshuffle", "a_shuffle", "run_markers", "overlapping_shuffles")
)

# Layers whose every metric is predicted to be 0 on a workload's traced run.
ZERO_WORK = {
    "expand_mix": ("groupscf", "charmap", "verify"),
    "ch_diagrams": ("nsym", "cli", "verify"),
    "dense_group": ("scalars", "nsym"),
}


def self_times(layers, parents, starts, ends, n_layers: int) -> list[float]:
    """Per-layer self time: each span's duration minus its children's.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; a parent index of -1 marks a top-level span.
    """
    child_time = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += ends[i] - starts[i]
    out = [0.0] * n_layers
    for i, layer in enumerate(layers):
        out[layer] += ends[i] - starts[i] - child_time[i]
    return out


def top_level_time(parents, starts, ends) -> float:
    return sum(ends[i] - starts[i] for i, parent in enumerate(parents) if parent < 0)


class Tracer:
    """Wraps hopfscf's layers while installed; keeps spans and call counts."""

    def __init__(self, package: types.ModuleType):
        self.package = package.__name__
        self.modules = [importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS]
        self.names: list[str] = []  # qualified name per traced function
        self.calls: list[int] = []  # calls per traced function
        self.extra: dict[str, int] = {}  # counts that need arguments or results
        self.span_layer = array("b")
        self.span_fn = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = 0
        self._stack = [(-1, -1)]  # (layer, span index) of the open spans
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(fn) -> (fn, wrapper)
        self._patches: list[tuple[object, str, object]] = []
        for layer, qualname, fn in self._targets():
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (fn, self._wrap(fn, layer, qualname))

    # -- what to wrap ------------------------------------------------------

    def _targets(self):
        for layer, module in enumerate(self.modules):
            short = LAYERS[layer]
            for name, value in vars(module).items():
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType) and not name.startswith("_"):
                    yield layer, f"{short}.{name}", value
                elif isinstance(value, type):
                    for attr, member in vars(value).items():
                        fn = _function_of(member)
                        if fn is not None and (attr in TRACED_DUNDERS or not attr.startswith("_")):
                            yield layer, f"{short}.{value.__name__}.{fn.__name__}", fn

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer: int, qualname: str):
        index = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        calls, stack, clock = self.calls, self._stack, time.perf_counter
        span_layer, span_fn, span_parent = self.span_layer, self.span_fn, self.span_parent
        span_op, span_start, span_end = self.span_op, self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[index] += 1
            top_layer, parent = stack[-1]
            if top_layer == layer:
                return fn(*args, **kwargs)
            span = len(span_start)
            span_layer.append(layer)
            span_fn.append(index)
            span_parent.append(parent)
            span_op.append(tracer.op)
            span_end.append(0.0)
            stack.append((layer, span))
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()

        hook = _HOOKS.get(qualname)
        if hook is None:
            return traced
        extra = self.extra

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            hook(extra, args, result)
            return result

        return counted

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        fn = _function_of(member)
                        if fn is not None and id(fn) in self._wrappers:
                            wrapper = self._wrappers[id(fn)][1]
                            if isinstance(member, (classmethod, staticmethod)):
                                wrapper = type(member)(wrapper)
                            self._patches.append((value, attr, member))
                            setattr(value, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name != self.package and not name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def originals(self) -> dict[int, object]:
        """id -> function for every wrapped original."""
        return {key: fn for key, (fn, _) in self._wrappers.items()}

    # -- results -----------------------------------------------------------

    def count(self, *qualnames: str) -> int:
        wanted = set(qualnames)
        return sum(c for name, c in zip(self.names, self.calls) if name in wanted)

    def metrics(self, timed_s: float, untraced_s: float,
                time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for spans recorded so far.

        timed_s is the traced ops' time, untraced_s the same ops' time without
        the tracer; span times are multiplied by time_scale so that all times
        are at the same speed as these two.
        """
        selfs = self_times(self.span_layer, self.span_parent, self.span_start,
                           self.span_end, len(LAYERS))
        own = {layer: t * time_scale for layer, t in zip(LAYERS, selfs)}
        top = top_level_time(self.span_parent, self.span_start, self.span_end) * time_scale
        extra = self.extra.get
        exact_div = self.count("scalars.PolyQT.exact_div")
        structconst = self.count("nsym.structure_constant")
        out = {
            "scalars.self_s": (own["scalars"], "s"),
            "scalars.ops": (self.count(*SCALAR_OPS), "count"),
            "scalars.built": (self.count("scalars.ScalarQT.__init__"), "count"),
            "scalars.poly_mul": (self.count("scalars.PolyQT.__mul__"), "count"),
            "scalars.exact_div": (exact_div, "count"),
            "scalars.exact_div_hit_ratio": (_ratio(extra("exact_div_hits", 0), exact_div), "ratio"),
            "compositions.self_s": (own["compositions"], "s"),
            "compositions.comp_of_set": (self.count("compositions.comp_of_set"), "count"),
            "compositions.shuffle_calls": (self.count(*SHUFFLES), "count"),
            "qsym.self_s": (own["qsym"], "s"),
            "qsym.convert_calls": (self.count("qsym.convert"), "count"),
            "qsym.convert_terms": (extra("qsym.convert_terms", 0), "count"),
            "qsym.product_calls": (self.count("qsym.product"), "count"),
            "qsym.coproduct_calls": (self.count("qsym.coproduct"), "count"),
            "nsym.self_s": (own["nsym"], "s"),
            "nsym.convert_calls": (self.count("nsym.convert"), "count"),
            "nsym.convert_terms": (extra("nsym.convert_terms", 0), "count"),
            "nsym.structconst_calls": (structconst, "count"),
            "nsym.structconst_nonzero_ratio": (_ratio(extra("structconst_nonzero", 0), structconst), "ratio"),
            "groupscf.self_s": (own["groupscf"], "s"),
            "groupscf.values_built": (extra("values_built", 0), "count"),
            "groupscf.elements_scanned": (extra("elements_scanned", 0), "count"),
            "groupscf.hall_inner_calls": (self.count("groupscf.hall_inner"), "count"),
            "groupscf.product_mA_calls": (self.count("groupscf.product_mA"), "count"),
            "charmap.self_s": (own["charmap"], "s"),
            "charmap.ch_calls": (self.count("charmap.ch"), "count"),
            "charmap.from_dense_calls": (self.count("charmap.ScfElem.from_dense"), "count"),
            "cli.self_s": (own["cli"], "s"),
            "verify.self_s": (own["verify"], "s"),
            "trace.overhead_ratio": (_ratio(timed_s, untraced_s), "ratio"),
            "trace.unattributed_s": (timed_s - top, "s"),
        }
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,layer,function,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]},{i},{self.span_parent[i]},{LAYERS[self.span_layer[i]]},"
                    f"{self.names[self.span_fn[i]]},{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )


def zero_work_violations(workload: str, metrics: dict) -> list[str]:
    """Metrics that break the workload's zero-work prediction."""
    layers = ZERO_WORK.get(workload, ())
    return [name for name, (value, _) in metrics.items()
            if name.split(".")[0] in layers and value != 0]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _function_of(member):
    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
    return fn if isinstance(fn, types.FunctionType) else None


def _add(extra: dict, key: str, amount: int) -> None:
    extra[key] = extra.get(key, 0) + amount


# Counts that need an argument or a result; each hook reads attributes only,
# so it calls no traced function.
_HOOKS = {
    "scalars.PolyQT.exact_div": lambda e, args, r: _add(e, "exact_div_hits", r is not None),
    "qsym.convert": lambda e, args, r: _add(e, "qsym.convert_terms", len(r.terms)),
    "nsym.convert": lambda e, args, r: _add(e, "nsym.convert_terms", len(r.terms)),
    "nsym.structure_constant": lambda e, args, r: _add(e, "structconst_nonzero", bool(r.num.terms)),
    "groupscf.ClassFunction.__init__": lambda e, args, r: _add(e, "values_built", len(args[0].values)),
    "groupscf.hall_inner": lambda e, args, r: _add(e, "elements_scanned", len(args[0].values)),
    "groupscf.expand_kappa": lambda e, args, r: _add(e, "elements_scanned", len(args[0].values)),
}
