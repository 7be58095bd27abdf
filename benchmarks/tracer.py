"""Per-layer tracing of the cubecensus package, installed by the benchmark.

A layer is one module of the package.  `Tracer.install()` replaces every
public function of every module, and every public method and property of
`Triangulation` and `IntegerMatrix`, with a timing wrapper.  The wrapper goes
on every module attribute that binds the function, because
`from .x import f` makes a second binding that callers use.

A call that enters a layer from another layer (or from the benchmark) opens
a span: name, parent span, start and end.  A call that stays inside the
caller's layer is only counted, so its time belongs to the enclosing span of
the same layer.  A layer's self time is the time of its spans minus the time
of their child spans.  Spans of the current pass stay in memory and
`write_spans` writes them out when the run ends.

Observers turn the arguments and results of a few functions into the
counters the README lists (orbits, manifold tests, SNF cells and so on).
They run with recording paused, so their own calls into the package are
neither timed nor counted.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array

LAYERS = ("algebra", "blocks", "census", "cli", "cube_complex", "enumeration",
          "normal_surfaces", "triangulation")
TRACED_CLASSES = {"triangulation": "Triangulation", "algebra": "IntegerMatrix"}

# Per-layer metrics in report order: (name, unit, better).
LAYER_METRICS = (
    ("enumeration.self_s", "s", "lower"),
    ("enumeration.calls", "count", "lower"),
    ("enumeration.orbits", "count", "lower"),
    ("enumeration.conjugations", "count", "lower"),
    ("enumeration.repeat_orbits", "count", "lower"),
    ("cube_complex.self_s", "s", "lower"),
    ("cube_complex.manifold_tests", "count", "lower"),
    ("cube_complex.repeat_tests", "count", "lower"),
    ("cube_complex.cone_tets", "count", "lower"),
    ("cube_complex.quotients", "count", "lower"),
    ("triangulation.self_s", "s", "lower"),
    ("triangulation.link_checks", "count", "lower"),
    ("triangulation.tets_built", "count", "lower"),
    ("blocks.self_s", "s", "lower"),
    ("blocks.selections", "count", "lower"),
    ("blocks.repeat_selections", "count", "lower"),
    ("blocks.assemblies", "count", "lower"),
    ("algebra.self_s", "s", "lower"),
    ("algebra.snf_calls", "count", "lower"),
    ("algebra.snf_cells", "count", "lower"),
    ("algebra.matmul_ops", "count", "lower"),
    ("census.self_s", "s", "lower"),
    ("census.classify_calls", "count", "lower"),
    ("census.fingerprints", "count", "lower"),
    ("normal_surfaces.self_s", "s", "lower"),
    ("normal_surfaces.vertex_surfaces", "count", "lower"),
    ("normal_surfaces.checks", "count", "lower"),
    ("normal_surfaces.certificates", "count", "higher"),
    ("cli.self_s", "s", "lower"),
)


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self._stack: list[list] = []      # [layer, span index, child time]
        self._paused = False
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.begin_pass()

    # -- passes ------------------------------------------------------------

    def begin_pass(self) -> None:
        """Zero the per-pass totals and forget the spans and the inputs
        seen, so repeats are counted within one pass."""
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = {name: 0 for name, unit, _ in LAYER_METRICS if unit == "count"}
        self._seen = {"orbits": set(), "tests": set(), "selections": set()}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def pass_metrics(self) -> dict[str, float]:
        values = dict(self.counters)
        values["enumeration.calls"] = self.calls["enumeration"]
        values.update((f"{layer}.self_s", self.self_time[layer]) for layer in LAYERS)
        return values

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"cubecensus.{layer}"] for layer in LAYERS}
        holders = list(modules.values()) + [sys.modules["cubecensus"]]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not _is_package_function(obj, module):
                    continue
                wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapped)
        for layer, cls_name in TRACED_CLASSES.items():
            cls = getattr(modules[layer], cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name != "__init__":
                    continue
                qual = f"{layer}.{cls_name}.{name}"
                if isinstance(attr, types.FunctionType):
                    if name == "__init__" and cls_name != "Triangulation":
                        continue
                    replacement = self._wrap(attr, layer, qual)
                elif isinstance(attr, staticmethod):
                    replacement = staticmethod(self._wrap(attr.__func__, layer, qual))
                elif isinstance(attr, property):
                    replacement = property(self._wrap(attr.fget, layer, qual))
                elif isinstance(attr, functools.cached_property):
                    replacement = functools.cached_property(self._wrap(attr.func, layer, qual))
                    replacement.__set_name__(cls, name)
                else:
                    continue
                self._patch(cls, name, replacement)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder, attr, replacement) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, replacement)

    def _wrap(self, func, layer: str, qual: str):
        name_id = self._name_index.setdefault(qual, len(self._names))
        if name_id == len(self._names):
            self._names.append(qual)
        observe = _OBSERVERS.get(qual)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return func(*args, **kwargs)
            tracer.calls[layer] += 1
            if stack and stack[-1][0] == layer:
                result = func(*args, **kwargs)
            else:
                index = len(tracer.span_name)
                tracer.span_name.append(name_id)
                tracer.span_parent.append(stack[-1][1] if stack else -1)
                start = clock()
                tracer.span_start.append(start)
                tracer.span_end.append(start)
                stack.append([layer, index, 0.0])
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    frame = stack.pop()
                    duration = end - start
                    tracer.span_end[index] = end
                    tracer.self_time[layer] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
            if observe is not None:
                tracer._paused = True
                try:
                    observe(tracer, args, result)
                finally:
                    tracer._paused = False
            return result

        return wrapper

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the spans of the last pass as gzip-compressed JSON lines:
        a header with the span names, then `[id, parent, name, start, end]`
        per span with times in seconds.  Returns the number of spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self._names,
                                  "columns": ["id", "parent", "name", "start", "end"]}) + "\n")
            for i in range(len(self.span_name)):
                out.write(f"[{i},{self.span_parent[i]},{self.span_name[i]},"
                          f"{self.span_start[i]!r},{self.span_end[i]!r}]\n")
        return len(self.span_name)


def _is_package_function(obj, module) -> bool:
    """A function (or cached function) defined in `module` itself."""
    if isinstance(obj, type):
        return False
    target = getattr(obj, "__wrapped__", obj)
    return (isinstance(target, types.FunctionType)
            and target.__module__ == module.__name__)


# -- observers: counters taken from arguments and results ------------------------


def _bump(tracer, name, by=1):
    tracer.counters[name] += by


def _observe_orbit(tracer, args, result):
    seen = tracer._seen["orbits"]
    _bump(tracer, "enumeration.orbits")
    if args[0].sort_key() in seen:
        _bump(tracer, "enumeration.repeat_orbits")
    seen.update(g.sort_key() for g in result)


def _observe_manifold_test(tracer, args, result):
    _bump(tracer, "cube_complex.manifold_tests")
    seen = tracer._seen["tests"]
    if args[0] in seen:
        _bump(tracer, "cube_complex.repeat_tests")
    seen.add(args[0])


def _observe_selection(tracer, args, result):
    _bump(tracer, "blocks.selections")
    seen = tracer._seen["selections"]
    key = args[0].sort_key()
    if key in seen:
        _bump(tracer, "blocks.repeat_selections")
    seen.add(key)


_OBSERVERS = {
    "enumeration.orbit_of": _observe_orbit,
    "enumeration.conjugate_gluing": lambda t, a, r: _bump(t, "enumeration.conjugations"),
    "cube_complex.is_closed_manifold": _observe_manifold_test,
    "cube_complex.cone_subdivide": lambda t, a, r: _bump(t, "cube_complex.cone_tets", r.tet_count),
    "cube_complex.build_quotient": lambda t, a, r: _bump(t, "cube_complex.quotients"),
    "triangulation.Triangulation.__init__":
        lambda t, a, r: _bump(t, "triangulation.tets_built", a[0].tet_count),
    "triangulation.Triangulation.link_spheres_diagnostic":
        lambda t, a, r: _bump(t, "triangulation.link_checks"),
    "blocks.select_block": _observe_selection,
    "blocks.assemble_triangulation": lambda t, a, r: _bump(t, "blocks.assemblies"),
    "algebra.smith_normal_form":
        lambda t, a, r: (_bump(t, "algebra.snf_calls"),
                         _bump(t, "algebra.snf_cells", a[0].rows * a[0].cols)),
    "algebra.IntegerMatrix.mul":
        lambda t, a, r: _bump(t, "algebra.matmul_ops", a[0].rows * a[0].cols * a[1].cols),
    "census.classify": lambda t, a, r: _bump(t, "census.classify_calls"),
    "census.compute_fingerprint": lambda t, a, r: _bump(t, "census.fingerprints"),
    "normal_surfaces.vertex_normal_surfaces":
        lambda t, a, r: _bump(t, "normal_surfaces.vertex_surfaces", len(r)),
    "normal_surfaces.check_certificate": lambda t, a, r: _bump(t, "normal_surfaces.checks"),
    "normal_surfaces.find_certificate":
        lambda t, a, r: _bump(t, "normal_surfaces.certificates", int(r is not None)),
}
