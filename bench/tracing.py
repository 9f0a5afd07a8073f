"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions and methods of each
atfkit layer (a module) with wrappers that record a span: name, start,
end and the span that was open when it began.  The wrappers are
installed in every atfkit module namespace that holds the function, so
calls between modules are seen too.  Nothing under ``src/`` changes.

Scalar operations (``QField`` operators and the module functions of
``atfkit.scalars``) run millions of times per run, so they do not get a
span each.  Each span keeps the count and summed duration of the scalar
operations called directly under it, and each operation keeps its own
totals.  Scalar operations are leaves: a scalar call made while another
one is running is not counted separately.

A layer's self time is the duration of its spans minus the part covered
by child spans and child scalar aggregates.  A group's ``calls`` counts
entries into the group from outside it, so ``distance_to_boundary``
calling ``support_values`` counts once.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("scalars", "plane", "polygon", "diagram", "recurrence", "orbits",
          "render", "classify", "homology", "cli")

# layer -> {attribute: group}; "Class.method" patches the class, a plain
# name patches the module function everywhere it was imported.
WRAPPED = {
    "scalars": {
        **dict.fromkeys(["QField.__add__", "QField.__radd__", "QField.__sub__",
                         "QField.__rsub__", "QField.__neg__", "QField.__abs__"], "add"),
        **dict.fromkeys(["QField.__mul__", "QField.__rmul__"], "mul"),
        **dict.fromkeys(["QField.__truediv__", "QField.__rtruediv__"], "div"),
        **dict.fromkeys(["QField.__lt__", "QField.__le__", "QField.__gt__", "QField.__ge__",
                         "QField.__eq__", "QField.__bool__", "QField.sign", "sign"], "cmp"),
        "QField.__hash__": "hash",
        "floor": "floor",
        **dict.fromkeys(["parse_scalar", "format_scalar", "QField.__str__",
                         "QField.__repr__"], "text"),
        **dict.fromkeys(["qf", "is_rational", "QField.is_rational", "QField.as_fraction",
                         "QField.conjugate", "QField.__float__"], "other"),
    },
    "plane": dict.fromkeys(
        ["pt", "as_point", "primitive", "cross", "dot", "move", "delta", "direction_of",
         "affine_length", "orient", "on_segment", "segments_intersect", "unipotent_fixing",
         "lex_less", "LatticeVector.perp", "LatticeVector.is_primitive",
         "LatticeVector.__add__", "LatticeVector.__neg__", "UnimodularAffineMap.apply",
         "UnimodularAffineMap.apply_vector", "UnimodularAffineMap.compose",
         "UnimodularAffineMap.inverse"], "other"),
    "polygon": {
        **dict.fromkeys(["Polygon.__init__", "Polygon.corner_chop", "Polygon.transform",
                         "build_blowup_polygon", "centered_rectangle", "catalog"], "construct"),
        **dict.fromkeys(["Polygon.distance_to_boundary", "Polygon.support_values",
                         "Polygon.contains", "Polygon.on_boundary"], "distance"),
        "Polygon.level_set": "level_set",
        **dict.fromkeys(["Polygon.point_to_arc", "Polygon.arc_to_point",
                         "Polygon.arc_of_vertex"], "arc"),
        **dict.fromkeys(["Polygon.max_distance", "Polygon.area", "Polygon.level_perimeter",
                         "Polygon.is_delzant", "Polygon.self_intersection",
                         "Polygon.to_json_obj", "Polygon.from_json_obj", "clip_halfplane",
                         "solve_equidistant_triple", "ConstructionParams.__post_init__"],
                        "other"),
    },
    "diagram": {
        "build_pi0": "build",
        "BaseDiagram.__post_init__": "validate",
        **dict.fromkeys(["BaseDiagram.to_json_obj", "BaseDiagram.to_json",
                         "BaseDiagram.from_json_obj", "BaseDiagram.from_json"], "json"),
        **dict.fromkeys(["nodal_trade", "nodal_slide", "cut_transfer"], "moves"),
        **dict.fromkeys(["BaseDiagram.same_geometry", "PiecewiseMap.apply",
                         "PiecewiseMap.compose", "PiecewiseMap.is_identity"], "other"),
    },
    "recurrence": {
        "build_recurrence_map": "build",
        "apply_rounds": "rounds",
        **dict.fromkeys(["apply_phi", "apply_phi_iter"], "phi"),
        **dict.fromkeys(["rotate_on_level", "rotation_amount", "StripShear.apply",
                         "StripShear.excess"], "other"),
    },
    "orbits": {
        "classify_level": "classify",
        "orbit_positions": "positions",
        "gap_values": "gaps",
        "equidistribution_stats": "equidist",
        **dict.fromkeys(["rotation_number", "perimeter_value", "to_level_coordinate",
                         "from_level_coordinate", "rho_monotone_check"], "other"),
    },
    "render": {"render_svg": "svg", "decimal20": "other"},
    "classify": dict.fromkeys(["check_applicable", "monotone_test"], "other"),
    "homology": dict.fromkeys(["find_twist_classes", "omega_eval", "intersection", "c1_eval"],
                              "other"),
    "cli": {"main": "other"},
}

# every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = (
    [(f"scalars.{g}.calls", "count") for g in ("add", "mul", "div", "cmp", "hash", "floor", "text")]
    + [("scalars.self_s", "s"), ("scalars.us_per_op", "us"), ("scalars.max_bits", "bits"),
       ("plane.calls", "count"), ("plane.self_s", "s")]
    + [(f"polygon.{g}.{m}", u) for g in ("distance", "level_set", "arc", "construct")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("polygon.level_set.reuse", "ratio"), ("polygon.self_s", "s")]
    + [(f"diagram.{g}.self_s", "s") for g in ("build", "validate", "json")]
    + [("diagram.moves.calls", "count"), ("diagram.self_s", "s"), ("recurrence.build.self_s", "s")]
    + [(f"recurrence.{g}.{m}", u) for g in ("rounds", "phi")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("recurrence.self_s", "s")]
    + [(f"orbits.{g}.self_s", "s") for g in ("classify", "positions", "gaps", "equidist")]
    + [("orbits.positions.count", "count"), ("orbits.self_s", "s"),
       ("render.svg.calls", "count"), ("render.svg.self_s", "s"), ("render.bytes", "bytes"),
       ("classify.self_s", "s"), ("homology.self_s", "s"), ("cli.self_s", "s"),
       ("cli.bytes_out", "bytes")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead", "ratio")]
)


class Tracer:
    """Spans and scalar aggregates for one traced process."""

    def __init__(self):
        self.active = False
        # (layer, group, qualified name) per wrapped function; 0 is the item span
        self.names: list[tuple[str, str, str]] = [("bench", "item", "item")]
        self.op_calls: list[int] = [0]
        self.op_seconds: list[float] = [0.0]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_scalar_calls = array("q")
        self.span_scalar_s = array("d")
        self.stack = [-1]
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.max_bits = 0
        self.level_keys: set = set()

    # -- installing wrappers --------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED, in all atfkit module namespaces."""
        modules = [m for name, m in sys.modules.items()
                   if name == "atfkit" or name.startswith("atfkit.")]
        for layer, table in WRAPPED.items():
            module = sys.modules[f"atfkit.{layer}"]
            for attr, group in table.items():
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__[name]
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                nid = len(self.names)
                self.names.append((layer, group, f"{layer}.{attr}"))
                self.op_calls.append(0)
                self.op_seconds.append(0.0)
                wrapper = functools.wraps(fn)(
                    self._scalar(fn, nid) if layer == "scalars" else self._span(fn, nid, layer, group)
                )
                if owner_name:
                    setattr(owner, name, kind(wrapper) if kind else wrapper)
                else:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, key, wrapper)

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.span_scalar_calls.append(0)
        self.span_scalar_s.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self) -> None:
        self.span_end[self.stack.pop()] = perf_counter()

    def _span(self, fn, nid: int, layer: str, group: str):
        post = {
            ("polygon", "level_set"): self._note_level_set,
            ("orbits", "positions"): lambda args, result: self.counts.update(
                {"orbits.positions.count": len(result)}),
            ("render", "svg"): lambda args, result: self.counts.update(
                {"render.bytes": len(result)}),
        }.get((layer, group))

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close()
            if post is not None:
                self.active = False
                try:
                    post(args, result)
                finally:
                    self.active = True
            return result

        return wrapper

    def _scalar(self, fn, nid: int):
        stack, calls, seconds = self.stack, self.op_calls, self.op_seconds
        span_calls, span_s = self.span_scalar_calls, self.span_scalar_s

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.active = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors["scalars"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                sid = stack[-1]
                span_calls[sid] += 1
                span_s[sid] += dt
                calls[nid] += 1
                seconds[nid] += dt
                self.active = True
            a = getattr(result, "a", None)
            if a is not None:
                b = result.b
                bits = max(a.numerator.bit_length(), a.denominator.bit_length(),
                           b.numerator.bit_length(), b.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits
            return result

        return wrapper

    def _note_level_set(self, args, result) -> None:
        key = (args[0], args[1])
        self.counts["polygon.level_set.seen"] += key in self.level_keys
        self.level_keys.add(key)

    # -- item spans ---------------------------------------------------------

    def begin_item(self) -> None:
        self._open(0)
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self._close()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead."""
        n = len(self.span_name)
        child = list(self.span_scalar_s)
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for sid in range(n):
            layer, group, _ = self.names[self.span_name[sid]]
            own = self.span_end[sid] - self.span_start[sid] - child[sid]
            self_s[layer] += own
            self_s[f"{layer}.{group}"] += own
            parent = self.span_parent[sid]
            outer = self.names[self.span_name[parent]] if parent >= 0 else ("", "", "")
            if outer[0] != layer:
                calls[layer] += 1
            if outer[:2] != (layer, group):
                calls[f"{layer}.{group}"] += 1
        for (layer, group, _), c, t in zip(self.names, self.op_calls, self.op_seconds):
            if layer == "scalars":
                calls[f"scalars.{group}"] += c
                calls["scalars"] += c
                self_s["scalars"] += t
        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            head, _, tail = name.rpartition(".")
            if tail == "self_s":
                out[name] = self_s[head]
            elif tail == "calls":
                out[name] = calls[head]
            elif tail == "errors":
                out[name] = self.errors[head]
        level_calls = calls["polygon.level_set"]
        out["polygon.level_set.reuse"] = (
            self.counts["polygon.level_set.seen"] / level_calls if level_calls else 0.0
        )
        out["scalars.us_per_op"] = 1e6 * self_s["scalars"] / calls["scalars"] if calls["scalars"] else 0.0
        out["scalars.max_bits"] = self.max_bits
        for name in ("orbits.positions.count", "render.bytes", "cli.bytes_out"):
            out[name] = self.counts[name]
        return out

    def write(self, path: Path) -> None:
        """Write spans and per-operation scalar totals as gzipped tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("# span id parent name start end scalar_calls scalar_s\n")
            f.write("# op name calls seconds\n")
            for sid in range(len(self.span_name)):
                f.write(f"span\t{sid}\t{self.span_parent[sid]}\t"
                        f"{self.names[self.span_name[sid]][2]}\t"
                        f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t"
                        f"{self.span_scalar_calls[sid]}\t{self.span_scalar_s[sid]:.9f}\n")
            for (layer, _, name), c, t in zip(self.names, self.op_calls, self.op_seconds):
                if layer == "scalars":
                    f.write(f"op\t{name}\t{c}\t{t:.9f}\n")
