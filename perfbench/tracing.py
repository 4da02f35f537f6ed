"""Spans around polychow's public functions, installed from outside.

`Tracer.install` replaces every public module-level function of the layer
modules (and a few public constructors) with a wrapper that records a
span (name, start, end, parent, extra), and rebinds every reference to
the original in any loaded polychow module, so calls made through
`from .x import y` bindings are traced too. Spans stay in memory and are
written out when the run ends. A layer's self time is its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from math import ceil, floor
from time import perf_counter

LAYERS = ("geometry", "counting", "chow", "blowup", "stability", "serialization", "cli")
CONSTRUCTORS = {
    "geometry": (("Polygon", "from_coords"),),
    "stability": (("SymmetryGroup", "generated_by"), ("PointConfiguration", "of")),
}
GROUPS = {
    "counting.sum_points": "counting.point_sums",
    "counting.p_delta": "counting.point_sums",
    "counting.segment_lattice_points": "counting.segment",
    "counting.segment_count": "counting.segment",
    "counting.segment_f_sum": "counting.segment",
    "stability.sum_rule_residuals": "stability.sum_rule",
    "stability.sum_rule_constant_condition": "stability.sum_rule",
    "stability.SymmetryGroup.generated_by": "stability.group_closure",
    "serialization.parse_rational": "serialization.load",
    "serialization.file_digest": "serialization.load",
    "serialization.render_report": "serialization.render",
    "cli.main": "cli.command",
}
LATTICE = "counting.lattice_points"
BLOWUP = ("blowup.chop_corners", "blowup.df_invariants", "blowup.chow_after_blowup",
          "blowup.verify_blowup_theorem", "blowup.verify_general_identity")

# (metric name, unit) in the order they are reported
METRICS = (
    ("counting.lattice_points.calls", "count/op"),
    ("counting.lattice_points.self_ms", "ms/op"),
    ("counting.points_listed", "count/op"),
    ("counting.rows_scanned", "count/op"),
    ("counting.repeat_enumerations", "count/op"),
    ("chow.enumerations_per_poly", "count/call"),
    ("counting.ehrhart_poly.self_ms", "ms/op"),
    ("counting.sum_poly.self_ms", "ms/op"),
    ("counting.point_sums.self_ms", "ms/op"),
    ("counting.segment.self_ms", "ms/op"),
    ("chow.chow_poly.self_ms", "ms/op"),
    ("chow.chow_eval.self_ms", "ms/op"),
    ("geometry.calls", "count/op"),
    ("geometry.self_ms", "ms/op"),
    *((name + ".self_ms", "ms/op") for name in BLOWUP),
    ("blowup.enumerations_per_op", "count/op"),
    ("stability.fo_invariant.self_ms", "ms/op"),
    ("stability.sum_rule.self_ms", "ms/op"),
    ("stability.mukai_classify.calls", "count/op"),
    ("stability.mukai_classify.self_ms", "ms/op"),
    ("stability.group_closure.self_ms", "ms/op"),
    ("cli.import_ms", "ms"),
    ("serialization.load.self_ms", "ms/op"),
    ("serialization.render.self_ms", "ms/op"),
    ("cli.command.self_ms", "ms/op"),
    ("cli.stdout_bytes", "B/op"),
)


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("geometry."):
        return "geometry"
    if name.startswith("serialization.load_"):
        return "serialization.load"
    if name.startswith("serialization.fmt_"):
        return "serialization.render"
    return name


class Tracer:
    """Spans are recorded only inside an op (between `begin_op` and
    `end_op`), so inputs built between rounds are not counted, unless
    `outside_ops` is set, as in a CLI child, where the whole process is
    the op."""

    def __init__(self, outside_ops: bool = False):
        self.outside_ops = outside_ops
        self.spans: list[list] = []      # [name, start, end, parent, extra]
        self.stack: list[int] = []
        self.seen: set = set()           # (polygon, dilation) pairs enumerated in this op
        self.import_ms: list[float] = []
        self.stdout_bytes = 0
        self._restore: list[tuple] = []

    # ---- recording
    def _open(self, name: str, extra=None) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, extra]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def begin_op(self, kind: str) -> None:
        self.seen = set()
        self._open("op", kind)[1] = perf_counter()

    def end_op(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def _enumeration(self, polygon, i) -> list:
        """[rows the scan visits, 1 if this (polygon, i) was already
        enumerated in the op]; the point count is appended on return."""
        ys = [v.y * i for v in polygon.vertices]
        key = (polygon, i)
        repeat = key in self.seen
        self.seen.add(key)
        return [max(0, floor(max(ys)) - ceil(min(ys)) + 1), int(repeat)]

    def wrap(self, name: str, fn):
        tracer = self
        lattice = name == LATTICE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not (tracer.stack or tracer.outside_ops):
                return fn(*args, **kwargs)
            extra = tracer._enumeration(*args, **kwargs) if lattice else None
            span = tracer._open(name, extra)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if lattice:
                extra.append(len(result))
            return result
        return traced

    def absorb(self, spans: list, import_ms: float, stdout_bytes: int) -> None:
        """Attach a child process's spans under the current op."""
        offset = len(self.spans)
        root = self.stack[-1] if self.stack else -1
        for name, start, end, parent, extra in spans:
            self.spans.append([name, start, end, root if parent < 0 else parent + offset, extra])
        self.import_ms.append(import_ms)
        self.stdout_bytes += stdout_bytes

    # ---- installing
    def install(self, package) -> None:
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
            for cls_name, method in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                self._restore.append((cls, method, raw))
                setattr(cls, method, type(raw)(self.wrap(f"{layer}.{cls_name}.{method}",
                                                         raw.__func__)))
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    # ---- reporting
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def dump_child(self, path, import_ms: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": self.spans}, fh)

    def metrics(self) -> dict:
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        enum = Counter()
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            group = group_of(name)
            self_s[group] += end - start - children[idx]
            calls[group] += 1
            if name != LATTICE:
                continue
            rows, repeat, points = extra
            enum["rows"] += rows
            enum["repeat"] += repeat
            enum["points"] += points
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            enum["in_chow_poly"] += "chow.chow_poly" in ancestors
            enum["in_blowup"] += bool(ancestors.intersection(BLOWUP))
        ops = max(1, calls["op"])
        values = {
            "counting.lattice_points.calls": calls[LATTICE] / ops,
            "counting.points_listed": enum["points"] / ops,
            "counting.rows_scanned": enum["rows"] / ops,
            "counting.repeat_enumerations": enum["repeat"] / ops,
            "chow.enumerations_per_poly": enum["in_chow_poly"] / max(1, calls["chow.chow_poly"]),
            "geometry.calls": calls["geometry"] / ops,
            "blowup.enumerations_per_op": enum["in_blowup"] / ops,
            "stability.mukai_classify.calls": calls["stability.mukai_classify"] / ops,
            "cli.import_ms": sum(self.import_ms) / max(1, len(self.import_ms)),
            "cli.stdout_bytes": self.stdout_bytes / ops,
        }
        for name, unit in METRICS:
            if name not in values:
                values[name] = self_s[name.removesuffix(".self_ms")] * 1000.0 / ops
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
