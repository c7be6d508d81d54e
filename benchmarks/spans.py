"""Per-layer spans and counts, recorded from outside the package.

The tracer wraps the public functions listed in ``LAYERS`` with a timing
wrapper and installs it on every ``cutgrids`` module whose namespace binds
the original function object, because ``grids`` and ``bordisms`` import
``plgeom`` names directly.  Open spans live on an in-memory stack; each
closed span adds its duration to its function's totals at once, so the
result is written out when the run ends without keeping every span.

Self time is a span's duration minus the time its wrapped child spans
cover.  ``total_s`` counts only the outermost span of a function, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# layer -> (functions that report calls and self_s, functions that also
# report total_s)
LAYERS = {
    "plgeom": ((
        "region_boolean", "region_difference", "region_normalize",
        "region_closure", "region_components", "region_equal",
        "region_subset", "region_is_empty", "region_bbox",
        "plfunc_crossings", "line_cells_from_predicate",
        "circle_cells_from_predicate", "strict_between_cells"), ()),
    "grids": ((
        "cut_regions", "grid_check", "tuple_is_ordered", "region_between",
        "core", "compactness_failures", "globularity_failures",
        "pullback_along", "pushforward_along", "apply_simplicial"), ()),
    "bordisms": ((), (
        "validate", "validate_family", "equivalent", "normalize",
        "shrink_to_core", "face_compose", "source_target",
        "monoidal_product", "family_at", "metric_core_length")),
    "finitecat": ((), (
        "gamma_segal_category", "monoid_power_presheaf",
        "constant_gamma_presheaf", "check_segal_gamma", "nerve",
        "check_segal_delta", "check_completeness_nerve")),
    "shapes": (("gamma_compose", "compose_monotone"), ()),
    "documents": ((), ("parse_document", "serialize_document")),
    "render": ((), ("render_svg",)),
    "cli": ((), ("main",)),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _utf8_len(text) -> int:
    return len(text.encode("utf-8"))


# function -> ((count name, unit, count(args, kwargs, result)), ...)
COUNTS = {
    "plgeom.region_boolean": (
        ("cells_in", "cells", lambda a, k, r: len(_arg(a, k, 1, "a").cells)
         + len(_arg(a, k, 2, "b").cells)),
        ("cells_out", "cells", lambda a, k, r: len(r.cells))),
    "plgeom.region_normalize": (
        ("cells_in", "cells", lambda a, k, r: len(_arg(a, k, 0, "a").cells)),
        ("cells_out", "cells", lambda a, k, r: len(r.cells))),
    "plgeom.region_components": (
        ("cells_in", "cells", lambda a, k, r: len(_arg(a, k, 0, "a").cells)),),
    "grids.core": (
        ("cells_out", "cells", lambda a, k, r: len(r.cells)),),
    "finitecat.gamma_segal_category": (
        ("arrows_out", "arrows", lambda a, k, r: len(r.arrows)),),
    "documents.parse_document": (
        ("bytes_in", "bytes",
         lambda a, k, r: _utf8_len(_arg(a, k, 0, "text"))),),
    "documents.serialize_document": (
        ("bytes_out", "bytes", lambda a, k, r: _utf8_len(r)),),
    "render.render_svg": (
        ("bytes_out", "bytes", lambda a, k, r: _utf8_len(r)),),
}

# Self time of these layers is also summed while a validate span is open,
# which shows how much of validation the region engine accounts for.
VALIDATE = "bordisms.validate"
UNDER_VALIDATE = ("plgeom",)


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, as (name, unit)."""
    out = []
    for layer, (plain, with_total) in LAYERS.items():
        for fn in plain + with_total:
            name = f"{layer}.{fn}"
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.self_s", "s"))
            if fn in with_total:
                out.append((f"{name}.total_s", "s"))
            for count, unit, _ in COUNTS.get(name, ()):
                out.append((f"{name}.{count}", unit))
    for layer in UNDER_VALIDATE:
        out.append((f"{VALIDATE}.{layer}_self_s", "s"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.under_validate: defaultdict = defaultdict(float)
        self._children: list[float] = []  # child time of each open span
        self._open: Counter = Counter()

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        counts = COUNTS.get(name, ())
        children, open_spans = self._children, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            open_spans[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - children.pop()
                if children:
                    children[-1] += duration
                open_spans[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += own
                if not open_spans[name]:
                    self.total_s[name] += duration
                if open_spans[VALIDATE] and layer in UNDER_VALIDATE:
                    self.under_validate[layer] += own
            for count, _unit, measure in counts:
                self.counts[f"{name}.{count}"] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function that the package still defines."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cutgrids"
                                         or n.startswith("cutgrids."))]
        for layer, (plain, with_total) in LAYERS.items():
            home = sys.modules.get(f"cutgrids.{layer}")
            for fn_name in plain + with_total:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _unit in metric_specs():
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[base]
            elif field == "self_s":
                out[name] = self.self_s[base]
            elif field == "total_s":
                out[name] = self.total_s[base]
            elif base == VALIDATE and field.endswith("_self_s"):
                out[name] = self.under_validate[field[:-len("_self_s")]]
            else:
                out[name] = self.counts[name]
        return out
