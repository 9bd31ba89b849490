"""Spans and counters around the library's layer entry points.

The tracer wraps each entry point named in ``LAYERS`` at every module of the
package that bound it by name (``conics.buchberger``, ``cli.buchberger``,
``conicoffset.buchberger`` and so on) and puts the originals back on
``uninstall``.  No library source is touched.

A span is ``[name, start, end, parent, job]`` kept in memory.  A span's self
time is its duration minus the time its direct child spans cover; calls on
one thread nest, so the children never overlap.  Counters come from the
objects the calls return.  ``eval_poly`` runs tens of thousands of times per
trace, so it is only counted, never timed.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

# (module, function) -> span name; every function gets a span
LAYERS = {
    ("groebner", "buchberger"): "groebner.buchberger",
    ("groebner", "reduce_basis"): "groebner.reduce_basis",
    ("conics", "offset_poly_closed_form"): "conics.closed_form",
    ("conics", "offset_poly_elimination"): "conics.elimination",
    ("conics", "singular_points"): "conics.singular_closed",
    ("conics", "singular_points_via_elimination"): "conics.singular_elim",
    ("cardano", "real_roots_exact"): "cardano.roots",
    ("poly", "substitute"): "poly.substitute",
    ("poly", "gradient"): "poly.gradient",
    ("curve", "trace_implicit"): "curve.trace",
    ("curve", "plot_svg"): "curve.svg",
    ("mesh", "generate_mesh"): "mesh.generate",
    ("mesh", "export_mesh"): "mesh.export",
    ("cli", "main"): "cli.main",
}
COUNTED_ONLY = {("curve", "eval_poly"): "curve.eval_poly_calls"}

# per-layer metric -> (span name, "incl" | "self" | "outer"); "outer" skips
# spans whose parent has the same name: real_roots_exact calls itself
TIMES = {
    "groebner.buchberger_ms": ("groebner.buchberger", "incl"),
    "groebner.reduce_basis_ms": ("groebner.reduce_basis", "incl"),
    "conics.closed_form_ms": ("conics.closed_form", "incl"),
    "conics.elimination_self_ms": ("conics.elimination", "self"),
    "conics.singular_closed_self_ms": ("conics.singular_closed", "self"),
    "conics.singular_elim_self_ms": ("conics.singular_elim", "self"),
    "cardano.roots_ms": ("cardano.roots", "outer"),
    "poly.substitute_ms": ("poly.substitute", "incl"),
    "poly.gradient_ms": ("poly.gradient", "incl"),
    "curve.trace_ms": ("curve.trace", "incl"),
    "curve.svg_ms": ("curve.svg", "incl"),
    "mesh.generate_ms": ("mesh.generate", "incl"),
    "mesh.export_ms": ("mesh.export", "incl"),
    "cli.main_ms": ("cli.main", "incl"),
    "cli.self_ms": ("cli.main", "self"),
}

COUNTERS = (
    "groebner.calls", "groebner.pairs_considered",
    "groebner.pairs_skipped_criteria", "groebner.reductions",
    "groebner.new_members", "groebner.basis_size_max", "groebner.coeff_bits_max",
    "conics.closed_form_calls", "cardano.calls", "curve.trace_calls",
    "curve.eval_poly_calls", "curve.vertices", "curve.singular_vertices",
    "curve.svg_bytes", "mesh.nodes", "mesh.export_bytes",
)


def _coeff_bits(polys) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


class Tracer:
    """Records spans and counters while installed and not paused."""

    def __init__(self):
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self.on = True
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self, package="conicoffset"):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == package or name.startswith(package + "."))]
        for table, make in ((LAYERS, self._timed), (COUNTED_ONLY, self._counted)):
            for (modname, fname), label in table.items():
                original = getattr(sys.modules[f"{package}.{modname}"], fname)
                wrapper = make(label, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def paused(self):
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- wrappers ----------------------------------------------------------

    def _timed(self, label, fn):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else None, self.job]
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            self._count(label, args, out, span)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, label, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.on:
                counters[label] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, label, args, out, span):
        c = self.counters
        if label == "groebner.buchberger":
            st = out.stats
            c["groebner.calls"] += 1
            c["groebner.pairs_considered"] += st["pairs_considered"]
            c["groebner.pairs_skipped_criteria"] += st["pairs_skipped_criteria"]
            c["groebner.reductions"] += st["reductions"]
            c["groebner.new_members"] += len(out.polys) - len(args[0].generators)
            c["groebner.basis_size_max"] = max(c["groebner.basis_size_max"], len(out.polys))
            c["groebner.coeff_bits_max"] = max(c["groebner.coeff_bits_max"],
                                               _coeff_bits(out.polys))
        elif label == "groebner.reduce_basis":
            c["groebner.coeff_bits_max"] = max(c["groebner.coeff_bits_max"],
                                               _coeff_bits(out.polys))
        elif label == "conics.closed_form":
            c["conics.closed_form_calls"] += 1
        elif label == "cardano.roots":
            parent = span[3]
            if parent is None or self.spans[parent][0] != label:
                c["cardano.calls"] += 1
        elif label == "curve.trace":
            c["curve.trace_calls"] += 1
            c["curve.vertices"] += out.vertex_count()
            c["curve.singular_vertices"] += len(out.singular_vertices)
        elif label == "curve.svg":
            c["curve.svg_bytes"] += len(out.encode())
        elif label == "mesh.generate":
            c["mesh.nodes"] += out.rows * out.cols
        elif label == "mesh.export":
            c["mesh.export_bytes"] += len(out.encode())

    # -- reduction ---------------------------------------------------------

    def layer_ms(self, jobs: int) -> dict:
        """Milliseconds per job for every metric in TIMES."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        incl, self_t, outer = {}, {}, {}
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            d = t1 - t0
            incl[name] = incl.get(name, 0.0) + d
            self_t[name] = self_t.get(name, 0.0) + d - child[i]
            if parent is None or self.spans[parent][0] != name:
                outer[name] = outer.get(name, 0.0) + d
        pick = {"incl": incl, "self": self_t, "outer": outer}
        return {metric: 1000.0 * pick[kind].get(span, 0.0) / max(jobs, 1)
                for metric, (span, kind) in TIMES.items()}
