"""conicoffset: exact offset curves (parallel lines) of nondegenerate conics.

The package derives the implicit polynomial of the two parallel lines at
distance r from a parabola, ellipse, or hyperbola, two independent ways: by
Buchberger-based Groebner elimination on the envelope variety ideal, and by
specializing stored closed forms.  On top of the exact layer sit singular
point analysis (critical offsets, virtual and split singular points), implicit
curve tracing with SVG output, and layered quadrilateral mesh generation.

The float layer's names (those of ``curve`` and ``mesh``, and the two
submodules themselves) load on first use, through the module ``__getattr__``
of PEP 562, so importing the package loads neither numpy nor mpmath; the
exact layer imports mpmath only where it evaluates.  Each access looks the
name up in its submodule again, so a patched ``curve.trace_implicit`` is what
``conicoffset.trace_implicit`` gives.
"""

from importlib import import_module

from .cardano import real_roots_cubic, real_roots_exact
from .conics import (ConicSpec, OffsetCurve, SingularPoint, SingularPointReport,
                     build_ideal, offset_poly_closed_form,
                     offset_poly_elimination, r_crit, singular_points,
                     singular_points_via_elimination)
from .errors import (ConicOffsetError, EliminationError, OrderError, ParamError,
                     PreconditionError, ResourceLimitError, RingError,
                     RootPairingError, RootRefineError, SpecError, VarError,
                     ZeroPolyError)
from .groebner import (GroebnerBasis, Ideal, buchberger, elimination_ideal,
                       minimalize, reduce_basis, s_polynomial)
from .poly import (BigRational, MonomialOrder, MultiPoly, add, block,
                   content_normalize, format_poly, gradient, grevlex,
                   leading_term, lex, mul, parse_poly, poly_dumps, poly_loads,
                   rat, reduce, substitute)

__version__ = "0.1.0"

__all__ = [
    "BigRational", "ConicSpec", "ConicOffsetError", "EliminationError",
    "GroebnerBasis", "Ideal", "Mesh", "MeshSpec", "MonomialOrder", "MultiPoly",
    "OffsetCurve", "OrderError", "ParamError", "Point2", "PreconditionError",
    "ResourceLimitError", "RingError", "RootPairingError", "RootRefineError",
    "SingularPoint", "SingularPointReport", "SpecError", "TracedCurve",
    "VarError", "ZeroPolyError", "add", "block", "buchberger", "build_ideal",
    "content_normalize", "elimination_ideal", "eval_poly", "export_mesh",
    "format_poly", "generate_mesh", "gradient", "grevlex", "leading_term",
    "lex", "load_mesh", "minimalize", "mul", "offset_figure",
    "offset_poly_closed_form", "offset_poly_elimination",
    "parametric_offset_samples", "parse_poly", "plot_svg", "poly_dumps",
    "poly_loads", "r_crit", "rat", "real_roots_cubic", "real_roots_exact",
    "reduce", "reduce_basis", "s_polynomial", "singular_points",
    "singular_points_via_elimination", "substitute", "trace_implicit",
]

# float-layer name -> the submodule that defines it, imported on first use
_LAZY = {
    **dict.fromkeys(("Point2", "TracedCurve", "eval_poly", "offset_figure",
                     "parametric_offset_samples", "plot_svg",
                     "trace_implicit"), "curve"),
    **dict.fromkeys(("Mesh", "MeshSpec", "export_mesh", "generate_mesh",
                     "load_mesh"), "mesh"),
}


def __getattr__(name):
    if name in ("curve", "mesh"):
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "curve", "mesh"})
