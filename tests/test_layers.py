"""The float layer stays float-only: curve.py and mesh.py import no mpmath
and no private name of conics, whose exact layer owns every 60-digit step;
the exact layer imports no numpy, as the float layer owns the float solver;
curve.py's figures mark the pins of their own trace, not the catalogue; the
elimination route calls none of the closed catalogue's root formulas; the
Hessian test at rational points runs without mpmath; and only the three
functions that make 60-digit values set mpmath's precision, each under
_RADICAL_LOCK, while verify.py imports no mpmath."""

import ast
import sys
from pathlib import Path

import pytest

import conicoffset

PACKAGE = Path(conicoffset.__file__).parent


@pytest.mark.parametrize("module", ["curve.py", "mesh.py"])
def test_float_layer_imports_no_mpmath_and_no_private_conics_name(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names
                    if a.name.split(".")[0] == "mpmath"]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source.split(".")[0] == "mpmath":
                bad.append(source)
            elif source.split(".")[-1] == "conics":
                bad += [f"conics.{a.name}" for a in node.names
                        if a.name.startswith("_")]
    assert bad == [], f"{module} imports {bad}"


@pytest.mark.parametrize("module", ["poly.py", "groebner.py", "cardano.py",
                                    "conics.py", "fixtures.py"])
def test_exact_layer_imports_no_numpy(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names
                    if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                bad.append(node.module)
    assert bad == [], f"{module} imports {bad}"


def test_figures_mark_the_trace_pins_not_the_catalogue():
    # offset_figure hands its trace the catalogue's bare points
    # (catalogue_pins), not the report with 60-digit residuals, and its
    # markers are still its own trace's pins inside the bbox
    tree = ast.parse((PACKAGE / "curve.py").read_text(encoding="utf-8"))
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for a in node.names]
    assert "singular_points" not in names


def test_the_elimination_route_calls_no_closed_root_formula(monkeypatch):
    # the two singular-point routes share no root formula: with Cardano's
    # cubic, the real cube root and the rational square root refused, the
    # elimination route still reports every reference offset, and the closed
    # route, whose radicals they are, cannot, except for the parabola below
    # and at r_crit (cases 1 and 2), whose points are rational
    from fractions import Fraction

    from conicoffset import cardano, reference
    from conicoffset.conics import (singular_points,
                                    singular_points_via_elimination)
    from conicoffset.verify import conic_from_case

    class ClosedForm(Exception):
        pass

    def refuse(*args):
        raise ClosedForm

    cases = [(conic_from_case(c), Fraction(c["r"]))
             for c in map(reference.case, range(1, 10))]
    want = [singular_points_via_elimination(*case).points for case in cases]
    for name in ("real_roots_cubic", "real_cbrt", "sqrt_exact"):
        monkeypatch.setattr(cardano, name, refuse)
    refused = []
    for case_id, case, points in zip(range(1, 10), cases, want):
        assert singular_points_via_elimination(*case).points == points
        try:
            singular_points(*case)
        except ClosedForm:
            refused.append(case_id)
    assert refused == list(range(3, 10))


def test_hessian_definite_at_rational_nodes_needs_no_mpmath(monkeypatch):
    # the six rational nodes and line crossings of a g of no parity, with
    # mpmath's import blocked: every entry is taken exactly, in integers
    from fractions import Fraction

    from conicoffset.conics import hessian_definite
    from conicoffset.poly import MultiPoly

    x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
    g = ((x - 1) ** 2 - y ** 2) * (4 * (x + 1) ** 2 - (y - 1) ** 2)
    nodes = [(-4, -5), (-2, 3), (-1, 1), (Fraction(-2, 3), Fraction(5, 3)),
             (0, -1), (1, 0)]
    monkeypatch.setitem(sys.modules, "mpmath", None)
    assert hessian_definite(g, [(Fraction(u), Fraction(v)) for u, v in nodes]) == \
        [False] * 6


_PRECISION_CALLS = {"workdps", "workprec", "extradps", "extraprec"}


def _name(node):
    # the last name of `mp.workdps`, `mpmath.mp.dps` or a bare `_RADICAL_LOCK`
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def test_only_the_radical_makers_set_mpmath_precision():
    # mpmath's precision is process-global, so only the three functions that
    # make 60-digit values set it, each in a `with` that also holds
    # _RADICAL_LOCK; every other step orders and decides exactly, and
    # verify.py compares points as Fractions, without mpmath
    setters, unlocked = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner, locked = {}, set()
        for node in ast.walk(tree):  # outer functions come first
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(id(inner), f"{path.stem}.{node.name}")
            elif isinstance(node, ast.With):
                items = [item.context_expr for item in node.items]
                if "_RADICAL_LOCK" in map(_name, items):
                    locked.update(map(id, items))
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AugAssign) else [])
            sets = (isinstance(node, ast.Call)
                    and _name(node.func) in _PRECISION_CALLS)
            if sets or any(_name(t) in ("dps", "prec") for t in targets):
                where = owner.get(id(node), f"{path.stem}.<module>")
                setters.add(where)
                if id(node) not in locked:
                    unlocked.append(where)
    assert setters == {"conics._catalogue", "conics.singular_locus",
                       "reference.eval_radical"}
    assert unlocked == []
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names] + [
        node.module or "" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)]
    assert not any(m.split(".")[0] == "mpmath" for m in imported), imported
