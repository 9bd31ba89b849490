"""The float layer stays float-only: curve.py and mesh.py import no mpmath
and no private name of conics, whose exact layer owns every 60-digit step;
the exact layer imports no numpy, as the float layer owns the float solver;
curve.py's figures mark the pins of their own trace, not the catalogue."""

import ast
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
