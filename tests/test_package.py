"""The package surface: ``atfkit`` exports exactly the names in its library
modules' ``__all__`` lists, the helpers left out of them still import
from their own modules, and the polygon's level read stays in ``polygon``."""

import ast
import importlib
from pathlib import Path

import atfkit

MODULES = ["classify", "diagram", "homology", "orbits", "plane", "polygon", "recurrence", "render", "scalars"]

PUBLIC = {
    "ApplicabilityReport", "BaseDiagram", "BranchCut", "ConstructionParams", "Edge", "H2Class",
    "LatticeVector", "LevelCoordinate", "Node", "OrbitReport", "PiecewiseMap", "Point", "Polygon",
    "QField", "RecurrenceMap", "RenderStyle", "StripShear", "UnimodularAffineMap",
    "VerificationError", "affine_length", "apply_phi", "apply_phi_iter", "apply_rounds",
    "build_blowup_polygon", "build_pi0", "build_recurrence_map", "c1_eval", "catalog",
    "catalog_names", "centered_rectangle", "check_applicable", "classify_level", "cut_transfer",
    "decimal20", "direction_of", "equidistribution_stats", "find_twist_classes", "floor",
    "format_scalar", "from_level_coordinate", "gap_values", "intersection", "is_rational",
    "monotone_test", "nodal_slide", "nodal_trade", "omega_eval", "orbit_positions", "parse_scalar",
    "perimeter_value", "primitive", "pt", "qf", "render_svg", "rho_monotone_check",
    "rotate_on_level", "rotation_amount", "rotation_number", "sign", "to_level_coordinate",
    "unipotent_fixing",
}

MODULE_ONLY = {
    "plane": [
        "as_point", "cross", "delta", "dot", "lex_less", "move", "on_segment", "orient",
        "segments_intersect",
    ],
    "polygon": ["check_shape", "clip_halfplane", "solve_equidistant_triple"],
}


def test_package_exports_the_pinned_names():
    assert len(PUBLIC) == 61
    assert set(atfkit.__all__) == PUBLIC
    assert len(atfkit.__all__) == len(PUBLIC)


def test_module_lists_partition_the_package_surface():
    names = [name for m in MODULES for name in importlib.import_module(f"atfkit.{m}").__all__]
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC
    for m in MODULES:
        module = importlib.import_module(f"atfkit.{m}")
        for name in module.__all__:
            assert getattr(atfkit, name) is getattr(module, name), f"{m}.{name}"


def test_module_only_helpers_still_import():
    for m, names in MODULE_ONLY.items():
        module = importlib.import_module(f"atfkit.{m}")
        for name in names:
            assert callable(getattr(module, name)), f"{m}.{name}"
            assert name not in module.__all__ and name not in atfkit.__all__


def test_only_polygon_names_its_level_read():
    # other modules ask the polygon for a level by h (``_corners``,
    # ``_arc_pair``, ``_arc_point``) and never hold its read
    naming = []
    for path in sorted(Path(atfkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "_arc_view":
                naming.append(path.name)
    assert naming and set(naming) == {"polygon.py"}, naming
