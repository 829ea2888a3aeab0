import ast
import inspect
import re
from pathlib import Path

import isophote

# The package's public surface: the union of its modules' __all__, plus the version.
PUBLIC = {
    "DetectionMask", "LevelCurveSet", "ThresholdSchedule", "check_necessary_condition",
    "detect_multilevel", "detect_pointwise", "level_curve_set", "membership_interval", "sublevel",
    "Chains", "Contour", "VectorFieldGrid", "apply_operator", "contours_to_svg", "contours_to_text",
    "discrete_gradient", "hamiltonian", "trace_level_contours", "zero_mask",
    "NetpbmError", "read_grid", "read_image", "read_pbm", "write_pbm", "write_pgm", "write_ppm",
    "FrameStack", "IntensityGrid", "PixelCoord", "StackCoord", "Topology", "frame_stack",
    "neighbor_any", "neighbor_min", "neighbors",
    "FocalPlaneError", "GroundTruth", "Plane", "SceneError", "SceneSpec", "Sphere", "differential",
    "is_occluding", "load_scene", "project", "render", "render_sequence",
    "__version__",
}


def test_package_exports_each_public_name_once():
    assert len(isophote.__all__) == len(PUBLIC)
    assert set(isophote.__all__) == PUBLIC
    star = {}
    exec("from isophote import *", star)
    assert PUBLIC <= star.keys()
    assert all(star[name] is getattr(isophote, name) for name in PUBLIC)


def test_public_callables_name_no_private_type():
    # a public function that returns or takes a private type leaves its callers no documented name for it
    private = re.compile(r"(?<![\w.])_[A-Za-z]\w*")
    found = []
    for name in isophote.__all__:
        obj = getattr(isophote, name)
        if not callable(obj):
            continue
        try:
            signature = inspect.signature(obj)
        except ValueError:  # the exception classes have none
            continue
        annotations = [p.annotation for p in signature.parameters.values()] + [signature.return_annotation]
        found += [f"{name}: {a}" for a in annotations if isinstance(a, str) and private.search(a)]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    """Names that the module at path imports but never reads, nor lists in __all__."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in ast.walk(node.value)
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
    }
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(Path(isophote.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    assert [unused for path in modules for unused in _unused_imports(path)] == []


def _private_definitions(tree: ast.Module):
    """The module-level functions, classes and constants of tree whose names start with one _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_definition_is_read_in_the_package():
    modules = sorted(Path(isophote.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in modules}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for defined, line in _private_definitions(tree)
        if defined not in read
    ]
    assert unread == []
