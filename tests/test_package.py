import isophote

# The package's public surface: the union of its modules' __all__, plus the version.
PUBLIC = {
    "DetectionMask", "LevelCurveSet", "ThresholdSchedule", "check_necessary_condition",
    "detect_multilevel", "detect_pointwise", "level_curve_set", "membership_interval", "sublevel",
    "Contour", "VectorFieldGrid", "apply_operator", "contours_to_svg", "contours_to_text",
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
