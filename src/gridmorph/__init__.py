"""Landmark registration, polynomial trend surfaces, and deformation grids.

The package covers a small analysis chain for two-dimensional landmark data:
two-point and Procrustes registration, affine-component removal, segment
rotation summaries, thin-plate spline and polynomial trend fits, reference
quadrilateral maps (bilinear and projective), Cartesian grid deformation with
trimming and extension, and deterministic SVG rendering of the standard
figure layouts. A command-line front end (``gridmorph``) chains these into
complete analyses.
"""

from importlib import import_module as _import_module

# module -> the names the package root exports from it, each imported on first use (PEP 562)
_EXPORTS = {
    "core": "LandmarkConfiguration Sample Segment UNIT_PROCRUSTES UNIT_RAW UNIT_TWO_POINT "
            "centroid_size default_labels enumerate_segments",
    "errors": "GridmorphError InputError NumericalError ParseError",
    "formats": "Dataset parse_csv parse_tps_file read_dataset read_landmarks write_dataset",
    "gridlab": "DEFAULT_CELLS DEFAULT_SAMPLES_PER_EDGE DeformedGrid GridSpec MAX_GRID_SAMPLES "
               "ROTATION_CONVENTION SegmentRotationReport convex_hull_polygon deform_grid "
               "extend_grid filter_rotations kept_runs landmark_cycle_polygon make_grid "
               "points_in_polygon segment_rotations trim_grid",
    "maps": "BilinearMap Homography PROTOTYPE_KINDS PROTOTYPE_PARAMETER Quad "
            "homography_from_quads invert_bilinear prototype_pair",
    "registration": "AffineMap2 Baseline affine_fit gpa_mean procrustes_align remove_affine "
                    "two_point_register two_point_register_sample",
    "render": "Label Markers Panel Polyline Scene SegmentNetwork grid_scene network_scene "
              "outline_panel render_scene tile_scenes write_svg",
    "synthetic": "PERTURBATION PERTURBED_LANDMARK PLANTED_COEFFICIENTS VILMANN_BASELINE "
                 "VILMANN_LABELS synthetic_vilmann vilmann_target vilmann_template",
    "tps": "TpsModel bending_energy tps_eval tps_fit",
    "trend": "PolynomialTrend basis_size design_matrix trend_eval trend_fit",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet, e.g. gridmorph.render
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
