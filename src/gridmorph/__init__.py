"""Landmark registration, polynomial trend surfaces, and deformation grids.

The package covers a small analysis chain for two-dimensional landmark data:
two-point and Procrustes registration, affine-component removal, segment
rotation summaries, thin-plate spline and polynomial trend fits, reference
quadrilateral maps (bilinear and projective), Cartesian grid deformation with
trimming and extension, and deterministic SVG rendering of the standard
figure layouts. A command-line front end (``gridmorph``) chains these into
complete analyses.
"""

from .core import (LandmarkConfiguration, Sample, Segment, UNIT_PROCRUSTES,
                   UNIT_RAW, UNIT_TWO_POINT, centroid, centroid_size,
                   default_labels, enumerate_segments)
from .errors import (CoincidentLandmarksError, CollinearTemplateError,
                     ConvergenceError, DegenerateBaselineError,
                     DegenerateConfigurationError, DegeneratePolygonError,
                     DegenerateQuadError, GridmorphError, HomologyError,
                     InputError, InsufficientLandmarksError,
                     NonConvexSourceError, NumericalError, ParseError,
                     RankDeficiencyError, SchemaError, SingularSystemError,
                     ZeroLengthSegmentError)
from .formats import (Dataset, parse_csv, parse_tps_file, read_dataset,
                      read_landmarks, write_dataset)
from .gridlab import (DEFAULT_CELLS, DEFAULT_SAMPLES_PER_EDGE, DeformedGrid,
                      GridSpec, MAX_GRID_SAMPLES, ROTATION_CONVENTION, SegmentRotationReport,
                      convex_hull_polygon, deform_grid, extend_grid,
                      filter_rotations, kept_runs, landmark_cycle_polygon,
                      make_grid, points_in_polygon, segment_rotations, trim_grid)
from .maps import (BilinearMap, Homography, PROTOTYPE_KINDS,
                   PROTOTYPE_PARAMETER, Quad, homography_from_quads,
                   invert_bilinear, prototype_pair)
from .registration import (AffineMap2, Baseline, affine_fit, gpa_mean,
                           procrustes_align, remove_affine, two_point_register,
                           two_point_register_sample)
from .render import (Label, Marker, Panel, Polyline, Scene, SegmentNetwork,
                     Style, grid_scene, network_scene, outline_panel,
                     render_scene, tile_scenes, write_svg)
from .synthetic import (PERTURBATION, PERTURBED_LANDMARK,
                        PLANTED_COEFFICIENTS, VILMANN_BASELINE,
                        VILMANN_LABELS, synthetic_vilmann, vilmann_target,
                        vilmann_template)
from .tps import TpsModel, bending_energy, tps_eval, tps_fit, tps_jacobian
from .trend import (PolynomialTrend, TrendResidualReport, basis_size,
                    design_matrix, trend_eval, trend_fit,
                    trend_residual_report)

__version__ = "0.1.0"
