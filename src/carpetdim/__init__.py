"""Exact and empirical fractal dimensions of diagonal self-affine carpets."""

from .dimensions import (BaranskiDirectional, DimensionReport,
                         baranski_1d_reduction, baranski_dims, entropy_stats,
                         gl_dims, reduction_suprema)
from .errors import (CarpetError, EmptyInput, InvalidPacking, InvalidSystem,
                     OptimizerFailure, RangeError, Unsupported, WrongClass,
                     WrongShape)
from .geometry import (ApproxSquare, PointCloud, Rect, approximate_square,
                       attractor_cloud, box_count_ball, box_dimension_estimate,
                       cylinders_to_scale, directed_hausdorff,
                       fixture_fast_decay, fixture_progressions,
                       hausdorff_distance, packing_check, projection_cloud,
                       pseudo_cylinder_count, psi_estimate, render_svg,
                       scale_count_table, slice_cloud, tangent_cloud,
                       write_scale_counts_csv)
from .moran import (ColumnSequence, nonauto_assouad, solve_moran,
                    theta_window, window_sup)
from .pointwise import (PointwiseReport, build_exceptional,
                        few_large_tangents, level_set_dim,
                        pointwise_assouad_baranski, pointwise_assouad_gl,
                        symbolic_slice)
from .systems import (BARANSKI, DIAGONAL_ONLY, GATZOURAS_LALLEY, CarpetSystem,
                      DiagonalMap, EventuallyPeriodicWord, ProbabilityVector,
                      classify_word, column_word, system_from_config,
                      system_to_config, validate)

__version__ = "0.1.0"
