"""Monochromatic triangle tilings in 2-edge-colored graphs.

Exact and heuristic maximum-tiling solvers, certified extremal instance
generators, density/regularity utilities, and the structural machinery
(chromatic tiling profiles, bowtie reductions, constructive triangle
finders) behind the tiling bounds.
"""

from .graphs import (
    BLUE,
    MIXED,
    RED,
    STRONG,
    WEAK,
    ColoredGraph,
    DuplicateEdgeError,
    Graph,
    GraphError,
    SelfLoopError,
    Tiling,
    Triangle,
    VertexOutOfRangeError,
    build_colored_graph,
    color_class_views,
    enumerate_mono_triangles,
    mono_triangle_witness,
)
from .errors import ParameterOutOfRangeError
from .generators import (
    ExtremalInstance,
    FivePartInstance,
    InfeasibleSizesError,
    UpperBoundCertificate,
    extremal_instance,
    five_part_instance,
    random_coloring,
    triangle_free_low_alpha,
)
from .independence import IndependenceResult, is_triangle_free, max_independent_set_exact
from .solver import (
    BoundReport,
    PeelResult,
    SolveResult,
    bound_table,
    heuristic_tiling,
    max_mono_tiling_exact,
    peel_to_three_fifths,
    verify_tiling,
)
from .regularity import (
    DominatingResult,
    RegularityWitness,
    density,
    dominating_greedy,
    regularity_refuter,
    reduced_min_degree_bound,
    t_bound,
    typical_vertex_filter,
)
from .theory import (
    AuxReduction,
    ChromaticProfile,
    F2Copy,
    F2TilingResult,
    admissible_C,
    auxiliary_reduction,
    bowtie_graph,
    chromatic_parameters,
    classify_f2_copies,
    f2_tiling_exact,
    five_part_tiler,
    three_part_mono_finder,
)

__version__ = "0.1.0"
