"""Strong odd colorings: verifiers, constructions, exact search, plane maps."""

from .graphs import (
    Graph,
    GraphError,
    complement,
    disjoint_union,
    export_dot,
    join,
    load_json,
    make_complete,
    make_complete_bipartite,
    make_complete_multipartite,
    make_cycle,
    make_path,
    make_star,
    product,
    save_json,
    square,
)
from .colorings import (
    Coloring,
    Violation,
    is_odd,
    is_proper,
    is_square_coloring,
    is_strong_odd,
    neighborhood_histogram,
)
from .solver import (
    Budget,
    SolveResult,
    brute_force_chi_so,
    chi_exact,
    chi_odd_exact,
    chi_so_exact,
    chi_square_exact,
    is_k_strong_odd_colorable,
)
from .constructive import (
    c5_box_c5_table,
    color_cycle,
    color_direct_complete,
    color_tree,
    color_unicyclic,
    compose_lexicographic,
    compose_product_coloring,
    decompose_unicyclic,
    is_odd_tree,
    nordhaus_gaddum,
)
from .planemaps import (
    PlaneMultigraph,
    annihilate,
    augment_claim2,
    chi_pfo_exact,
    decompose_claim1,
    is_facially_odd,
    is_proper_facially_odd,
    trace_faces,
)
from .gallery import GalleryEntry, check_structural_constraints, gallery
