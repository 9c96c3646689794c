"""Exact computation with Brauer tree algebras: basis-level algebra
construction, module representations, two-term tilting complexes in the
bounded homotopy category, covering combinatorics over the star, and
endomorphism-ring Brauer trees.
"""

from .algebra import BrauerTreeAlgebra, PathClass, build_tree_algebra, star_algebra
from .complexes import (
    ChainMap,
    ChainMapSpace,
    ProjComplex,
    Summand,
    algebra_complex,
    direct_sum,
    euler_pairing,
    hom_complex_dim,
    stalk_complex,
)
from .coverings import (
    Covering,
    CyclicInterval,
    compatible_pres,
    compatible_stalk,
    covering_to_complex,
    enumerate_coverings,
    enumerate_two_term_tilting_bruteforce,
)
from .endo import (
    ACycle,
    a_cycle_partition,
    endo_brauer_tree,
    endo_cartan,
    is_autoequivalence_covering,
)
from .modules import (
    ModuleMap,
    Representation,
    UniserialSpec,
    enumerate_indecomposables,
    hom_basis,
    hom_dim,
    is_isomorphic,
    min_proj_presentation,
    projective_rep,
    simple_rep,
    string_rep,
    syzygy,
    top_and_socle,
    uniserial_presentation,
    uniserial_rep,
)
from .realization import label_brauer_tree, realize
from .tilting import (
    TiltingComplex,
    is_partial_tilting,
    is_tilting,
    module_partial_tilting_test,
    stalk_orthogonality_test,
)
from .trees import BrauerTree, all_brauer_trees

__version__ = "0.1.0"
