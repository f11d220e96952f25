"""Exact combinatorial commutative algebra for matrix Schubert and ASM varieties."""

from .asm import (
    PartialASM,
    RankTable,
    asm_sum,
    complete_asm,
    enumerate_asms,
    make_partial_asm,
    permutation_matrix,
    random_asms,
    rank_table,
    rank_table_from_matrix,
    rank_table_to_asm,
)
from .decomp import (
    get_asm,
    is_asm_ideal,
    is_asm_union,
    is_schubert_cm,
    perm_set_of_asm,
    schubert_add,
    schubert_decompose,
    schubert_intersect,
)
from .groebner import (
    GroebnerBudgetError,
    Ideal,
    buchberger,
    ideal_equals,
    initial_ideal,
    intersect_ideals,
    minimal_generators,
)
from .ideal import (
    anti_diag_init,
    asm_diagram,
    asm_essential_boxes,
    diag_init,
    fulton_generators,
    schubert_codim,
    schubert_determinantal_ideal,
)
from .monomial import (
    MonomialIdeal,
    SimplicialComplex,
    betti_numbers,
    collect_stats,
    is_cm_quotient,
    minimal_primes,
    monomial_ideal,
    reg_quotient,
    stanley_reisner_complex,
)
from .perm import (
    Permutation,
    all_permutations,
    bruhat_leq,
    class_membership,
    coxeter_length,
    demazure_product,
    descents,
    essential_set,
    lehmer_code,
    rothe_diagram,
)
from .pipedream import (
    PipeDream,
    bottom_pipe_dream,
    pipe_dreams,
    render_pipe_dream,
    subword_complex_facets,
)
from .poly import Polynomial, divided_difference, poly_from_text, poly_to_text
from .schubpoly import (
    double_schubert_polynomial,
    grothendieck_polynomial,
    raj_index,
    schubert_polynomial,
    schubert_regularity,
)

__version__ = "0.1.0"
