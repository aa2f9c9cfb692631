"""Exact combinatorics of resolution graphs and splice diagrams."""

from types import ModuleType as _ModuleType

from .cfrac import ContinuedFraction, continued_fraction_of_string, reverse_cf, string_of_cf
from .conditions import (
    AdmissibleExponents,
    admissible_exponents,
    check_congruence,
    check_semigroup,
    end_node_criterion,
    end_node_criterion_slack,
    two_node_criterion,
)
from .cycles import (
    QCycle,
    check_condition_3_3,
    check_condition_3_4,
    construct_monomial_cycle,
    dual_cycle,
    fundamental_cycle,
)
from .discriminant import (
    DiscriminantGroup,
    character_of_monomial,
    group_order_check,
    leaf_generators,
    pairing_matrix,
)
from .equations import (
    Monomial,
    SpliceEquationSystem,
    build_equations,
    curve_component_count,
    leading_form_check,
    normalize_coefficients,
    render_equations,
    v_weight,
)
from .graph import (
    ResolutionGraph,
    blow_up_edge,
    classify_vertices,
    graph_determinant,
    intersection_matrix,
    is_negative_definite,
    is_quasi_minimal,
    validate_graph,
)
from .linalg import SmithDecomposition, smith_normal_form
from .splice import (
    MaximalSpliceDiagram,
    SpliceDiagram,
    check_ideal_condition,
    edge_determinant,
    end_node_reduce,
    end_node_reduce_graph,
    ideal_generator,
    leaf_knot_order,
    linking_matrix,
    linking_numbers,
    maximal_splice,
    splice_from_resolution,
    verify_edge_det_theorem,
)

__version__ = "0.1.0"

# the public names imported above; the submodules bound by importing them are not
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
