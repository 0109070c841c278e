"""Executable finite model theory for strong and commutative monads:
monad instances on finite carriers, equational law checking, relation
lifting with exact decision procedures, a small monadic language with
logical relations, and probabilistic bisimulation."""

from .finset import (
    UNIT,
    UNIT_ATOM,
    FinSet,
    Rel,
    atom_key,
    atom_str,
    product_set,
    subsets,
)
from .lawcheck import (
    LawReport,
    SET,
    check_cartesian,
    check_commutative,
    check_derived_strengths,
    check_mediator_laws,
    check_monad_laws,
    check_monad_morphism,
    check_monoidal_morphism,
    check_strength_laws,
    check_strong_morphism,
    product_delta,
    standard_battery,
)
from .lifting import (
    CouplingResult,
    converse_coupling,
    lift_enumerate,
    lift_member_dist,
    lift_member_dist_saturated,
    lift_member_powerset,
    lifted_mult_check,
    lifted_strength_check,
    lifted_unit_check,
    saturate,
)
from .monads import (
    MODES,
    MonadInstance,
    RatDist,
    corner_dists,
    dist_monad,
    nonempty_powerset_monad,
    powerset_monad,
    random_dist,
    value_key,
)
from .bisim import (
    LTS,
    PLTS,
    TransitionSystem,
    check_bisimulation,
    check_prob_bisimulation,
    largest_bisimulation,
    larsen_skou_check,
    tagged_states,
)
from .metalang import (
    Model,
    ParseError,
    TypecheckError,
    basic_lemma_check,
    denote,
    eval_term,
    logical_relation,
    parse,
    parse_ty,
    synthesize,
    term_str,
    typecheck,
)
from .poset import (
    ORD,
    FinPoset,
    OrderedRel,
    SYSTEMS,
    chain,
    discrete,
    factorize_ord,
    lift_relation_ord,
    ord_product,
    upper_monad,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
