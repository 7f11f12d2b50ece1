"""Frobenius splittings of polynomial rings over prime fields.

Decide whether twisted endomorphisms of F_p[x_1..x_n] are splittings,
whether they are compatible with given ideals or divisors, whether any
compatible splitting exists, and certify sections given by products of
factors through residue chains.

``derham``'s names are loaded on first use (PEP 562): the CLI and the
splitting checks never use them.
"""

from .fparith import (
    Coefficient,
    ContextMismatchError,
    Monomial,
    NotDivisibleError,
    Polynomial,
    Prime,
    RingContext,
    compose,
    embed,
    exact_divide,
    ring,
    substitute_zero,
)
from .splitcore import (
    NotASplittingError,
    NotHomogeneousError,
    NumericalSemigroup,
    P1Extension,
    SemigroupVerdict,
    SplitVerdict,
    TwistedEndo,
    VerdictKind,
    check_splitting,
    frobenius_roots,
    frobenius_trace,
    homogeneous_fastpath,
    is_divisor_splitting,
    localized_apply,
    p1_extension_check,
    semigroup_split_check,
    tensor,
)
from .idealtheory import (
    ExistsSplitVerdict,
    GroebnerBasis,
    IdealPresentation,
    MonomialOrder,
    buchberger,
    colon,
    exists_compatible_splitting,
    fedder_module,
    frobenius_power_ideal,
    ideal,
    intersect,
    is_compatible,
    nilpotent_witness,
    normal_form,
    s_polynomial,
)
from .rescert import (
    ResidueChain,
    VanishingResidueError,
    certify_chain,
    matrix_context,
    matrix_factors,
    matrix_section_coefficient,
    minor,
    origin_coefficient,
    residue_step,
    search_chain,
)
from .expr import ParseError, parse_expr

__all__ = [
    "Coefficient",
    "ContextMismatchError",
    "DifferentialForm",
    "ExistsSplitVerdict",
    "GroebnerBasis",
    "IdealPresentation",
    "Monomial",
    "MonomialOrder",
    "NoSuchIndexError",
    "NotASplittingError",
    "NotDivisibleError",
    "NotHomogeneousError",
    "NumericalSemigroup",
    "P1Extension",
    "ParseError",
    "Polynomial",
    "Prime",
    "ResidueChain",
    "RingContext",
    "SemigroupVerdict",
    "SplitVerdict",
    "TwistedEndo",
    "VanishingResidueError",
    "VerdictKind",
    "buchberger",
    "carry_polynomial",
    "cartier_top",
    "certify_chain",
    "check_splitting",
    "colon",
    "compose",
    "d_coordinate",
    "embed",
    "exact_divide",
    "exactness_witness",
    "exists_compatible_splitting",
    "exterior_d",
    "fedder_module",
    "frobenius_power_ideal",
    "frobenius_roots",
    "frobenius_trace",
    "homogeneous_fastpath",
    "ideal",
    "intersect",
    "is_compatible",
    "is_divisor_splitting",
    "localized_apply",
    "matrix_context",
    "matrix_factors",
    "matrix_section_coefficient",
    "minor",
    "nilpotent_witness",
    "normal_form",
    "origin_coefficient",
    "p1_extension_check",
    "parse_expr",
    "power_dlog_form",
    "residue_step",
    "ring",
    "s_polynomial",
    "search_chain",
    "semigroup_split_check",
    "substitute_zero",
    "tensor",
    "volume_form",
    "wedge",
]

_DERHAM = frozenset(
    {
        "DifferentialForm",
        "NoSuchIndexError",
        "carry_polynomial",
        "cartier_top",
        "d_coordinate",
        "exactness_witness",
        "exterior_d",
        "power_dlog_form",
        "volume_form",
        "wedge",
    }
)


def __getattr__(name: str):
    if name != "derham" and name not in _DERHAM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    derham = import_module(".derham", __name__)
    globals().update((key, getattr(derham, key)) for key in _DERHAM)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | _DERHAM | {"derham"})
