"""Polynomial differential forms and the top-degree Cartier operator.

A form of degree k is stored as one coefficient polynomial per strictly
increasing index tuple (i_1, ..., i_k), the coefficient of
dx_i_1 ^ ... ^ dx_i_k, with nonzero coefficients only; its arithmetic is
``Polynomial``'s.  The module provides the exterior derivative and wedge
product, the carry polynomial ((X+Y)^p - X^p - Y^p)/p behind the
additivity of f -> f^(p-1) df, the Cartier operator on top forms (which
in coordinates is exactly the Frobenius trace on the coefficient), and
explicit boundary witnesses for the monomial top forms the Cartier
operator kills.
"""

from __future__ import annotations

import math
from typing import Mapping

from .fparith import (
    ContextMismatchError,
    Monomial,
    Polynomial,
    Prime,
    RingContext,
    grevlex_desc_key,
    ring,
    term_str,
)
from .splitcore import frobenius_trace


class NoSuchIndexError(ValueError):
    """Every exponent is p-1 mod p; the form is not exhibited as exact."""


Index = tuple[int, ...]
"""Strictly increasing variable indices (i_1, ..., i_k) of dx_i_1 ^ ... ^ dx_i_k."""

FormKey = tuple[Monomial, Index]


class DifferentialForm:
    """Immutable polynomial differential form of fixed degree.

    ``coefficients`` maps index tuples to nonzero polynomials; treat it as
    read-only.  The constructor takes terms ``{(monomial, index): residue}``
    and groups them into those polynomials, which reject a negative
    exponent with ValueError.
    """

    __slots__ = ("context", "degree", "coefficients")

    def __init__(self, context: RingContext, degree: int, terms: Mapping[FormKey, int]):
        if not 0 <= degree <= context.arity:
            raise ValueError(f"form degree {degree} out of range")
        grouped: dict[Index, dict[Monomial, int]] = {}
        for (m, idx), c in terms.items():
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"index tuple {idx} must be strictly increasing of length {degree}")
            if any(not 0 <= i < context.arity for i in idx):
                raise IndexError(f"form index out of range in {idx}")
            if len(m) != context.arity:
                raise ValueError("monomial arity mismatch")
            grouped.setdefault(tuple(idx), {})[tuple(m)] = c
        self._set(context, degree, {idx: Polynomial(context, ms) for idx, ms in grouped.items()})

    def _set(self, context: RingContext, degree: int, coefficients: Mapping[Index, Polynomial]) -> None:
        self.context = context
        self.degree = degree
        self.coefficients = {idx: f for idx, f in coefficients.items() if not f.is_zero()}

    @classmethod
    def _of(
        cls, context: RingContext, degree: int, coefficients: Mapping[Index, Polynomial]
    ) -> "DifferentialForm":
        # Internal: the caller guarantees valid index tuples; zero
        # coefficients are dropped.
        form = object.__new__(cls)
        form._set(context, degree, coefficients)
        return form

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "DifferentialForm":
        return cls._of(f.context, 0, {(): f})

    @classmethod
    def zero(cls, context: RingContext, degree: int) -> "DifferentialForm":
        return cls(context, degree, {})

    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if self.context != other.context or self.degree != other.degree:
            raise ContextMismatchError("can only add forms of equal degree in one ring")
        out = dict(self.coefficients)
        for idx, g in other.coefficients.items():
            _add_signed(out, idx, 1, g)
        return self._of(self.context, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return self._of(self.context, self.degree, {idx: -f for idx, f in self.coefficients.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def times_poly(self, f: Polynomial) -> "DifferentialForm":
        """Ordinary module structure: multiply every coefficient by f."""
        if f.context != self.context:
            raise ContextMismatchError("polynomial from a different ring")
        return self._of(self.context, self.degree, {idx: g * f for idx, g in self.coefficients.items()})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DifferentialForm)
            and self.context == other.context
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __str__(self) -> str:
        terms = [(m, idx, c) for idx, f in self.coefficients.items() for m, c in f.terms.items()]
        if not terms:
            return "0"
        names = self.context.variables
        parts = []
        # Descending by monomial, then by index tuple: the tuples of one
        # form have one length, so negating their entries reverses them.
        terms.sort(key=lambda t: (grevlex_desc_key(t[0]), tuple(-i for i in t[1])))
        for m, idx, c in terms:
            dpart = "^".join(f"d{names[i]}" for i in idx)
            if idx and c == 1 and all(e == 0 for e in m):
                parts.append(dpart)
            elif idx:
                parts.append(term_str(self.context, m, c) + " " + dpart)
            else:
                parts.append(term_str(self.context, m, c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"DifferentialForm({self})"


def _add_signed(out: dict[Index, Polynomial], idx: Index, sign: int, f: Polynomial) -> None:
    """out[idx] += sign * f, for sign +1 or -1."""
    term = f if sign > 0 else -f
    out[idx] = out[idx] + term if idx in out else term


def exterior_d(w: DifferentialForm) -> DifferentialForm:
    """Exterior derivative, with partial derivatives taken mod p."""
    ctx = w.context
    if w.degree == ctx.arity:
        # Everything above the top degree vanishes.
        return DifferentialForm.zero(ctx, w.degree)
    out: dict[Index, Polynomial] = {}
    for idx, f in w.coefficients.items():
        for i in range(ctx.arity):
            if i not in idx:
                # dx_i ^ dx_idx: dx_i moves past the indices below i.
                below = sum(1 for j in idx if j < i)
                _add_signed(out, tuple(sorted(idx + (i,))), -1 if below % 2 else 1, f.derivative(i))
    return DifferentialForm._of(ctx, w.degree + 1, out)


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Graded-antisymmetric product of forms."""
    if a.context != b.context:
        raise ContextMismatchError("forms from different rings")
    n = a.context.arity
    if a.degree + b.degree > n:
        raise ValueError(f"wedge degree {a.degree + b.degree} exceeds the dimension {n}")
    out: dict[Index, Polynomial] = {}
    for ia, fa in a.coefficients.items():
        for ib, fb in b.coefficients.items():
            if set(ia) & set(ib):
                continue
            # Sign of the permutation sorting ia+ib: count inversions.
            inv = sum(1 for x in ia for y in ib if x > y)
            _add_signed(out, tuple(sorted(ia + ib)), -1 if inv % 2 else 1, fa * fb)
    return DifferentialForm._of(a.context, a.degree + b.degree, out)


def volume_form(ctx: RingContext) -> DifferentialForm:
    """dx_1 ^ ... ^ dx_n."""
    return DifferentialForm(ctx, ctx.arity, {((0,) * ctx.arity, tuple(range(ctx.arity))): 1})


def d_coordinate(ctx: RingContext, i: int) -> DifferentialForm:
    """The 1-form dx_i."""
    return DifferentialForm(ctx, 1, {((0,) * ctx.arity, (i,)): 1})


def carry_polynomial(p: Prime | int) -> Polynomial:
    """((X+Y)^p - X^p - Y^p)/p as a polynomial over F_p.

    The binomial coefficients are divided by p over the integers first;
    only then is the result reduced.  This is the carry term measuring
    the failure of additivity of p-th powers.
    """
    pval = p.value if isinstance(p, Prime) else int(p)
    ctx = ring(pval, ["X", "Y"])
    terms = {(k, pval - k): (math.comb(pval, k) // pval) for k in range(1, pval)}
    return Polynomial(ctx, terms)


def power_dlog_form(f: Polynomial) -> DifferentialForm:
    """The 1-form f^(p-1) df, i.e. f^p dlog f where f is invertible.

    This is the derivation inducing the inverse of the Cartier operator;
    it is additive up to the exact correction d of the carry polynomial
    evaluated at the two summands.
    """
    df = exterior_d(DifferentialForm.from_polynomial(f))
    if f.is_zero():
        return DifferentialForm.zero(f.context, 1)
    return df.times_poly(f.pow_p_minus_1())


def cartier_top(g: Polynomial) -> Polynomial:
    """Cartier operator on the top form g * dx_1^...^dx_n, in coordinates.

    With the volume form as reference, C(g tau) = (trace of g) tau: the
    operator kills every monomial with some exponent not p-1 mod p (each
    such top form is exact, see exactness_witness) and extracts the
    shifted p-th root of the rest.
    """
    return frobenius_trace(g)


def exactness_witness(ctx: RingContext, m: Monomial) -> DifferentialForm:
    """An (n-1)-form eta with d(eta) = x^m * dx_1^...^dx_n.

    Requires some exponent m_i with m_i + 1 not divisible by p; the last
    such index is used.  eta is (+-1/(m_i+1)) x_i x^m with dx_i omitted,
    the sign chosen so the defining equation holds exactly (it is checked
    before returning).
    """
    p = ctx.p
    if len(m) != ctx.arity:
        raise ValueError("monomial arity mismatch")
    candidates = [i for i, e in enumerate(m) if (e + 1) % p != 0]
    if not candidates:
        raise NoSuchIndexError("every exponent is p-1 mod p; the form is not exact here")
    i = candidates[-1]
    sign = 1 if i % 2 == 0 else -1
    inv = pow((m[i] + 1) % p, p - 2, p)
    bumped = tuple(e + 1 if j == i else e for j, e in enumerate(m))
    idx = tuple(j for j in range(ctx.arity) if j != i)
    eta = DifferentialForm(ctx, ctx.arity - 1, {(bumped, idx): sign * inv})
    target = volume_form(ctx).times_poly(ctx.monomial(m))
    if exterior_d(eta) != target:
        raise AssertionError("boundary witness failed its defining equation")
    return eta
