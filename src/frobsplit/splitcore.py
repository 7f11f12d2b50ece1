"""Twisted endomorphisms of F_p[x_1..x_n] and splitting verdicts.

The module of twisted-linear endomorphisms (additive maps with
sigma(a^p * b) = a * sigma(b)) of a polynomial ring is free of rank one.
Its generator, here called the Frobenius trace, keeps exactly the
monomials whose exponents are all congruent to p-1 mod p and extracts
the p-th root of the cofactor.  Every twisted endomorphism is therefore
stored as a single coefficient polynomial f, acting as
g -> frobenius_trace(f * g).

A splitting is a twisted endomorphism sending 1 to 1; one that sends 1
to a nonzero constant spans a splitting (rescale to get one).
"""

from __future__ import annotations

import math
from enum import Enum

from ._value import Value
from .fparith import (
    Coefficient,
    ContextMismatchError,
    Monomial,
    Packing,
    Polynomial,
    Prime,
    RingContext,
    degree,
    divide_terms,
    embed,
    fit_bits,
    grevlex_layout,
    make_divisor,
    packed_call,
    packing,
)


class NotHomogeneousError(ValueError):
    """The coefficient polynomial is not homogeneous."""


class NotASplittingError(ValueError):
    """The endomorphism is not a splitting, so the check does not apply."""


def frobenius_trace(f: Polynomial) -> Polynomial:
    """Apply the generating twisted endomorphism to f.

    A term c * x^m survives iff every exponent m_i = p-1 (mod p); it maps
    to c * x^((m - (p-1,..,p-1)) / p), whose exponents are the quotients
    m_i // p.  Each term's test stops at its first exponent of another
    residue.  Coefficients are untouched: the prime field is fixed by the
    Frobenius.  This is the root at b = (p-1,..,p-1) of
    ``frobenius_roots``, found without splitting the other terms.
    """
    p = f.context.p
    k, quo = p - 1, p.__rfloordiv__
    out = {}
    for m, c in f.terms.items():
        for e in m:
            if e % p != k:
                break
        else:
            out[tuple(map(quo, m))] = c
    return Polynomial._raw(f.context, out)


def frobenius_roots(f: Polynomial) -> dict[Monomial, Polynomial]:
    """The p-th-root decomposition f = sum_b x^b * h_b^p over b in [0, p-1]^n:
    each nonzero h_b by its b, with b and the exponent of h_b's term read
    off each term's exponents by one remainder and one quotient map.  As
    trace(x^a * f) = h_{(p-1)-a}, these are all the traces of f at once.
    ``fparith.packed_roots`` is the same split on packed keys; this one
    on exponent tuples is its reference."""
    p = f.context.p
    rem, quo = p.__rmod__, p.__rfloordiv__
    roots: dict[Monomial, dict[Monomial, int]] = {}
    for m, c in f.terms.items():
        roots.setdefault(tuple(map(rem, m)), {})[tuple(map(quo, m))] = c
    return {b: Polynomial._raw(f.context, terms) for b, terms in roots.items()}


class TwistedEndo(Value):
    """A twisted endomorphism, stored by its coefficient polynomial."""

    coeff: Polynomial

    @property
    def context(self) -> RingContext:
        return self.coeff.context

    def __call__(self, g: Polynomial) -> Polynomial:
        if g.context != self.context:
            raise ContextMismatchError("argument lives in a different ring")
        return frobenius_trace(self.coeff * g)


class VerdictKind(Enum):
    SPLITTING = "Splitting"
    SPANS_SPLITTING = "SpansSplitting"
    NOT_SPLITTING = "NotSplitting"


class SplitVerdict(Value):
    """Outcome of a splitting check.

    ``constant`` is set for SPLITTING (always 1) and SPANS_SPLITTING;
    ``witness`` is the image of 1 when it is not a nonzero constant.
    """

    kind: VerdictKind
    constant: Coefficient | None = None
    witness: Polynomial | None = None

    @property
    def is_splitting(self) -> bool:
        return self.kind is VerdictKind.SPLITTING

    @property
    def spans(self) -> bool:
        return self.kind in (VerdictKind.SPLITTING, VerdictKind.SPANS_SPLITTING)


def _verdict_from_image(image: Polynomial) -> SplitVerdict:
    if image.is_constant() and not image.is_zero():
        c = image.constant_value()
        if c.residue == 1:
            return SplitVerdict(VerdictKind.SPLITTING, constant=c)
        return SplitVerdict(VerdictKind.SPANS_SPLITTING, constant=c)
    return SplitVerdict(VerdictKind.NOT_SPLITTING, witness=image)


def check_splitting(sigma: TwistedEndo) -> SplitVerdict:
    """Decide whether sigma is a splitting by evaluating it at 1."""
    return _verdict_from_image(frobenius_trace(sigma.coeff))


def homogeneous_fastpath(sigma: TwistedEndo) -> SplitVerdict:
    """Splitting check for homogeneous coefficients via degree counting.

    For homogeneous f of degree n(p-1) the image of 1 is forced to be
    constant, equal to the coefficient of (x_1...x_n)^(p-1) in f, so only
    that single coefficient is read.  Other degrees cannot yield a
    splitting; the full trace is then computed just to report a witness.
    Agrees with check_splitting on every homogeneous input.
    """
    f = sigma.coeff
    deg = f.homogeneous_degree()
    if deg is None:
        raise NotHomogeneousError("coefficient polynomial is not homogeneous")
    ctx = f.context
    n, p = ctx.arity, ctx.p
    if not f.is_zero() and deg == n * (p - 1):
        return _verdict_from_image(ctx.constant(f.coefficient((p - 1,) * n).residue))
    return SplitVerdict(VerdictKind.NOT_SPLITTING, witness=frobenius_trace(f))


def is_divisor_splitting(sigma: TwistedEndo, h: Polynomial) -> bool:
    """True when the splitting sigma is compatible with the divisor of h.

    On affine space this is exact divisibility of the coefficient by h,
    decided as membership in (h): one membership division of the
    coefficient by h (``fparith.divide_terms``) on grevlex packed keys,
    with no quotient built and nothing unpacked.  Requires
    sigma to actually be a splitting.
    """
    if h.is_zero():
        raise ZeroDivisionError("divisor equation must be nonzero")
    if not check_splitting(sigma).is_splitting:
        raise NotASplittingError("divisor compatibility is only defined for splittings")
    c = sigma.coeff
    c._check(h)
    p = c.context.p

    def run(pk: Packing) -> bool:
        divisor = make_divisor(pk.pack_terms(h.terms), p, pk)
        return not divide_terms(pk.pack_terms(c.terms), (divisor,), p, pk, membership=True)

    bits = fit_bits(max(degree(c.terms), degree(h.terms)))
    return packed_call(packing(grevlex_layout(c.context.arity), bits), run)


def localized_apply(
    sigma: TwistedEndo, num: Polynomial, den: Polynomial
) -> tuple[Polynomial, Polynomial]:
    """Apply sigma to the fraction num/den in a localization.

    Returns the unreduced fraction (sigma(num * den^(p-1)), den).  The
    result is independent of the chosen representative up to
    cross-multiplication; no gcd reduction is attempted.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    return sigma(num * den.pow_p_minus_1()), den


def tensor(a: TwistedEndo, b: TwistedEndo) -> TwistedEndo:
    """Tensor product on disjoint variable sets.

    The joint coefficient is the product of the two coefficients in the
    concatenated ring; applying the result to g(x)*h(y) gives
    a(g) * b(h).
    """
    ca, cb = a.context, b.context
    if ca.prime != cb.prime:
        raise ContextMismatchError("tensor factors must share the prime")
    overlap = set(ca.variables) & set(cb.variables)
    if overlap:
        raise ValueError(f"variable names overlap: {sorted(overlap)}")
    joint = RingContext(ca.prime, ca.variables + cb.variables)
    fa = embed(a.coeff, joint, range(ca.arity))
    fb = embed(b.coeff, joint, range(ca.arity, joint.arity))
    return TwistedEndo(fa * fb)


class P1Extension(Value):
    """Whether an affine-line endomorphism extends to the projective line."""

    extends: bool
    other_chart: Polynomial | None
    compatible_zero: bool
    compatible_infinity: bool


def p1_extension_check(sigma: TwistedEndo) -> P1Extension:
    """Extension of a one-variable twisted endomorphism to the projective line.

    With coordinate x on one chart and y = 1/x on the other, the top-form
    twist transforms by (dx)^(1-p) = (-1)^(p-1) * y^(2(p-1)) * (dy)^(1-p),
    so a coefficient f extends iff deg f <= 2(p-1), with other-chart
    coefficient (-1)^(p-1) * y^(2(p-1)) * f(1/y) (returned in the same
    one-variable context, read as a polynomial in the other coordinate).
    Compatibility with the origin of either chart is divisibility of the
    relevant coefficient by the (p-1)-st power of that chart's coordinate.
    """
    ctx = sigma.context
    if ctx.arity != 1:
        raise ValueError("projective-line extension needs a one-variable ring")
    p = ctx.p
    f = sigma.coeff
    bound = 2 * (p - 1)
    if f.total_degree() > bound:
        return P1Extension(False, None, _power_divides(f, p - 1), False)
    sign = pow(-1, p - 1) % p
    flipped = Polynomial(ctx, {(bound - m[0],): c * sign for m, c in f.terms.items()})
    return P1Extension(
        extends=True,
        other_chart=flipped,
        compatible_zero=_power_divides(f, p - 1),
        compatible_infinity=_power_divides(flipped, p - 1),
    )


def _power_divides(f: Polynomial, k: int) -> bool:
    """Does x^k divide the one-variable polynomial f?"""
    if f.is_zero():
        return True
    return min(m[0] for m in f.terms) >= k


SEMIGROUP_TABLE_BUDGET = 10**6
"""Entries allowed in a numerical semigroup's membership table, one bit
per integer up to the Schur bound.  At (1000, 1001), bound 999,000, the
bitset takes about 2 ms and the whole construction, mostly the tuple of
499,500 gaps, 65-80 ms (measured in process on 2 cores, Python 3.11)."""


class NumericalSemigroup(Value):
    """Numerical semigroup generated by positive integers with gcd 1.

    The gap set (complement in the naturals) and conductor (least c with
    [c, infinity) contained in the semigroup) are computed at
    construction from a membership bitset up to the Schur bound
    (a_min - 1)(a_max - 1), read out once as a string of binary digits.
    A bound over ``SEMIGROUP_TABLE_BUDGET`` is refused with ValueError
    before the table is built.
    """

    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    conductor: int
    _table: str

    def __init__(self, generators) -> None:
        gens = tuple(sorted(set(int(g) for g in generators)))
        if not gens or any(g < 1 for g in gens):
            raise ValueError("generators must be positive integers")
        if math.gcd(*gens) != 1:
            raise ValueError("generators must have gcd 1")
        bound = (gens[0] - 1) * (gens[-1] - 1)
        if bound > SEMIGROUP_TABLE_BUDGET:
            raise ValueError(
                f"semigroup too large: its Schur bound {bound} is over {SEMIGROUP_TABLE_BUDGET}"
            )
        # Bit i of ``members`` is set when i is a sum of the generators seen
        # so far; OR-ing in the shifts by g, 2g, 4g, ... adds every multiple
        # of g up to the bound.
        mask = (1 << (bound + 1)) - 1
        members = 1
        for g in gens:
            shift = g
            while shift <= bound:
                members |= (members << shift) & mask
                shift <<= 1
        table = f"{members:0{bound + 1}b}"[::-1]
        gaps = tuple(i for i, bit in enumerate(table) if bit == "0")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "conductor", gaps[-1] + 1 if gaps else 0)
        object.__setattr__(self, "_table", table)

    def __contains__(self, m: int) -> bool:
        if m < 0:
            return False
        if m >= self.conductor:
            return True
        return self._table[m] == "1"


class SemigroupVerdict(Value):
    split: bool
    witness: int | None


def semigroup_split_check(s: NumericalSemigroup, p: Prime | int) -> SemigroupVerdict:
    """Decide Frobenius splitness of the semigroup ring F_p[t^a : a in S].

    The ring is split iff S is all of the naturals.  Otherwise there is a
    gap m with p*m in S (the largest gap always qualifies), and any
    splitting of the fraction field would have to send t^(p*m) to t^m,
    mapping the ring outside itself; the smallest such gap is returned as
    witness.
    """
    pval = p.value if isinstance(p, Prime) else Prime(p).value
    if not s.gaps:
        return SemigroupVerdict(split=True, witness=None)
    for m in s.gaps:
        if pval * m in s:
            return SemigroupVerdict(split=False, witness=m)
    raise AssertionError("unreachable: the largest gap always certifies")
