"""Groebner bases over F_p and everything ideal-compatibility related.

The engine is Buchberger's algorithm on ``fparith.divide_terms``, the
division routine shared with exact division: every monomial's order key
is computed once, when its term enters a heap, and every basis element's
leading monomial once, when the element is added.  S-pairs wait on a
heap keyed by the order key of their lcm (the normal selection strategy,
ties broken by index), pruned by the Gebauer-Moller update as each
element arrives.  The result is inter-reduced, so the basis returned for
given generators and order is unique and the whole pipeline is
deterministic.  On top of it sit the Frobenius bracket power I^[p],
colon ideals by tag-variable elimination, the colon module (I^[p] : I)
whose elements are exactly the coefficients of twisted endomorphisms
compatible with I (Fedder's criterion), an independent check by p-th-root
decomposition used to cross-validate it, the existence test for
compatible splittings on the same decomposition, and nilpotency witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from heapq import heappop, heappush
from operator import add, neg, sub
from typing import Callable

from .fparith import (
    ContextMismatchError,
    Divisor,
    Monomial,
    Polynomial,
    RingContext,
    divide_terms,
    embed,
    exact_divide,
    grevlex_desc_key,
    grevlex_key,
    make_divisor,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)
from .splitcore import TwistedEndo, frobenius_roots


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: lex, grevlex, or a block order elim(k).

    elim(k) compares the first k variables by grevlex, then the rest by
    grevlex; any monomial involving one of the first k variables beats
    any monomial in the remaining ones, which is what elimination needs.
    """

    kind: str
    block: int = 0

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def elim(cls, k: int) -> "MonomialOrder":
        if k < 1:
            raise ValueError("elimination block must be nonempty")
        return cls("elim", k)

    def key(self, m: Monomial):
        if self.kind == "lex":
            return m
        if self.kind == "grevlex":
            return grevlex_key(m)
        if self.kind == "elim":
            if self.block >= len(m):
                raise ValueError("elimination block must be smaller than the arity")
            return (grevlex_key(m[: self.block]), grevlex_key(m[self.block :]))
        raise ValueError(f"unknown order kind {self.kind!r}")

    @property
    def desc_key(self) -> Callable[[Monomial], tuple]:
        """Flat heap key for this order: injective, and ascending in it
        is descending in ``key``."""
        if self.kind == "lex":
            return _lex_desc_key
        if self.kind == "grevlex":
            return grevlex_desc_key
        if self.kind == "elim":
            return partial(_elim_desc_key, self.block)
        raise ValueError(f"unknown order kind {self.kind!r}")


def _lex_desc_key(m: Monomial) -> tuple:
    return tuple(map(neg, m))


def _elim_desc_key(k: int, m: Monomial) -> tuple:
    if k >= len(m):
        raise ValueError("elimination block must be smaller than the arity")
    return (-sum(m[:k]),) + m[k - 1 :: -1] + (-sum(m[k:]),) + m[: k - 1 : -1]


GREVLEX = MonomialOrder.grevlex()


@dataclass(frozen=True)
class IdealPresentation:
    """A finitely generated ideal, given by generators.

    Zero generators are dropped; no generators at all means the zero
    ideal.
    """

    context: RingContext
    generators: tuple[Polynomial, ...]

    def __init__(self, context: RingContext, generators) -> None:
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.context != context:
                raise ContextMismatchError("generator from a different ring")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "generators", gens)

    def is_zero_ideal(self) -> bool:
        return not self.generators


def ideal(*generators: Polynomial) -> IdealPresentation:
    """Convenience constructor; at least one generator fixes the context."""
    if not generators:
        raise ValueError("need at least one generator to infer the ring")
    return IdealPresentation(generators[0].context, generators)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis with the leading monomial of each element, which
    is computed once here."""

    context: RingContext
    order: MonomialOrder
    basis: tuple[Polynomial, ...]
    leads: tuple[Monomial, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        leads = tuple(_leading(g, self.order)[0] for g in self.basis)
        object.__setattr__(self, "leads", leads)

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self).is_zero()

    def is_unit_ideal(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.basis)


def _leading(f: Polynomial, order: MonomialOrder) -> tuple[Monomial, int]:
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def _monic(f: Polynomial, order: MonomialOrder) -> Polynomial:
    _, c = _leading(f, order)
    if c == 1:
        return f
    p = f.context.p
    return f.scale(pow(c, p - 2, p))


def _s_terms(f: Divisor, g: Divisor, lcm: Monomial, p: int) -> dict[Monomial, int]:
    """Terms of the S-polynomial of two prepared divisors with the given
    lcm of leading monomials; the leading terms cancel and are skipped."""
    lf, inv_f, tail_f = f
    lg, inv_g, tail_g = g
    sf = tuple(map(sub, lcm, lf))
    sg = tuple(map(sub, lcm, lg))
    out = {tuple(map(add, m, sf)): c * inv_f % p for m, c in tail_f}
    for m, c in tail_g:
        t = tuple(map(add, m, sg))
        s = (out.get(t, 0) - c * inv_g) % p
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial cancelling the leading terms of f and g."""
    f._check(g)
    p = f.context.p
    mf = _leading(f, order)[0]
    mg = _leading(g, order)[0]
    terms = _s_terms(
        make_divisor(f.terms, mf, p), make_divisor(g.terms, mg, p), monomial_lcm(mf, mg), p
    )
    return Polynomial._raw(f.context, terms)


def buchberger(I: IdealPresentation, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of I under the given order.

    Deterministic.  Generators are made monic and pre-sorted canonically.
    Generators and S-polynomials alike are reduced by the active
    elements; a nonzero remainder h is made monic and added, its leading
    monomial LM(h) computed then, once, and kept with it as a prepared
    divisor.  Each S-pair (i, j) is pushed once onto a heap keyed by the
    order key of its lcm, computed at push time, with ties broken by
    (i, j): the normal selection strategy.  The Gebauer-Moller update
    prunes pairs as h arrives: new pairs (i, h) by the chain criterion
    among themselves and then the product criterion, and pending pairs
    whose lcm LM(h) divides while differing from both lcms with LM(h).
    Active elements whose leading monomial LM(h) divides stop forming
    pairs and dividing.  The active elements at the end form a minimal
    basis; it is inter-reduced and sorted by decreasing leading monomial.
    """
    ctx = I.context
    p = ctx.p
    desc_key = order.desc_key
    gens = sorted(
        {_monic(g, order) for g in I.generators if not g.is_zero()},
        key=lambda g: sorted(((order.key(m), c) for m, c in g.terms.items()), reverse=True),
    )
    if not gens:
        return GroebnerBasis(ctx, order, ())

    elements: list[Divisor] = []
    active: list[int] = []
    # Pending pairs as [lcm key, i, j, lcm]; a pruned pair's lcm is None.
    pairs: list[list] = []

    def insert(terms: dict[Monomial, int]) -> None:
        # Reduced by the active elements, a new leading monomial is
        # divisible by none of theirs, so the active set stays minimal.
        r = divide_terms(terms, [elements[a] for a in active], p, desc_key)
        if not r:
            return
        lead, c = next(iter(r.items()))
        if c != 1:
            inv = pow(c, p - 2, p)
            r = {m: v * inv % p for m, v in r.items()}
        k = len(elements)
        elements.append(make_divisor(r, lead, p))
        new = [(i, monomial_lcm(elements[i][0], lead)) for i in active]
        kept: list[tuple[int, Monomial, bool]] = []
        for n, (i, lcm) in enumerate(new):
            coprime = lcm == monomial_mul(elements[i][0], lead)
            if coprime or not (
                any(monomial_divides(other, lcm) for _, other in new[n + 1 :])
                or any(monomial_divides(other, lcm) for _, other, _ in kept)
            ):
                kept.append((i, lcm, coprime))
        for pair in pairs:
            lcm = pair[3]
            if (
                lcm is not None
                and monomial_divides(lead, lcm)
                and monomial_lcm(elements[pair[1]][0], lead) != lcm
                and monomial_lcm(elements[pair[2]][0], lead) != lcm
            ):
                pair[3] = None
        for i, lcm, coprime in kept:
            if not coprime:
                heappush(pairs, [order.key(lcm), i, k, lcm])
        active[:] = [i for i in active if not monomial_divides(lead, elements[i][0])]
        active.append(k)

    for g in gens:
        insert(g.terms)
    while pairs:
        _, i, j, lcm = heappop(pairs)
        if lcm is not None:
            insert(_s_terms(elements[i], elements[j], lcm, p))

    minimal = sorted((elements[i] for i in active), key=lambda e: desc_key(e[0]))
    # Reduce each tail against the others; the monic leading terms survive.
    reduced = []
    for n, (lead, _, tail) in enumerate(minimal):
        rest = divide_terms(dict(tail), minimal[:n] + minimal[n + 1 :], p, desc_key)
        reduced.append(Polynomial._raw(ctx, {lead: 1, **rest}))
    return GroebnerBasis(ctx, order, tuple(reduced))


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo the basis; zero iff f lies in the ideal."""
    if f.context != G.context:
        raise ContextMismatchError("polynomial and basis from different rings")
    if f.is_zero() or not G.basis:
        return f
    p = f.context.p
    divisors = [make_divisor(g.terms, lm, p) for g, lm in zip(G.basis, G.leads)]
    return Polynomial._raw(f.context, divide_terms(f.terms, divisors, p, G.order.desc_key))


def frobenius_power_ideal(I: IdealPresentation) -> IdealPresentation:
    """The bracket power I^[p], generated by p-th powers of the generators."""
    return IdealPresentation(I.context, tuple(g.frobenius() for g in I.generators))


def _tagged_context(ctx: RingContext) -> RingContext:
    tag = "_t"
    k = 0
    while tag in ctx.variables:
        k += 1
        tag = f"_t{k}"
    return RingContext(ctx.prime, (tag,) + ctx.variables)


def intersect(A: IdealPresentation, B: IdealPresentation) -> IdealPresentation:
    """Ideal intersection via tag-variable elimination.

    A cap B is the elimination ideal of t*A + (1-t)*B with the tag t
    ordered before everything else.
    """
    if A.context != B.context:
        raise ContextMismatchError("ideals from different rings")
    ctx = A.context
    if A.is_zero_ideal() or B.is_zero_ideal():
        return IdealPresentation(ctx, ())
    ext = _tagged_context(ctx)
    shift = list(range(1, ext.arity))
    t = ext.variable(0)
    one_minus_t = ext.one() - t
    gens = [t * embed(g, ext, shift) for g in A.generators]
    gens += [one_minus_t * embed(g, ext, shift) for g in B.generators]
    G = buchberger(IdealPresentation(ext, gens), MonomialOrder.elim(1))
    kept = []
    for g in G.basis:
        if all(m[0] == 0 for m in g.terms):
            kept.append(Polynomial(ctx, {m[1:]: c for m, c in g.terms.items()}))
    return IdealPresentation(ctx, kept)


def colon(J: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """The colon ideal (J : g) = { a : a*g in J }.

    Computed as (J intersect (g)) / g; every generator of the
    intersection is divisible by g, so the quotients are exact.
    """
    if g.is_zero():
        raise ZeroDivisionError("colon by the zero polynomial")
    inter = intersect(J, IdealPresentation(J.context, (g,)))
    return IdealPresentation(J.context, tuple(exact_divide(h, g) for h in inter.generators))


def fedder_module(I: IdealPresentation) -> IdealPresentation:
    """Coefficients of all twisted endomorphisms compatible with I.

    This is the colon ideal (I^[p] : I), intersected over the generators.
    The zero ideal maps to the zero ideal by convention.
    """
    if I.is_zero_ideal():
        return I
    Ip = frobenius_power_ideal(I)
    return reduce(intersect, (colon(Ip, g) for g in I.generators))


def is_compatible(
    sigma: TwistedEndo, I: IdealPresentation, method: str = "both"
) -> bool:
    """Does sigma map the ideal I into itself?

    method "fedder" tests membership of the coefficient in the colon
    module (I^[p] : I).  method "finite" checks, for every generator g,
    that every root h_b of coeff * g = sum_b x^b * h_b^p lies in I, with
    no colon computed.  This is complete: sigma(I) lies in I iff every
    trace(x^a * coeff * g) with a in [0, p-1]^n does, since every
    polynomial is a combination sum_a r_a^p x^a, and that trace is
    h_{(p-1)-a}.  method "both" runs the two and raises if they disagree.
    """
    if sigma.context != I.context:
        raise ContextMismatchError("endomorphism and ideal from different rings")
    if method == "both":
        by_fedder = is_compatible(sigma, I, "fedder")
        by_finite = is_compatible(sigma, I, "finite")
        if by_fedder != by_finite:
            raise AssertionError(
                f"compatibility methods disagree on {sigma.coeff}: "
                f"fedder={by_fedder} finite={by_finite}"
            )
        return by_fedder
    if I.is_zero_ideal():
        return True
    if method == "fedder":
        return buchberger(fedder_module(I)).contains(sigma.coeff)
    if method == "finite":
        G = buchberger(I)
        return all(
            G.contains(h) for g in I.generators for h in frobenius_roots(sigma.coeff * g).values()
        )
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ExistsSplitVerdict:
    exists: bool
    obstruction: GroebnerBasis


def exists_compatible_splitting(I: IdealPresentation) -> ExistsSplitVerdict:
    """Is there any splitting compatible with I?

    The traces of x^a * c over generators c of (I^[p] : I) and a in
    [0, p-1]^n generate the ideal of all values sigma(1) with sigma
    compatible with I.  As trace(x^a * c) = h_{(p-1)-a} for
    c = sum_b x^b * h_b^p, the roots h_b of the c generate it, with none
    missed.  A compatible splitting exists iff that ideal is the whole
    ring; its reduced basis is returned as the obstruction.
    """
    ctx = I.context
    if I.is_zero_ideal():
        # No constraint at all: the standard splitting works.
        return ExistsSplitVerdict(True, buchberger(IdealPresentation(ctx, (ctx.one(),))))
    roots = [h for c in fedder_module(I).generators for h in frobenius_roots(c).values()]
    G = buchberger(IdealPresentation(ctx, roots))
    return ExistsSplitVerdict(G.is_unit_ideal(), G)


def nilpotent_witness(g: Polynomial, I: IdealPresentation, bound: int) -> int | None:
    """Smallest k <= bound with g not in I but g^k in I, if any.

    Such a k shows I is not radical, which rules out any compatible
    splitting.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    G = buchberger(I)
    if normal_form(g, G).is_zero():
        return None
    power = g
    for k in range(2, bound + 1):
        power = power * g
        if normal_form(power, G).is_zero():
            return k
    return None
