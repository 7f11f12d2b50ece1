"""Groebner bases over F_p and everything ideal-compatibility related.

The engine is Buchberger's algorithm (``buchberger``) on
``fparith.divide_terms``, the division routine shared with exact
division, run on packed monomial keys (``fparith.Packing``, laid out per
order by ``MonomialOrder.layout``).  A ``GroebnerBasis`` keeps its
elements packed in one slot, filled on first use, so a normal form packs
only the polynomial reduced.  A basis that is unpacked is the reduced
one, so the whole pipeline is deterministic.  On top of it sit the
Frobenius bracket power I^[p], colon ideals by tag-variable elimination,
the colon module (I^[p] : I) whose elements are exactly the coefficients
of twisted endomorphisms compatible with I (Fedder's criterion,
``fedder_module``), the compatibility check in two independent forms
(``is_compatible``), each deciding membership on a basis of its own
(``_packed_basis``), the existence test for compatible splittings on the
p-th-root decomposition (``exists_compatible_splitting``), and
nilpotency witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from heapq import heappop, heappush
from math import prod
from operator import mul

from ._value import Value
from .fparith import (
    MAX_TERM_PRODUCTS,
    ContextMismatchError,
    Divisor,
    Layout,
    Monomial,
    Packing,
    PackingOverflow,
    Polynomial,
    RingContext,
    degree,
    divide_terms,
    exact_divide,
    fit_bits,
    grevlex_desc_key,
    grevlex_layout,
    make_divisor,
    packed_call,
    packed_power,
    packed_product,
    packed_roots,
    packing,
    power_too_large,
)
from .splitcore import TwistedEndo


class MonomialOrder(Value):
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

    def layout(self, arity: int) -> Layout:
        """The fields of this order's packed keys (``fparith.Packing``):
        ascending keys are descending monomials."""
        return _layout(self, arity)


@lru_cache(maxsize=None)
def _layout(order: MonomialOrder, arity: int) -> Layout:
    if order.kind == "lex":
        return tuple((True, (i,)) for i in range(arity))
    if order.kind == "grevlex":
        return grevlex_layout(arity)
    if order.kind == "elim":
        k = order.block
        if k >= arity:
            raise ValueError("elimination block must be smaller than the arity")
        rest = tuple(
            (negated, tuple(i + k for i in indices))
            for negated, indices in grevlex_layout(arity - k)
        )
        return grevlex_layout(k) + rest
    raise ValueError(f"unknown order kind {order.kind!r}")


GREVLEX = MonomialOrder.grevlex()


class IdealPresentation(Value):
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


class GroebnerBasis(Value):
    """A Groebner basis, its elements packed once in one slot: ``packed``,
    a packing at the narrowest width that fits them and their divisors for
    ``divide_terms``, filled on first use.  Leading monomials are the least
    packed keys.
    """

    context: RingContext
    order: MonomialOrder
    basis: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        if self.basis:
            self.order.layout(self.context.arity)  # ValueError if the order does not fit

    @cached_property
    def packed(self) -> tuple[Packing, list[Divisor]]:
        bits = fit_bits(max((degree(g.terms) for g in self.basis), default=0))
        pk = packing(self.order.layout(self.context.arity), bits)
        return pk, _pack(self.basis, pk, self.context.p)

    @cached_property
    def leads(self) -> tuple[Monomial, ...]:
        if not self.basis:
            return ()
        pk, divisors = self.packed
        return tuple(pk.unpack(lead) for lead, *_ in divisors)

    def contains(self, f: Polynomial) -> bool:
        """Is f in the ideal?  Decided on the packed remainder, with no
        unpacking."""
        if f.context != self.context:
            raise ContextMismatchError("polynomial and basis from different rings")
        if f.is_zero():
            return True
        return bool(self.basis) and not _packed_remainder(f, self, membership=True)[1]

    def is_unit_ideal(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.basis)


def _pack(basis: tuple[Polynomial, ...], pk: Packing, p: int) -> list[Divisor]:
    """Polynomials as divisors packed with ``pk``, each led by its least key."""
    return [make_divisor(pk.pack_terms(g.terms), p, pk) for g in basis]


def _lcm(pk: Packing, a: Monomial, b: Monomial) -> tuple[Monomial, int]:
    """The lcm of two in-range monomials and its key.  No field of the lcm
    exceeds the sum of two in-range fields, so its guard bits show whether
    it left its range; then ``PackingOverflow`` is raised."""
    lcm = tuple(map(max, a, b))
    key = pk.pack(lcm)
    if key & pk.guards:
        raise PackingOverflow
    return lcm, key


def _s_terms(f: Divisor, g: Divisor, lcm: int, p: int, guards: int) -> dict[int, int]:
    """Packed terms of the S-polynomial of two prepared divisors whose
    leading monomials have the lcm key ``lcm``; the leading terms cancel
    and are skipped.  Raises ``PackingOverflow`` when a term leaves its
    fields (a key already present is in range)."""
    lf, _, inv_f, tail_f = f
    lg, _, inv_g, tail_g = g
    sf = lcm - lf
    sg = lcm - lg
    out = {m + sf: c * inv_f % p for m, c in tail_f}
    if any(map(guards.__and__, out)):
        raise PackingOverflow
    get = out.get
    for m, c in tail_g:
        t = m + sg
        old = get(t)
        if old is None:
            if t & guards:
                raise PackingOverflow
            out[t] = -c * inv_g % p
        else:
            s = (old - c * inv_g) % p
            if s:
                out[t] = s
            else:
                del out[t]
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial cancelling the leading terms of f and g."""
    f._check(g)
    p = f.context.p
    # No term of the S-polynomial has degree above deg f + deg g.
    pk = packing(order.layout(f.context.arity), fit_bits(degree(f.terms) + degree(g.terms)))
    df, dg = _pack((f, g), pk, p)
    _, lcm = _lcm(pk, pk.unpack(df[0]), pk.unpack(dg[0]))
    terms = _s_terms(df, dg, lcm, p, pk.guards)
    return Polynomial._raw(f.context, pk.unpack_terms(terms))


def buchberger(I: IdealPresentation, order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of I under the given order.

    Deterministic.  Generators are made monic and pre-sorted canonically.
    Generators and S-polynomials alike are reduced by the active
    elements; a nonzero remainder h is made monic and added, its leading
    monomial LM(h) found then, once, and kept with it as a prepared
    divisor.  Each S-pair (i, j) is pushed once onto a heap keyed by the
    order key of its lcm, computed at push time, with ties broken by
    (i, j): the normal selection strategy.  The Gebauer-Moller update
    prunes pairs as h arrives: new pairs (i, h) by the chain criterion
    among themselves and then the product criterion, and pending pairs
    whose lcm LM(h) divides while differing from both lcms with LM(h).
    Active elements whose leading monomial LM(h) divides stop forming
    pairs and dividing.  The active elements at the end form a minimal
    basis, sorted by decreasing leading monomial; each tail is then
    reduced by the other elements, which leaves the reduced basis.

    All of this runs on packed keys in one ``fparith.packed_call``, and
    the terms are unpacked to exponent tuples only for the result.
    """
    ctx = I.context
    if I.is_zero_ideal():
        return GroebnerBasis(ctx, order, ())

    def run(pk: Packing) -> GroebnerBasis:
        core = _buchberger_core([pk.pack_terms(g.terms) for g in I.generators], ctx.p, pk)
        return _unpack_basis(ctx, order, pk, *core)

    bits = fit_bits(max(degree(g.terms) for g in I.generators))
    return packed_call(packing(order.layout(ctx.arity), bits), run)


def _unpack_basis(
    ctx: RingContext, order: MonomialOrder, pk: Packing, minimal: list[Divisor], leads: list[Monomial]
) -> GroebnerBasis:
    """The reduced ``GroebnerBasis`` of a result of ``_buchberger_core``:
    its tails inter-reduced (``_reduce_tails``), then each monic element's
    tail unpacked once, behind its leading term."""
    unpack = pk.unpack_terms
    basis = tuple(
        Polynomial._raw(ctx, {lt: 1} | unpack(dict(tail)))
        for lt, (_, _, _, tail) in zip(leads, _reduce_tails(minimal, ctx.p, pk))
    )
    return GroebnerBasis(ctx, order, basis)


def _buchberger_core(
    generators: list[dict[int, int]], p: int, pk: Packing
) -> tuple[list[Divisor], list[Monomial]]:
    """A minimal Groebner basis of nonzero packed generators, as monic
    divisors for ``divide_terms`` sorted by decreasing leading monomial,
    and those leading monomials; ``buchberger`` describes the algorithm.
    Its tails are not inter-reduced: any Groebner basis decides
    membership, and ``_reduce_tails`` makes it the reduced one where a
    basis is unpacked.  Raises ``PackingOverflow`` when a field leaves
    its range."""
    base, guards = pk.base, pk.guards
    # Each monic generator once, by its terms in descending order of the
    # monomials, i.e. ascending packed keys negated; the generators are
    # inserted in the order of those keys.
    monic: dict[tuple, dict[int, int]] = {}
    for terms in generators:
        items = sorted(terms.items())
        c = items[0][1]
        if c != 1:
            inv = pow(c, p - 2, p)
            items = [(m, v * inv % p) for m, v in items]
            terms = dict(items)
        monic[tuple([(-m, v) for m, v in items])] = terms
    gens = [monic[key] for key in sorted(monic)]

    elements: list[Divisor] = []
    leads: list[Monomial] = []
    active: list[int] = []
    # Pending pairs as [-lcm key, i, j, lcm positive form, lcm]; a pruned
    # pair's positive form is None.
    pairs: list[list] = []

    def insert(terms: dict[int, int]) -> None:
        # Reduced by the active elements, a new leading monomial is
        # divisible by none of theirs, so the active set stays minimal.
        r = divide_terms(terms, [elements[a] for a in active], p, pk)
        if not r:
            return
        # The remainder's terms come out in descending order: the first leads.
        items = tuple(r.items())
        lead, c = items[0]
        if c != 1:
            inv = pow(c, p - 2, p)
            items = tuple([(m, v * inv % p) for m, v in items])
        k = len(elements)
        lead_pos = lead ^ base
        elements.append((lead, lead_pos, 1, items[1:]))
        lt = pk.unpack(lead)
        leads.append(lt)
        # With the positive forms of the lcms: x^a divides x^b iff
        # ((b | guards) - a) & guards == guards.
        new = []
        for i in active:
            lcm, key = _lcm(pk, leads[i], lt)
            new.append((i, lcm, key, key ^ base))
        kept: list[tuple[int, Monomial, int, int, bool]] = []
        for n, (i, lcm, key, pos) in enumerate(new):
            coprime = key == elements[i][0] + lead - base
            # The chain criterion, among the new pairs: one pair has no other.
            if not coprime and len(new) > 1:
                here = pos | guards
                if any((here - other[3]) & guards == guards for other in new[n + 1 :]) or any(
                    (here - other[3]) & guards == guards for other in kept
                ):
                    continue
            kept.append((i, lcm, key, pos, coprime))
        for pair in pairs:
            pos = pair[3]
            if (
                pos is not None
                and ((pos | guards) - lead_pos) & guards == guards
                and tuple(map(max, leads[pair[1]], lt)) != pair[4]
                and tuple(map(max, leads[pair[2]], lt)) != pair[4]
            ):
                pair[3] = None
        for i, lcm, key, pos, coprime in kept:
            if not coprime:
                heappush(pairs, [-key, i, k, pos, lcm])
        active[:] = [i for i in active if ((elements[i][1] | guards) - lead_pos) & guards != guards]
        active.append(k)

    for g in gens:
        insert(g)
    while pairs:
        key, i, j, pos, _ = heappop(pairs)
        if pos is not None:
            insert(_s_terms(elements[i], elements[j], -key, p, guards))

    active.sort(key=lambda i: elements[i][0])
    return [elements[i] for i in active], [leads[i] for i in active]


def _reduce_tails(minimal: list[Divisor], p: int, pk: Packing) -> list[Divisor]:
    """The reduced Groebner basis of a minimal one from
    ``_buchberger_core``: each tail reduced by the other elements, in the
    same order; the monic leading terms survive."""
    return [
        (lead, lead_pos, 1, tuple(divide_terms(dict(tail), minimal[:n] + minimal[n + 1 :], p, pk).items()))
        for n, (lead, lead_pos, _, tail) in enumerate(minimal)
    ]


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo the basis; zero iff f lies in the ideal.

    Only f is packed, unless its degree or an overflow needs the basis wider."""
    if f.context != G.context:
        raise ContextMismatchError("polynomial and basis from different rings")
    if f.is_zero() or not G.basis:
        return f
    pk, remainder = _packed_remainder(f, G)
    return Polynomial._raw(f.context, pk.unpack_terms(remainder))


def _packed_remainder(f: Polynomial, G: GroebnerBasis, membership: bool = False) -> tuple[Packing, dict[int, int]]:
    """The remainder of a nonzero f modulo a nonempty basis, packed, and
    its packing: the basis's own, unless f's degree or an overflow needs
    one wider.  With ``membership``, the remainder is cut at its first
    term (``divide_terms``), which decides only whether f is in the
    ideal."""
    p = f.context.p
    start, divisors = G.packed

    def run(pk: Packing) -> tuple[Packing, dict[int, int]]:
        basis = divisors if pk is start else _pack(G.basis, pk, p)
        return pk, divide_terms(pk.pack_terms(f.terms), basis, p, pk, membership=membership)

    bits = fit_bits(degree(f.terms))
    return packed_call(start if start.bits >= bits else packing(start.layout, bits), run)


def frobenius_power_ideal(I: IdealPresentation) -> IdealPresentation:
    """The bracket power I^[p], generated by p-th powers of the generators."""
    return IdealPresentation(I.context, tuple(g.frobenius() for g in I.generators))


def intersect(A: IdealPresentation, B: IdealPresentation) -> IdealPresentation:
    """Ideal intersection via tag-variable elimination.

    A cap B is the elimination ideal of t*A + (1-t)*B under elim(1), the
    tag t ordered before every variable.  The generators are packed into
    that order's keys with t as variable 0, so t*a is a's keys plus t's
    weight; the basis elements whose leading monomial is free of t are
    free of it, and only they are inter-reduced and unpacked.
    """
    if A.context != B.context:
        raise ContextMismatchError("ideals from different rings")
    ctx = A.context
    if A.is_zero_ideal() or B.is_zero_ideal():
        return IdealPresentation(ctx, ())
    p = ctx.p

    def run(pk: Packing) -> list[Polynomial]:
        tag, base, weights = pk.weights[0], pk.base, pk.weights[1:]
        gens = [{sum(map(mul, m, weights), base + tag): c for m, c in g.terms.items()} for g in A.generators]
        for g in B.generators:
            terms = {sum(map(mul, m, weights), base): c for m, c in g.terms.items()}
            gens.append(terms | {key + tag: p - c for key, c in terms.items()})
        minimal, leads = _buchberger_core(gens, p, pk)
        # Only t-free leads divide a t-free element's terms, so those
        # elements are inter-reduced among themselves alone.
        free = [n for n, lt in enumerate(leads) if not lt[0]]
        reduced = _reduce_tails([minimal[n] for n in free], p, pk)
        return [
            Polynomial._raw(ctx, {leads[n][1:]: 1} | {pk.unpack(m)[1:]: c for m, c in tail})
            for n, (_, _, _, tail) in zip(free, reduced)
        ]

    top = max(degree(g.terms) for g in A.generators + B.generators)
    pk = packing(MonomialOrder.elim(1).layout(ctx.arity + 1), fit_bits(1 + top))
    return IdealPresentation(ctx, packed_call(pk, run))


def colon(J: IdealPresentation, g: Polynomial) -> IdealPresentation:
    """The colon ideal (J : g) = { a : a*g in J }.

    Computed as (J intersect (g)) / g; every generator of the
    intersection is divisible by g, so the quotients are exact.
    """
    if g.is_zero():
        raise ZeroDivisionError("colon by the zero polynomial")
    inter = intersect(J, IdealPresentation(J.context, (g,)))
    return IdealPresentation(J.context, tuple(exact_divide(h, g) for h in inter.generators))


def _check_fedder_budget(I: IdealPresentation, total: int) -> None:
    """Raise ValueError when (g_1 * ... * g_r)^(p-1), which lies in the
    Fedder module of I = (g_1, ..., g_r), whose degrees sum to ``total``,
    is too large to build (``fparith.power_too_large``), as for
    (xy + x + 1) at p = 1009; at p = 2 that is the product itself.  Only
    ``fedder_module`` builds the module, and so only it is bounded.  It
    bounds the module's size, not the time of the colons that build it:
    on the 2x2 minors of a generic 2x3 matrix, ``exists_compatible_splitting``
    takes 0.2 s at p = 7, 1.9 s at p = 11 and 5.6 s at p = 13, and p = 17
    is refused (medians of three calls, each in a fresh process, on a
    shared 2-core Intel Xeon, Python 3.11.7)."""
    ctx = I.context
    if power_too_large(prod(len(g.terms) for g in I.generators), ctx.arity, total, ctx.p - 1, ctx.p):
        raise ValueError(
            "Fedder module too large: the product of the generators to the p-1 is over the power budget"
        )


def fedder_module(I: IdealPresentation) -> IdealPresentation:
    """Coefficients of all twisted endomorphisms compatible with I.

    This is the colon ideal (I^[p] : I), the intersection of the colons
    (I^[p] : g) over the generators g.  For I = (g) it is
    (g^[p] : g) = (g^(p-1)), as R is a domain, with no colon computed:
    generated by ``g.pow_p_minus_1()`` scaled as elimination would give
    it, by the inverse of g's grevlex leading coefficient.  The zero
    ideal maps to the zero ideal by convention.  Raises ValueError,
    before anything is built, when the module would be too large
    (``_check_fedder_budget``).
    """
    if I.is_zero_ideal():
        return I
    _check_fedder_budget(I, sum(degree(g.terms) for g in I.generators))
    ctx = I.context
    if len(I.generators) == 1:
        (g,) = I.generators
        p = ctx.p
        inv = pow(g.terms[min(g.terms, key=grevlex_desc_key)], p - 2, p)
        return IdealPresentation(ctx, (g.pow_p_minus_1().scale(inv),))
    Ip = frobenius_power_ideal(I)
    return reduce(intersect, [colon(Ip, g) for g in I.generators])


def is_compatible(
    sigma: TwistedEndo, I: IdealPresentation, method: str = "both"
) -> bool:
    """Does sigma map the ideal I into itself?

    method "fedder" is Fedder's criterion in its plain form: the
    coefficient c lies in (I^[p] : I) iff c * g lies in I^[p] for every
    generator g, so no colon is built (``_fedder_member``).  method
    "finite" checks, for every generator g, that every root h_b of
    c * g = sum_b x^b * h_b^p lies in I (``_finite_member``).  This is
    complete: sigma(I) lies in I iff every trace(x^a * c * g) with a in
    [0, p-1]^n does, since every polynomial is a combination
    sum_a r_a^p x^a, and that trace is h_{(p-1)-a}.  The two decide
    membership in different ideals, from different generators, so "both"
    compares two independent computations: it runs the two and raises if
    they disagree.  Neither builds a Fedder module, so
    ``_check_fedder_budget`` does not apply.
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
        return _fedder_member(sigma.coeff, I)
    if method == "finite":
        return _finite_member(sigma.coeff, I)
    raise ValueError(f"unknown method {method!r}")


def _packed_basis(gens: list[dict[int, int]], p: int, pk: Packing) -> list[Divisor]:
    """A Groebner basis of the ideal of nonzero packed generators, as
    divisors for the membership checks of ``_fedder_member``,
    ``_finite_member`` and ``nilpotent_witness``.  Generators whose
    leading monomials are pairwise coprime (``Packing.coprime``) are one
    already, by Buchberger's first criterion (each S-polynomial reduces
    to zero), and are taken with no run; one generator is, with no test.
    A nonzero constant's lead is coprime to every other, and by it every
    remainder is empty, as for the unit ideal.  Any other set goes
    through ``_buchberger_core``, whose minimal basis is taken as it is,
    not inter-reduced: any Groebner basis decides membership by an empty
    remainder, so inter-reducing it would cost divisions and change no
    verdict."""
    if len(gens) == 1 or pk.coprime(map(min, gens)):
        return [make_divisor(g, p, pk) for g in gens]
    return _buchberger_core(gens, p, pk)[0]


def _fedder_member(c: Polynomial, I: IdealPresentation) -> bool:
    """Does c * g lie in I^[p] for every generator g of the nonzero ideal
    I?  In one ``packed_call`` on grevlex keys: each g packed once, g^p
    as the key map base + p * (key - base), a basis of I^[p] by
    ``_packed_basis``, c * g by ``packed_product``, whose fields the width
    holds, and one membership division of each, stopping at the first
    generator that fails."""
    if c.is_zero():
        return True
    p = I.context.p
    top = max(degree(g.terms) for g in I.generators)

    def run(pk: Packing) -> bool:
        base = pk.base
        gens = [pk.pack_terms(g.terms) for g in I.generators]
        bracket = [{base + p * (key - base): v for key, v in g.items()} for g in gens]
        divisors = _packed_basis(bracket, p, pk)
        packed_c = pk.pack_terms(c.terms)
        return not any(
            divide_terms(packed_product(packed_c, g, base, p), divisors, p, pk, membership=True) for g in gens
        )

    bits = fit_bits(max(degree(c.terms) + top, p * top))
    return packed_call(packing(grevlex_layout(I.context.arity), bits), run)


def _finite_member(c: Polynomial, I: IdealPresentation) -> bool:
    """Does every p-th root h_b of c * g = sum_b x^b * h_b^p lie in the
    nonzero ideal I, for every generator g?  In one ``packed_call`` on
    grevlex keys, with nothing unpacked: each g packed once, a basis of I
    by ``_packed_basis``, c * g by ``packed_product``, whose fields the
    width holds, its roots by ``packed_roots``, and one membership
    division of each root, stopping at the first that fails."""
    if c.is_zero():
        return True
    ctx = I.context
    p = ctx.p

    def run(pk: Packing) -> bool:
        base = pk.base
        gens = [pk.pack_terms(g.terms) for g in I.generators]
        divisors = _packed_basis(gens, p, pk)
        packed_c = pk.pack_terms(c.terms)
        for g in gens:
            for h in packed_roots(packed_product(packed_c, g, base, p), pk, p).values():
                if divide_terms(h, divisors, p, pk, membership=True):
                    return False
        return True

    bits = fit_bits(degree(c.terms) + max(degree(g.terms) for g in I.generators))
    return packed_call(packing(grevlex_layout(ctx.arity), bits), run)


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
    ring; its reduced grevlex basis is returned as the obstruction.

    In one ``packed_call`` on grevlex keys, the module's generators are
    split by ``packed_roots`` and the roots go straight to
    ``_buchberger_core``; only the reduced basis is unpacked.  For
    I = (g) the module (g^(p-1)) is raised on keys by ``packed_power``,
    with no colon and no polynomial built: ``fedder_module`` scales it by
    a unit, which changes neither the ideal its roots generate nor its
    reduced basis.  Raises ValueError, before anything is built, when the
    module would be too large (``_check_fedder_budget``).
    """
    ctx = I.context
    if I.is_zero_ideal():
        # No constraint at all: the standard splitting works, and (1) is
        # its own reduced basis.
        return ExistsSplitVerdict(True, GroebnerBasis(ctx, GREVLEX, (ctx.one(),)))
    p = ctx.p
    if len(I.generators) == 1:
        (g,) = I.generators
        top = degree(g.terms)
        _check_fedder_budget(I, top)

        def module(pk: Packing) -> list[dict[int, int]]:
            return [packed_power(pk.pack_terms(g.terms), p - 1, top, pk, p)]

        bits = fit_bits(p * top)
    else:
        generators = fedder_module(I).generators

        def module(pk: Packing) -> list[dict[int, int]]:
            return [pk.pack_terms(c.terms) for c in generators]

        bits = fit_bits(max(degree(c.terms) for c in generators))

    def run(pk: Packing) -> GroebnerBasis:
        roots = [h for c in module(pk) for h in packed_roots(c, pk, p).values()]
        return _unpack_basis(ctx, GREVLEX, pk, *_buchberger_core(roots, p, pk))

    G = packed_call(packing(grevlex_layout(ctx.arity), bits), run)
    return ExistsSplitVerdict(G.is_unit_ideal(), G)


def nilpotent_witness(g: Polynomial, I: IdealPresentation, bound: int) -> int | None:
    """Smallest k <= bound with g not in I but g^k in I, if any.

    Such a k shows I is not radical, which rules out any compatible
    splitting.  In one ``packed_call`` on grevlex keys: a basis of I by
    ``_packed_basis``, each power one ``packed_product`` by g, whose
    fields the width holds, and one membership division of each.  Raises
    ValueError once the products would take more than
    ``fparith.MAX_TERM_PRODUCTS`` term products in all.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if g.context != I.context:
        raise ContextMismatchError("polynomial and basis from different rings")
    if g.is_zero() or I.is_zero_ideal():
        return None
    p = g.context.p

    def run(pk: Packing) -> int | None:
        divisors = _packed_basis([pk.pack_terms(h.terms) for h in I.generators], p, pk)
        power = packed_g = pk.pack_terms(g.terms)
        if not divide_terms(power, divisors, p, pk, membership=True):
            return None
        products = 0
        for k in range(2, bound + 1):
            products += len(power) * len(packed_g)
            if products > MAX_TERM_PRODUCTS:
                raise ValueError(
                    f"nilpotent bound too large: the element's powers up to exponent {k}"
                    f" take over {MAX_TERM_PRODUCTS} term products"
                )
            power = packed_product(power, packed_g, pk.base, p)
            if not divide_terms(power, divisors, p, pk, membership=True):
                return k
        return None

    # Each product takes a term product at least, so the budget stops the
    # search before g^(MAX_TERM_PRODUCTS + 2), however large the bound.
    top = min(bound, MAX_TERM_PRODUCTS + 1)
    bits = fit_bits(max(top * degree(g.terms), *(degree(h.terms) for h in I.generators)))
    return packed_call(packing(grevlex_layout(g.context.arity), bits), run)
