"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import permutations

from hypothesis import strategies as st

from frobsplit import (
    IdealPresentation,
    MonomialOrder,
    NotDivisibleError,
    Polynomial,
    ResidueChain,
    RingContext,
    VanishingResidueError,
    buchberger,
    certify_chain,
    embed,
    ring,
)


def rand_poly(
    rng: random.Random,
    ctx: RingContext,
    max_deg: int = 3,
    max_terms: int = 4,
    nonzero: bool = False,
) -> Polynomial:
    """Random polynomial with bounded degree and term count."""
    p = ctx.p
    n = ctx.arity
    terms = {}
    for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
        exps = [0] * n
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.randrange(1, p)
    poly = Polynomial(ctx, terms)
    if nonzero and poly.is_zero():
        return ctx.one()
    return poly


def grevlex_key(m: tuple) -> tuple:
    """Reference sort key of grevlex order, ascending: the degree, then
    the exponents from the last variable to the first, negated."""
    return (sum(m), tuple(-e for e in reversed(m)))


def order_key(order: MonomialOrder):
    """Reference sort key of a ``MonomialOrder``, ascending, written
    apart from its packed layout so that Buchberger output can be checked
    against it."""
    if order.kind == "lex":
        return lambda m: m
    if order.kind == "grevlex":
        return grevlex_key
    k = order.block
    return lambda m: (grevlex_key(m[:k]), grevlex_key(m[k:]))


def leading(f: Polynomial, order: MonomialOrder) -> tuple[tuple, int]:
    """Leading monomial of f under ``order`` and its coefficient."""
    m = max(f.terms, key=order_key(order))
    return m, f.terms[m]


def tagged_intersect(A: IdealPresentation, B: IdealPresentation) -> IdealPresentation:
    """Reference ideal intersection through an auxiliary ring: A cap B is
    the elimination ideal of t*A + (1-t)*B, with a tag t named apart from
    every variable and ordered before them (``MonomialOrder.elim(1)``)."""
    ctx = A.context
    if A.is_zero_ideal() or B.is_zero_ideal():
        return IdealPresentation(ctx, ())
    tag, k = "_t", 0
    while tag in ctx.variables:
        k += 1
        tag = f"_t{k}"
    ext = RingContext(ctx.prime, (tag,) + ctx.variables)
    shift = list(range(1, ext.arity))
    t = ext.variable(0)
    gens = [t * embed(g, ext, shift) for g in A.generators]
    gens += [(ext.one() - t) * embed(g, ext, shift) for g in B.generators]
    G = buchberger(IdealPresentation(ext, gens), MonomialOrder.elim(1))
    kept = [g for g in G.basis if all(m[0] == 0 for m in g.terms)]
    return IdealPresentation(ctx, [Polynomial(ctx, {m[1:]: c for m, c in g.terms.items()}) for g in kept])


def nilpotent_reference(g: Polynomial, I: IdealPresentation, bound: int) -> int | None:
    """Reference ``nilpotent_witness`` on public API only: the reduced
    basis of I by ``buchberger``, and ``GroebnerBasis.contains`` of g and
    then of each power g^k, k <= bound, built by multiplying by g."""
    if bound < 2:
        raise ValueError("bound must be at least 2")
    G = buchberger(I)
    if G.contains(g):
        return None
    power = g
    for k in range(2, bound + 1):
        power = power * g
        if G.contains(power):
            return k
    return None


def monomial_divides(a: tuple, b: tuple) -> bool:
    """True when x^a divides x^b: every exponent of a is at most b's."""
    return all(ea <= eb for ea, eb in zip(a, b))


def schoolbook_mul(a: dict, b: dict, p: int) -> dict:
    """Independent dict-based product over the integers, reduced at the end."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c % p for m, c in out.items() if c % p}


def exhaustive_chain(f: Polynomial) -> ResidueChain | None:
    """The residue chain of the first order of the variables, in
    lexicographic order of the permutations, that ``certify_chain``
    completes, or None: a search over every order, with no shortcut."""
    for order in permutations(range(f.context.arity)):
        try:
            return certify_chain(f, order)
        except (NotDivisibleError, VanishingResidueError):
            continue
    return None


def semigroup_table(gens, limit: int) -> list[bool]:
    """Membership of 0..limit in the numerical semigroup generated by
    ``gens``, by dynamic programming: i > 0 is a member when i - g is, for
    some generator g."""
    table = [True] + [False] * limit
    for i in range(1, limit + 1):
        table[i] = any(i >= g and table[i - g] for g in gens)
    return table


contexts = st.builds(
    lambda p, n: ring(p, [f"x{i}" for i in range(n)]),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 3),
)
"""Small rings F_p[x0..x{n-1}] for property tests."""

wide_contexts = st.builds(
    lambda p, n: ring(p, [f"x{i}" for i in range(n)]),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 12),
).filter(lambda ctx: ctx.p**ctx.arity <= 4096)
"""Rings with up to p^n = 4096 exponent vectors in [0, p-1]^n."""


@st.composite
def polys(draw, ctx: RingContext, max_exp: int = 3, max_terms: int = 5, nonzero: bool = False):
    """Polynomials in ``ctx`` with every exponent at most ``max_exp``."""
    exps = st.tuples(*[st.integers(0, max_exp)] * ctx.arity)
    terms = draw(
        st.dictionaries(
            exps, st.integers(1, ctx.p - 1), min_size=1 if nonzero else 0, max_size=max_terms
        )
    )
    return Polynomial(ctx, terms)


@st.composite
def ideals(draw, ctx: RingContext, max_gens: int = 2, max_exp: int = 2, max_terms: int = 3):
    """Nonzero ideals of ``ctx`` given by 1 to ``max_gens`` generators."""
    gens = draw(
        st.lists(polys(ctx, max_exp, max_terms, nonzero=True), min_size=1, max_size=max_gens)
    )
    return IdealPresentation(ctx, gens)
