"""Residue chains: certificates that a section spans a splitting.

A coefficient polynomial divisible by x_i^(p-1) has a residue along the
hyperplane x_i = 0: divide the power out and set x_i to zero.  When
iterated residues through all variables end in a nonzero constant, the
original coefficient's endomorphism spans a splitting; the chain of
intermediate polynomials is the certificate.  The classic source of such
chains is a product of nested principal minors of a generic matrix,
generated here as well.  That section is refused, before any minor is
built, when a minor's power is too large to build
(``fparith.power_too_large``, the gate of every power), and when the
n! terms of the n x n minor, or the term products of one multiplication,
exceed ``MATRIX_PRODUCT_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from operator import getitem

from .fparith import (
    Coefficient,
    Monomial,
    NotDivisibleError,
    Packing,
    Polynomial,
    RingContext,
    fit_bits,
    grevlex_layout,
    packed_power,
    packed_product,
    packing,
    power_too_large,
    ring,
    term_str,
)


class VanishingResidueError(ArithmeticError):
    """The residue is identically zero (a repeated component in the divisor)."""


@dataclass(frozen=True)
class ResidueChain:
    """Successful chain: the start, each (variable, result) step, and the
    nonzero constant the chain terminates in."""

    initial: Polynomial
    steps: tuple[tuple[int, Polynomial], ...]
    terminal: Coefficient


def residue_step(f: Polynomial, var: int) -> Polynomial:
    """Residue of f along x_var = 0: f / x_var^(p-1) evaluated there.

    Dividing by a monomial is a shift of exponents, so this is one pass
    over the terms (``_residue_terms``): those with exponent exactly p-1
    in x_var survive with that exponent set to 0.  Raises
    NotDivisibleError when x_var^(p-1) does not divide f (the
    endomorphism is not compatible with that hyperplane), with the terms
    of exponent below p-1 as its remainder, gathered only then, and
    VanishingResidueError when the result is zero.
    """
    ctx = f.context
    if not 0 <= var < ctx.arity:
        raise IndexError(f"variable index {var} out of range")
    k = ctx.p - 1
    result = _residue_terms(f.terms, var, k)
    if result is not None:
        return Polynomial._raw(ctx, result)
    short = {m: c for m, c in f.terms.items() if m[var] < k}
    if short:
        raise NotDivisibleError("division left a nonzero remainder", Polynomial._raw(ctx, short))
    raise VanishingResidueError(f"residue along {ctx.variables[var]} = 0 vanishes")


def _residue_terms(terms: dict[Monomial, int], var: int, k: int) -> dict[Monomial, int] | None:
    """The terms of exponent exactly k in x_var, with that exponent set to
    0; None as soon as a term of exponent below k is met, or when none is
    left."""
    result: dict[Monomial, int] = {}
    for m, c in terms.items():
        e = m[var]
        if e < k:
            return None
        if e == k:
            result[m[:var] + (0,) + m[var + 1 :]] = c
    return result or None


def certify_chain(f: Polynomial, order: list[int] | tuple[int, ...]) -> ResidueChain:
    """Run residues through every variable in the given order.

    ``order`` must be a permutation of all variable indices.  Step errors
    propagate.  Each step keeps only exponent p-1 in its variable and sets
    it to 0, so after every variable the result is a nonzero constant:
    the terminal.
    """
    ctx = f.context
    if sorted(order) != list(range(ctx.arity)):
        raise ValueError("order must be a permutation of all variable indices")
    steps = []
    current = f
    for var in order:
        current = residue_step(current, var)
        steps.append((var, current))
    return ResidueChain(initial=f, steps=tuple(steps), terminal=current.constant_value())


def search_chain(f: Polynomial) -> ResidueChain | None:
    """The residue chain that steps, at each level, through the first
    variable in index order whose residue step succeeds, or None.

    No step needs to be undone.  The residue after a set of variables does
    not depend on their order, and removing variables only removes terms,
    so a step that succeeds stays possible after any further steps.  The
    term (x_1 ... x_n)^(p-1) survives every step, and every chain ends in
    its coefficient, so when a chain exists no step vanishes.  So this is
    the first chain a depth-first search over orders in index order finds,
    and when that search would backtrack no chain exists.  Each try is one
    pass of ``_residue_terms``, and a failing one stops at its first term
    of exponent below p-1, with no exception and no remainder built.
    Only coordinate hyperplanes are tried, so sections whose coefficient
    has no coordinate-power factor are missed even when they do span a
    splitting (the nodal cubic is the standard miss).
    """
    ctx = f.context
    k = ctx.p - 1
    remaining = list(range(ctx.arity))
    steps: list[tuple[int, Polynomial]] = []
    current = f
    while remaining:
        for var in remaining:
            terms = _residue_terms(current.terms, var, k)
            if terms is not None:
                break
        else:
            return None
        current = Polynomial._raw(ctx, terms)
        steps.append((var, current))
        remaining.remove(var)
    return ResidueChain(initial=f, steps=tuple(steps), terminal=current.constant_value())


def origin_coefficient(f: Polynomial) -> Coefficient:
    """Coefficient of (x_1 ... x_n)^(p-1) in f: the value of the trace of
    f at the origin."""
    p = f.context.p
    return f.coefficient((p - 1,) * f.context.arity)


def matrix_context(n: int, p: int) -> RingContext:
    """Ring in the n^2 entries of a generic matrix, variables x11..xnn.

    Raises ValueError, before any name is made, when the n x n minor
    alone has more than ``MATRIX_PRODUCT_BUDGET`` terms (n! of them, so
    for every n from 10 up): the nested-minor section is out of reach,
    and from n = 11 on the names would collide (x1,11 and x11,1).
    """
    if n < 1:
        raise ValueError("matrix size must be positive")
    terms = 1
    for k in range(2, n + 1):
        terms *= k
        if terms > MATRIX_PRODUCT_BUDGET:
            raise ValueError(
                f"matrix too large: its {n}x{n} minor alone has {n}! terms,"
                f" over {MATRIX_PRODUCT_BUDGET}"
            )
    names = [f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return ring(p, names)


def minor(ctx: RingContext, n: int, rows: list[int], cols: list[int]) -> Polynomial:
    """Determinant of the submatrix on ``rows`` and ``cols``, by the
    Leibniz formula: the sum over permutations s of sign(s) times the
    product of the entries x_(rows[i], cols[s(i)]).  The terms are written
    on packed keys by ``_packed_minor`` and unpacked once.  With distinct
    rows and columns, distinct permutations give distinct monomials;
    repeated ones cancel."""
    if len(rows) != len(cols) or not rows:
        raise ValueError("need equally many rows and columns")
    pk = packing(grevlex_layout(ctx.arity), fit_bits(len(rows)))
    return Polynomial._raw(ctx, pk.unpack_terms(_packed_minor(pk, n, rows, cols, ctx.p)))


def _packed_minor(pk: Packing, n: int, rows: list[int], cols: list[int], p: int) -> dict[int, int]:
    """The Leibniz sum of ``minor`` on packed keys, whose width must hold
    degree len(rows): a key is affine in the exponents, so each term's key
    is ``base`` plus the weights of its entries, one per row, and no
    monomial is built."""
    weights = pk.weights
    entries = [[weights[row * n + col] for col in cols] for row in rows]
    terms: dict[int, int] = {}
    for perm, sign in _signed_permutations(len(cols)):
        key = sum(map(getitem, entries, perm), pk.base)
        terms[key] = terms.get(key, 0) + sign
    return {key: r for key, c in terms.items() if (r := c % p)}


@lru_cache(maxsize=None)
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(k), in lexicographic order, with its
    sign: -1 for an odd number of inversions, else 1."""
    return tuple(
        (perm, -1 if sum(a > b for a, b in combinations(perm, 2)) % 2 else 1)
        for perm in permutations(range(k))
    )


def _nested_blocks(ctx: RingContext, n: int) -> list[list[int]]:
    """Rows, and columns, of the nested principal minors of a generic
    n x n matrix: the leading ones of sizes 1..n, then the trailing ones
    of sizes n-1..1."""
    if n < 1:
        raise ValueError("matrix size must be positive")
    if ctx.arity != n * n:
        raise ValueError(f"context must have {n * n} variables")
    return [list(range(k + 1)) for k in range(n)] + [list(range(k, n)) for k in range(1, n)]


def matrix_factors(ctx: RingContext, n: int) -> list[Polynomial]:
    """Nested principal minors of a generic n x n matrix.

    Returns 2n-1 polynomials: the leading principal minors of sizes
    1..n followed by the trailing principal minors of sizes n-1..1.
    Their product, raised to the p-1, is the classic example of a
    section certified by a residue chain.
    """
    return [minor(ctx, n, block, block) for block in _nested_blocks(ctx, n)]


MATRIX_PRODUCT_BUDGET = 3 * 10**6
"""Terms allowed in the n x n minor, n! of them, and term products allowed
in one multiplication of the powers of the nested minors: a few seconds.
Each minor's power is bounded apart, by ``fparith.power_too_large``.  At
p = 2 each power is the minor itself.  Measured in process on 2 cores,
Python 3.11:

- p = 2: the 5x5 steps take at most 767,136 (the section in 2.9 s); the
  6x6 ones reach 5.8 million by the sixth minor.
- p = 3: the 4x4 steps take at most 92,442 (0.2 s); the 5x5 section is
  refused at a step of 20.5 million.
- p = 5: the 4x4 section is refused at 22.4 million, after a step of
  2.4 million (1.2 s).
- The 3x3 section fits up to p = 23 (1.75 million, 3 s).  From p = 29
  up, the 3x3 minor's power is bounded at more than
  ``fparith.MAX_POWER_TERMS`` terms and refused at once.
"""


def matrix_section_coefficient(ctx: RingContext, n: int) -> Polynomial:
    """The section of the nested principal minors m_i of a generic n x n
    matrix: (m_1 ... m_(2n-1))^(p-1), computed as the product of the
    m_i^(p-1), so that each minor is raised while it is small.

    Every minor is written straight to packed keys (``_packed_minor``),
    at the width of the section's degree (p-1)n^2, which holds every
    field of the section and, for n >= 2, of each minor's power
    (``fparith.packed_power`` says what a power needs), and is raised to
    the p-1 there by ``packed_power`` (at p = 2 the minor itself).  The
    powers are multiplied in order, except that the one-term powers of the
    two 1x1 minors come first, where each is a shift of one key.  The
    section is unpacked once.

    Raises ValueError before any minor is built when one minor's f^(p-1),
    from its k! terms of degree k, is too large to build
    (``fparith.power_too_large``), and, once a minor's power is built,
    before a multiplication of the product so far by it would take more
    than ``MATRIX_PRODUCT_BUDGET`` term products.
    """
    p = ctx.p
    blocks = sorted(_nested_blocks(ctx, n), key=lambda block: len(block) > 1)
    for k in range(2, n + 1):
        if p > 2 and power_too_large(factorial(k), ctx.arity, k, p - 1, p):
            raise ValueError(
                f"matrix too large: raising its {k}x{k} minor to the p-1 is over the power budget"
            )
    pk = packing(grevlex_layout(ctx.arity), fit_bits((p - 1) * n * n))
    packed = {pk.base: 1}
    for block in blocks:
        power = packed_power(_packed_minor(pk, n, block, block, p), p - 1, len(block), pk, p)
        products = len(packed) * len(power)
        if products > MATRIX_PRODUCT_BUDGET:
            raise ValueError(
                f"matrix too large: multiplying the powers of its nested minors takes"
                f" {products} term products, over {MATRIX_PRODUCT_BUDGET}"
            )
        packed = packed_product(packed, power, pk.base, p)
    return Polynomial._raw(ctx, pk.unpack_terms(packed))


def render_truncated(f: Polynomial, limit: int = 40) -> str:
    """Canonical rendering, truncated beyond ``limit`` terms with a count."""
    n_terms = len(f.terms)
    if n_terms <= limit:
        return str(f)
    shown = [term_str(f.context, m, c) for m, c in f.sorted_terms(limit)]
    return " + ".join(shown) + f" + ... ({n_terms} terms)"
