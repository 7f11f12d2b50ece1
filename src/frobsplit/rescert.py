"""Residue chains: certificates that a section spans a splitting.

A coefficient polynomial divisible by x_i^(p-1) has a residue along the
hyperplane x_i = 0: divide the power out and set x_i to zero.  When
iterated residues through all variables end in a nonzero constant, the
original coefficient's endomorphism spans a splitting; the chain of
intermediate polynomials is the certificate.  The classic source of such
chains is a product of nested principal minors of a generic matrix,
generated here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial, log

from .fparith import (
    Coefficient,
    Monomial,
    NotDivisibleError,
    Polynomial,
    RingContext,
    fit_bits,
    grevlex_layout,
    log_p_minus_1_cost,
    packed_product,
    packing,
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
    over the terms: those with exponent exactly p-1 in x_var survive with
    that exponent set to 0.  Raises NotDivisibleError, whose remainder is
    the terms of exponent below p-1, when x_var^(p-1) does not divide f
    (the endomorphism is not compatible with that hyperplane) and
    VanishingResidueError when the result is zero.
    """
    ctx = f.context
    if not 0 <= var < ctx.arity:
        raise IndexError(f"variable index {var} out of range")
    k = ctx.p - 1
    result: dict[Monomial, int] = {}
    short: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        e = m[var]
        if e < k:
            short[m] = c
        elif e == k:
            result[m[:var] + (0,) + m[var + 1 :]] = c
    if short:
        raise NotDivisibleError("division left a nonzero remainder", Polynomial._raw(ctx, short))
    if not result:
        raise VanishingResidueError(
            f"residue along {ctx.variables[var]} = 0 vanishes"
        )
    return Polynomial._raw(ctx, result)


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
    """Depth-first search for a residue chain, variables tried in index order.

    Returns the first complete chain found, or None.  Only coordinate
    hyperplanes are tried, so sections whose coefficient has no
    coordinate-power factor are missed even when they do span a
    splitting (the nodal cubic is the standard miss).
    """
    ctx = f.context

    def dfs(current: Polynomial, remaining: tuple[int, ...], acc: list) -> bool:
        if not remaining:
            return True
        for var in remaining:
            try:
                nxt = residue_step(current, var)
            except (NotDivisibleError, VanishingResidueError):
                continue
            acc.append((var, nxt))
            if dfs(nxt, tuple(v for v in remaining if v != var), acc):
                return True
            acc.pop()
        return False

    acc: list[tuple[int, Polynomial]] = []
    if not dfs(f, tuple(range(ctx.arity)), acc):
        return None
    terminal = acc[-1][1].constant_value()
    return ResidueChain(initial=f, steps=tuple(acc), terminal=terminal)


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
    product of the entries x_(rows[i], cols[s(i)]), each term written
    directly, with no multiplication.  With distinct rows and columns,
    distinct permutations give distinct monomials; repeated ones cancel."""
    if len(rows) != len(cols) or not rows:
        raise ValueError("need equally many rows and columns")
    p = ctx.p
    terms: dict[Monomial, int] = {}
    for perm in permutations(range(len(cols))):
        exps = [0] * ctx.arity
        for row, s in zip(rows, perm):
            exps[row * n + cols[s]] += 1
        m = tuple(exps)
        terms[m] = terms.get(m, 0) + (-1) ** sum(a > b for a, b in combinations(perm, 2))
    return Polynomial._raw(ctx, {m: r for m, c in terms.items() if (r := c % p)})


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
"""Term products allowed in one multiplication of the nested minors, and
estimated for their product's f^(p-1): a few seconds.  The 5x5 steps take
at most 1.6 million (767,136 at p = 2), the 6x6 ones reach 5.8 million by
the sixth minor.  The 4x4 f^(p-1) at p = 3 is 1379^2 = 1.9 million
products; the 5x5 one at p = 3 is far over."""


def matrix_section_coefficient(ctx: RingContext, n: int) -> Polynomial:
    """Product of the nested principal minors, to the (p-1)-st power.

    The minors are multiplied on packed keys (``fparith.Packing``) at the
    width of their summed degrees, n^2, where no field can overflow, and
    the product is unpacked once.

    Raises ValueError before a multiplication of the product so far by the
    next minor would take more than ``MATRIX_PRODUCT_BUDGET`` term
    products, as for n = 6, counting the k! terms of a k x k minor before
    it is built, and before f^(p-1) when the route
    ``pow_p_minus_1`` picks is estimated to take more, as for n = 5 at
    p = 3.  That estimate (``fparith.log_p_minus_1_cost``) needs only the
    product's term count, its arity and its degree, n^2, since every
    minor is homogeneous, so the product is refused before it is unpacked.
    """
    pk = packing(grevlex_layout(ctx.arity), fit_bits(n * n))
    packed = {pk.base: 1}
    for block in _nested_blocks(ctx, n):
        products = len(packed) * factorial(len(block))
        if products > MATRIX_PRODUCT_BUDGET:
            raise ValueError(
                f"matrix too large: multiplying its nested minors takes {products}"
                f" term products, over {MATRIX_PRODUCT_BUDGET}"
            )
        f = minor(ctx, n, block, block)
        packed = packed_product(packed, pk.pack_terms(f.terms), pk.base, ctx.p)
    if log_p_minus_1_cost(len(packed), ctx.arity, n * n, ctx.p)[0] > log(MATRIX_PRODUCT_BUDGET):
        raise ValueError(
            f"matrix too large: raising the product of its nested minors to the"
            f" p-1 takes over {MATRIX_PRODUCT_BUDGET} estimated term products"
        )
    return Polynomial._raw(ctx, pk.unpack_terms(packed)).pow_p_minus_1()


def render_truncated(f: Polynomial, limit: int = 40) -> str:
    """Canonical rendering, truncated beyond ``limit`` terms with a count."""
    n_terms = len(f.terms)
    if n_terms <= limit:
        return str(f)
    shown = [term_str(f.context, m, c) for m, c in f.sorted_terms(limit)]
    return " + ".join(shown) + f" + ... ({n_terms} terms)"
