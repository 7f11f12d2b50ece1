"""Independent polynomial arithmetic used to check the program's outputs.

Polynomials are plain dicts {exponent tuple: residue in [1, p)}.  Nothing
here imports frobsplit: products are schoolbook, powers are
square-and-multiply, division is by lex leading terms with a heap, and
determinants come from the Leibniz formula, so a wrong answer from the
program cannot be reproduced by a shared bug.
"""

from __future__ import annotations

import heapq
import itertools


def mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c % p for m, c in out.items() if c % p}


def add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def scale(a: dict, c: int, p: int) -> dict:
    return {m: v * c % p for m, v in a.items() if v * c % p}


def power(a: dict, k: int, p: int, arity: int) -> dict:
    """a^k by square-and-multiply."""
    result = {(0,) * arity: 1}
    base = a
    while k:
        if k & 1:
            result = mul(result, base, p)
        k >>= 1
        if k:
            base = mul(base, base, p)
    return result


def frobenius(a: dict, p: int) -> dict:
    return {tuple(e * p for e in m): c for m, c in a.items()}


def trace(a: dict, p: int) -> dict:
    """Keep the terms whose exponents are all p-1 mod p, then take p-th roots."""
    return {
        tuple((e - (p - 1)) // p for e in m): c
        for m, c in a.items()
        if all(e % p == p - 1 for e in m)
    }


def divides(b: dict, a: dict, p: int) -> bool:
    """Does b divide a?  Division by b's lex-leading term; a leading term of
    the running remainder that b's lead does not divide settles it."""
    if not a:
        return True
    lead_b = max(b)
    inv = pow(b[lead_b], p - 2, p)
    work = dict(a)
    heap = [tuple(-e for e in m) for m in work]
    heapq.heapify(heap)
    while heap:
        m = tuple(-e for e in heapq.heappop(heap))
        c = work.pop(m, 0)
        if not c:
            continue
        if any(x < y for x, y in zip(m, lead_b)):
            return False
        shift = tuple(x - y for x, y in zip(m, lead_b))
        factor = c * inv % p
        for mb, cb in b.items():
            t = tuple(x + y for x, y in zip(mb, shift))
            if t == m:
                continue
            v = (work.get(t, 0) - factor * cb) % p
            if v:
                if t not in work:
                    heapq.heappush(heap, tuple(-e for e in t))
                work[t] = v
            else:
                work.pop(t, None)
    return True


def residue(f: dict, var: int, k: int) -> dict | None:
    """f / x_var^k with x_var then set to 0; None when x_var^k does not divide f."""
    if any(m[var] < k for m in f):
        return None
    return {
        m[:var] + (0,) + m[var + 1 :]: c for m, c in f.items() if m[var] == k
    }


def monic(f: dict, lead, p: int) -> dict:
    inv = pow(f[lead], p - 2, p)
    return {m: c * inv % p for m, c in f.items()}


def grevlex_key(m: tuple) -> tuple:
    """Graded reverse lexicographic order: degree first, then the smaller
    exponent in the last differing variable wins."""
    return (sum(m), tuple(-e for e in reversed(m)))


def render(f: dict, names) -> str:
    """The package's documented canonical text: terms by descending grevlex,
    coefficient 1 omitted, ``*`` between factors, ``^`` for powers."""
    if not f:
        return "0"
    terms = []
    for m in sorted(f, key=grevlex_key, reverse=True):
        c = f[m]
        factors = [str(c)] if c != 1 or not any(m) else []
        for name, e in zip(names, m):
            if e:
                factors.append(name if e == 1 else f"{name}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def determinant(entry, rows, cols, arity: int, p: int) -> dict:
    """Leibniz expansion; ``entry(i, j)`` is the variable index of M[i][j]."""
    out: dict = {}
    for perm in itertools.permutations(range(len(cols))):
        exps = [0] * arity
        for r, c in zip(rows, perm):
            exps[entry(r, cols[c])] += 1
        m = tuple(exps)
        out[m] = out.get(m, 0) + _perm_sign(perm)
    return {m: c % p for m, c in out.items() if c % p}


def nested_minor_product(n: int, p: int, entry) -> dict:
    """Product of the leading principal minors of sizes 1..n and the trailing
    ones of sizes n-1..1 of the matrix whose (i, j) entry is variable
    ``entry(i, j)``."""
    arity = n * n
    blocks = [list(range(k + 1)) for k in range(n)]
    blocks += [list(range(k, n)) for k in range(1, n)]
    product = {(0,) * arity: 1}
    for idx in blocks:
        product = mul(product, determinant(entry, idx, idx, arity, p), p)
    return product
