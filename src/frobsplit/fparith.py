"""Sparse multivariate polynomial arithmetic over a prime field F_p.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
integer residues in [1, p).  The representation is canonical: no zero
coefficients are ever stored, and term iteration for printing follows a
fixed graded reverse lexicographic order, so ``str`` output is stable and
reparseable.

Beyond ring arithmetic this module provides the characteristic-p
primitives everything else builds on: the Frobenius power f -> f^p
(computed by exponent scaling, never by expansion), powers f^k
(``packed_power``) and the gate that refuses one too large to build
(``power_too_large``), the p-th-root decomposition f = sum_b x^b * h_b^p
(``packed_roots``), and the division engine (``divide_terms``) that both
exact division here and Groebner reduction in ``idealtheory`` run on.
These work on packed monomial keys (``Packing``, ``packed_call``).
``Polynomial.__mul__`` stays on exponent tuples: a single product would
pay for packing and unpacking both operands.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush, nsmallest
from math import exp, inf, log, log1p
from operator import add, itemgetter, mul
from struct import Struct
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from ._value import Value

Monomial = tuple[int, ...]
"""Exponent vector; entry i is the exponent of the context's i-th variable."""

T = TypeVar("T")


class ContextMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class NotDivisibleError(ArithmeticError):
    """Exact division failed; ``remainder`` holds the nonzero remainder."""

    def __init__(self, message: str, remainder: "Polynomial"):
        super().__init__(message)
        self.remainder = remainder


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
"""Miller-Rabin to the bases above is exact below this bound (Sorenson and
Webster, Math. Comp. 86, 2017)."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; valid for every n below ``_MR_BOUND``."""
    if n >= _MR_BOUND:
        raise ValueError(f"{n} is too large to certify as prime")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(Value):
    """A prime number, validated by deterministic Miller-Rabin at
    construction; values of 3.3e24 and above are refused."""

    value: int

    def __post_init__(self) -> None:
        if not _is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value


class Coefficient(Value):
    """An element of F_p, stored as the canonical residue in [0, p)."""

    residue: int
    prime: Prime

    def __post_init__(self) -> None:
        object.__setattr__(self, "residue", self.residue % self.prime.value)

    def _check(self, other: "Coefficient") -> None:
        if self.prime != other.prime:
            raise ContextMismatchError("coefficients from different prime fields")

    def __add__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return Coefficient(self.residue + other.residue, self.prime)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return Coefficient(self.residue - other.residue, self.prime)

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return Coefficient(self.residue * other.residue, self.prime)

    def __neg__(self) -> "Coefficient":
        return Coefficient(-self.residue, self.prime)

    def inverse(self) -> "Coefficient":
        if self.residue == 0:
            raise ZeroDivisionError("zero has no inverse in F_p")
        p = self.prime.value
        return Coefficient(pow(self.residue, p - 2, p), self.prime)

    def __truediv__(self, other: "Coefficient") -> "Coefficient":
        self._check(other)
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return str(self.residue)


class RingContext(Value):
    """The polynomial ring F_p[x_1, ..., x_n]: a prime and named variables."""

    prime: Prime
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.prime, int):
            object.__setattr__(self, "prime", Prime(self.prime))
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a ring context needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for name in self.variables:
            if not _is_variable_name(name):
                raise ValueError(
                    f"invalid variable name {name!r}: use a letter or '_' then letters,"
                    " digits or '_', and not 'p', which stands for the prime"
                )

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def p(self) -> int:
        return self.prime.value

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.arity: c})

    def variable(self, which: int | str) -> "Polynomial":
        i = which if isinstance(which, int) else self.index(which)
        if not 0 <= i < self.arity:
            raise IndexError(f"variable index {i} out of range")
        exps = [0] * self.arity
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def monomial(self, exponents: Sequence[int], coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coeff})

    def coefficient(self, residue: int) -> Coefficient:
        return Coefficient(residue, self.prime)


def _is_variable_name(name: object) -> bool:
    """True when the parser reads ``name`` as one variable: a NAME token of
    ``expr._tokenize`` (a letter or ``_``, then letters, digits or ``_``)
    other than ``p``, which stands for the prime."""
    return (
        isinstance(name, str)
        and name != "p"
        and (name[:1].isalpha() or name[:1] == "_")
        and name.replace("_", "a").isalnum()
    )


def ring(p: int, names: str | Sequence[str]) -> RingContext:
    """Convenience constructor: ``ring(3, "x y")`` or ``ring(3, ["x", "y"])``."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return RingContext(Prime(p), tuple(names))


def grevlex_desc_key(m: Monomial) -> tuple:
    """Flat key whose ascending order is descending grevlex order: the
    negated degree, then the exponents from the last variable to the
    first.  It is injective, and its least value is the largest monomial.
    The packed keys of ``grevlex_layout`` order monomials the same way,
    but sorting by this tuple is cheaper than packing for printing.
    """
    return (-sum(m),) + m[::-1]


class Polynomial:
    """Immutable sparse polynomial over F_p.

    ``terms`` maps exponent tuples to residues in [1, p); treat it as
    read-only.  All arithmetic returns new objects in canonical form.
    """

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context: RingContext, terms: Mapping[Monomial, int]):
        p = context.p
        n = context.arity
        clean: dict[Monomial, int] = {}
        for m, c in terms.items():
            if len(m) != n:
                raise ValueError(f"exponent tuple {m} has wrong arity for {context.variables}")
            if m and min(m) < 0:
                raise ValueError(f"negative exponent in {m}")
            c %= p
            if c:
                clean[tuple(m)] = c
        self.context = context
        self.terms = clean
        self._hash: int | None = None

    @classmethod
    def _raw(cls, context: RingContext, terms: dict[Monomial, int]) -> "Polynomial":
        # Internal fast path: caller guarantees canonical terms.
        poly = object.__new__(cls)
        poly.context = context
        poly.terms = terms
        poly._hash = None
        return poly

    # -- predicates and queries ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(map(any, self.terms))

    def constant_value(self) -> Coefficient:
        """The value as an element of F_p; raises if not constant."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        c = self.terms.get((0,) * self.context.arity, 0)
        return Coefficient(c, self.context.prime)

    def coefficient(self, m: Monomial) -> Coefficient:
        return Coefficient(self.terms.get(tuple(m), 0), self.context.prime)

    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial reports -1."""
        return degree(self.terms) if self.terms else -1

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed.

        The zero polynomial is homogeneous of every degree and reports 0;
        check ``is_zero`` first if the distinction matters.
        """
        degrees = set(map(sum, self.terms))
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def sorted_terms(self, limit: int | None = None) -> list[tuple[Monomial, int]]:
        """Terms in descending grevlex order (the canonical print order);
        with ``limit``, only the first ``limit`` of them, without sorting
        the rest."""
        terms = self.terms
        if limit is None:
            ms = sorted(terms, key=grevlex_desc_key)
        else:
            ms = nsmallest(limit, terms, key=grevlex_desc_key)
        return [(m, terms[m]) for m in ms]

    # -- ring operations --------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.context != other.context:
            raise ContextMismatchError(
                f"operands live in different rings: {self.context.variables} vs {other.context.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p = self.context.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = (out.get(m, 0) + c) % p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._raw(self.context, out)

    def __neg__(self) -> "Polynomial":
        p = self.context.p
        return Polynomial._raw(self.context, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p = self.context.p
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # A term times f shifts f's exponents: no two products meet.
            ((m, c),) = a.items()
            out = {tuple(map(add, m, mb)): c * cb % p for mb, cb in b.items()}
            return Polynomial._raw(self.context, out)
        out: dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(map(add, ma, mb))
                s = (out.get(m, 0) + ca * cb) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._raw(self.context, out)

    def scale(self, c: int | Coefficient) -> "Polynomial":
        """Multiply by a scalar from F_p."""
        if isinstance(c, Coefficient):
            c = c.residue
        p = self.context.p
        c %= p
        if c == 0:
            return self.context.zero()
        return Polynomial._raw(self.context, {m: (a * c) % p for m, a in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        """f^k by ``packed_power``: f packed once at the width it asks for,
        and the result unpacked once.  A one-term f is raised directly."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return self.context.one()
        if k == 1 or not self.terms:
            return self
        p, n = self.context.p, self.context.arity
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return Polynomial._raw(self.context, {tuple(e * k for e in m): pow(c, k, p)})
        d = degree(self.terms)
        pk = packing(grevlex_layout(n), fit_bits((p if k == p - 1 else k) * d))
        power = packed_power(pk.pack_terms(self.terms), k, d, pk, p)
        return Polynomial._raw(self.context, pk.unpack_terms(power))

    def derivative(self, var: int) -> "Polynomial":
        """The partial derivative in the variable of index ``var``, mod p.

        Lowering one exponent maps distinct monomials to distinct ones,
        so this is one pass over the terms with nothing to accumulate.
        """
        p = self.context.p
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e % p:
                out[m[:var] + (e - 1,) + m[var + 1 :]] = c * e % p
        return Polynomial._raw(self.context, out)

    def frobenius(self) -> "Polynomial":
        """f^p, computed by scaling every exponent vector by p.

        Coefficients lie in the prime field and are fixed by the Frobenius,
        so no expansion is needed; the result agrees with repeated
        multiplication on every input.
        """
        p = self.context.p
        return Polynomial._raw(self.context, {tuple(e * p for e in m): c for m, c in self.terms.items()})

    def pow_p_minus_1(self) -> "Polynomial":
        """f^(p-1), as ``f ** (p-1)``, by the route ``packed_power`` takes.
        Raises ZeroDivisionError for f = 0."""
        if not self.terms:
            raise ZeroDivisionError("f^(p-1) is undefined for f = 0")
        return self ** (self.context.p - 1)

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.context, frozenset(self.terms.items())))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(term_str(self.context, m, c) for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def term_str(context: RingContext, m: Monomial, c: int) -> str:
    """Canonical rendering of one term, e.g. ``2*x^5`` or ``x^3*y^2``."""
    factors = []
    if c != 1 or not any(m):
        factors.append(str(c))
    for name, e in zip(context.variables, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


Layout = tuple[tuple[bool, tuple[int, ...]], ...]
"""The fields of a packed monomial order, most significant first: each is
(negated, variable indices) and holds the sum of those exponents, negated
when asked.  Comparing the fields lexicographically, smallest first, must
list monomials from the largest down."""


@lru_cache(maxsize=None)
def grevlex_layout(arity: int) -> Layout:
    """Fields of ``grevlex_desc_key``: -deg, then x_n, ..., x_1."""
    return ((True, tuple(range(arity))),) + tuple((False, (i,)) for i in reversed(range(arity)))


class PackingOverflow(ArithmeticError):
    """A packed exponent field overflowed; ``packed_call`` retries wider."""


class Packing:
    """Monomials of one order and arity packed into ints, ``bits`` per field.

    The order's fields (``Layout``) sit side by side in one int, each
    holding its exponent sum s, or D - s when negated, where
    D = 2^bits - 1, with a guard bit above it that every in-range key
    leaves clear (Monagan and Pearce, CASC 2007; J. Symb. Comp. 46, 2011).
    The key is affine in the exponent vector,
    ``key(m) = base + sum(m_i * weights[i])``, so ascending ints are
    descending monomials, key(m*s) = key(m) + key(s) - base, and the sum
    of two in-range keys minus ``base`` sets a guard bit exactly when a
    field of the product leaves [0, D].  A computation that sees a guard
    bit set raises ``PackingOverflow``, and ``packed_call`` reruns it at
    the next width, so no field ever wraps.  ``key ^ base`` is the
    positive form, every field a plain exponent sum, in which x^a divides
    x^b iff ((pos(b) | guards) - pos(a)) & guards == guards (no field
    borrows).

    At the widths ``fit_bits`` picks, 7, 15, 31 or 63 bits, a field and
    its guard bit fill 1, 2, 4 or 8 bytes, so the positive form's
    little-endian bytes are the fields themselves.  When the variables'
    fields also come out in variable order, as grevlex's do, one
    ``struct`` unpack reads a key's exponents at once.  Other keys are
    read one shift and mask at a time.
    """

    __slots__ = (
        "layout", "bits", "mask", "weights", "base", "guards", "shifts",
        "_nbytes", "_struct", "_fields", "_carries",
    )

    def __init__(self, layout: Layout, bits: int):
        width = bits + 1
        arity = 1 + max(i for _, indices in layout for i in indices)
        self.layout = layout
        self.bits = bits
        self.mask = mask = (1 << bits) - 1
        weights = [0] * arity
        shifts: list[int | None] = [None] * arity
        base = guards = 0
        for f, (negated, indices) in enumerate(reversed(layout)):
            pos = f * width
            guards |= 1 << (pos + bits)
            if negated:
                base |= mask << pos
            for i in indices:
                weights[i] += -(1 << pos) if negated else 1 << pos
            if len(indices) == 1 and shifts[indices[0]] is None:
                shifts[indices[0]] = pos
        self.weights = tuple(weights)
        self.base = base
        self.guards = guards
        self.shifts = tuple(shifts)
        # Each variable's own field filled with ones, and its guard bit.
        self._fields = sum(mask << pos for pos in shifts)
        self._carries = sum(1 << (pos + bits) for pos in shifts)
        self._nbytes = len(layout) * width // 8
        self._struct = None
        code = {8: "B", 16: "H", 32: "I", 64: "Q"}.get(width)
        if code and shifts == sorted(shifts):
            # The fields least significant first, a variable's as an
            # integer and the others as pad bytes.
            fields = [f"{width // 8}x"] * len(layout)
            for pos in shifts:
                fields[pos // width] = code
            self._struct = Struct("<" + "".join(fields))

    def wider(self) -> "Packing":
        return packing(self.layout, 2 * self.bits + 1)

    def pack(self, m: Monomial) -> int:
        """The key of m; m must fit (``fit_bits``)."""
        return sum(map(mul, m, self.weights), self.base)

    def unpack(self, key: int) -> Monomial:
        if self._struct is None:
            pos, mask = key ^ self.base, self.mask
            return tuple([(pos >> s) & mask for s in self.shifts])
        return self._struct.unpack((key ^ self.base).to_bytes(self._nbytes, "little"))

    def coprime(self, keys: Iterable[int]) -> bool:
        """Are the monomials of ``keys`` pairwise coprime?  Each one's
        support, a bit for each variable's field of the positive form that
        is nonzero (adding D to it carries into its guard bit exactly
        then), must share no bit with the supports before it."""
        fields, carries, base = self._fields, self._carries, self.base
        seen = 0
        for key in keys:
            support = (((key ^ base) & fields) + fields) & carries
            if seen & support:
                return False
            seen |= support
        return True

    def pack_terms(self, terms: Mapping[Monomial, int]) -> dict[int, int]:
        weights, base = self.weights, self.base
        return {sum(map(mul, m, weights), base): c for m, c in terms.items()}

    def unpack_terms(self, terms: Mapping[int, int]) -> dict[Monomial, int]:
        if self._struct is None:
            unpack = self.unpack
            return {unpack(k): c for k, c in terms.items()}
        # ``unpack`` written out: this runs once per term of every result.
        unpack, base, size = self._struct.unpack, self.base, self._nbytes
        return {unpack((k ^ base).to_bytes(size, "little")): c for k, c in terms.items()}


@lru_cache(maxsize=None)
def packing(layout: Layout, bits: int) -> Packing:
    return Packing(layout, bits)


_START_BITS = 7


def fit_bits(degree: int) -> int:
    """The narrowest field width of 7, 15, 31, 63, ... bits, each twice the
    last plus one (``Packing.wider``), that holds every exponent sum of a
    monomial of total degree ``degree``."""
    bits = _START_BITS
    while degree >> bits:
        bits = 2 * bits + 1
    return bits


def packed_call(pk: Packing, run: Callable[[Packing], T]) -> T:
    """``run`` on ``pk``, rerun at the next width (``Packing.wider``) each
    time a field overflows."""
    while True:
        try:
            return run(pk)
        except PackingOverflow:
            pk = pk.wider()


def packed_product(a: Mapping[int, int], b: Mapping[int, int], base: int, p: int) -> dict[int, int]:
    """The product of two packed polynomials, whose width must hold every
    field of the product.  Coefficients are summed unreduced and reduced
    mod p once per output key.  The outer loop runs over the shorter
    operand, and a one-term operand only shifts the other's keys."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        shift = ka - base
        return {kb + shift: r for kb, cb in b.items() if (r := ca * cb % p)}
    out: dict[int, int] = {}
    get = out.get
    terms = tuple(b.items())
    for ka, ca in a.items():
        shift = ka - base
        for kb, cb in terms:
            key = kb + shift
            out[key] = get(key, 0) + ca * cb
    return {key: r for key, c in out.items() if (r := c % p)}


def _packed_square(a: Mapping[int, int], base: int, p: int) -> dict[int, int]:
    """``packed_product(a, a, base, p)`` in T(T+1)/2 term products for T
    terms, not T^2: each square term once and each cross term once,
    doubled."""
    out: dict[int, int] = {}
    get = out.get
    terms = tuple(a.items())
    for i, (ka, ca) in enumerate(terms):
        shift = ka - base
        key = ka + shift
        out[key] = get(key, 0) + ca * ca
        twice = 2 * ca
        for kb, cb in terms[i + 1 :]:
            key = kb + shift
            out[key] = get(key, 0) + twice * cb
    return {key: r for key, c in out.items() if (r := c % p)}


def packed_power(a: Mapping[int, int], k: int, degree: int, pk: Packing, p: int) -> Mapping[int, int]:
    """a^k for k >= 1 on packed keys, for nonzero a of total degree
    ``degree``.  The Frobenius is a ring map, so a^k = prod_i
    (a^(d_i))^[p^i] for the base-p digits d_i of k, and each ^[p^i] is the
    key map base + p^i * (key - base): each digit's power
    (``_digit_power``) is moved to its place and multiplied in, lowest
    first.  A digit d is raised by square-and-multiply, each squaring by
    ``_packed_square``, except that the digit p-1 is taken by dividing the
    Frobenius power a^p exactly by a where ``_p_minus_1_route`` estimates
    that cheaper.  Products check no guard bits, so the width must hold
    every field of a^k, and for k = p-1 of a^p, so that a caller need not
    know the route; a k of two digits or more is at least p, so a^k's
    width holds a^p."""
    base = pk.base
    result, place = None, 1
    while k:
        k, d = divmod(k, p)
        if d:
            power = _digit_power(a, d, degree, pk, p)
            if place > 1:
                power = {base + place * (key - base): c for key, c in power.items()}
            result = power if result is None else packed_product(result, power, base, p)
        place *= p
    return result


def _digit_power(a: Mapping[int, int], d: int, degree: int, pk: Packing, p: int) -> Mapping[int, int]:
    """a^d for a base-p digit d >= 1, by the route ``packed_power``
    describes."""
    base = pk.base
    if d == p - 1 and _p_minus_1_route(len(a), len(pk.weights), degree, p)[1]:
        quotient: dict[int, int] = {}
        frobenius = {base + p * (key - base): c for key, c in a.items()}
        divide_terms(frobenius, (make_divisor(a, p, pk),), p, pk, quotient)
        return quotient
    result = None
    while True:
        if d & 1:
            result = a if result is None else packed_product(result, a, base, p)
        d >>= 1
        if not d:
            return result
        a = _packed_square(a, base, p)


def packed_roots(terms: Mapping[int, int], pk: Packing, p: int) -> dict[Monomial, dict[int, int]]:
    """The p-th-root decomposition f = sum_b x^b * h_b^p over b in
    [0, p-1]^n of packed terms: each nonzero h_b, packed with ``pk``, by
    its b.  A key is affine in the exponents, so for a term x^(pq + b),
    key(x^(pq + b)) - key(x^b) = p * (key(x^q) - base): once b is read off
    the unpacked exponents, the root's key is one exact division, and
    key(x^b) is packed once per distinct b.  Every field of a root is at
    most the term's, so the roots fit wherever the terms do."""
    base = pk.base
    if pk._struct is None:
        exponents = map(pk.unpack, terms)
    else:
        # ``unpack`` written out, as in ``Packing.unpack_terms``.
        unpack, size = pk._struct.unpack, pk._nbytes
        exponents = [unpack((k ^ base).to_bytes(size, "little")) for k in terms]
    rem = p.__rmod__
    split: dict[Monomial, tuple[int, dict[int, int]]] = {}
    for (key, c), m in zip(terms.items(), exponents):
        b = tuple(map(rem, m))
        entry = split.get(b)
        if entry is None:
            entry = split[b] = (pk.pack(b), {})
        entry[1][base + (key - entry[0]) // p] = c
    return {b: root for b, (_, root) in split.items()}


def degree(terms: Mapping[Monomial, int]) -> int:
    """The total degree of nonempty terms, as ``fit_bits`` takes it."""
    return max(map(sum, terms))


Divisor = tuple[int, int, int, tuple[tuple[int, int], ...]]
"""A divisor prepared for ``divide_terms``: the key of its leading
monomial, that key's positive form, the inverse of its leading
coefficient, and its other terms by key."""


def make_divisor(terms: Mapping[int, int], p: int, pk: Packing) -> Divisor:
    """Prepare nonempty packed terms for ``divide_terms``, led by their
    least key, the largest monomial; a monic divisor needs no inversion."""
    lead = min(terms)
    tail = dict(terms)
    c = tail.pop(lead)
    inv = 1 if c == 1 else pow(c, p - 2, p)
    return lead, lead ^ pk.base, inv, tuple(tail.items())


def divide_terms(
    terms: Mapping[int, int],
    divisors: Sequence[Divisor],
    p: int,
    pk: Packing,
    quotient: dict[int, int] | None = None,
    membership: bool = False,
) -> dict[int, int]:
    """Multivariate division on packed keys; returns the fully reduced
    remainder.  The divisors need not be inter-reduced: by any Groebner
    basis of an ideal, the remainder is empty exactly for its members.
    With ``membership``, it returns at the first term that no divisor's
    leading monomial divides, as a one-term remainder: that term stays in
    the full remainder, so this one is empty exactly when that is, which
    is all a membership test reads.

    By no divisors, the remainder is the terms, sorted.  Otherwise the
    leading term is always reduced by the first divisor whose leading
    monomial divides it.  The heap holds bare keys, the smallest being
    the largest monomial; a term that cancels stays on the heap with
    coefficient 0 and is skipped when popped.  A multiple of a tail term
    is one int add, and its guard bits are checked when it first enters,
    raising ``PackingOverflow`` (a key already present is in range).  The
    remainder's terms come out in descending order, so its first key is
    its leading monomial.  ``quotient``, when given, collects every
    multiple taken (shift key -> factor); it is the quotient when there
    is a single divisor.
    """
    if not divisors:
        return dict(sorted(terms.items()))
    base, guards = pk.base, pk.guards
    work = dict(terms)
    heap = list(work)
    heapify(heap)
    get = work.get
    remainder: dict[int, int] = {}
    while heap:
        lead = heappop(heap)
        c = work.pop(lead)
        if not c:
            continue
        pos = (lead ^ base) | guards
        for lk, ld, inv, tail in divisors:
            if (pos - ld) & guards == guards:
                shift = lead - lk
                factor = c * inv % p
                if quotient is not None:
                    quotient[shift + base] = factor
                neg = p - factor
                for m, gc in tail:
                    t = m + shift
                    old = get(t)
                    if old is None:
                        if t & guards:
                            raise PackingOverflow
                        work[t] = neg * gc % p
                        heappush(heap, t)
                    else:
                        work[t] = (old + neg * gc) % p
                break
        else:
            if membership:
                return {lead: c}
            remainder[lead] = c
    return remainder


def exact_divide(a: Polynomial, b: Polynomial) -> Polynomial:
    """Quotient a / b when b divides a exactly.

    Runs multivariate division by the single divisor b under grevlex;
    raises NotDivisibleError carrying the remainder when it is nonzero.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    p = a.context.p

    def run(pk: Packing) -> tuple[dict[Monomial, int], dict[Monomial, int]]:
        divisor = make_divisor(pk.pack_terms(b.terms), p, pk)
        quotient: dict[int, int] = {}
        remainder = divide_terms(pk.pack_terms(a.terms), (divisor,), p, pk, quotient)
        return pk.unpack_terms(remainder), pk.unpack_terms(quotient)

    bits = fit_bits(max(degree(a.terms), degree(b.terms)))
    remainder, quotient = packed_call(packing(grevlex_layout(a.context.arity), bits), run)
    if remainder:
        raise NotDivisibleError(
            "division left a nonzero remainder", Polynomial._raw(a.context, remainder)
        )
    return Polynomial._raw(a.context, quotient)


def _log_binomial(a: int, b: int, cap: float) -> float:
    """log C(a + b, a), or a value above ``cap`` once it exceeds ``cap``."""
    small, large = sorted((a, b))
    total = 0.0
    for i in range(1, small + 1):
        # Each step adds at least log 2, so this stops within cap/log 2.
        total += log(large + i) - log(i)
        if total > cap:
            break
    return total


def log_power_terms(terms: int, arity: int, degree: int, k: int, cap: float) -> float:
    """The log of a bound on the terms of f^k for f with ``terms`` terms
    of total degree at most ``degree`` in ``arity`` variables, or a value
    above ``cap`` once the bound exceeds ``cap``.  The bound is the lesser
    of the multisets of k of f's terms and the monomials of degree at most
    k * degree; it ignores the cancellations of characteristic p."""
    return min(_log_binomial(terms - 1, k, cap), _log_binomial(arity, degree * k, cap))


def _log_square_and_multiply(terms: int, arity: int, degree: int, k: int, cap: float) -> float:
    """The log of the estimated term products square-and-multiply
    (``_digit_power``) spends on f^k, for f as in ``log_power_terms``, or a
    value above ``cap`` once it exceeds ``cap``: a multiplication costs the
    product of its operands' bounds.  A squaring is counted at T^2 for T
    terms, although ``_packed_square`` takes T(T+1)/2: the estimate stays
    an upper bound."""

    def log_terms(j: int) -> float:
        return log_power_terms(terms, arity, degree, j, cap)

    total = -inf
    low, high = 0, 1  # result = f^low and power = f^high, as in the kernel
    while k and total <= cap:
        if k & 1:
            if low:
                total = _log_add(total, log_terms(low) + log_terms(high))
            low += high
        if k > 1:
            total = _log_add(total, 2 * log_terms(high))
            high *= 2
        k >>= 1
    return total


MAX_TERM_PRODUCTS = 10**7
"""Term products allowed, by estimate, in one product or power, and in
all the products of one nilpotency search (``idealtheory``): a few
seconds of work.  (x+y)^(10^6) at p = 1000003, whose exponent is one
digit, is refused at once.  It bounds the work, not the result, which
``MAX_POWER_TERMS`` bounds."""

MAX_POWER_TERMS = 10**5
"""Terms allowed, by the bound of ``log_power_bounds``, in a power f^k.
(x+y+1)^(2^20) at p = 7 is estimated at 6.9 million term products, under
``MAX_TERM_PRODUCTS``, but its digits bound it at 4,762,800 terms, which
took 11.7 s to build; (x+y+1)^(p-1) at p = 2003, one digit, built
2,007,006 terms in 4.9 s (2 cores, Python 3.11).  Both are refused at
once.  (x+y+z)^300 and (x+y)^(10^6) at p = 3, of 54 and 3888 terms, are
admitted."""

_ROUTE_CAP = 64 * log(2)
"""The log of 2^64 term products, far above any budget, up to which
``_p_minus_1_route`` estimates exactly, so that each of its log-binomial
sums stops within 64 steps however large f or p is."""


@lru_cache(maxsize=1024)
def _p_minus_1_route(terms: int, arity: int, degree: int, p: int) -> tuple[float, bool, float]:
    """The log of the estimated cost of f^(p-1), for a nonzero f as in
    ``log_power_terms``, whether ``packed_power`` takes it by division,
    and the log of the bound on the terms of f^(p-1); each is a value
    above ``_ROUTE_CAP`` once it exceeds ``_ROUTE_CAP``.

    f^p / f costs about |f^(p-1)| * |f| term updates, against the term
    products of square-and-multiply, and the cheaper is taken; a one-term
    f costs one coefficient power, and at p = 2 f^1 costs nothing.
    Division wins for a sparse f at a large p: xy + x + 1 at p = 101 is
    5151 * 3 updates against 1.86 million products.  Squaring wins for a
    dense f at a small p: the 1379-term product of the 4x4 nested minors
    at p = 3 is 1379 * 1380 / 2 products against 61824 * 1379 updates,
    0.47 s against 53 s (2 cores, Python 3.11).  Cached: ``_digit_power``
    reads the route, and ``log_power_bounds`` its estimates.
    """
    log_terms = log_power_terms(terms, arity, degree, p - 1, _ROUTE_CAP)
    log_division = log(terms) + log_terms
    log_squaring = _log_square_and_multiply(terms, arity, degree, p - 1, log_division)
    return min(log_squaring, log_division), terms > 1 and log_squaring > log_division, log_terms


def log_power_bounds(terms: int, arity: int, degree: int, k: int, p: int, cap: float) -> tuple[float, float]:
    """The log of the estimated term products ``packed_power`` spends on
    f^k, for a nonzero f as in ``log_power_terms``, and the log of its
    bound on the terms of f^k.  Either is a value above ``cap`` once it
    exceeds ``cap``, or ``_ROUTE_CAP`` if that is lower; once the products
    do, the higher digits are not read, and the term bound covers only the
    lower ones.  From f's shape alone, so a caller can refuse f^k before f
    is written out.  Each nonzero digit d of k costs f^d by its route:
    ``_p_minus_1_route`` for d = p-1, else square-and-multiply.
    Multiplying f^d, moved to its place with as many terms, into the
    powers of the lower digits costs the product of their
    ``log_power_terms`` bounds, and the terms of f^k are bounded by the
    product of every digit's bound.
    """
    # size: the log bound on the terms of the product so far, -inf (no
    # product to multiply into) before the first digit.
    total = size = -inf
    while k and total <= cap:
        k, d = divmod(k, p)
        if d == p - 1:
            cost, _, terms_d = _p_minus_1_route(terms, arity, degree, p)
        elif d:
            cost = _log_square_and_multiply(terms, arity, degree, d, cap)
            terms_d = log_power_terms(terms, arity, degree, d, cap)
        else:
            continue
        # f^d is multiplied into the lower digits' power, if there is one
        # (size > -inf).
        total = _log_add(_log_add(total, cost), size + terms_d)
        size = max(size, 0.0) + terms_d
    return total, size


def power_too_large(terms: int, arity: int, degree: int, k: int, p: int) -> bool:
    """Is f^k, for a nonzero f as in ``log_power_terms``, too large to
    build?  True when ``packed_power``'s route is estimated at more than
    ``MAX_TERM_PRODUCTS`` term products, or its terms are bounded at more
    than ``MAX_POWER_TERMS`` (``log_power_bounds``).  Every caller that
    builds a power from input asks this first, with its own message."""
    cap, top = log(MAX_TERM_PRODUCTS), log(MAX_POWER_TERMS)
    # f^(p-1) has at most T^(p-1) terms; its route, division at most, T^p products.
    if k == p - 1 and p * log(terms) <= cap and k * log(terms) <= top:
        return False
    products, size = log_power_bounds(terms, arity, degree, k, p, cap)
    return products > cap or size > top


def _log_add(a: float, b: float) -> float:
    """log(e^a + e^b), without overflow; -inf stands for 0."""
    if a < b:
        a, b = b, a
    return a if b == -inf else a + log1p(exp(b - a))


def substitute_zero(f: Polynomial, var: int) -> Polynomial:
    """Set the given variable to zero: drop every term where it appears."""
    if not 0 <= var < f.context.arity:
        raise IndexError(f"variable index {var} out of range")
    return Polynomial._raw(f.context, {m: c for m, c in f.terms.items() if m[var] == 0})


def embed(f: Polynomial, target: RingContext, positions: Sequence[int]) -> Polynomial:
    """Reinterpret f in a larger ring, sending variable i to ``positions[i]``."""
    if f.context.prime != target.prime:
        raise ContextMismatchError("embedding must preserve the prime")
    if (
        len(positions) != f.context.arity
        or len(set(positions)) != len(positions)
        or not all(0 <= j < target.arity for j in positions)
    ):
        raise ValueError("positions must list one distinct target slot per variable")
    if target.arity == 1:
        # positions is [0]; a one-index itemgetter would return no tuple.
        return Polynomial._raw(target, dict(f.terms))
    # Target slot j reads m[source[j]]; index len(m) is the 0 appended to m.
    source = [len(positions)] * target.arity
    for i, j in enumerate(positions):
        source[j] = i
    pick = itemgetter(*source)
    if len(positions) == target.arity:
        # A permutation: every slot reads a variable of f, none the 0.
        return Polynomial._raw(target, {pick(m): c for m, c in f.terms.items()})
    return Polynomial._raw(target, {pick(m + (0,)): c for m, c in f.terms.items()})


def compose(f: Polynomial, args: Sequence[Polynomial]) -> Polynomial:
    """Evaluate f at polynomial arguments, one per variable of f's ring."""
    if len(args) != f.context.arity:
        raise ValueError("need one argument per variable")
    target = args[0].context
    for g in args:
        if g.context != target:
            raise ContextMismatchError("all arguments must share a context")
    result = target.zero()
    for m, c in f.terms.items():
        term = target.constant(c)
        for g, e in zip(args, m):
            if e:
                term = term * g**e
        result = result + term
    return result
