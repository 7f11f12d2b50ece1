"""Sparse multivariate polynomial arithmetic over a prime field F_p.

Polynomials are stored as dictionaries mapping exponent tuples to nonzero
integer residues in [1, p).  The representation is canonical: no zero
coefficients are ever stored, and term iteration for printing follows a
fixed graded reverse lexicographic order, so ``str`` output is stable and
reparseable.

Beyond ring arithmetic this module provides the characteristic-p
primitives everything else builds on: the Frobenius power f -> f^p
(computed by exponent scaling, never by expansion), the ubiquitous
f^(p-1), and the division engine (``divide_terms``) that both exact
division here and Groebner reduction in ``idealtheory`` run on.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Callable, Iterator, Mapping, Sequence

Monomial = tuple[int, ...]
"""Exponent vector; entry i is the exponent of the context's i-th variable."""


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


@dataclass(frozen=True)
class Prime:
    """A prime number, validated by deterministic Miller-Rabin at
    construction; values of 3.3e24 and above are refused."""

    value: int

    def __post_init__(self) -> None:
        if not _is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class Coefficient:
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


@dataclass(frozen=True)
class RingContext:
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


def grevlex_key(m: Monomial) -> tuple:
    """Sort key realizing graded reverse lexicographic order (ascending)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def grevlex_desc_key(m: Monomial) -> tuple:
    """Flat key whose ascending order is descending grevlex order.

    It is ``grevlex_key`` with every entry negated and flattened, so it
    is injective and a min-heap on it yields the largest monomial first.
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
            if any(e < 0 for e in m):
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
        return all(all(e == 0 for e in m) for m in self.terms)

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
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed.

        The zero polynomial is homogeneous of every degree and reports 0;
        check ``is_zero`` first if the distinction matters.
        """
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def sorted_terms(self) -> Iterator[tuple[Monomial, int]]:
        """Terms in descending grevlex order (the canonical print order)."""
        for m in sorted(self.terms, key=grevlex_desc_key):
            yield m, self.terms[m]

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
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
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
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = self.context.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def frobenius(self) -> "Polynomial":
        """f^p, computed by scaling every exponent vector by p.

        Coefficients lie in the prime field and are fixed by the Frobenius,
        so no expansion is needed; the result agrees with repeated
        multiplication on every input.
        """
        p = self.context.p
        return Polynomial._raw(self.context, {tuple(e * p for e in m): c for m, c in self.terms.items()})

    def pow_p_minus_1(self, cross_check: bool = False) -> "Polynomial":
        """f^(p-1), computed by square-and-multiply.

        The Frobenius power f^p is free, but dividing it by f costs
        |f^(p-1)|*|f| term updates, far more than the squarings.  With
        ``cross_check`` the result is checked by the other route: its
        product with f is asserted equal to the Frobenius power f^p.
        """
        if self.is_zero():
            raise ZeroDivisionError("f^(p-1) is undefined for f = 0")
        power = self ** (self.context.p - 1)
        if cross_check and power * self != self.frobenius():
            raise AssertionError("f^(p-1) * f disagrees with the Frobenius power f^p")
        return power

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
    if c != 1 or all(e == 0 for e in m):
        factors.append(str(c))
    for name, e in zip(context.variables, m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return "*".join(factors)


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(ea <= eb for ea, eb in zip(a, b))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(ea + eb for ea, eb in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(ea, eb) for ea, eb in zip(a, b))


Divisor = tuple[Monomial, int, tuple[tuple[Monomial, int], ...]]
"""A divisor prepared for ``divide_terms``: its leading monomial, the
inverse of its leading coefficient, and its other terms."""


def make_divisor(terms: Mapping[Monomial, int], lead: Monomial, p: int) -> Divisor:
    """Prepare a polynomial's terms, whose leading monomial is ``lead``,
    for ``divide_terms``; a monic divisor needs no inversion."""
    c = terms[lead]
    inv = 1 if c == 1 else pow(c, p - 2, p)
    return lead, inv, tuple((m, c) for m, c in terms.items() if m != lead)


def divide_terms(
    terms: Mapping[Monomial, int],
    divisors: Sequence[Divisor],
    p: int,
    desc_key: Callable[[Monomial], tuple],
    quotient: dict[Monomial, int] | None = None,
) -> dict[Monomial, int]:
    """Multivariate division; returns the fully reduced remainder.

    ``desc_key`` must be injective, with ascending order the descending
    monomial order.  The leading term is always reduced by the first
    divisor whose leading monomial divides it.  Each monomial's key is
    computed once, when it enters the heap; a term that cancels stays on
    the heap with coefficient 0 and is skipped when popped.  The
    remainder's terms come out in descending order, so its first key is
    its leading monomial.  ``quotient``, when given, collects every
    multiple taken (shift -> factor); it is the quotient when there is a
    single divisor.
    """
    work = dict(terms)
    heap = [(desc_key(m), m) for m in work]
    heapify(heap)
    get = work.get
    remainder: dict[Monomial, int] = {}
    while heap:
        lead = heappop(heap)[1]
        c = work.pop(lead)
        if not c:
            continue
        for lm, inv, tail in divisors:
            if all(map(le, lm, lead)):
                shift = tuple(map(sub, lead, lm))
                factor = c * inv % p
                if quotient is not None:
                    quotient[shift] = factor
                neg = p - factor
                for m, gc in tail:
                    t = tuple(map(add, m, shift))
                    old = get(t)
                    if old is None:
                        work[t] = neg * gc % p
                        heappush(heap, (desc_key(t), t))
                    else:
                        work[t] = (old + neg * gc) % p
                break
        else:
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
    p = a.context.p
    divisor = make_divisor(b.terms, min(b.terms, key=grevlex_desc_key), p)
    quotient: dict[Monomial, int] = {}
    remainder = divide_terms(a.terms, (divisor,), p, grevlex_desc_key, quotient)
    if remainder:
        raise NotDivisibleError(
            "division left a nonzero remainder",
            Polynomial._raw(a.context, remainder),
        )
    return Polynomial._raw(a.context, quotient)


def substitute_zero(f: Polynomial, var: int) -> Polynomial:
    """Set the given variable to zero: drop every term where it appears."""
    if not 0 <= var < f.context.arity:
        raise IndexError(f"variable index {var} out of range")
    return Polynomial._raw(f.context, {m: c for m, c in f.terms.items() if m[var] == 0})


def embed(f: Polynomial, target: RingContext, positions: Sequence[int]) -> Polynomial:
    """Reinterpret f in a larger ring, sending variable i to ``positions[i]``."""
    if f.context.prime != target.prime:
        raise ContextMismatchError("embedding must preserve the prime")
    if len(positions) != f.context.arity or len(set(positions)) != len(positions):
        raise ValueError("positions must list one distinct target slot per variable")
    out: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        exps = [0] * target.arity
        for i, e in enumerate(m):
            exps[positions[i]] = e
        out[tuple(exps)] = c
    return Polynomial._raw(target, out)


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
