"""Recursive-descent parser for polynomial expressions over F_p.

Grammar (standard precedence, ^ binding tightest, then unary minus,
then *, then binary + and -):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    atom     := INT | NAME | '(' expr ')'
    exponent := INT | 'p' | '(' int-expr ')'

The token ``p`` stands for the ring's prime, so exponents like
``(p-1)`` are written literally.  Exponents must evaluate to
non-negative integers once p is bound.  Multiplication is always
explicit (``x*y``, never ``xy``), matching the canonical rendering,
so parse(str(f)) == f.

Evaluation has a size budget, checked before anything is expanded: an
integer in an exponent, and every exponent a power produces, has at most
``MAX_EXPONENT_BITS`` bits, and a product or power whose estimated work
in term products exceeds ``MAX_TERM_PRODUCTS`` is refused.  The estimate
for a power is ``fparith.log_power_products``; it ignores the
cancellations of characteristic p, so it may refuse a power that would
have come out sparse.  Refusals are ``ParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Union

from .fparith import Polynomial, RingContext, log_power_products


class ParseError(ValueError):
    """Syntax or binding error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class Num:
    value: int
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class PrimeSym:
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: "ExprAst"
    pos: int


ExprAst = Union[Num, Var, PrimeSym, Neg, BinOp, Pow]


_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek()[0] == "*":
            _, _, pos = self.next()
            node = BinOp("*", node, self.unary(), pos)
        return node

    def unary(self) -> ExprAst:
        if self.peek()[0] == "-":
            _, _, pos = self.next()
            return Neg(self.unary(), pos)
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            return Pow(base, self.exponent(), pos)
        return base

    def atom(self) -> ExprAst:
        kind, text, pos = self.next()
        if kind == "int":
            return Num(int(text), pos)
        if kind == "name":
            if text == "p":
                return PrimeSym(pos)
            return Var(text, pos)
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)

    def exponent(self) -> ExprAst:
        kind, text, pos = self.peek()
        if kind == "int":
            self.next()
            return Num(int(text), pos)
        if kind == "name" and text == "p":
            self.next()
            return PrimeSym(pos)
        if kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("exponent must be an integer, 'p', or a parenthesized expression", pos)


def parse_ast(text: str) -> ExprAst:
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    end = parser.next()
    if end[0] != "end":
        raise ParseError(f"unexpected trailing input {end[1]!r}", end[2])
    return node


MAX_EXPONENT_BITS = 1024
"""Bits allowed in an integer in an exponent and in an exponent a power
produces: x^(p^11) at p near 2^81 fits, x^(2^(2^40)) does not."""

MAX_TERM_PRODUCTS = 10**7
"""Term products allowed, by estimate, in one product or power, a few
seconds of work: (x+y)^(10^6) is refused at once."""


def _check_bits(bits: int, pos: int) -> None:
    if bits > MAX_EXPONENT_BITS:
        raise ParseError(f"exponent too large: over {MAX_EXPONENT_BITS} bits", pos)


def _checked(value: int, pos: int) -> int:
    _check_bits(value.bit_length(), pos)
    return value


def _eval_int(node: ExprAst, p: int) -> int:
    """Evaluate an exponent subtree to an integer with p bound."""
    if isinstance(node, Num):
        return _checked(node.value, node.pos)
    if isinstance(node, PrimeSym):
        return p
    if isinstance(node, Neg):
        return -_eval_int(node.operand, p)
    if isinstance(node, BinOp):
        a, b = _eval_int(node.left, p), _eval_int(node.right, p)
        if node.op == "+":
            return _checked(a + b, node.pos)
        if node.op == "-":
            return _checked(a - b, node.pos)
        if node.op == "*":
            # The product has at least this many bits.
            _check_bits(a.bit_length() + b.bit_length() - 1, node.pos)
            return _checked(a * b, node.pos)
    if isinstance(node, Pow):
        e = _eval_int(node.exponent, p)
        if e < 0:
            raise ParseError("negative exponent", node.pos)
        base = _eval_int(node.base, p)
        if abs(base) > 1:
            _check_bits((abs(base).bit_length() - 1) * e + 1, node.pos)
        return _checked(base**e, node.pos)
    if isinstance(node, Var):
        raise ParseError(f"variable {node.name!r} not allowed in an exponent", node.pos)
    raise ParseError("malformed exponent", getattr(node, "pos", 0))


def _eval_poly(node: ExprAst, context: RingContext) -> Polynomial:
    p = context.p
    if isinstance(node, Num):
        return context.constant(node.value)
    if isinstance(node, PrimeSym):
        return context.constant(p)
    if isinstance(node, Var):
        if node.name not in context.variables:
            raise ParseError(f"unknown variable {node.name!r}", node.pos)
        return context.variable(node.name)
    if isinstance(node, Neg):
        return -_eval_poly(node.operand, context)
    if isinstance(node, BinOp):
        a = _eval_poly(node.left, context)
        b = _eval_poly(node.right, context)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        _check_product(a, b, node.pos)
        return a * b
    if isinstance(node, Pow):
        e = _eval_int(node.exponent, p)
        if e < 0:
            raise ParseError(f"exponent evaluates to {e}", node.pos)
        base = _eval_poly(node.base, context)
        _check_power(base, e, node.pos)
        return base**e
    raise ParseError("malformed expression", getattr(node, "pos", 0))


def _check_product(a: Polynomial, b: Polynomial, pos: int) -> None:
    # A product's exponents are sums of checked ones, so they grow by at
    # most a bit per product written out; only its size needs a check.
    if len(a.terms) * len(b.terms) > MAX_TERM_PRODUCTS:
        raise ParseError(f"product too large: {len(a.terms)} by {len(b.terms)} terms", pos)


def _check_power(f: Polynomial, e: int, pos: int) -> None:
    """Refuse f^e when its exponents or the estimated term products of
    ``Polynomial.__pow__`` (square and multiply) exceed the budget."""
    t = len(f.terms)
    d = max(f.total_degree(), 0)
    _check_bits((d * e).bit_length(), pos)
    cap = log(MAX_TERM_PRODUCTS)
    if t > 1 and log_power_products(t, f.context.arity, d, e, cap) > cap:
        raise ParseError(f"power too large: a {t}-term polynomial to the {e}", pos)


def parse_expr(text: str, context: RingContext) -> Polynomial:
    """Parse an expression into a canonical polynomial in the given ring."""
    return _eval_poly(parse_ast(text), context)
