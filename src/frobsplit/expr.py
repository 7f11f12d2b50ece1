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

The syntax tree is made of tuples (see ``parse_ast``), with each chain of
``+`` and ``-``, and each chain of ``*``, as one node.  It is evaluated on
plain term dicts {exponent tuple: residue in [1, p)}, and only the result
becomes a ``Polynomial``.  A chain of sums is added into one dict, left to
right.  A product with a one-term operand is an exponent shift or scale;
other products, and every power, go through ``Polynomial`` arithmetic,
where f^e is taken by the base-p digits of e (``fparith.packed_power``).

Parentheses nest at most ``MAX_NESTING`` levels deep, as the parser and
the evaluators recurse once per level.  Evaluation has a size budget,
checked before anything is expanded: an integer in an exponent, and
every exponent a power produces, has at most ``MAX_EXPONENT_BITS`` bits,
a product of more than ``fparith.MAX_TERM_PRODUCTS`` term products is
refused, as is a power that ``fparith.power_too_large`` refuses.  Errors
are found depth first, left to right, and are ``ParseError``.
"""

from __future__ import annotations

from operator import add

from .fparith import MAX_TERM_PRODUCTS, Monomial, Polynomial, RingContext, power_too_large


class ParseError(ValueError):
    """Syntax or binding error, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


ExprAst = tuple
"""A syntax tree node, tagged by its first entry:

    ("int", value, pos)      ("p", pos)      ("name", name, pos)
    ("neg", operand)
    ("sum", first, ((op, term, pos), ...))   op is "+" or "-"
    ("prod", first, ((factor, pos), ...))
    ("pow", base, exponent, pos)

A position is that of the token: the operator's for ``+``, ``-``, ``*``
and ``^``."""

Terms = dict[Monomial, int]

_Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():
            # Not isdigit, which also takes superscripts and circled
            # digits that int() refuses.
            j = i
            while j < len(text) and text[j].isdecimal():
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


def _integer(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on digits in int(str)
        raise ParseError(f"integer too long: {len(text)} digits", pos) from None


class _Parser:
    __slots__ = ("tokens", "i", "depth")

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # parentheses open at the current token

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
        first = self.term()
        tokens = self.tokens
        rest = []
        while tokens[self.i][0] in ("+", "-"):
            op, _, pos = self.next()
            rest.append((op, self.term(), pos))
        return ("sum", first, tuple(rest)) if rest else first

    def term(self) -> ExprAst:
        first = self.unary()
        tokens = self.tokens
        rest = []
        while tokens[self.i][0] == "*":
            pos = self.next()[2]
            rest.append((self.unary(), pos))
        return ("prod", first, tuple(rest)) if rest else first

    def unary(self) -> ExprAst:
        # A run of minus signs, read without recursion; an even number
        # cancels.
        tokens = self.tokens
        negate = False
        while tokens[self.i][0] == "-":
            self.i += 1
            negate = not negate
        node = self.atom()
        if tokens[self.i][0] == "^":
            pos = self.next()[2]
            node = ("pow", node, self.exponent(), pos)
        return ("neg", node) if negate else node

    def atom(self) -> ExprAst:
        kind, text, pos = self.next()
        if kind == "int":
            return ("int", _integer(text, pos), pos)
        if kind == "name":
            return ("p", pos) if text == "p" else ("name", text, pos)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("expression nested too deeply", pos)
            self.depth += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", pos)

    def exponent(self) -> ExprAst:
        kind, text, pos = self.tokens[self.i]
        if kind == "int" or (kind == "name" and text == "p") or kind == "(":
            return self.atom()
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

MAX_NESTING = 150
"""Levels of parentheses allowed.  Each level costs at most five frames
of recursion in the parser (``expr``, ``term``, ``unary``, ``exponent``,
``atom``) or in an evaluator (``_Evaluator.terms`` and ``sum`` through a
sum, a product, a minus and a power; ``_eval_int`` fewer), so the deepest
input takes about 750 of the interpreter's default limit of 1000 frames,
and the rest is left to the caller."""

def _check_bits(bits: int, pos: int) -> None:
    if bits > MAX_EXPONENT_BITS:
        raise ParseError(f"exponent too large: over {MAX_EXPONENT_BITS} bits", pos)


def _checked(value: int, pos: int) -> int:
    _check_bits(value.bit_length(), pos)
    return value


def _eval_int(node: ExprAst, p: int) -> int:
    """Evaluate an exponent subtree to an integer with p bound."""
    tag = node[0]
    if tag == "int":
        return _checked(node[1], node[2])
    if tag == "p":
        return p
    if tag == "neg":
        return -_eval_int(node[1], p)
    if tag == "sum":
        value = _eval_int(node[1], p)
        for op, term, pos in node[2]:
            b = _eval_int(term, p)
            value = _checked(value + b if op == "+" else value - b, pos)
        return value
    if tag == "prod":
        value = _eval_int(node[1], p)
        for factor, pos in node[2]:
            b = _eval_int(factor, p)
            # The product has at least this many bits.
            _check_bits(value.bit_length() + b.bit_length() - 1, pos)
            value = _checked(value * b, pos)
        return value
    if tag == "pow":
        pos = node[3]
        e = _eval_int(node[2], p)
        if e < 0:
            raise ParseError("negative exponent", pos)
        base = _eval_int(node[1], p)
        if abs(base) > 1:
            _check_bits((abs(base).bit_length() - 1) * e + 1, pos)
        return _checked(base**e, pos)
    raise ParseError(f"variable {node[1]!r} not allowed in an exponent", node[2])


class _Evaluator:
    """Evaluates a syntax tree to a term dict in one ring.  Dicts that
    nodes return may be shared, so none is changed once returned."""

    __slots__ = ("context", "p", "zero", "units")

    def __init__(self, context: RingContext):
        self.context = context
        self.p = context.p
        self.zero: Monomial = (0,) * context.arity
        # Each variable's unit monomial, as a term dict, built on first use.
        self.units: dict[str, Terms] = {}

    def terms(self, node: ExprAst) -> Terms:
        tag = node[0]
        if tag == "name":
            unit = self.units.get(node[1])
            if unit is None:
                unit = self.units[node[1]] = self.unit(node[1], node[2])
            return unit
        if tag == "int":
            c = node[1] % self.p
            return {self.zero: c} if c else {}
        if tag == "prod":
            a = self.terms(node[1])
            for factor, pos in node[2]:
                b = self.terms(factor)
                if len(a) * len(b) > MAX_TERM_PRODUCTS:
                    # A product's exponents are sums of checked ones, so they
                    # grow by at most a bit per product written out; only
                    # its size needs a check.
                    raise ParseError(f"product too large: {len(a)} by {len(b)} terms", pos)
                a = self.product(a, b)
            return a
        if tag == "sum":
            return self.sum(node)
        if tag == "pow":
            pos = node[3]
            e = _eval_int(node[2], self.p)
            if e < 0:
                raise ParseError(f"exponent evaluates to {e}", pos)
            return self.power(self.terms(node[1]), e, pos)
        if tag == "neg":
            p = self.p
            return {m: p - c for m, c in self.terms(node[1]).items()}
        return {}  # ("p", pos): p is 0 in F_p

    def unit(self, name: str, pos: int) -> Terms:
        try:
            i = self.context.variables.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}", pos) from None
        zero = self.zero
        return {zero[:i] + (1,) + zero[i + 1 :]: 1}

    def sum(self, node: ExprAst) -> Terms:
        """A chain of + and -, accumulated unreduced in one dict and reduced
        mod p once per term at the end."""
        out = dict(self.terms(node[1]))
        get = out.get
        for op, term, _ in node[2]:
            if op == "+":
                for m, c in self.terms(term).items():
                    out[m] = get(m, 0) + c
            else:
                for m, c in self.terms(term).items():
                    out[m] = get(m, 0) - c
        p = self.p
        return {m: r for m, c in out.items() if (r := c % p)}

    def product(self, a: Terms, b: Terms) -> Terms:
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # A term times f shifts f's exponents, or scales f when the
            # term is a constant: no two products meet.
            ((m, c),) = a.items()
            p = self.p
            if m == self.zero:
                return {mb: c * cb % p for mb, cb in b.items()}
            return {tuple(map(add, m, mb)): c * cb % p for mb, cb in b.items()}
        context = self.context
        return (Polynomial._raw(context, a) * Polynomial._raw(context, b)).terms

    def power(self, f: Terms, e: int, pos: int) -> Terms:
        """f^e, after checking its exponents and, for an f of more than
        one term and e >= 2, its size (``fparith.power_too_large``)."""
        if f:
            t, d = len(f), max(map(sum, f))
            _check_bits((d * e).bit_length(), pos)
            if t > 1 and e > 1 and power_too_large(t, self.context.arity, d, e, self.p):
                raise ParseError(f"power too large: a {t}-term polynomial to the {e}", pos)
        return (Polynomial._raw(self.context, f) ** e).terms


def parse_expr(text: str, context: RingContext) -> Polynomial:
    """Parse an expression into a canonical polynomial in the given ring."""
    return Polynomial._raw(context, _Evaluator(context).terms(parse_ast(text)))
