"""Expression parser: precedence, prime binding, round trips, errors."""

import math
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobsplit import ParseError, Polynomial, parse_expr, ring
from frobsplit.expr import MAX_NESTING, _tokenize
from frobsplit import fparith
from frobsplit.fparith import MAX_POWER_TERMS, MAX_TERM_PRODUCTS, _is_variable_name
from _util import rand_poly


def test_parse_cross():
    ctx = ring(3, "x y")
    assert parse_expr("(x*y)^(p-1)", ctx) == ctx.monomial((2, 2))


def test_parse_node_matches_arithmetic_oracle():
    ctx = ring(3, "x y")
    node = ctx.monomial((0, 2)) - ctx.monomial((3, 0)) - ctx.monomial((2, 0))
    assert parse_expr("(y^2-x^3-x^2)^(p-1)", ctx) == node * node


def test_parse_zero_exponent():
    ctx = ring(2, "x")
    assert parse_expr("x^(p-2)", ctx) == ctx.one()


def test_precedence():
    ctx = ring(5, "x y z")
    assert parse_expr("-x^2", ctx) == -ctx.monomial((2, 0, 0))
    assert parse_expr("2*x+3*y", ctx) == ctx.variable("x").scale(2) + ctx.variable("y").scale(3)
    assert parse_expr("x - y - z", ctx) == ctx.variable("x") - ctx.variable("y") - ctx.variable("z")
    assert parse_expr("x*y^2", ctx) == ctx.monomial((1, 2, 0))
    assert parse_expr("(x+y)*z", ctx) == (ctx.variable("x") + ctx.variable("y")) * ctx.variable("z")


def test_prime_token_binds():
    ctx = ring(3, "x")
    assert parse_expr("x^p", ctx) == ctx.monomial((3,))
    assert parse_expr("p*x", ctx).is_zero()
    assert parse_expr("(p-1)*x", ctx) == ctx.variable("x").scale(2)
    assert parse_expr("x^(2*p-1)", ctx) == ctx.monomial((5,))


def test_unary_minus_mod_p():
    ctx = ring(5, "x")
    assert parse_expr("-x", ctx) == ctx.variable("x").scale(4)
    assert parse_expr("--x", ctx) == ctx.variable("x")


def test_syntax_error_reports_position():
    ctx = ring(3, "x y")
    with pytest.raises(ParseError) as err:
        parse_expr("x + + y", ctx)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_expr("x +", ctx)
    with pytest.raises(ParseError):
        parse_expr("(x", ctx)
    with pytest.raises(ParseError):
        parse_expr("x y", ctx)
    with pytest.raises(ParseError):
        parse_expr("x $ y", ctx)


def test_unknown_variable():
    ctx = ring(3, "x y")
    with pytest.raises(ParseError) as err:
        parse_expr("x*z", ctx)
    assert "z" in str(err.value)


def test_negative_exponent_after_binding():
    ctx = ring(2, "x")
    with pytest.raises(ParseError):
        parse_expr("x^(p-3)", ctx)
    with pytest.raises(ParseError):
        parse_expr("x^(0-1)", ctx)


def test_variable_in_exponent_rejected():
    ctx = ring(3, "x y")
    with pytest.raises(ParseError):
        parse_expr("x^(y)", ctx)


def test_bare_minus_exponent_is_syntax_error():
    ctx = ring(3, "x")
    with pytest.raises(ParseError):
        parse_expr("x^-1", ctx)


@pytest.mark.parametrize(
    "text",
    ["", "()", "3^", "^2", "*x", "x*", "(x+y", "x)", "x^()", "x^(p", "x!", "2 2"],
)
def test_malformed_inputs_raise_parse_error(text):
    ctx = ring(3, "x y")
    with pytest.raises(ParseError):
        parse_expr(text, ctx)


def test_large_exponents_and_constants():
    ctx = ring(3, "x")
    assert parse_expr("x^100", ctx) == ctx.monomial((100,))
    assert parse_expr("12", ctx) == ctx.zero()
    assert parse_expr("p^p", ctx) == ctx.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_round_trip_random(p):
    rng = random.Random(2200 + p)
    for n in (1, 2, 3):
        ctx = ring(p, [f"x{i}" for i in range(n)])
        for _ in range(30):
            f = rand_poly(rng, ctx, max_deg=5, max_terms=5)
            assert parse_expr(str(f), ctx) == f


@given(st.one_of(st.text(max_size=5), st.from_regex(r"\w{1,5}", fullmatch=True)))
def test_variable_name_rule_matches_the_tokenizer(text):
    try:
        tokens = [tok[:2] for tok in _tokenize(text)]
    except ParseError:
        tokens = []
    one_name = tokens == [("name", text), ("end", "")]
    assert _is_variable_name(text) == (one_name and text != "p")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^(2^(2^40))", "exponent too large"),
        # 15 digits p-1, each a power of 6 terms: over 10^11 terms.
        ("(x+y+1)^(p^15-1)", "power too large"),
        ("x^(2^1024)", "exponent too large"),
        ("(x+y)^(p^24-1)", "power too large"),
        ("(x+y)^(2^1023)", "power too large"),
    ],
)
def test_oversized_input_is_refused_before_expansion(text, message, monkeypatch):
    def expanded(*args):
        raise AssertionError("expanded before the budget check")

    monkeypatch.setattr(Polynomial, "__mul__", expanded)
    monkeypatch.setattr(Polynomial, "__pow__", expanded)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        parse_expr(text, ring(3, "x y"))
    assert time.perf_counter() - start < 1.0


def test_budget_admits_sparse_and_monomial_powers():
    ctx = ring(3, "x y")
    assert parse_expr("x^(2^1023)", ctx) == ctx.monomial((2**1023, 0))
    x_plus_y = ctx.variable("x") + ctx.variable("y")
    assert parse_expr("(x+y)^(3^6)", ctx) == x_plus_y.frobenius() ** 243
    big = ring(2305843009213693951, "x y")
    assert parse_expr("(x*y)^(p-1)", big) == big.monomial((big.p - 1, big.p - 1))


def test_power_is_taken_by_the_digits_of_its_exponent():
    # 300 = 3^5 + 2 * 3^3 + 3: f^300 = f^[243] * (f^2)^[27] * f^[3], of
    # 3 * 6 * 3 terms.  It was refused as "power too large".
    ctx = ring(3, "x y z")
    f = parse_expr("x+y+z", ctx)
    power = parse_expr("(x+y+z)^300", ctx)
    by_frobenius = f
    for _ in range(5):
        by_frobenius = by_frobenius.frobenius()
    square = f * f
    for _ in range(3):
        square = square.frobenius()
    assert power == by_frobenius * square * f.frobenius()
    assert len(power.terms) == 54
    # Lucas's theorem: (x+y)^e has prod_i (e_i + 1) terms for the base-p
    # digits e_i of e.
    digits, e = [], 10**6
    while e:
        e, d = divmod(e, 3)
        digits.append(d)
    assert len(parse_expr("(x+y)^(10^6)", ctx).terms) == math.prod(d + 1 for d in digits) == 3888


def test_a_power_with_few_products_and_many_terms_is_refused(monkeypatch):
    # (x+y+1)^(2^20) at p = 7 is 4,762,800 terms, by 6.9 million term
    # products: under MAX_TERM_PRODUCTS, it was built in 11.7 s.  The bound
    # on its terms comes from the same estimate as its products.
    ctx = ring(7, "x y")
    cap = math.log(MAX_TERM_PRODUCTS)
    products, terms = fparith.log_power_bounds(3, 2, 1, 2**20, 7, cap)
    assert products < cap
    assert round(math.exp(terms)) == 4762800 > MAX_POWER_TERMS

    def expanded(*args):
        raise AssertionError("expanded before the budget check")

    monkeypatch.setattr(Polynomial, "__pow__", expanded)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power too large: a 3-term polynomial to the 1048576") as err:
        parse_expr("(x+y+1)^(2^20)", ctx)
    assert err.value.pos == 7
    assert time.perf_counter() - start < 1.0
    # At p = 2 it is x^(2^20) + y^(2^20) + 1, and admitted.
    monkeypatch.undo()
    assert len(parse_expr("(x+y+1)^(2^20)", ring(2, "x y")).terms) == 3


@pytest.mark.parametrize("text, pos", [("x^²", 2), ("x²^2 + ①", 7), ("2² ", 1), ("x^(p-1)½", 7)])
def test_non_decimal_digits_are_unexpected_characters(text, pos):
    # "²".isdigit() is true, but int() refuses it: this was a bare
    # ValueError with no position.
    ctx = ring(3, "x")
    with pytest.raises(ParseError) as err:
        parse_expr(text, ctx)
    assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"


def test_decimal_digits_of_any_script_are_integers():
    ctx = ring(5, "x")
    assert parse_expr("x^٣ + ٤٢", ctx) == parse_expr("x^3 + 42", ctx)


def test_integer_over_the_digit_limit_is_a_parse_error():
    ctx = ring(3, "x")
    with pytest.raises(ParseError, match="integer too long: 5000 digits"):
        parse_expr("x + " + "1" * 5000, ctx)


def test_long_chains_are_evaluated_without_recursion():
    # A sum of 3000 terms was a RecursionError: the tree nested one level
    # per operator.
    ctx = ring(7, "x y")
    x = ctx.variable("x")
    assert parse_expr(" + ".join(["x"] * 3000), ctx) == x.scale(3000)
    assert parse_expr("*".join(["x"] * 3000), ctx) == ctx.monomial((3000, 0))
    assert parse_expr("-" * 3001 + "x", ctx) == -x


def _nest(levels: int, inner: str, wrap) -> str:
    for _ in range(levels):
        inner = wrap(inner)
    return inner


# Shapes whose every level of parentheses costs the most frames: five in
# the parser through an exponent, five in the evaluator through a sum, a
# product, a minus and a power.  Each maps the number of levels to the
# text and to a flat text of the same value.
_DEEP_SHAPES = {
    "parentheses": lambda n: (_nest(n, "x+y", lambda e: f"({e})"), "x+y"),
    "sum of product of power": lambda n: (
        _nest(n, "x", lambda e: f"-({e})^1*x+x"),
        " + ".join(f"{(-1) ** (i + 1)}*x^{i}" for i in range(1, n + 2)),
    ),
    "exponent": lambda n: ("x^" + _nest(n, "2", lambda e: f"({e})"), "x^2"),
    "exponent of exponent": lambda n: ("x^(" + _nest(n - 1, "1", lambda e: f"1^({e})") + ")", "x"),
    "sum in exponent": lambda n: (
        "x^(" + _nest(n - 1, "1", lambda e: f"-({e})^1*1+1") + ")",
        f"x^{n % 2}",
    ),
}


@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_nesting_up_to_the_bound_parses(shape):
    ctx = ring(3, "x y")
    assert MAX_NESTING >= 150
    text, flat = _DEEP_SHAPES[shape](MAX_NESTING)
    assert parse_expr(text, ctx) == parse_expr(flat, ctx)


@pytest.mark.parametrize("levels", [MAX_NESTING + 1, 250, 1000])
@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_nesting_past_the_bound_is_a_parse_error(shape, levels):
    text, _ = _DEEP_SHAPES[shape](levels)
    first_too_deep = [i for i, ch in enumerate(text) if ch == "("][MAX_NESTING]
    with pytest.raises(ParseError, match="expression nested too deeply") as err:
        parse_expr(text, ring(3, "x y"))
    assert err.value.pos == first_too_deep


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("text", ["0^(p-1)", "(x-x)^(p-1)", "p^(p-1)", "(x*0 + y - y)^(p-1)"])
def test_zero_base_to_the_p_minus_1_is_zero(text, p):
    assert parse_expr(text, ring(p, "x y")).is_zero()


def test_p_minus_1_goes_through_the_power_route(monkeypatch):
    # The parser's (p-1)-st power is ``Polynomial.__pow__``, so it takes the
    # route of ``pow_p_minus_1``: for a sparse f at p = 101 the digit p-1
    # divides f^p by f.
    ctx = ring(101, "x y")
    f = parse_expr("x*y + x + 1", ctx)
    expected = f.pow_p_minus_1()
    assert expected * f == f.frobenius()
    squared = ctx.monomial((100, 100)) + (ctx.variable("x") + ctx.variable("y")) ** 99
    powers, divisions = [], []
    route, divide = fparith.packed_power, fparith.divide_terms
    monkeypatch.setattr(
        fparith, "packed_power", lambda a, k, *rest: powers.append((len(a), k)) or route(a, k, *rest)
    )
    monkeypatch.setattr(fparith, "divide_terms", lambda *args, **options: divisions.append(args) or divide(*args, **options))
    assert parse_expr("(x*y+x+1)^(p-1)", ctx) == expected
    assert powers == [(3, 100)] and len(divisions) == 1
    # One-term bases are raised directly, and other exponents square.
    assert parse_expr("(2*x*y)^(p-1) + (x+y)^(p-2)", ctx) == squared
    assert powers == [(3, 100), (2, 99)] and len(divisions) == 1


def test_p_minus_1_budget_is_that_of_its_route(monkeypatch):
    # Squaring (x+y+1)^210 is estimated over the budget; dividing f^211 by
    # f is not, so it is accepted at p = 211.
    ctx = ring(211, "x y")
    assert fparith._log_square_and_multiply(3, 2, 1, 210, math.inf) > math.log(MAX_TERM_PRODUCTS)
    f = parse_expr("(x+y+1)^(p-1)", ctx)
    assert len(f.terms) == math.comb(212, 2)
    g = parse_expr("x+y+1", ctx)
    assert f * g == g.frobenius()

    def expanded(*args):
        raise AssertionError("expanded before the budget check")

    monkeypatch.setattr(Polynomial, "__pow__", expanded)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="power too large: a 5-term polynomial to the 1008") as err:
        parse_expr("(x+y+z+w+1)^(p-1)", ring(1009, "x y z w"))
    assert err.value.pos == 11
    assert time.perf_counter() - start < 1.0


_trees = st.recursive(
    st.one_of(
        st.tuples(st.just("int"), st.integers(0, 200)),
        st.sampled_from([("name", "x"), ("name", "y"), ("p",)]),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.sampled_from(["+", "-", "*"]), children, children),
        st.tuples(st.just("^"), children, st.sampled_from([0, 1, 2, 3, "p", "(p-1)"])),
    ),
    max_leaves=8,
)


def _render(node) -> tuple[str, int]:
    """The text of a tree with the fewest parentheses the grammar needs,
    and its precedence: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom."""

    def at_least(child, level: int) -> str:
        text, own = _render(child)
        return text if own >= level else f"({text})"

    tag = node[0]
    if tag == "int":
        return str(node[1]), 5
    if tag in ("name", "p"):
        return node[-1], 5
    if tag == "neg":
        return "-" + at_least(node[1], 3), 3
    if tag == "^":
        return f"{at_least(node[1], 5)}^{node[2]}", 4
    if tag == "*":
        return f"{at_least(node[1], 2)}*{at_least(node[2], 3)}", 2
    return f"{at_least(node[1], 1)} {tag} {at_least(node[2], 2)}", 1


def _reference(node, ctx):
    """The tree's value by plain ``Polynomial`` arithmetic, or None when a
    power would be too large to check quickly."""
    tag = node[0]
    if tag == "int":
        return ctx.constant(node[1])
    if tag == "name":
        return ctx.variable(node[1])
    if tag == "p":
        return ctx.zero()
    args = [_reference(child, ctx) for child in node[1:] if isinstance(child, tuple)]
    if None in args:
        return None
    if tag == "neg":
        return -args[0]
    if tag == "^":
        e = {"p": ctx.p, "(p-1)": ctx.p - 1}.get(node[2], node[2])
        if e > 3 and len(args[0].terms) > 2:
            return None
        return args[0] ** e
    a, b = args
    return a + b if tag == "+" else a - b if tag == "-" else a * b


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101]), tree=_trees)
def test_parse_matches_polynomial_arithmetic(p, tree):
    ctx = ring(p, "x y")
    expected = _reference(tree, ctx)
    assume(expected is not None)
    assert parse_expr(_render(tree)[0], ctx) == expected


@settings(max_examples=500, deadline=None)
@given(
    p=st.sampled_from([2, 3, 101]),
    text=st.text(st.sampled_from(list("xyzp0129+-*^() \t") + ["²", "①", "٣", "½", "$", "é"]), max_size=14),
)
def test_bad_input_raises_only_parse_error(p, text):
    try:
        parse_expr(text, ring(p, "x y"))
    except ParseError:
        pass
