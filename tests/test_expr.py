"""Expression parser: precedence, prime binding, round trips, errors."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from frobsplit import ParseError, parse_expr, ring
from frobsplit.expr import _tokenize
from frobsplit.fparith import _is_variable_name
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
        ("(x+y)^(10^6)", "power too large"),
        ("x^(2^1024)", "exponent too large"),
        ("(x+y+1)^(2^20)", "power too large"),
        ("(x+y)^(2^1023)", "power too large"),
    ],
)
def test_oversized_input_is_refused_before_expansion(text, message, monkeypatch):
    from frobsplit import Polynomial

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
