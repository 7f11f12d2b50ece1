"""Prime-field scalars and sparse polynomial arithmetic."""

import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frobsplit import (
    Coefficient,
    ContextMismatchError,
    MonomialOrder,
    NotDivisibleError,
    Polynomial,
    Prime,
    compose,
    embed,
    exact_divide,
    fparith,
    frobenius_roots,
    ring,
    substitute_zero,
)
from frobsplit.expr import parse_expr
from frobsplit.fparith import log_power_bounds
from _util import contexts, grevlex_key, monomial_divides, polys, rand_poly, schoolbook_mul


@pytest.mark.parametrize("value", [2, 3, 5, 7, 32003])
def test_prime_accepts_primes(value):
    assert Prime(value).value == value


@pytest.mark.parametrize("value", [0, 1, 4, 6, 9, 15, 32004])
def test_prime_rejects_composites(value):
    with pytest.raises(ValueError):
        Prime(value)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_agrees_with_trial_division_below_20000():
    for n in range(20000):
        if _trial_division(n):
            assert Prime(n).value == n
        else:
            with pytest.raises(ValueError):
                Prime(n)


@pytest.mark.parametrize("value", [561, 3215031751])
def test_prime_rejects_carmichael_numbers(value):
    with pytest.raises(ValueError):
        Prime(value)


def test_prime_accepts_mersenne_61_quickly():
    start = time.perf_counter()
    assert Prime(2**61 - 1).value == 2**61 - 1
    assert time.perf_counter() - start < 0.5


def test_prime_refuses_values_beyond_the_certified_bound():
    with pytest.raises(ValueError, match="too large"):
        Prime(2**89 - 1)


def test_coefficient_arithmetic():
    p = Prime(5)
    a, b = Coefficient(3, p), Coefficient(4, p)
    assert (a + b).residue == 2
    assert (a * b).residue == 2
    assert (a - b).residue == 4
    assert (a / b).residue == (3 * pow(4, 3, 5)) % 5
    assert a.inverse().residue == 2
    with pytest.raises(ZeroDivisionError):
        Coefficient(0, p).inverse()


def test_context_validation():
    with pytest.raises(ValueError):
        ring(3, "x x")
    with pytest.raises(ValueError):
        ring(3, [])
    ctx = ring(3, "x y")
    assert ctx.arity == 2 and ctx.p == 3


@pytest.mark.parametrize("name", ["p", "1y", "x y", "x.y", "x+", ""])
def test_context_rejects_names_the_parser_cannot_read(name):
    with pytest.raises(ValueError, match="invalid variable name"):
        ring(3, ["x", name])


def test_context_names_round_trip_through_the_parser():
    ctx = ring(3, ["_t", "x11", "a42", "X_1"])
    f = ctx.variable("_t") * ctx.variable("x11") + ctx.variable("a42") ** 2 - ctx.variable("X_1")
    assert parse_expr(str(f), ctx) == f


def test_add_inverse_cancels():
    ctx = ring(5, "x y")
    x = ctx.variable("x")
    assert (x + x.scale(4)).is_zero()


def test_add_distinct_variables():
    ctx = ring(5, "x y")
    s = ctx.variable("x") + ctx.variable("y")
    assert s.terms == {(1, 0): 1, (0, 1): 1}


def test_char2_doubling():
    ctx = ring(2, "x")
    f = ctx.monomial((2,)) + ctx.one()
    assert (f + f).is_zero()


def test_mul_basic():
    ctx = ring(5, "x y")
    assert ctx.variable("x") * ctx.variable("y") == ctx.monomial((1, 1))


def test_freshmans_dream_char2():
    ctx = ring(2, "x y")
    s = ctx.variable("x") + ctx.variable("y")
    assert s * s == ctx.monomial((2, 0)) + ctx.monomial((0, 2))


def test_node_square_matches_schoolbook_oracle():
    ctx = ring(3, "x y")
    node = ctx.monomial((0, 2)) - ctx.monomial((3, 0)) - ctx.monomial((2, 0))
    expected = schoolbook_mul(dict(node.terms), dict(node.terms), 3)
    assert (node * node).terms == expected
    # Frozen six-term expansion.
    assert (node * node).terms == {
        (0, 4): 1,
        (6, 0): 1,
        (4, 0): 1,
        (3, 2): 1,
        (2, 2): 1,
        (5, 0): 2,
    }


def test_context_mismatch_raises():
    a = ring(3, "x y").variable("x")
    b = ring(3, "u v").variable("u")
    with pytest.raises(ContextMismatchError):
        a + b
    with pytest.raises(ContextMismatchError):
        a * b


@pytest.mark.parametrize(
    "p,expr,expected",
    [
        (2, {(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (0, 2): 1}),
        (3, {(1,): 1, (0,): 1}, {(3,): 1, (0,): 1}),
        (3, {(1, 0): 2, (0, 1): 1}, {(3, 0): 2, (0, 3): 1}),
    ],
)
def test_frobenius_examples(p, expr, expected):
    n = len(next(iter(expr)))
    ctx = ring(p, [f"x{i}" for i in range(n)])
    assert Polynomial(ctx, expr).frobenius() == Polynomial(ctx, expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_frobenius_agrees_with_repeated_multiplication(p):
    rng = random.Random(100 + p)
    ctx = ring(p, "x y z")
    for _ in range(25):
        f = rand_poly(rng, ctx, max_deg=4)
        assert f.frobenius() == f**p


def test_pow_p_minus_1_examples():
    ctx = ring(3, "x y")
    xy = ctx.monomial((1, 1))
    assert xy.pow_p_minus_1() == ctx.monomial((2, 2))
    ctx2 = ring(2, "x y")
    f = ctx2.monomial((0, 2)) + ctx2.monomial((3, 0)) + ctx2.monomial((2, 0))
    assert f.pow_p_minus_1() == f


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pow_p_minus_1_multiply_back_and_cross_check(p):
    rng = random.Random(200 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        f = rand_poly(rng, ctx, max_deg=3, nonzero=True)
        g = f.pow_p_minus_1()
        assert g == f ** (p - 1)
        assert g * f == f.frobenius()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pow_p_minus_1_matches_repeated_multiplication(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ctx = ring(p, [f"x{i}" for i in range(data.draw(st.integers(1, 3)))])
    f = data.draw(polys(ctx, max_exp=2, max_terms=4, nonzero=True))
    g = f.pow_p_minus_1()
    assert g == f ** (p - 1)
    assert g * f == f.frobenius()
    # Both routes, whichever the estimate picks.
    assert exact_divide(f.frobenius(), f) == g


def test_pow_p_minus_1_squares_dense_f_at_small_p(monkeypatch):
    # Every monomial of degree <= 3 in 6 variables: squaring costs 84^2
    # term products, dividing f^3 by f about 924 * 84 term updates.
    ctx = ring(3, "a b c d e g")
    f = Polynomial(ctx, {m: 1 for m in itertools.product(range(4), repeat=6) if sum(m) <= 3})

    def refuse(*args):
        raise AssertionError("f^(p-1) divided where squaring is cheaper")

    monkeypatch.setattr(fparith, "exact_divide", refuse)
    assert f.pow_p_minus_1() == f * f


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(1, 12), max_size=3
    ),
    k=st.integers(0, 40),
)
@example(p=7, terms={(2, 1): 3}, k=5)
@example(p=3, terms={}, k=0)
@example(p=3, terms={}, k=4)
# Degree 9 times k = 30 is 270, over 255: the fields are 16 bits wide.
@example(p=13, terms={(9, 0): 2, (0, 1): 1, (0, 0): 5}, k=30)
def test_pow_matches_a_multiplication_loop(p, terms, k):
    ctx = ring(p, "x y")
    f = Polynomial(ctx, terms)
    expected = ctx.one()
    for _ in range(k):
        expected = expected * f
    assert f**k == expected


def _digits(k, p):
    """The base-p digits of k, lowest first."""
    digits = []
    while k:
        k, d = divmod(k, p)
        digits.append(d)
    return digits


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6, 7, 12, 100])
def test_log_power_products_counts_pow_multiplications(k):
    # A monomial's powers have one term, so the estimate is the number of
    # multiplications the digit route makes: the squarings and other
    # products of each nonzero digit's square-and-multiply, and one product
    # per nonzero digit after the first.  At p = 1009, k is one digit.
    def multiplications(d):
        return d.bit_length() - 1 + bin(d).count("1") - 1

    for p in (1009, 11, 3, 2):
        digits = [d for d in _digits(k, p) if d]
        expected = sum(map(multiplications, digits)) + max(len(digits) - 1, 0)
        assert math.exp(log_power_bounds(1, 1, 1, k, p, math.inf)[0]) == pytest.approx(expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_term_products_match_dict_arithmetic(data):
    ctx = data.draw(contexts)
    term = data.draw(polys(ctx, max_exp=4, max_terms=1, nonzero=True))
    f = data.draw(polys(ctx, max_exp=3, max_terms=6))
    expected = schoolbook_mul(term.terms, f.terms, ctx.p)
    assert (term * f).terms == expected
    assert (f * term).terms == expected


def test_pow_p_minus_1_at_p_2_is_f_without_an_estimate(monkeypatch):
    def refuse(*args):
        raise AssertionError("f^(p-1) estimated at p = 2")

    monkeypatch.setattr(fparith, "log_power_terms", refuse)
    monkeypatch.setattr(Polynomial, "total_degree", refuse)
    ctx = ring(2, "x y z")
    f = parse_expr("x*y + y*z^3 + x + 1", ctx)
    assert f.pow_p_minus_1() is f


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    terms=st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), st.integers(1, 40), max_size=12
    ),
)
def test_packed_square_matches_packed_product(p, terms):
    # Coefficients up to 40, left unreduced mod p, so the kernels reduce
    # their sums of products.
    pk = fparith.packing(fparith.grevlex_layout(3), fparith.fit_bits(30))
    a = pk.pack_terms(terms)
    square = fparith._packed_square(a, pk.base, p)
    assert square == fparith.packed_product(a, a, pk.base, p)
    assert pk.unpack_terms(square) == schoolbook_mul(terms, terms, p)


def test_pow_p_minus_1_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ring(3, "x").zero().pow_p_minus_1()


def test_exact_divide_monomials():
    ctx = ring(3, "x y")
    assert exact_divide(ctx.monomial((2, 2)), ctx.monomial((1, 1))) == ctx.monomial((1, 1))


def test_exact_divide_not_divisible():
    ctx = ring(3, "x y")
    with pytest.raises(NotDivisibleError) as err:
        exact_divide(ctx.variable("x"), ctx.variable("y"))
    assert err.value.remainder == ctx.variable("x")
    with pytest.raises(ZeroDivisionError):
        exact_divide(ctx.variable("x"), ctx.zero())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_divide_multiply_back(p):
    rng = random.Random(300 + p)
    ctx = ring(p, "x y z")
    for _ in range(25):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx, nonzero=True)
        assert exact_divide(a * b, b) == a


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_divide_property(data):
    ctx = data.draw(contexts)
    a = data.draw(polys(ctx))
    b = data.draw(polys(ctx, nonzero=True))
    assert exact_divide(a * b, b) == a
    extra = data.draw(polys(ctx))
    try:
        q = exact_divide(a * b + extra, b)
    except NotDivisibleError as err:
        rem = err.remainder
        assert not rem.is_zero()
        lead = max(b.terms, key=grevlex_key)
        assert not any(monomial_divides(lead, m) for m in rem.terms)
        # The remainder differs from the dividend by a multiple of b.
        exact_divide(a * b + extra - rem, b)
    else:
        assert q * b == a * b + extra


def test_substitute_zero():
    ctx = ring(3, "x y")
    f = ctx.monomial((1, 1)) + ctx.monomial((0, 2))
    assert substitute_zero(f, 0) == ctx.monomial((0, 2))
    assert substitute_zero(ctx.monomial((2, 0)), 0).is_zero()
    with pytest.raises(IndexError):
        substitute_zero(f, 2)


def test_homogeneous_degree():
    ctx = ring(3, "x y")
    assert (ctx.monomial((1, 1)) + ctx.monomial((0, 2))).homogeneous_degree() == 2
    assert (ctx.variable("x") + ctx.monomial((0, 2))).homogeneous_degree() is None
    zero = ctx.zero()
    assert zero.homogeneous_degree() == 0 and zero.is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_ring_axioms_random_triples(p):
    rng = random.Random(400 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        a, b, c = (rand_poly(rng, ctx) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_canonical_no_zero_coefficients(p):
    rng = random.Random(500 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        a, b = rand_poly(rng, ctx), rand_poly(rng, ctx)
        for result in (a + b, a - b, a * b):
            assert all(1 <= c < p for c in result.terms.values())


def test_rendering_golden():
    ctx = ring(7, "x y")
    f = ctx.monomial((5, 0), 2) + ctx.monomial((3, 2))
    assert str(f) == "2*x^5 + x^3*y^2"
    assert str(ctx.zero()) == "0"
    assert str(ctx.one()) == "1"
    assert str(ctx.constant(3) * ctx.variable("y")) == "3*y"
    node = ring(3, "x y")
    f = (node.monomial((0, 2)) - node.monomial((3, 0)) - node.monomial((2, 0))) ** 2
    assert str(f) == "x^6 + 2*x^5 + x^3*y^2 + x^4 + x^2*y^2 + y^4"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sorted_terms_is_descending_grevlex(data):
    n = data.draw(st.integers(1, 12))
    ctx = ring(data.draw(st.sampled_from([2, 3, 5, 7])), [f"x{i}" for i in range(n)])
    f = data.draw(polys(ctx, max_exp=3, max_terms=12))
    order = sorted(f.terms, key=grevlex_key, reverse=True)
    assert [m for m, _ in f.sorted_terms()] == order
    k = data.draw(st.integers(0, len(order) + 2))
    assert f.sorted_terms(k) == [(m, f.terms[m]) for m in order[:k]]


@given(contexts.flatmap(lambda ctx: st.tuples(polys(ctx), st.permutations(range(ctx.arity)))))
def test_embed_by_a_permutation_matches_the_general_path(args):
    # Into a ring of f's own arity, embed only permutes each monomial;
    # into one more variable, it reads that variable's exponent as 0.
    f, perm = args
    n, p = f.context.arity, f.context.p
    same = ring(p, [f"y{i}" for i in range(n)])
    wider = ring(p, [f"y{i}" for i in range(n + 1)])
    general = embed(f, wider, perm)
    assert embed(f, same, perm).terms == {m[:n]: c for m, c in general.terms.items()}


def test_embed():
    src = ring(3, "x y")
    dst = ring(3, "a x y")
    f = src.monomial((1, 2), 2)
    assert embed(f, dst, [1, 2]) == dst.monomial((0, 1, 2), 2)
    with pytest.raises(ValueError):
        embed(f, dst, [1, 1])
    with pytest.raises(ValueError):
        embed(f, dst, [1, 3])
    line = ring(3, "t")
    g = line.monomial((4,), 2) + line.one()
    assert embed(g, ring(3, "s"), [0]) == parse_expr("2*s^4 + 1", ring(3, "s"))
    assert embed(g, dst, [2]) == parse_expr("2*y^4 + 1", dst)


def test_compose():
    # f(u, v) = u*v + 1 evaluated at u = x+y, v = x.
    src = ring(3, "u v")
    dst = ring(3, "x y")
    f = src.monomial((1, 1)) + src.one()
    x, y = dst.variable("x"), dst.variable("y")
    assert compose(f, [x + y, x]) == (x + y) * x + dst.one()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_derivative_product_rule(data):
    ctx = data.draw(contexts)
    f, g = data.draw(polys(ctx)), data.draw(polys(ctx))
    i = data.draw(st.integers(0, ctx.arity - 1))
    assert (f * g).derivative(i) == f.derivative(i) * g + f * g.derivative(i)
    # A p-th power is a constant for every derivation.
    assert f.frobenius().derivative(i).is_zero()


def test_derivative_example():
    ctx = ring(3, "x y")
    f = parse_expr("x^4*y + 2*x^3 + x*y^2 + y", ctx)
    assert f.derivative(0) == parse_expr("x^3*y + y^2", ctx)
    assert f.derivative(1) == parse_expr("x^4 + 2*x*y + 1", ctx)


def test_pow_p_minus_1_raises_one_term_f_without_an_estimate(monkeypatch):
    def refuse(*args):
        raise AssertionError("f^(p-1) of one term estimated")

    monkeypatch.setattr(fparith, "log_power_terms", refuse)
    monkeypatch.setattr(fparith, "exact_divide", refuse)
    monkeypatch.setattr(Polynomial, "total_degree", refuse)
    ctx = ring(5, "x y")
    f = ctx.monomial((1, 2), 2)
    assert f.pow_p_minus_1() == ctx.monomial((4, 8), 16)


@settings(max_examples=200, deadline=None)
@given(
    terms=st.integers(1, 60),
    arity=st.integers(1, 6),
    degree=st.integers(0, 6),
    p=st.sampled_from([2, 3, 5, 7, 11, 101, 1009]),
)
def test_p_minus_1_cost_is_never_above_the_squaring_estimate(terms, arity, degree, p):
    # The parser budgets a (p-1)-st power by this cost, where it used the
    # squaring estimate: no power it accepted is refused now.
    cost = log_power_bounds(terms, arity, degree, p - 1, p, math.inf)[0]
    assert cost <= fparith._log_square_and_multiply(terms, arity, degree, p - 1, math.inf) + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_power_term_bound_is_never_below_the_terms(data):
    # Every refusal of a power rests on this bound, for an exponent of one
    # base-p digit and of several.
    ctx = data.draw(contexts)
    f = data.draw(polys(ctx, max_exp=2, max_terms=4, nonzero=True))
    p = ctx.p
    k = data.draw(st.integers(1, max(p * p - 1, 26)))
    _, size = log_power_bounds(len(f.terms), ctx.arity, f.total_degree(), k, p, math.inf)
    assert size >= math.log(len((f**k).terms)) - 1e-9


def test_one_power_terms_budget_gates_the_parser_the_fedder_module_and_the_minors(monkeypatch):
    # (x+y+1)^6 at p = 7, ((x*y+1)*(x+y))^4 in the Fedder module at p = 5
    # and the 3x3 minor to the 4th are bounded at 28, 35 and 126 terms: all
    # three are built under the default budget, and refused below 28.
    from frobsplit import IdealPresentation, fedder_module, rescert

    ctx5 = ring(5, "x y")
    calls = {
        "power too large": lambda: parse_expr("(x+y+1)^(p-1)", ring(7, "x y")),
        "Fedder module too large": lambda: fedder_module(
            IdealPresentation(ctx5, (parse_expr("x*y+1", ctx5), parse_expr("x+y", ctx5)))
        ),
        "matrix too large": lambda: rescert.matrix_section_coefficient(rescert.matrix_context(3, 5), 3),
    }
    for call in calls.values():
        call()
    monkeypatch.setattr(fparith, "MAX_POWER_TERMS", 27)
    for message, call in calls.items():
        with pytest.raises(ValueError, match=message):
            call()


@settings(max_examples=300, deadline=None)
@given(
    terms=st.integers(1, 60),
    arity=st.integers(1, 12),
    degree=st.integers(0, 12),
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    products=st.integers(1, 10**7),
    power_terms=st.integers(1, 10**5),
)
def test_p_minus_1_gate_agrees_with_the_estimate(terms, arity, degree, p, products, power_terms):
    # The gate passes f^(p-1) of few terms by T^p and T^(p-1) alone: under
    # any budgets, it must answer as the estimate does.
    cap = math.log(products)
    cost, size = log_power_bounds(terms, arity, degree, p - 1, p, cap)
    with mock.patch.multiple(fparith, MAX_TERM_PRODUCTS=products, MAX_POWER_TERMS=power_terms):
        refused = fparith.power_too_large(terms, arity, degree, p - 1, p)
    assert refused == (cost > cap or size > math.log(power_terms))


def _by_digits(f, k):
    """f^k as prod_i (f^[p^i])^(d_i) for the base-p digits d_i of k, each
    factor by repeated multiplication of the Frobenius power f^[p^i]: tuple
    arithmetic only, with no packed key.  For k < p it is repeated
    multiplication."""
    p = f.context.p
    result, frobenius = f.context.one(), f
    for d in _digits(k, p):
        for _ in range(d):
            result = result * frobenius
        frobenius = frobenius.frobenius()
    return result


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pow_matches_repeated_multiplication_across_digits(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 101]))
    ctx = ring(p, "x y")
    if p == 101:
        # Sparse, so that a digit p-1 divides f^p by f.
        f = parse_expr(data.draw(st.sampled_from(["x*y + x + 1", "x + 1", "x^2 + 3*x*y"])), ctx)
    else:
        f = data.draw(polys(ctx, max_exp=2, max_terms=3, nonzero=True))
    boundary = [p - 2, p - 1, p, p + 1, 2 * p - 1, p * p - 1, p * p]
    k = data.draw(st.sampled_from(boundary) | st.integers(0, p**3))
    # The reference expands every digit: keep f^k to a few thousand terms.
    t = len(f.terms)
    assume(math.prod(math.comb(d + t - 1, t - 1) for d in _digits(k, p)) <= 3000)
    assert f**k == _by_digits(f, k)
    if k <= 40:
        expected = f.context.one()
        for _ in range(k):
            expected = expected * f
        assert f**k == expected


@pytest.mark.parametrize(
    "p, text, k, bits, divisions",
    [
        # Degree 3 at p = 43: f^(p-1) has degree 126, in 7-bit fields, but
        # its division route divides f^p, of degree 129, and needs 15 bits.
        (43, "x^2*y + x + 1", 42, 15, 1),
        (43, "x^2*y + x + 1", 41, 7, 0),
        (43, "x^2*y + x + 1", 2 * 43 - 1, 15, 1),
        (43, "x^2*y + x + 1", 43 * 43 + 42, 15, 1),
        # A dense f squares its digit p-1.
        (5, "(x + y + 1)^2", 4, 7, 0),
        (101, "x*y + x + 1", 100, 15, 1),
        (101, "x*y + x + 1", 2 * 101 - 1, 15, 1),
        # f^(p-1) packs at the width of f^p on the squaring route too:
        # f^2 has degree 86, in 7-bit fields, but f^3 has degree 129.
        (3, "x^43 + y + 1", 2, 15, 0),
    ],
)
def test_pow_packs_at_the_width_of_its_route(p, text, k, bits, divisions, monkeypatch):
    ctx = ring(p, "x y")
    f = parse_expr(text, ctx)
    expected = _by_digits(f, k)
    widths, divided = [], []
    packing, divide = fparith.packing, fparith.divide_terms
    monkeypatch.setattr(fparith, "packing", lambda layout, b: widths.append(b) or packing(layout, b))
    monkeypatch.setattr(fparith, "divide_terms", lambda *args, **options: divided.append(args) or divide(*args, **options))
    assert f**k == expected
    assert widths == [bits] and len(divided) == divisions


# Layouts of each kind: grevlex's fields come out in variable order and
# are read by one struct call; lex's and elim(1)'s, for n > 1, do not and
# are read by shift and mask.
ROOT_LAYOUTS = ["grevlex", "lex", "elim"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_roots_match_frobenius_roots_and_reassemble(data):
    ctx = data.draw(contexts)
    p, n = ctx.p, ctx.arity
    kind = data.draw(st.sampled_from(ROOT_LAYOUTS if n > 1 else ROOT_LAYOUTS[:2]))
    order = MonomialOrder(kind, 1 if kind == "elim" else 0)
    # 7, 15, 31 and 63 bits fill whole bytes with their guard bits, 127 not.
    bits = data.draw(st.sampled_from([7, 15, 31, 63, 127]))
    pk = fparith.packing(order.layout(n), bits)
    assert (pk._struct is None) == (bits == 127 or (kind != "grevlex" and n > 1))
    # Exponents up to the widest a field holds, so the degree field fills.
    f = data.draw(polys(ctx, max_exp=((1 << bits) - 1) // n, max_terms=8))
    roots = fparith.packed_roots(pk.pack_terms(f.terms), pk, p)
    unpacked = {b: Polynomial(ctx, pk.unpack_terms(h)) for b, h in roots.items()}
    assert unpacked == frobenius_roots(f)
    assert all(h and all(0 <= e < p for e in b) for b, h in roots.items())
    total = ctx.zero()
    for b, h in unpacked.items():
        total = total + ctx.monomial(b) * h.frobenius()
    assert total == f
