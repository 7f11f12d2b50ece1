"""Differential forms, the carry identity, and the top-form Cartier operator."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import (
    DifferentialForm,
    NoSuchIndexError,
    carry_polynomial,
    cartier_top,
    compose,
    d_coordinate,
    embed,
    exactness_witness,
    exterior_d,
    frobenius_trace,
    power_dlog_form,
    ring,
    volume_form,
    wedge,
)
from _util import grevlex_key, rand_poly


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_form_prints_by_monomial_then_index_descending(data):
    n = data.draw(st.integers(1, 4))
    ctx = ring(data.draw(st.sampled_from([2, 3, 5, 7])), [f"x{i}" for i in range(n)])
    degree = data.draw(st.integers(0, n))
    index = st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree, unique=True)
    key = st.tuples(st.tuples(*[st.integers(0, 3)] * n), index.map(lambda i: tuple(sorted(i))))
    terms = data.draw(st.dictionaries(key, st.integers(1, ctx.p - 1), max_size=10))
    order = sorted(terms, key=lambda t: (grevlex_key(t[0]), t[1]), reverse=True)
    shown = [str(DifferentialForm(ctx, degree, {t: terms[t]})) for t in order]
    assert str(DifferentialForm(ctx, degree, terms)) == (" + ".join(shown) or "0")


def _rand_form(rng, ctx, degree, max_terms=3):
    n = ctx.arity
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        idx = tuple(sorted(rng.sample(range(n), degree)))
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        terms[(exps, idx)] = rng.randrange(1, ctx.p)
    return DifferentialForm(ctx, degree, terms)


def test_d_of_square_char2():
    ctx = ring(2, "x y")
    f = DifferentialForm.from_polynomial(ctx.monomial((2, 0)))
    assert exterior_d(f).is_zero()


def test_d_product_rule_example():
    ctx = ring(5, "x y")
    d_xy = exterior_d(DifferentialForm.from_polynomial(ctx.monomial((1, 1))))
    expected = d_coordinate(ctx, 0).times_poly(ctx.variable("y")) + d_coordinate(
        ctx, 1
    ).times_poly(ctx.variable("x"))
    assert d_xy == expected


def test_d_of_top_form_is_zero():
    ctx = ring(3, "x y")
    top = volume_form(ctx).times_poly(ctx.monomial((2, 1)))
    assert exterior_d(top).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_d_squared_zero_random(p):
    rng = random.Random(1600 + p)
    ctx = ring(p, "x y z")
    for degree in range(ctx.arity):
        for _ in range(10):
            w = _rand_form(rng, ctx, degree)
            assert exterior_d(exterior_d(w)).is_zero()


def test_wedge_antisymmetry():
    ctx = ring(3, "x y")
    dx, dy = d_coordinate(ctx, 0), d_coordinate(ctx, 1)
    assert wedge(dx, dy) == -wedge(dy, dx)
    assert wedge(dx, dx).is_zero()
    lhs = wedge(dx.times_poly(ctx.variable("y")), dy.times_poly(ctx.variable("x")))
    assert lhs == volume_form(ctx).times_poly(ctx.monomial((1, 1)))


def test_wedge_degree_overflow():
    ctx = ring(3, "x y")
    top = volume_form(ctx)
    with pytest.raises(ValueError):
        wedge(top, d_coordinate(ctx, 0))


def test_wedge_associativity_random():
    rng = random.Random(1700)
    ctx = ring(3, "x y z")
    for _ in range(10):
        a = _rand_form(rng, ctx, 1)
        b = _rand_form(rng, ctx, 1)
        c = _rand_form(rng, ctx, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@pytest.mark.parametrize(
    "p,expected",
    [
        (2, {(1, 1): 1}),
        (3, {(2, 1): 1, (1, 2): 1}),
        (5, {(4, 1): 1, (3, 2): 2, (2, 3): 2, (1, 4): 1}),
    ],
)
def test_carry_polynomial_frozen(p, expected):
    phi = carry_polynomial(p)
    assert phi.terms == expected
    # Independent binomial oracle.
    oracle = {(k, p - k): (math.comb(p, k) // p) % p for k in range(1, p)}
    assert phi.terms == {m: c for m, c in oracle.items() if c}


def test_power_dlog_examples():
    ctx = ring(2, "x y")
    assert power_dlog_form(ctx.variable("x")) == d_coordinate(ctx, 0).times_poly(
        ctx.variable("x")
    )
    assert power_dlog_form(ctx.one()).is_zero()
    s = ctx.variable("x") + ctx.variable("y")
    expected = (d_coordinate(ctx, 0) + d_coordinate(ctx, 1)).times_poly(s)
    assert power_dlog_form(s) == expected


def test_power_dlog_sparse_at_large_p_is_fast():
    ctx = ring(31, "x y z")
    x, y, z = (ctx.variable(v) for v in "xyz")
    f = x * y + y * z + z * x + x + ctx.one()
    start = time.perf_counter()
    form = power_dlog_form(f)
    assert time.perf_counter() - start < 1.0
    # f^(p-1) df * f = f^p df.
    df = exterior_d(DifferentialForm.from_polynomial(f))
    assert form.times_poly(f) == df.times_poly(f.frobenius())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dlog_additivity_with_carry(p):
    # (f+g)^(p-1) d(f+g) = f^(p-1) df + g^(p-1) dg + d(carry(f, g)).
    rng = random.Random(1800 + p)
    ctx = ring(p, "x y")
    phi = carry_polynomial(p)
    for _ in range(30):
        f = rand_poly(rng, ctx, max_deg=2, nonzero=True)
        g = rand_poly(rng, ctx, max_deg=2, nonzero=True)
        if (f + g).is_zero():
            continue
        lhs = power_dlog_form(f + g)
        correction = exterior_d(DifferentialForm.from_polynomial(compose(phi, [f, g])))
        assert lhs == power_dlog_form(f) + power_dlog_form(g) + correction


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dlog_product_twisted_leibniz(p):
    # (fg)^(p-1) d(fg) = g^p f^(p-1) df + f^p g^(p-1) dg.
    rng = random.Random(1900 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        f = rand_poly(rng, ctx, max_deg=2, nonzero=True)
        g = rand_poly(rng, ctx, max_deg=2, nonzero=True)
        lhs = power_dlog_form(f * g)
        rhs = power_dlog_form(f).times_poly(g.frobenius()) + power_dlog_form(g).times_poly(
            f.frobenius()
        )
        assert lhs == rhs


@pytest.mark.parametrize("p", [2, 3])
def test_cartier_dlog_fixed_point(p):
    ctx = ring(p, "x y z")
    full = ctx.monomial((p - 1,) * 3)
    assert cartier_top(full) == ctx.one()


@pytest.mark.parametrize("p", [2, 3])
def test_cartier_pth_power_semilinearity(p):
    rng = random.Random(2000 + p)
    ctx = ring(p, "x y")
    full = ctx.monomial((p - 1, p - 1))
    for _ in range(15):
        h = rand_poly(rng, ctx, max_deg=2)
        g = rand_poly(rng, ctx, max_deg=2 * p)
        assert cartier_top(h.frobenius() * full) == h
        assert cartier_top(h.frobenius() * g) == h * cartier_top(g)


def test_cartier_kills_non_full_residues():
    ctx = ring(3, "x y")
    assert cartier_top(ctx.monomial((1, 2))).is_zero()
    assert cartier_top(ctx.monomial((0, 0))).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cartier_equals_trace_exhaustive(p):
    # Exhaustive duality check on monomials of degree <= 3p in <= 3 vars.
    for n in (1, 2, 3):
        ctx = ring(p, [f"x{i}" for i in range(n)])
        for m in itertools.product(range(3 * p + 1), repeat=n):
            if sum(m) > 3 * p:
                continue
            g = ctx.monomial(m)
            assert cartier_top(g) == frobenius_trace(g)


def test_exactness_witness_one_variable():
    ctx = ring(3, "x")
    eta = exactness_witness(ctx, (0,))
    assert exterior_d(eta) == volume_form(ctx)


def test_exactness_witness_example_p3():
    ctx = ring(3, "x y")
    eta = exactness_witness(ctx, (1, 0))
    target = volume_form(ctx).times_poly(ctx.variable("x"))
    assert exterior_d(eta) == target


def test_exactness_witness_all_full_residues_rejected():
    ctx = ring(3, "x y")
    with pytest.raises(NoSuchIndexError):
        exactness_witness(ctx, (2, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exactness_witness_range(p):
    # Every monomial the Cartier operator kills is explicitly a boundary.
    for n in (1, 2, 3):
        ctx = ring(p, [f"x{i}" for i in range(n)])
        tau = volume_form(ctx)
        for m in itertools.product(range(2 * p), repeat=n):
            if all((e + 1) % p == 0 for e in m):
                continue
            eta = exactness_witness(ctx, m)
            assert eta.degree == n - 1
            assert exterior_d(eta) == tau.times_poly(ctx.monomial(m))


@pytest.mark.parametrize("p", [2, 3])
def test_cartier_wedge_on_split_blocks(p):
    # On disjoint variable blocks the operator factors through the wedge,
    # matching the tensor identity for twisted endomorphisms.
    rng = random.Random(2100 + p)
    cx = ring(p, "x0 x1")
    cy = ring(p, "y0")
    joint = ring(p, "x0 x1 y0")
    for _ in range(15):
        g = rand_poly(rng, cx, max_deg=2 * p)
        h = rand_poly(rng, cy, max_deg=2 * p)
        gh = embed(g, joint, [0, 1]) * embed(h, joint, [2])
        lhs = cartier_top(gh)
        rhs = embed(cartier_top(g), joint, [0, 1]) * embed(cartier_top(h), joint, [2])
        assert lhs == rhs


def test_form_rendering_canonical():
    ctx = ring(3, "x y")
    w = DifferentialForm(ctx, 1, {((1, 2), (0,)): 2, ((0, 0), (1,)): 1})
    assert str(w) == "2*x*y^2 dx + dy"
    top = volume_form(ctx).times_poly(ctx.monomial((1, 1)))
    assert str(top) == "x*y dx^dy"
    assert str(DifferentialForm.zero(ctx, 1)) == "0"


@st.composite
def forms(draw, ctx, degree):
    """Forms of ``degree`` with up to four terms, exponents at most 2p."""
    idx = st.lists(st.integers(0, ctx.arity - 1), min_size=degree, max_size=degree, unique=True)
    exps = st.tuples(*[st.integers(0, 2 * ctx.p)] * ctx.arity)
    keys = st.tuples(exps, idx.map(lambda i: tuple(sorted(i))))
    terms = draw(st.dictionaries(keys, st.integers(1, ctx.p - 1), max_size=4))
    return DifferentialForm(ctx, degree, terms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_graded_leibniz_rule(data):
    # d(a ^ b) = da ^ b + (-1)^deg(a) a ^ db, with deg(a) + deg(b) < n.
    p = data.draw(st.sampled_from([2, 3, 5]))
    ctx = ring(p, "x y z")
    da = data.draw(st.integers(0, 2))
    a = data.draw(forms(ctx, da))
    b = data.draw(forms(ctx, data.draw(st.integers(0, 2 - da))))
    second = wedge(a, exterior_d(b))
    expected = wedge(exterior_d(a), b) + (-second if da % 2 else second)
    assert exterior_d(wedge(a, b)) == expected


def test_forms_group_terms_into_coefficients():
    ctx = ring(3, "x y")
    w = DifferentialForm(ctx, 1, {((1, 0), (0,)): 1, ((0, 1), (0,)): 2, ((2, 0), (1,)): 3})
    assert w.coefficients == {(0,): ctx.variable("x") + ctx.variable("y").scale(2)}
    with pytest.raises(ValueError, match="negative exponent"):
        DifferentialForm(ctx, 0, {((-1, 0), ()): 1})
