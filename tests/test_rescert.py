"""Residue steps, chains, and the nested-minor matrix sections."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit import (
    NotDivisibleError,
    Polynomial,
    TwistedEndo,
    VanishingResidueError,
    VerdictKind,
    certify_chain,
    check_splitting,
    embed,
    exact_divide,
    homogeneous_fastpath,
    ideal,
    is_compatible,
    matrix_context,
    matrix_factors,
    matrix_section_coefficient,
    minor,
    origin_coefficient,
    parse_expr,
    rescert,
    residue_step,
    ring,
    search_chain,
    substitute_zero,
)
from frobsplit.fparith import Packing, term_str
from frobsplit.rescert import render_truncated
from _util import contexts, exhaustive_chain, polys, rand_poly


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_packed_minor_product_matches_the_multiplication_chain(n, p):
    ctx = matrix_context(n, p)
    if (n, p) == (4, 5):
        # The 186,494-term product of the powers of the leading minors
        # times the 120-term power of the trailing 3x3 minor.
        with pytest.raises(ValueError, match="powers of its nested minors takes 22379280 term"):
            matrix_section_coefficient(ctx, n)
        return
    product = ctx.one()
    for f in matrix_factors(ctx, n):
        product = product * f ** (p - 1)
    assert matrix_section_coefficient(ctx, n) == product


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.sampled_from([2, 3, 5, 7]))
def test_section_is_the_power_of_the_product(n, p):
    ctx = matrix_context(n, p)
    product = ctx.one()
    for f in matrix_factors(ctx, n):
        product = product * f
    assert matrix_section_coefficient(ctx, n) == product ** (p - 1)


def test_section_power_over_budget_is_refused_before_unpacking(monkeypatch):
    # The powers are multiplied on packed keys; the 5x5 section at p = 3
    # is refused at the multiplication by the 5x5 minor's power.
    def unpacked(*args):
        raise AssertionError("product unpacked before it was refused")

    monkeypatch.setattr(Packing, "unpack_terms", unpacked)
    with pytest.raises(ValueError, match="multiplying the powers of its nested minors takes"):
        matrix_section_coefficient(matrix_context(5, 3), 5)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_one_term_powers_never_shift_a_larger_product(monkeypatch, n, p):
    # The 1x1 minors' powers are single terms: each multiplies the product
    # while it is still one term, not the section once it is built.
    multiply = rescert.packed_product

    def checked(a, b, *rest):
        assert len(b) > 1 or len(a) == 1, f"{len(b)}-term power times {len(a)} terms"
        return multiply(a, b, *rest)

    ctx = matrix_context(n, p)
    expected = matrix_section_coefficient(ctx, n)
    monkeypatch.setattr(rescert, "packed_product", checked)
    assert matrix_section_coefficient(ctx, n) == expected


def _det_oracle(ctx, n, rows, cols):
    """Cofactor expansion along the first row, independent of the Leibniz
    sum that ``minor`` writes out."""
    if len(rows) == 1:
        return ctx.variable(rows[0] * n + cols[0])
    total = ctx.zero()
    for k, col in enumerate(cols):
        rest = _det_oracle(ctx, n, rows[1:], cols[:k] + cols[k + 1 :])
        piece = ctx.variable(rows[0] * n + col) * rest
        total = total + (piece if k % 2 == 0 else -piece)
    return total


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_cross_two_steps(p):
    ctx = ring(p, "x y")
    f = parse_expr("(x*y)^(p-1)", ctx)
    step1 = residue_step(f, 0)
    assert step1 == parse_expr("y^(p-1)", ctx)
    assert residue_step(step1, 1) == ctx.one()


def test_residue_not_divisible():
    ctx = ring(3, "x y")
    with pytest.raises(NotDivisibleError):
        residue_step(parse_expr("y^2", ctx), 0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_residue_step_matches_divide_then_substitute(data):
    ctx = data.draw(contexts)
    var = data.draw(st.integers(0, ctx.arity - 1))
    exps = [0] * ctx.arity
    exps[var] = ctx.p - 1
    power = ctx.monomial(exps)
    f = data.draw(polys(ctx)) * power
    if data.draw(st.booleans()):
        f = f + data.draw(polys(ctx, max_exp=ctx.p))
    try:
        expected = substitute_zero(exact_divide(f, power), var)
    except NotDivisibleError as err:
        with pytest.raises(NotDivisibleError) as got:
            residue_step(f, var)
        assert got.value.remainder == err.remainder
        return
    if expected.is_zero():
        with pytest.raises(VanishingResidueError):
            residue_step(f, var)
    else:
        assert residue_step(f, var) == expected


@pytest.mark.parametrize("p", [3, 5])
def test_residue_smooth_vs_multiple_component(p):
    ctx = ring(p, "x y")
    f = parse_expr("x^(p-1)*(x+y)^(p-1)", ctx)
    assert residue_step(f, 0) == parse_expr("y^(p-1)", ctx)
    with pytest.raises(VanishingResidueError):
        residue_step(parse_expr("x^(2*p-2)", ctx), 0)


@pytest.mark.parametrize("p", [2, 3])
def test_certify_cross(p):
    ctx = ring(p, "x y")
    chain = certify_chain(parse_expr("(x*y)^(p-1)", ctx), [0, 1])
    assert chain.terminal.residue == 1
    assert len(chain.steps) == 2


def test_certify_requires_full_permutation():
    ctx = ring(3, "x y")
    with pytest.raises(ValueError):
        certify_chain(ctx.one(), [0])


def test_certify_one_not_divisible():
    ctx = ring(2, "x")
    with pytest.raises(NotDivisibleError):
        certify_chain(ctx.one(), [0])


def test_sigma8_substitution_matches_determinant_oracle():
    # Setting the corner entry to zero inside the full determinant gives
    # the determinant of the matrix with that entry zeroed.
    ctx = matrix_context(3, 2)
    det3 = minor(ctx, 3, [0, 1, 2], [0, 1, 2])
    from frobsplit import substitute_zero

    zeroed = substitute_zero(det3, ctx.index("x11"))
    oracle = _det_oracle(ctx, 3, [0, 1, 2], [0, 1, 2])
    assert det3 == oracle
    assert zeroed == substitute_zero(oracle, ctx.index("x11"))
    assert ctx.index("x11") not in [i for m in zeroed.terms for i, e in enumerate(m) if e]


def test_matrix_factors_small():
    ctx1 = matrix_context(1, 2)
    assert [str(f) for f in matrix_factors(ctx1, 1)] == ["x11"]
    ctx2 = matrix_context(2, 3)
    fs = matrix_factors(ctx2, 2)
    assert fs[0] == ctx2.variable("x11")
    assert fs[1] == _det_oracle(ctx2, 2, [0, 1], [0, 1])
    assert fs[2] == ctx2.variable("x22")
    assert len(fs) == 3


def test_matrix_factors_3x3_against_oracle():
    ctx = matrix_context(3, 2)
    fs = matrix_factors(ctx, 3)
    assert len(fs) == 5
    assert fs[0] == ctx.variable("x11")
    assert fs[1] == _det_oracle(ctx, 3, [0, 1], [0, 1])
    assert fs[2] == _det_oracle(ctx, 3, [0, 1, 2], [0, 1, 2])
    assert fs[3] == _det_oracle(ctx, 3, [1, 2], [1, 2])
    assert fs[4] == ctx.variable("x33")


@pytest.mark.parametrize(
    "rows, cols",
    [
        ([0, 1, 2, 3], [0, 1, 2, 3]),
        ([3, 1, 2, 0], [0, 2, 1, 3]),
        ([2, 0, 3], [1, 3, 0]),
        ([0, 0], [1, 2]),
        ([1, 1], [2, 2]),
    ],
)
@pytest.mark.parametrize("p", [2, 3])
def test_minor_matches_cofactor_expansion(p, rows, cols):
    ctx = matrix_context(4, p)
    assert minor(ctx, 4, rows, cols) == _det_oracle(ctx, 4, rows, cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_minor_matches_cofactor_expansion_on_any_rows_and_cols(data):
    # Rows and columns may repeat, so that equal terms of opposite sign
    # must cancel.
    p = data.draw(st.sampled_from([2, 3, 5]))
    k = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    cols = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    ctx = matrix_context(5, p)
    assert minor(ctx, 5, rows, cols) == _det_oracle(ctx, 5, rows, cols)


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_chain_upper_left_order(p):
    ctx = matrix_context(3, p)
    coeff = matrix_section_coefficient(ctx, 3)
    order = [ctx.index(v) for v in ["x11", "x12", "x21", "x22", "x13", "x31", "x23", "x32", "x33"]]
    chain = certify_chain(coeff, order)
    assert chain.terminal.residue != 0
    # After the first four steps only the antidiagonal block remains.
    stage = chain.steps[3][1]
    assert stage == parse_expr("(x13*x31*x23*x32*x33)^(p-1)", ctx)


def test_matrix_chain_two_distinct_orders():
    ctx = matrix_context(3, 2)
    coeff = matrix_section_coefficient(ctx, 3)
    order_a = [ctx.index(v) for v in ["x11", "x12", "x21", "x22", "x13", "x31", "x23", "x32", "x33"]]
    order_b = [ctx.index(v) for v in ["x33", "x32", "x23", "x22", "x31", "x13", "x21", "x12", "x11"]]
    assert order_a != order_b
    for order in (order_a, order_b):
        assert certify_chain(coeff, order).terminal.residue != 0


@pytest.mark.parametrize("n,p", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_matrix_chain_soundness(n, p):
    ctx = matrix_context(n, p)
    coeff = matrix_section_coefficient(ctx, n)
    chain = search_chain(coeff)
    assert chain is not None
    assert origin_coefficient(coeff) == chain.terminal
    assert coeff.homogeneous_degree() == n * n * (p - 1)
    assert homogeneous_fastpath(TwistedEndo(coeff)).kind is VerdictKind.SPLITTING


@pytest.mark.parametrize("p", [2, 3, 5])
def test_search_chain_finds_cross(p):
    ctx = ring(p, "x y")
    chain = search_chain(parse_expr("(x*y)^(p-1)", ctx))
    assert chain is not None
    assert [var for var, _ in chain.steps] == [0, 1]
    assert chain.terminal.residue == 1


def test_search_chain_round_trip():
    ctx = matrix_context(2, 3)
    coeff = matrix_section_coefficient(ctx, 2)
    chain = search_chain(coeff)
    assert chain is not None
    order = [var for var, _ in chain.steps]
    replay = certify_chain(coeff, order)
    assert replay.terminal == chain.terminal
    assert replay.steps == chain.steps


@st.composite
def chain_candidates(draw):
    """Sections in up to 5 variables whose exponents are mostly p-1, so
    that many have a residue chain and many more fail late."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    ctx = ring(p, [f"x{i}" for i in range(n)])
    exps = st.tuples(*[st.sampled_from([p - 1, p - 1, p - 1, 0, p, 2 * p - 1])] * n)
    terms = draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=5))
    if draw(st.booleans()):
        terms[(p - 1,) * n] = draw(st.integers(1, p - 1))
    return Polynomial(ctx, terms)


@settings(max_examples=300, deadline=None)
@given(chain_candidates())
def test_search_chain_matches_the_search_over_all_orders(f):
    assert search_chain(f) == exhaustive_chain(f)


def test_search_chain_tries_steps_without_building_remainders(monkeypatch):
    # A uniform relabeling of the 3x3 section makes the search skip
    # variables whose step fails; none of those tries may take the
    # residue_step path or build a NotDivisibleError with its remainder.
    ctx = matrix_context(3, 2)
    perm = list(range(ctx.arity))
    random.Random(2020).shuffle(perm)
    g = embed(matrix_section_coefficient(ctx, 3), ctx, perm)

    def refused(*args):
        raise AssertionError("search_chain called residue_step")

    class Refused(ArithmeticError):
        def __init__(self, *args):
            raise AssertionError("search_chain built a NotDivisibleError")

    with monkeypatch.context() as patch:
        patch.setattr(rescert, "residue_step", refused)
        patch.setattr(rescert, "NotDivisibleError", Refused)
        chain = search_chain(g)
    assert chain is not None
    order = [var for var, _ in chain.steps]
    assert order != sorted(order)
    assert certify_chain(g, order) == chain


def test_search_chain_misses_node():
    # The nodal coefficient is a splitting but has no coordinate-power
    # factor, so the coordinate-residue search cannot certify it.
    ctx = ring(3, "x y")
    node = parse_expr("(y^2-x^3-x^2)^(p-1)", ctx)
    assert check_splitting(TwistedEndo(node)).is_splitting
    assert search_chain(node) is None


@pytest.mark.parametrize("p", [2, 3])
def test_step_compatibility_coherence(p):
    # A successful residue step along x_i means the hyperplane ideal is
    # compatible.
    rng = random.Random(1500 + p)
    ctx = ring(p, "x y")
    hits = 0
    for _ in range(40):
        f = rand_poly(rng, ctx, max_deg=2 * p, max_terms=4) * parse_expr("x^(p-1)", ctx)
        try:
            residue_step(f, 0)
        except (NotDivisibleError, VanishingResidueError):
            continue
        hits += 1
        assert is_compatible(TwistedEndo(f), ideal(ctx.variable("x")), "both")
    assert hits > 5


def test_origin_coefficient():
    ctx = ring(2, "x y")
    assert origin_coefficient(parse_expr("x*y", ctx)).residue == 1
    assert origin_coefficient(parse_expr("x^p", ctx)).residue == 0
    ctx3 = matrix_context(3, 2)
    assert origin_coefficient(matrix_section_coefficient(ctx3, 3)).residue == 1


def test_render_truncated():
    ctx = ring(5, "x")
    f = ctx.zero()
    for i in range(50):
        f = f + ctx.monomial((i,))
    text = render_truncated(f, limit=40)
    assert text.endswith("... (50 terms)")
    short = parse_expr("x^2+x", ctx)
    assert render_truncated(short) == str(short)


@pytest.mark.parametrize("p, limit", [(2, 5), (3, 40), (5, 1)])
def test_render_truncated_matches_full_sort(p, limit):
    rng = random.Random(2300 + p)
    ctx = ring(p, "x y z")
    for max_terms in (limit - 1, limit, limit + 1, 3 * limit):
        f = rand_poly(rng, ctx, max_deg=6, max_terms=max(max_terms, 0))
        head = [term_str(ctx, m, c) for m, c in list(f.sorted_terms())[:limit]]
        full = " + ".join(head) + f" + ... ({len(f.terms)} terms)"
        assert render_truncated(f, limit) == (str(f) if len(f.terms) <= limit else full)
