"""Twisted endomorphisms, splitting verdicts, localization, P1, semigroups."""

import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobsplit
from frobsplit import (
    ContextMismatchError,
    Polynomial,
    NotASplittingError,
    NotHomogeneousError,
    NumericalSemigroup,
    SemigroupVerdict,
    TwistedEndo,
    VerdictKind,
    certify_chain,
    check_splitting,
    fparith,
    frobenius_roots,
    frobenius_trace,
    homogeneous_fastpath,
    is_divisor_splitting,
    localized_apply,
    matrix_context,
    matrix_section_coefficient,
    p1_extension_check,
    parse_expr,
    rescert,
    ring,
    semigroup_split_check,
    splitcore,
    tensor,
)
from frobsplit.cli import main
from frobsplit.rescert import render_truncated
from _util import contexts, polys, rand_poly, semigroup_table, wide_contexts


def _splitting_coeff(rng, ctx, extra_terms=3):
    """A coefficient with trace exactly 1: the full (p-1)-monomial plus
    random terms whose exponents never all sit at p-1 mod p."""
    p, n = ctx.p, ctx.arity
    f = ctx.monomial((p - 1,) * n)
    g = rand_poly(rng, ctx, max_deg=2 * p, max_terms=extra_terms)
    kept = {m: c for m, c in g.terms.items() if not all(e % p == p - 1 for e in m)}
    return f + Polynomial(ctx, kept)


def test_trace_forced_by_definition_p2():
    ctx = ring(2, "x y")
    assert frobenius_trace(ctx.monomial((1, 1))) == ctx.one()
    assert frobenius_trace(ctx.monomial((3, 1))) == ctx.variable("x")
    assert frobenius_trace(ctx.monomial((2, 0))).is_zero()


def test_trace_p3():
    ctx = ring(3, "x y")
    assert frobenius_trace(ctx.monomial((2, 2))) == ctx.one()


def test_trace_node_square_is_one():
    # Only the x^2*y^2 term of the six-term square survives.
    ctx = ring(3, "x y")
    node = parse_expr("(y^2-x^3-x^2)^(p-1)", ctx)
    assert frobenius_trace(node) == ctx.one()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_endo_left_inverse_of_frobenius(p):
    ctx = ring(p, "x y")
    sigma = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
    assert sigma(ctx.monomial((p, 0))) == ctx.variable("x")
    assert sigma(ctx.one()) == ctx.one()


def test_endo_full_monomial():
    ctx = ring(3, "x y z")
    sigma = TwistedEndo(ctx.one())
    assert sigma(ctx.monomial((2, 2, 2))) == ctx.one()


def test_endo_node_unit():
    ctx = ring(3, "x y")
    sigma = TwistedEndo(parse_expr("(y^2-x^3-x^2)^(p-1)", ctx))
    assert sigma(ctx.one()) == ctx.one()


def test_endo_context_mismatch():
    sigma = TwistedEndo(ring(3, "x y").one())
    with pytest.raises(ContextMismatchError):
        sigma(ring(3, "u v").one())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cross_is_splitting(p):
    ctx = ring(p, "x y")
    v = check_splitting(TwistedEndo(parse_expr("(x*y)^(p-1)", ctx)))
    assert v.kind is VerdictKind.SPLITTING
    assert v.constant.residue == 1


@pytest.mark.parametrize("p", [3, 5])
def test_node_is_splitting(p):
    ctx = ring(p, "x y")
    v = check_splitting(TwistedEndo(parse_expr("(y^2-x^3-x^2)^(p-1)", ctx)))
    assert v.kind is VerdictKind.SPLITTING


def test_node_equation_at_p2_is_cusp_not_splitting():
    ctx = ring(2, "x y")
    v = check_splitting(TwistedEndo(parse_expr("y^2+x^3+x^2", ctx)))
    assert v.kind is VerdictKind.NOT_SPLITTING
    assert v.witness.is_zero()


def test_spans_splitting_rescales():
    ctx = ring(5, "x y")
    coeff = ctx.monomial((4, 4), 3)
    v = check_splitting(TwistedEndo(coeff))
    assert v.kind is VerdictKind.SPANS_SPLITTING
    assert v.constant.residue == 3
    rescaled = coeff.scale(v.constant.inverse())
    assert check_splitting(TwistedEndo(rescaled)).kind is VerdictKind.SPLITTING


@pytest.mark.parametrize("p", [2, 3, 5])
def test_splitting_axioms_random(p):
    rng = random.Random(700 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        sigma = TwistedEndo(rand_poly(rng, ctx, max_deg=2 * p))
        a, b = rand_poly(rng, ctx), rand_poly(rng, ctx)
        assert sigma(a + b) == sigma(a) + sigma(b)
        assert sigma(a.frobenius() * b) == a * sigma(b)
        split = TwistedEndo(_splitting_coeff(rng, ctx))
        assert check_splitting(split).kind is VerdictKind.SPLITTING
        assert split(a.frobenius()) == a


@pytest.mark.parametrize("p", [2, 3])
def test_homogeneous_fastpath_agrees(p):
    rng = random.Random(800 + p)
    ctx = ring(p, "x y z")
    n = ctx.arity
    for _ in range(60):
        deg = rng.choice([n * (p - 1), n * (p - 1), p, 2 * p - 1, n * (p - 1) + p])
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = rng.randrange(1, p)
        f = Polynomial(ctx, terms)
        fast = homogeneous_fastpath(TwistedEndo(f))
        full = check_splitting(TwistedEndo(f))
        assert fast.kind is full.kind
        if fast.constant is not None:
            assert fast.constant == full.constant


def test_homogeneous_fastpath_rejects_inhomogeneous():
    ctx = ring(3, "x y")
    with pytest.raises(NotHomogeneousError):
        homogeneous_fastpath(TwistedEndo(ctx.variable("x") + ctx.one()))


def test_homogeneous_fastpath_missing_monomial():
    ctx = ring(3, "x y")
    # Degree n(p-1) = 4 but the (2,2) coefficient is absent.
    f = ctx.monomial((4, 0)) + ctx.monomial((0, 4))
    v = homogeneous_fastpath(TwistedEndo(f))
    assert v.kind is VerdictKind.NOT_SPLITTING


@pytest.mark.parametrize("p", [2, 3, 5])
def test_divisor_splitting_truth_table(p):
    ctx = ring(p, "x y")
    sigma = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
    assert is_divisor_splitting(sigma, parse_expr("x*y", ctx)) is True
    assert is_divisor_splitting(sigma, parse_expr("(x*y)^(p-1)", ctx)) is True
    assert is_divisor_splitting(sigma, parse_expr("(x*y)^p", ctx)) is False


def test_divisor_splitting_preconditions():
    ctx = ring(3, "x y")
    not_split = TwistedEndo(ctx.variable("x"))
    with pytest.raises(NotASplittingError):
        is_divisor_splitting(not_split, ctx.variable("x"))
    sigma = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
    with pytest.raises(ZeroDivisionError):
        is_divisor_splitting(sigma, ctx.zero())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_divisor_splitting_matches_exact_division(data):
    ctx = data.draw(contexts)
    p, n = ctx.p, ctx.arity
    q = data.draw(polys(ctx, max_exp=3, max_terms=3))
    # No term of q has every exponent divisible by p, so no term of
    # (x_1...x_n)^(p-1) * q survives the trace, and c is a splitting.
    factor = ctx.one() + Polynomial(ctx, {m: v for m, v in q.terms.items() if any(e % p for e in m)})
    c = ctx.monomial((p - 1,) * n) * factor
    kind = data.draw(st.sampled_from(["factor", "factor times more", "monomial", "random"]))
    if kind == "factor":
        h = factor.scale(data.draw(st.integers(1, p - 1)))
    elif kind == "factor times more":
        h = factor * data.draw(polys(ctx, max_exp=2, max_terms=2, nonzero=True))
    elif kind == "monomial":
        h = ctx.monomial(data.draw(st.tuples(*[st.integers(0, p)] * n)))
    else:
        h = data.draw(polys(ctx, max_exp=3, max_terms=3, nonzero=True))
    try:
        fparith.exact_divide(c, h)
        expected = True
    except fparith.NotDivisibleError:
        expected = False
    assert is_divisor_splitting(TwistedEndo(c), h) is expected
    if kind == "factor":
        assert expected is True


def test_divisor_splitting_refuses_a_divisor_of_another_ring():
    sigma = TwistedEndo(parse_expr("(x*y)^(p-1)", ring(3, "x y")))
    for other in (ring(3, "x z"), ring(5, "x y")):
        with pytest.raises(ContextMismatchError):
            is_divisor_splitting(sigma, other.variable("x"))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_localized_sends_tp_to_t(p):
    # The fraction-field splitting of F[t] must send t^p to t.
    ctx = ring(p, "t")
    sigma = TwistedEndo(parse_expr("t^(p-1)", ctx))
    num, den = localized_apply(sigma, ctx.monomial((p,)), ctx.one())
    assert num == ctx.variable("t")
    assert den == ctx.one()


def test_localized_formula_frozen_values():
    # Direct evaluations of trace(coeff * num * den^(p-1)) at p=2.
    ctx = ring(2, "x")
    x = ctx.variable("x")
    num, den = localized_apply(TwistedEndo(ctx.one()), x, x)
    assert num.is_zero() and den == x
    num, den = localized_apply(TwistedEndo(x), x, x)
    assert num == x and den == x


def test_localized_sparse_denominator_at_large_p_is_fast():
    # den^(p-1) = sum_k C(p-1, k) x^k (y+1)^k has 5151 terms, and its one
    # term x^(p-1) y^(p-1) has coefficient 1, so the trace sends it to 1.
    ctx = ring(101, "x y")
    x, y = ctx.variable("x"), ctx.variable("y")
    den = x * y + x + ctx.one()
    start = time.perf_counter()
    num, _ = localized_apply(TwistedEndo(ctx.one()), ctx.one(), den)
    assert time.perf_counter() - start < 0.25
    assert num == ctx.one()


def test_localized_zero_denominator():
    ctx = ring(3, "x")
    with pytest.raises(ZeroDivisionError):
        localized_apply(TwistedEndo(ctx.one()), ctx.one(), ctx.zero())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_localized_representation_independence(p):
    rng = random.Random(900 + p)
    ctx = ring(p, "x y")
    for _ in range(20):
        sigma = TwistedEndo(rand_poly(rng, ctx, max_deg=p))
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx, nonzero=True)
        c = rand_poly(rng, ctx, nonzero=True)
        n1, d1 = localized_apply(sigma, a, b)
        n2, d2 = localized_apply(sigma, a * c, b * c)
        assert n1 * d2 == n2 * d1


def test_tensor_of_traces():
    a = TwistedEndo(ring(3, "x").one())
    b = TwistedEndo(ring(3, "y").one())
    joint = tensor(a, b)
    assert joint.context.variables == ("x", "y")
    assert joint.coeff == joint.context.one()


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_builds_cross(p):
    a = TwistedEndo(parse_expr("x^(p-1)", ring(p, "x")))
    b = TwistedEndo(parse_expr("y^(p-1)", ring(p, "y")))
    joint = tensor(a, b)
    assert joint.coeff == parse_expr("(x*y)^(p-1)", joint.context)
    assert check_splitting(joint).kind is VerdictKind.SPLITTING


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_application_identity(p):
    rng = random.Random(1000 + p)
    ca, cb = ring(p, "x"), ring(p, "y")
    from frobsplit import embed

    for _ in range(15):
        a = TwistedEndo(rand_poly(rng, ca, max_deg=2 * p))
        b = TwistedEndo(rand_poly(rng, cb, max_deg=2 * p))
        joint = tensor(a, b)
        g = rand_poly(rng, ca, max_deg=p)
        h = rand_poly(rng, cb, max_deg=p)
        gh = embed(g, joint.context, [0]) * embed(h, joint.context, [1])
        left = joint(gh)
        right = embed(a(g), joint.context, [0]) * embed(b(h), joint.context, [1])
        assert left == right


def test_tensor_rejects_overlap():
    a = TwistedEndo(ring(3, "x y").one())
    b = TwistedEndo(ring(3, "y z").one())
    with pytest.raises(ValueError):
        tensor(a, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p1_dlog_section(p):
    ctx = ring(p, "x")
    res = p1_extension_check(TwistedEndo(parse_expr("x^(p-1)", ctx)))
    assert res.extends
    assert res.other_chart == ctx.monomial((p - 1,))
    assert res.compatible_zero and res.compatible_infinity


def test_p1_plain_trace():
    ctx = ring(3, "x")
    res = p1_extension_check(TwistedEndo(ctx.one()))
    assert res.extends
    assert not res.compatible_zero


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p1_degree_bound(p):
    ctx = ring(p, "x")
    res = p1_extension_check(TwistedEndo(ctx.monomial((2 * p - 1,))))
    assert not res.extends
    assert res.other_chart is None


def test_p1_needs_one_variable():
    with pytest.raises(ValueError):
        p1_extension_check(TwistedEndo(ring(3, "x y").one()))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p1_chart_transform_is_involutive(p):
    rng = random.Random(1100 + p)
    ctx = ring(p, "x")
    for _ in range(20):
        terms = {(rng.randint(0, 2 * (p - 1)),): rng.randrange(1, p) for _ in range(rng.randint(0, 3))}
        f = Polynomial(ctx, terms)
        first = p1_extension_check(TwistedEndo(f))
        assert first.extends
        second = p1_extension_check(TwistedEndo(first.other_chart))
        assert second.extends
        assert second.other_chart == f


def test_semigroup_cusp():
    v = semigroup_split_check(NumericalSemigroup([2, 3]), 2)
    assert v.split is False and v.witness == 1


def test_semigroup_full():
    v = semigroup_split_check(NumericalSemigroup([1]), 2)
    assert v.split is True and v.witness is None


def test_semigroup_3_5_witness_with_gap_oracle():
    s = NumericalSemigroup([3, 5])
    # Independent gap enumeration: sums 3a+5b up to the bound.
    members = {3 * a + 5 * b for a in range(10) for b in range(10)}
    expected_gaps = tuple(m for m in range(1, 9) if m not in members)
    assert s.gaps == expected_gaps == (1, 2, 4, 7)
    assert s.conductor == 8
    v = semigroup_split_check(s, 2)
    assert v.split is False and v.witness == 4
    assert v.witness not in s and 2 * v.witness in s


def test_semigroup_validation():
    with pytest.raises(ValueError):
        NumericalSemigroup([2, 4])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])


@pytest.mark.parametrize("gens", [[100000, 100001], [10000, 10001]])
def test_semigroup_over_budget_is_refused_at_once(gens, capsys):
    # The first ran out of memory and the second past 60 s building the table.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="semigroup too large"):
        NumericalSemigroup(gens)
    argv = ["semigroup", "-p", "3", "--gens", ",".join(map(str, gens))]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: semigroup too large")
    assert time.perf_counter() - start < 0.5


def test_semigroup_budget_is_the_schur_bound(monkeypatch):
    # <4, 7> has Schur bound 3 * 6 = 18.
    monkeypatch.setattr(splitcore, "SEMIGROUP_TABLE_BUDGET", 18)
    assert NumericalSemigroup([4, 7]).conductor == 18
    monkeypatch.setattr(splitcore, "SEMIGROUP_TABLE_BUDGET", 17)
    with pytest.raises(ValueError, match="Schur bound 18"):
        NumericalSemigroup([4, 7])


def test_matrix_product_budget_is_the_largest_step(monkeypatch):
    # The 4x4 nested minors at p = 2: the largest multiplication is that of
    # the 662-term product so far by the 2-term trailing 2x2 minor.
    ctx = matrix_context(4, 2)
    monkeypatch.setattr(rescert, "MATRIX_PRODUCT_BUDGET", 1324)
    assert not matrix_section_coefficient(ctx, 4).is_zero()
    monkeypatch.setattr(rescert, "MATRIX_PRODUCT_BUDGET", 1323)
    with pytest.raises(ValueError, match="takes 1324 term products"):
        matrix_section_coefficient(ctx, 4)


def test_matrix_product_budget_covers_the_section_power(monkeypatch):
    # The 3x3 section at p = 5 multiplies the 241-term product of the
    # powers so far by the 5-term 4th power of the trailing 2x2 minor:
    # 1205 term products, above the 477 estimated for the 3x3 minor's power.
    ctx = matrix_context(3, 5)
    monkeypatch.setattr(rescert, "MATRIX_PRODUCT_BUDGET", 1205)
    assert not matrix_section_coefficient(ctx, 3).is_zero()
    monkeypatch.setattr(rescert, "MATRIX_PRODUCT_BUDGET", 1204)
    with pytest.raises(ValueError, match="powers of its nested minors takes 1205 term products"):
        matrix_section_coefficient(ctx, 3)


def test_matrix_minor_power_budget_is_the_estimate(monkeypatch):
    # The 4th power of the 6-term 3x3 minor is estimated at 477 term
    # products and bounded at 126 terms (``fparith.power_too_large``).  Just
    # above both the section is built; just below either, it is refused
    # before any minor is built.
    ctx = matrix_context(3, 5)
    monkeypatch.setattr(fparith, "MAX_TERM_PRODUCTS", 478)
    monkeypatch.setattr(fparith, "MAX_POWER_TERMS", 127)
    assert not matrix_section_coefficient(ctx, 3).is_zero()
    monkeypatch.setattr(rescert, "_packed_minor", lambda *args: pytest.fail("a minor was built"))
    for name, budget in [("MAX_TERM_PRODUCTS", 476), ("MAX_POWER_TERMS", 125)]:
        with monkeypatch.context() as patch:
            patch.setattr(fparith, name, budget)
            with pytest.raises(ValueError, match="raising its 3x3 minor to the p-1 is over the power budget"):
                matrix_section_coefficient(ctx, 3)


def test_matrix_demo_section_power_over_budget_is_refused():
    # f^(p-1) of the 1,003,156-term 5x5 product ended in a MemoryError
    # traceback under a 2 GB limit, and was later refused after about 3 s.
    # The powers of the minors are multiplied as they come, and the
    # multiplication by the 5x5 minor's power is refused at once.  A
    # subprocess keeps the limit off the test run.
    src = str(Path(frobsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import sys; from frobsplit.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = 2 * 10**9
    proc = subprocess.run(
        [sys.executable, "-c", script, "matrix-demo", "--size", "5", "-p", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: matrix too large: multiplying the powers")
    assert proc.stderr.count("\n") == 1


def test_matrix_demo_over_budget_is_refused_at_once(capsys):
    # It ended in a MemoryError traceback after 53 s under a 2 GB limit.
    start = time.perf_counter()
    assert main(["matrix-demo", "--size", "6", "-p", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix too large") and err.count("\n") == 1
    assert time.perf_counter() - start < 2


def test_matrix_demo_size_3_at_p_11_is_certified(capsys):
    # Refused while f^(p-1) was the power of the 3x3 product, estimated
    # over the budget; each minor's power is small.
    assert main(["matrix-demo", "--size", "3", "-p", "11", "--format", "json"]) == 0
    checks = {check["kind"]: check for check in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["splitting"]["verdict"] == "Splitting"
    certificate = checks["chain"]["certificate"]
    ctx = matrix_context(3, 11)
    order = [ctx.index(step["var"]) for step in certificate["steps"]]
    chain = certify_chain(matrix_section_coefficient(ctx, 3), order)
    assert [render_truncated(f) for _, f in chain.steps] == [s["result"] for s in certificate["steps"]]
    assert str(chain.terminal) == certificate["terminal"] == "1"


@pytest.mark.parametrize("size, p", [(4, 5), (5, 3)])
def test_matrix_demo_oversized_powers_are_refused_in_process(size, p, capsys):
    # --size 5 -p 3 was refused after 3 s and 300 MB.  --size 4 -p 5 runs
    # one multiplication of 2.4 million term products before its refusal.
    start = time.perf_counter()
    assert main(["matrix-demo", "--size", str(size), "-p", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: matrix too large: multiplying the powers") and err.count("\n") == 1
    assert time.perf_counter() - start < 2


_STEP_SIX = "multiplying the powers of its nested minors takes 5843520 term products, over 3000000"


@pytest.mark.parametrize(
    "size, message",
    [
        (6, _STEP_SIX),
        (9, _STEP_SIX),
        (10, "its 10x10 minor alone has 10! terms, over 3000000"),
        (11, "its 11x11 minor alone has 11! terms, over 3000000"),
        (100000, "its 100000x100000 minor alone has 100000! terms, over 3000000"),
    ],
)
def test_matrix_demo_refuses_each_oversized_size_at_once(size, message, capsys):
    # Size 9 took 5.4 s and size 10 took 58 s: every minor was built before
    # the first step check.  From size 11 up the refusal was a clash of
    # variable names (x1,11 and x11,1), after 7 s of naming at size 3000.
    start = time.perf_counter()
    assert main(["matrix-demo", "--size", str(size), "-p", "2"]) == 2
    assert capsys.readouterr().err == f"error: matrix too large: {message}\n"
    assert time.perf_counter() - start < 2


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=4).filter(lambda g: math.gcd(*g) == 1),
    st.sampled_from([2, 3, 5, 7]),
)
def test_semigroup_bitset_matches_the_dynamic_programming(gens, p):
    s = NumericalSemigroup(gens)
    bound = (min(gens) - 1) * (max(gens) - 1)
    # Long enough that p times any gap has an entry.
    table = semigroup_table(gens, p * bound + 1)
    assert s.gaps == tuple(i for i in range(bound + 1) if not table[i])
    assert s.conductor == (s.gaps[-1] + 1 if s.gaps else 0)
    assert [m in s for m in range(-2, len(table))] == [False, False] + table
    witness = next((m for m in s.gaps if table[p * m]), None)
    assert semigroup_split_check(s, p) == SemigroupVerdict(split=not s.gaps, witness=witness)


def test_semigroup_witness_certifies():
    for gens in ([2, 3], [3, 5], [4, 5], [3, 7, 11]):
        s = NumericalSemigroup(gens)
        for p in (2, 3, 5):
            v = semigroup_split_check(s, p)
            assert v.split is False
            assert v.witness not in s
            assert p * v.witness in s


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frobenius_roots_reassemble(data):
    ctx = data.draw(contexts)
    f = data.draw(polys(ctx, max_exp=3 * ctx.p, max_terms=8))
    roots = frobenius_roots(f)
    assert all(not h.is_zero() for h in roots.values())
    total = ctx.zero()
    for b, h in roots.items():
        total = total + ctx.monomial(b) * h.frobenius()
    assert total == f


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frobenius_roots_of_a_single_component(data):
    ctx = data.draw(contexts)
    g = data.draw(polys(ctx, nonzero=True))
    b = data.draw(st.tuples(*[st.integers(0, ctx.p - 1)] * ctx.arity))
    assert frobenius_roots(g.frobenius() * ctx.monomial(b)) == {b: g}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_is_the_top_root(data):
    # Exponents mostly p-1 mod p, in up to 12 variables, so that many
    # terms survive the trace.
    ctx = data.draw(wide_contexts)
    p = ctx.p
    exponent = st.builds(lambda q, r: q * p + r, st.integers(0, 3), st.sampled_from([p - 1, p - 1, p - 1, 0, p // 2]))
    terms = data.draw(st.dictionaries(st.tuples(*[exponent] * ctx.arity), st.integers(1, p - 1), max_size=8))
    f = Polynomial(ctx, terms)
    assert frobenius_trace(f) == frobenius_roots(f).get((p - 1,) * ctx.arity, ctx.zero())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_frobenius_roots_are_the_traces(data):
    # trace(x^a * f) = h_{(p-1)-a}: the roots are every trace at once.
    ctx = data.draw(contexts.filter(lambda c: c.p**c.arity <= 256))
    f = data.draw(polys(ctx, max_exp=3 * ctx.p, max_terms=8))
    roots = frobenius_roots(f)
    p = ctx.p
    for a in itertools.product(range(p), repeat=ctx.arity):
        b = tuple(p - 1 - e for e in a)
        assert frobenius_trace(ctx.monomial(a) * f) == roots.get(b, ctx.zero())
