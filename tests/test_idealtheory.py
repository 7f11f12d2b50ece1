"""Groebner engine, colon ideals, compatibility, and existence checks."""

import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobsplit import (
    ContextMismatchError,
    GroebnerBasis,
    IdealPresentation,
    MonomialOrder,
    Polynomial,
    TwistedEndo,
    buchberger,
    colon,
    exists_compatible_splitting,
    fedder_module,
    frobenius_power_ideal,
    frobenius_roots,
    frobenius_trace,
    ideal,
    intersect,
    is_compatible,
    nilpotent_witness,
    normal_form,
    parse_expr,
    matrix_context,
    minor,
    ring,
    s_polynomial,
)
from frobsplit.fparith import Packing, _p_minus_1_route, degree, divide_terms, fit_bits, packed_call, packing
from _util import (
    contexts,
    ideals,
    leading,
    monomial_divides,
    nilpotent_reference,
    order_key,
    polys,
    rand_poly,
    tagged_intersect,
    wide_contexts,
)

ORDERS = [MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elim(1)]


def _ideal(ctx, *exprs):
    return IdealPresentation(ctx, [parse_expr(e, ctx) for e in exprs])


def _contains_all(big: IdealPresentation, small: IdealPresentation) -> bool:
    G = buchberger(big)
    return all(normal_form(g, G).is_zero() for g in small.generators)


def _same_ideal(a: IdealPresentation, b: IdealPresentation) -> bool:
    return _contains_all(a, b) and _contains_all(b, a)


def test_buchberger_parabola_intersection_lex():
    ctx = ring(2, "x y")
    G = buchberger(_ideal(ctx, "y", "y-x^2"), MonomialOrder.lex())
    assert [str(g) for g in G.basis] == ["x^2", "y"]


def test_buchberger_principal_monic():
    ctx = ring(3, "x y")
    G = buchberger(_ideal(ctx, "2*x"))
    assert [str(g) for g in G.basis] == ["x"]


def test_buchberger_containment():
    ctx = ring(3, "x y")
    G = buchberger(_ideal(ctx, "x*y", "x"))
    assert [str(g) for g in G.basis] == ["x"]


def test_buchberger_zero_ideal():
    ctx = ring(3, "x y")
    assert buchberger(IdealPresentation(ctx, [])).basis == ()


def test_unit_ideal_membership_always_true():
    ctx = ring(3, "x y")
    G = buchberger(_ideal(ctx, "2"))
    assert G.is_unit_ideal()
    assert normal_form(parse_expr("x^5+y+1", ctx), G).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_groebner_self_checks_random(p):
    # Every generator reduces to zero and every S-pair reduces to zero.
    rng = random.Random(1200 + p)
    for _ in range(15):
        ctx = ring(p, "x y z"[: rng.choice([3, 5])])
        gens = [rand_poly(rng, ctx, nonzero=True) for _ in range(rng.randint(1, 2))]
        I = IdealPresentation(ctx, gens)
        G = buchberger(I)
        for g in gens:
            assert normal_form(g, G).is_zero()
        basis = list(G.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], G.order)
                assert normal_form(s, G).is_zero()


def test_groebner_reduced_basis_is_monic_and_interreduced():
    ctx = ring(3, "x y z")
    G = buchberger(_ideal(ctx, "x^2+y", "x*y+z", "2*y^2+x*z"))
    leads = [leading(g, G.order) for g in G.basis]
    assert all(c == 1 for _, c in leads)
    for i, g in enumerate(G.basis):
        for m in g.terms:
            for lm, _ in (ld for j, ld in enumerate(leads) if j != i):
                assert not all(a <= b for a, b in zip(lm, m))


def test_groebner_determinism_golden():
    ctx = ring(2, "x y")
    runs = [
        [str(g) for g in buchberger(_ideal(ctx, "y*(y-x^2)", "x*y")).basis]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] == ["x*y", "y^2"]


def test_normal_form_parabola_nilpotent_class():
    ctx = ring(2, "x y")
    G = buchberger(_ideal(ctx, "y", "y-x^2"))
    assert normal_form(parse_expr("x^2", ctx), G).is_zero()
    assert normal_form(parse_expr("x", ctx), G) == ctx.variable("x")
    assert normal_form(ctx.zero(), G).is_zero()


def test_frobenius_power_ideal():
    ctx = ring(2, "x y")
    I = frobenius_power_ideal(_ideal(ctx, "x", "y"))
    assert [str(g) for g in I.generators] == ["x^2", "y^2"]
    J = frobenius_power_ideal(_ideal(ctx, "y*(y-x^2)"))
    assert [str(g) for g in J.generators] == [str(parse_expr("y^4+x^4*y^2", ctx))]


def test_colon_principal_frobenius():
    # (f^p : f) = (f^(p-1)).
    ctx = ring(2, "x y")
    f = parse_expr("y*(y-x^2)", ctx)
    got = colon(ideal(f.frobenius()), f)
    assert _same_ideal(got, ideal(f.pow_p_minus_1()))


def test_colon_simple():
    ctx = ring(3, "x y")
    got = colon(_ideal(ctx, "x^2"), ctx.variable("x"))
    assert _same_ideal(got, _ideal(ctx, "x"))


def test_colon_no_shared_component():
    ctx = ring(3, "x y")
    got = colon(_ideal(ctx, "x"), ctx.variable("y"))
    assert _same_ideal(got, _ideal(ctx, "x"))


def test_intersect_monomial_oracle():
    ctx = ring(2, "x y")
    got = intersect(_ideal(ctx, "x"), _ideal(ctx, "y"))
    assert _same_ideal(got, _ideal(ctx, "x*y"))


# Rings whose variables take the reference's first tag names, so that it
# must name its tag apart.
tagged_contexts = st.builds(
    ring, st.sampled_from([2, 3, 5, 7]), st.sampled_from(["x", "x y", "x y z", "_t x", "_t _t1 y"])
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersect_matches_the_tagged_ring_reference(data):
    import frobsplit.fparith as fparith
    import frobsplit.idealtheory as idealtheory

    ctx = data.draw(tagged_contexts)
    A, B = (
        data.draw(st.one_of(st.just(IdealPresentation(ctx, ())), ideals(ctx, max_gens=3, max_exp=3)))
        for _ in range(2)
    )
    expected = tagged_intersect(A, B).generators

    def refuse(*args):
        raise AssertionError("intersect built an auxiliary ring")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fparith, "embed", refuse)
        m.setattr(idealtheory, "embed", refuse, raising=False)
        m.setattr(idealtheory, "buchberger", refuse)
        got = intersect(A, B).generators
    # The same polynomials in the same order, their terms too.
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in expected]


@pytest.mark.parametrize("p", [2, 3])
def test_colon_bidirectional_membership(p):
    # u*g in J exactly when u lies in (J : g), for random u.
    rng = random.Random(1350 + p)
    ctx = ring(p, "x y")
    for _ in range(10):
        J = IdealPresentation(
            ctx, [rand_poly(rng, ctx, max_deg=2, nonzero=True) for _ in range(rng.randint(1, 2))]
        )
        g = rand_poly(rng, ctx, max_deg=2, nonzero=True)
        GJ, GC = buchberger(J), buchberger(colon(J, g))
        for _ in range(10):
            u = rand_poly(rng, ctx, max_deg=3)
            assert normal_form(u * g, GJ).is_zero() == normal_form(u, GC).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_fedder_module_principal_case(p):
    rng = random.Random(1300 + p)
    ctx = ring(p, "x y")
    for _ in range(8):
        g = rand_poly(rng, ctx, nonzero=True)
        C = fedder_module(ideal(g))
        assert _same_ideal(C, ideal(g ** (p - 1)))


def test_fedder_module_origin_p2():
    ctx = ring(2, "x y")
    C = fedder_module(_ideal(ctx, "x", "y"))
    G = buchberger(C)
    assert normal_form(parse_expr("x*y", ctx), G).is_zero()
    # Cross-validated independently through the finite method.
    assert is_compatible(TwistedEndo(parse_expr("x*y", ctx)), _ideal(ctx, "x", "y"), "finite")
    assert _same_ideal(C, _ideal(ctx, "x*y", "x^2", "y^2"))


def test_fedder_module_unit_and_zero():
    ctx = ring(3, "x y")
    assert fedder_module(_ideal(ctx, "1")).generators
    assert _same_ideal(fedder_module(_ideal(ctx, "2")), _ideal(ctx, "1"))
    assert fedder_module(IdealPresentation(ctx, [])).is_zero_ideal()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cross_compatible_with_axes(p):
    ctx = ring(p, "x y")
    sigma = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
    assert is_compatible(sigma, _ideal(ctx, "x*y"), "both")
    assert is_compatible(sigma, _ideal(ctx, "x"), "both")


@pytest.mark.parametrize("p", [3, 5])
def test_half_cross_not_compatible_with_other_axis(p):
    ctx = ring(p, "x y")
    sigma = TwistedEndo(parse_expr("x^(p-1)", ctx))
    assert is_compatible(sigma, _ideal(ctx, "y"), "both") is False
    # The finite check sees it at a = (0, p-2): trace of x^(p-1)*y^(p-1) = 1.
    assert not normal_form(ctx.one(), buchberger(_ideal(ctx, "y"))).is_zero()


def test_compatible_with_zero_ideal():
    ctx = ring(2, "x y")
    sigma = TwistedEndo(parse_expr("x*y", ctx))
    assert is_compatible(sigma, IdealPresentation(ctx, []), "both")


def test_formerly_refused_inputs_are_decided():
    # p^n = 8192, 19683 and 14641: each was refused while the finite check
    # and the existence test enumerated [0, p-1]^n up to p^n = 4096.
    ctx = ring(2, [f"x{i}" for i in range(13)])
    sigma, I = TwistedEndo(ctx.one()), IdealPresentation(ctx, [ctx.variable(0)])
    assert is_compatible(sigma, I, "finite") is is_compatible(sigma, I, "fedder") is False

    ctx = matrix_context(3, 3)
    det = minor(ctx, 3, [0, 1, 2], [0, 1, 2])
    for section, want in ((det * det, True), (det * det + ctx.variable(0), False)):
        sigma = TwistedEndo(section)
        assert [is_compatible(sigma, ideal(det), m) for m in ("finite", "fedder", "both")] == [want] * 3

    res = exists_compatible_splitting(_ideal(ring(11, "x y z w"), "x*y-z*w"))
    assert res.exists
    assert [str(g) for g in res.obstruction.basis] == ["1"]


@pytest.mark.parametrize("p", [2, 3])
def test_fedder_finite_agreement_random(p):
    rng = random.Random(1400 + p)
    for _ in range(15):
        n = rng.choice([1, 2, 3])
        ctx = ring(p, [f"x{i}" for i in range(n)])
        gens = [rand_poly(rng, ctx, max_deg=3, nonzero=True) for _ in range(rng.randint(1, 2))]
        I = IdealPresentation(ctx, gens)
        sigma = TwistedEndo(rand_poly(rng, ctx, max_deg=2 * (p - 1) + 1))
        assert is_compatible(sigma, I, "fedder") == is_compatible(sigma, I, "finite")


def test_buchberger_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from frobsplit import Polynomial

    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2, 3])
        ctx = ring(p, [f"x{i}" for i in range(n)])
        syms = list(sympy.symbols([f"x{i}" for i in range(n)]))
        gens = [rand_poly(rng, ctx, max_deg=3, nonzero=True) for _ in range(rng.randint(1, 3))]
        mine = sorted(str(g) for g in buchberger(IdealPresentation(ctx, gens)).basis)
        sp_gens = [
            sum(int(c) * sympy.prod([s**e for s, e in zip(syms, m)]) for m, c in g.terms.items())
            for g in gens
        ]
        theirs = []
        for e in sympy.groebner(sp_gens, *syms, order="grevlex", modulus=p).exprs:
            poly = sympy.Poly(e, *syms, modulus=p)
            theirs.append(str(Polynomial(ctx, {tuple(m): int(c) % p for m, c in poly.terms()})))
        assert mine == sorted(theirs)


def test_exists_split_cross():
    ctx = ring(2, "x y")
    res = exists_compatible_splitting(_ideal(ctx, "x*y"))
    assert res.exists
    assert res.obstruction.is_unit_ideal()


@pytest.mark.parametrize("p", [2, 3])
def test_exists_split_parabola_fails(p):
    ctx = ring(p, "x y")
    res = exists_compatible_splitting(_ideal(ctx, "y*(y-x^2)"))
    assert not res.exists
    assert not normal_form(ctx.one(), res.obstruction).is_zero()


def test_exists_split_parabola_obstruction_basis_p2():
    ctx = ring(2, "x y")
    res = exists_compatible_splitting(_ideal(ctx, "y*(y-x^2)"))
    assert [str(g) for g in res.obstruction.basis] == ["x", "y"]


def test_exists_split_coordinate_hyperplane():
    ctx = ring(3, "x y")
    assert exists_compatible_splitting(_ideal(ctx, "x")).exists


def test_exists_split_witness_constructible_on_cross():
    # The existence verdict is witnessed by an explicit splitting.
    ctx = ring(2, "x y")
    coeff = parse_expr("(x*y)^(p-1)", ctx)
    C = fedder_module(_ideal(ctx, "x*y"))
    assert normal_form(coeff, buchberger(C)).is_zero()
    from frobsplit import check_splitting, frobenius_trace

    assert frobenius_trace(coeff) == ctx.one()
    assert check_splitting(TwistedEndo(coeff)).is_splitting


def test_exists_split_on_the_zero_ideal_runs_no_buchberger(monkeypatch):
    import frobsplit.idealtheory as idealtheory

    ctx = ring(3, "x y")
    unit = buchberger(_ideal(ctx, "1"))
    monkeypatch.setattr(idealtheory, "_buchberger_core", lambda *args: pytest.fail("Buchberger ran"))
    res = exists_compatible_splitting(IdealPresentation(ctx, []))
    assert res.exists
    assert res.obstruction == unit


def test_nilpotent_witness_parabola():
    ctx = ring(2, "x y")
    assert nilpotent_witness(parse_expr("x", ctx), _ideal(ctx, "y", "y-x^2"), 4) == 2


def test_nilpotent_witness_member_is_none():
    ctx = ring(2, "x y")
    assert nilpotent_witness(parse_expr("x", ctx), _ideal(ctx, "x"), 4) is None


def test_nilpotent_witness_char2_square():
    ctx = ring(2, "x y")
    assert nilpotent_witness(parse_expr("x+y", ctx), _ideal(ctx, "x^2+y^2"), 2) == 2


def test_nilpotent_witness_radical_none():
    ctx = ring(2, "x y")
    assert nilpotent_witness(parse_expr("x", ctx), _ideal(ctx, "y"), 6) is None


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_nilpotent_witness_matches_the_basis_reference(data):
    # A multiple of a power of g among the generators makes a witness
    # likely; g = 0 and the zero ideal are drawn too.
    ctx = data.draw(contexts)
    g = data.draw(polys(ctx, max_exp=2, max_terms=3))
    gens = data.draw(st.lists(polys(ctx, max_exp=2, max_terms=3), max_size=2))
    multiple = g ** data.draw(st.integers(1, 4)) * data.draw(polys(ctx, max_exp=1, max_terms=2))
    I = IdealPresentation(ctx, gens + [multiple])
    bound = data.draw(st.integers(2, 5))
    assert nilpotent_witness(g, I, bound) == nilpotent_reference(g, I, bound)


def test_nilpotent_witness_budget_is_the_running_total(monkeypatch):
    import frobsplit.idealtheory as idealtheory

    # (x+y)^3 = x^3 + y^3 at p = 3: g^2 takes 2 * 2 term products and
    # g^3 another 3 * 2, 10 in all.  At a budget of 10 the witness is
    # found; at 9 the search is refused before g^3 is taken.
    ctx = ring(3, "x y")
    g, I = parse_expr("x+y", ctx), _ideal(ctx, "x^3", "y^3")
    monkeypatch.setattr(idealtheory, "MAX_TERM_PRODUCTS", 10)
    assert nilpotent_witness(g, I, 100000) == nilpotent_reference(g, I, 4) == 3
    monkeypatch.setattr(idealtheory, "MAX_TERM_PRODUCTS", 9)
    with pytest.raises(ValueError, match="nilpotent bound too large: .* up to exponent 3 take over 9 term"):
        nilpotent_witness(g, I, 100000)
    # The width holds the last power the budget allows, g^10, not g^bound.
    widths = []
    monkeypatch.setattr(idealtheory, "packing", lambda layout, bits: widths.append(bits) or packing(layout, bits))
    with pytest.raises(ValueError, match="nilpotent bound too large"):
        nilpotent_witness(g, I, 10**4000)
    assert widths == [7]
    # A small bound stops before the budget is reached.
    assert nilpotent_witness(g, I, 2) is None


@pytest.mark.parametrize("generators", [(), ("x*y",), ("1",)])
@pytest.mark.parametrize("element", ["0", "x"])
def test_nilpotent_witness_refuses_an_element_of_another_ring(element, generators):
    ctx = ring(3, "x y")
    I, g = _ideal(ctx, *generators), parse_expr(element, ring(5, "x y"))
    errors = []
    for witness in (nilpotent_witness, nilpotent_reference):
        with pytest.raises(ContextMismatchError) as info:
            witness(g, I, 4)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("p", [2, 3])
def test_radical_obstruction_soundness(p):
    # A nilpotency witness for the intersection ideal rules out a
    # compatible splitting for it.
    ctx = ring(p, "x y")
    J = _ideal(ctx, "y", "y-x^2")
    assert nilpotent_witness(parse_expr("x", ctx), J, 4) == 2
    assert not exists_compatible_splitting(J).exists


def _reference_normal_form(f, basis, order):
    """Division that rescans for the leading term with ``max`` on every
    step, reducing by the first basis element whose lead divides it."""
    p = f.context.p
    key = order_key(order)
    leads = [max(g.terms, key=key) for g in basis]
    work = dict(f.terms)
    remainder = {}
    while work:
        lead = max(work, key=key)
        for g, lm in zip(basis, leads):
            if all(a <= b for a, b in zip(lm, lead)):
                shift = tuple(a - b for a, b in zip(lead, lm))
                factor = work[lead] * pow(g.terms[lm], p - 2, p) % p
                for m, c in g.terms.items():
                    t = tuple(a + b for a, b in zip(m, shift))
                    s = (work.get(t, 0) - factor * c) % p
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[lead] = work.pop(lead)
    return remainder


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(ORDERS))
def test_normal_form_matches_max_scan_division(data, order):
    ctx = data.draw(contexts.filter(lambda c: c.arity >= 2))
    basis = data.draw(st.lists(polys(ctx, max_exp=2, nonzero=True), min_size=1, max_size=3))
    f = data.draw(polys(ctx, max_exp=4, max_terms=8))
    # Any list of divisors, not only a Groebner basis: the division rule
    # itself must match, not just the unique remainder modulo a basis.
    G = GroebnerBasis(ctx, order, tuple(basis))
    remainder = _reference_normal_form(f, basis, order)
    assert normal_form(f, G).terms == remainder
    assert G.contains(f) == (not remainder)
    gb = buchberger(IdealPresentation(ctx, basis), order)
    remainder = _reference_normal_form(f, list(gb.basis), order)
    assert normal_form(f, gb).terms == remainder
    assert gb.contains(f) == (not remainder)


def test_groebner_basis_keeps_leading_monomials():
    ctx = ring(3, "x y z")
    for order in ORDERS:
        G = buchberger(_ideal(ctx, "x^2+y", "x*y+z", "2*y^2+x*z"), order)
        assert G.leads == tuple(leading(g, order)[0] for g in G.basis)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(["grevlex", "lex"]))
def test_buchberger_matches_sympy_property(data, order_name):
    sympy = pytest.importorskip("sympy")
    from frobsplit import Polynomial

    ctx = data.draw(contexts)
    gens = data.draw(st.lists(polys(ctx, max_exp=2, max_terms=4, nonzero=True), min_size=1, max_size=3))
    order = MonomialOrder.grevlex() if order_name == "grevlex" else MonomialOrder.lex()
    mine = [str(g) for g in buchberger(IdealPresentation(ctx, gens), order).basis]
    syms = list(sympy.symbols(list(ctx.variables)))
    sp_gens = [
        sum(int(c) * sympy.prod([s**e for s, e in zip(syms, m)]) for m, c in g.terms.items())
        for g in gens
    ]
    theirs = []
    for e in sympy.groebner(sp_gens, *syms, order=order_name, modulus=ctx.p).exprs:
        poly = sympy.Poly(e, *syms, modulus=ctx.p)
        theirs.append(str(Polynomial(ctx, {tuple(m): int(c) % ctx.p for m, c in poly.terms()})))
    assert sorted(mine) == sorted(theirs)


def _shifts(ctx):
    return [ctx.monomial(a) for a in itertools.product(range(ctx.p), repeat=ctx.arity)]


def _finite_by_enumeration(sigma, I):
    """The "finite" check as p^n traces per generator, one for each x^a
    with a in [0, p-1]^n: the reference for the root decomposition."""
    G = buchberger(I)
    shifts = _shifts(I.context)
    return all(
        G.contains(frobenius_trace(sigma.coeff * g * x)) for g in I.generators for x in shifts
    )


def _exists_by_enumeration(I):
    """(exists, obstruction basis) from p^n traces per Fedder-module
    generator: the reference for the root decomposition."""
    shifts = _shifts(I.context)
    values = [frobenius_trace(x * c) for c in fedder_module(I).generators for x in shifts]
    G = buchberger(IdealPresentation(I.context, values))
    return G.is_unit_ideal(), G.basis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_finite_check_matches_enumeration(data):
    ctx = data.draw(wide_contexts)
    I = data.draw(ideals(ctx, max_terms=2))
    section = data.draw(polys(ctx, max_exp=2, max_terms=2))
    if data.draw(st.booleans()):
        # The product of the generators to the p-1 is in (I^[p] : I).
        product = ctx.one()
        for g in I.generators:
            product = product * g
        section = section * product.pow_p_minus_1()
    sigma = TwistedEndo(section)
    assert is_compatible(sigma, I, "finite") == _finite_by_enumeration(sigma, I)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exists_split_matches_enumeration(data):
    ctx = data.draw(contexts)
    I = data.draw(ideals(ctx))
    res = exists_compatible_splitting(I)
    assert (res.exists, res.obstruction.basis) == _exists_by_enumeration(I)


@pytest.mark.parametrize("p", [1009, 10007, 2305843009213693951])
def test_large_prime_fedder_module_is_refused_before_it_is_built(p, monkeypatch):
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(idealtheory, "frobenius_power_ideal", built)
    monkeypatch.setattr(idealtheory, "buchberger", built)
    ctx = ring(p, "x y")
    I = _ideal(ctx, "x*y+x+1")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Fedder module too large"):
        exists_compatible_splitting(I)
    # The compatibility check builds no Fedder module: it is decided.
    assert is_compatible(TwistedEndo(ctx.one()), I) is False
    assert time.perf_counter() - start < 1.0


def test_fedder_module_at_p_2_is_refused_by_the_product_itself(monkeypatch):
    # At p = 2 the product of the generators to the p-1 is the product: of
    # three 50-term quartics in 10 variables it is bounded at 125,000
    # terms, over ``fparith.MAX_POWER_TERMS``.
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(idealtheory, "frobenius_power_ideal", built)
    ctx = ring(2, [f"x{i}" for i in range(10)])
    quartics = [tuple(map(c.count, range(10))) for c in itertools.combinations_with_replacement(range(10), 4)]
    I = IdealPresentation(ctx, [Polynomial(ctx, dict.fromkeys(quartics[i::3][:50], 1)) for i in range(3)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Fedder module too large"):
        fedder_module(I)
    with pytest.raises(ValueError, match="Fedder module too large"):
        exists_compatible_splitting(I)
    assert time.perf_counter() - start < 1.0


def test_fedder_budget_is_quick_for_a_long_product_at_a_huge_prime():
    # Four 100-term generators bound their product at 10^8 terms.  Left
    # uncapped, the estimate of its (p-1)-st power would sum about
    # min(10^8, p) logarithms, 36 s.
    ctx = ring(2305843009213693951, "x y z w")
    monomials = [m for m in itertools.product(range(6), repeat=4) if sum(m) <= 5]
    I = IdealPresentation(ctx, [Polynomial(ctx, dict.fromkeys(monomials[i : i + 100], 1)) for i in range(4)])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Fedder module too large"):
        exists_compatible_splitting(I)
    assert time.perf_counter() - start < 1.0


def test_fedder_budget_admits_moderate_primes():
    ctx = ring(101, "x y")
    assert exists_compatible_splitting(_ideal(ctx, "x*y+x+1")).exists
    # Monomial generators stay one term to any power.
    assert fedder_module(_ideal(ring(1009, "x y"), "x*y")).generators


# -- packed monomial keys -----------------------------------------------------

_exponents = st.one_of(st.integers(0, 4), st.integers(0, 2**40))


def _orders(n):
    return [MonomialOrder.lex(), MonomialOrder.grevlex()] + [MonomialOrder.elim(k) for k in range(1, n)]


def _packing_for(order: MonomialOrder, n: int, *monomials) -> Packing:
    return packing(order.layout(n), fit_bits(max(sum(m) for m in monomials)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_keys_sort_descending(data):
    n = data.draw(st.integers(1, 4))
    monomials = data.draw(st.lists(st.tuples(*[_exponents] * n), unique=True, min_size=1, max_size=12))
    for order in _orders(n):
        pk = _packing_for(order, n, *monomials)
        assert sorted(monomials, key=pk.pack) == sorted(monomials, key=order_key(order), reverse=True)
        for m in monomials:
            assert pk.pack(m) & pk.guards == 0
            assert pk.unpack(pk.pack(m)) == m


def _assert_round_trip(n: int, bits: int, terms: dict) -> None:
    for order in _orders(n):
        pk = packing(order.layout(n), bits)
        assert pk.unpack_terms(pk.pack_terms(terms)) == terms
        for m in terms:
            assert pk.unpack(pk.pack(m)) == m


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([7, 15, 31, 63]))
def test_packed_keys_round_trip_at_every_byte_width(data, bits):
    # Fields of 7, 15, 31 and 63 bits fill 1, 2, 4 and 8 bytes.
    n = data.draw(st.integers(1, 4))
    exponent = st.integers(0, 2**bits // n - 1)
    terms = data.draw(st.dictionaries(st.tuples(*[exponent] * n), st.integers(1, 4), max_size=8))
    _assert_round_trip(n, bits, terms)


def test_packed_keys_round_trip_past_eight_bytes():
    # 2^70 needs 127-bit fields, which are read one shift at a time.
    terms = {(2**70, 0, 1): 1, (0, 5, 2**70 - 1): 2, (1, 1, 1): 3}
    assert fit_bits(2**70 + 1) == 127
    _assert_round_trip(3, 127, terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_keys_are_affine(data):
    n = data.draw(st.integers(1, 4))
    m, s = data.draw(st.tuples(st.tuples(*[_exponents] * n), st.tuples(*[_exponents] * n)))
    product = tuple(a + b for a, b in zip(m, s))
    for order in _orders(n):
        pk = _packing_for(order, n, product)
        one = (0,) * n
        assert pk.pack(product) == pk.pack(m) + pk.pack(s) - pk.pack(one)
        assert pk.pack(one) == pk.base


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_guard_bit_test_matches_monomial_divides(data):
    n = data.draw(st.integers(1, 4))
    small = st.integers(0, 3)
    a, b = data.draw(st.tuples(st.tuples(*[small] * n), st.tuples(*[small] * n)))
    if data.draw(st.booleans()):
        a = tuple(min(x, y) for x, y in zip(a, b))
    for order in _orders(n):
        pk = _packing_for(order, n, a, b)
        pos_a, pos_b = pk.pack(a) ^ pk.base, pk.pack(b) ^ pk.base
        guard_test = ((pos_b | pk.guards) - pos_a) & pk.guards == pk.guards
        assert guard_test == monomial_divides(a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_coprime_matches_the_exponents(data):
    n = data.draw(st.integers(1, 4))
    exponent = st.sampled_from([0, 0, 1, 2, 7, 127, 128, 2**20])
    monomials = data.draw(st.lists(st.tuples(*[exponent] * n), max_size=4))
    expected = all(
        not any(x and y for x, y in zip(a, b)) for a, b in itertools.combinations(monomials, 2)
    )
    for order in _orders(n):
        pk = _packing_for(order, n, (0,) * n, *monomials)
        assert pk.coprime(map(pk.pack, monomials)) is expected


def _spy_widths(monkeypatch) -> list[int]:
    """Record the field width of every division run by ``idealtheory``."""
    import frobsplit.idealtheory as idealtheory

    widths: list[int] = []
    divide = idealtheory.divide_terms

    def spy(terms, divisors, p, pk, *rest, **options):
        widths.append(pk.bits)
        return divide(terms, divisors, p, pk, *rest, **options)

    monkeypatch.setattr(idealtheory, "divide_terms", spy)
    return widths


def test_division_overflowing_the_start_width_matches_max_scan(monkeypatch):
    # Under elim(1), t*x reduced by t - y^127 is x*y^127: degree 128 in the
    # second block, one more than the 7-bit fields the inputs fit.
    ctx = ring(5, "t x y")
    order = MonomialOrder.elim(1)
    basis = [parse_expr("t - y^127", ctx)]
    widths = _spy_widths(monkeypatch)
    for text in ["t*x", "t^3*x + 2*t*y + x", "t^2 + t*x^100"]:
        f = parse_expr(text, ctx)
        remainder = normal_form(f, GroebnerBasis(ctx, order, tuple(basis)))
        assert remainder.terms == _reference_normal_form(f, basis, order)
    assert widths[:2] == [7, 15]
    lex = MonomialOrder.lex()
    basis = [parse_expr("x - y^127", ctx)]
    f = parse_expr("x^2 + t", ctx)
    remainder = normal_form(f, GroebnerBasis(ctx, lex, tuple(basis)))
    assert remainder.terms == _reference_normal_form(f, basis, lex)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(ORDERS))
def test_leads_are_the_least_packed_keys(data, order):
    ctx = data.draw(contexts.filter(lambda c: c.arity >= 2))
    gens = data.draw(st.lists(polys(ctx, max_exp=2, max_terms=4, nonzero=True), min_size=1, max_size=3))
    G = buchberger(IdealPresentation(ctx, gens), order)
    for basis in (tuple(gens), G.basis):
        assert GroebnerBasis(ctx, order, basis).leads == tuple(leading(g, order)[0] for g in basis)
    assert G.leads == GroebnerBasis(ctx, order, G.basis).leads


def test_groebner_basis_checks_its_order_when_built():
    ctx = ring(3, "x y")
    with pytest.raises(ValueError, match="elimination block"):
        GroebnerBasis(ctx, MonomialOrder.elim(2), (parse_expr("x", ctx),))
    assert GroebnerBasis(ctx, MonomialOrder.elim(2), ()).leads == ()


def test_normal_forms_widen_only_when_needed(monkeypatch):
    # Under elim(1), t reduced by t - y^127 is y^127, in the 7-bit fields
    # the basis is packed with; t*x is x*y^127, which overflows them, and
    # x^300 is wider than them from the start.
    ctx = ring(5, "t x y")
    order = MonomialOrder.elim(1)
    basis = [parse_expr("t - y^127", ctx)]
    G = GroebnerBasis(ctx, order, tuple(basis))
    widths = _spy_widths(monkeypatch)
    for text in ["t + x", "t*x", "2*t + y", "x^300 + t", "3*t"]:
        f = parse_expr(text, ctx)
        assert normal_form(f, G).terms == _reference_normal_form(f, basis, order)
    assert widths == [7, 7, 15, 7, 15, 7]
    assert G.packed[0].bits == 7


def _assert_groebner_by_max_scan(G: GroebnerBasis, I: IdealPresentation) -> None:
    """The generators and every S-polynomial of G reduce to zero modulo G
    by the max-scan reference, and no term of G is divisible by the
    leading monomial of another element."""
    basis, order = list(G.basis), G.order
    for g in I.generators:
        assert _reference_normal_form(g, basis, order) == {}
    for f, g in itertools.combinations(basis, 2):
        assert _reference_normal_form(s_polynomial(f, g, order), basis, order) == {}
    for i, g in enumerate(basis):
        others = [lm for j, lm in enumerate(G.leads) if j != i]
        assert not any(all(a <= b for a, b in zip(lm, m)) for lm in others for m in g.terms)


@pytest.mark.parametrize(
    "gens, order, expected",
    [
        # A division leaves the 7-bit fields: t*x reduces to x*y^127.
        (["t - y^127", "t*x"], MonomialOrder.elim(1), ["4*y^127 + t", "x*y^127"]),
        # An S-polynomial does: y*(t*x + y^127) - x*(t*y + 1) has y^128.
        (["t*x + y^127", "t*y + 1"], MonomialOrder.elim(1), None),
        # A pair lcm does: lcm(x^100*y, x*y^100) has degree 200.
        (["x^100*y + t", "x*y^100 + t"], MonomialOrder.grevlex(), None),
    ],
)
def test_buchberger_overflowing_the_start_width(gens, order, expected, monkeypatch):
    ctx = ring(5, "t x y")
    I = _ideal(ctx, *gens)
    widths = _spy_widths(monkeypatch)
    G = buchberger(I, order)
    assert widths[0] == 7 and 15 in widths
    if expected is not None:
        assert [str(g) for g in G.basis] == expected
    assert G.leads == tuple(leading(g, order)[0] for g in G.basis)
    _assert_groebner_by_max_scan(G, I)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_division_with_large_exponents_matches_max_scan(data):
    ctx = ring(data.draw(st.sampled_from([2, 3, 7])), "x0 x1 x2")
    order = data.draw(st.sampled_from(_orders(3)))
    big = st.sampled_from([0, 1, 2, 127, 255, 256, 65535, 2**40])
    exps = st.tuples(big, big, big)
    terms = st.dictionaries(exps, st.integers(1, ctx.p - 1), min_size=1, max_size=3)
    basis = [Polynomial(ctx, t) for t in data.draw(st.lists(terms, min_size=1, max_size=2))]
    f = data.draw(polys(ctx, max_exp=3, max_terms=4))
    G = GroebnerBasis(ctx, order, tuple(basis))
    assert normal_form(f, G).terms == _reference_normal_form(f, basis, order)


def test_lcm_and_s_polynomial_terms_that_leave_their_fields_are_caught():
    from frobsplit.fparith import PackingOverflow, grevlex_layout, make_divisor
    from frobsplit.idealtheory import _lcm, _s_terms

    # Degree 400 leaves an 8-bit grevlex degree field.
    grevlex = packing(grevlex_layout(3), 8)
    with pytest.raises(PackingOverflow):
        _lcm(grevlex, (0, 200, 1), (0, 1, 200))
    assert _lcm(grevlex, (0, 200, 1), (0, 1, 54))[0] == (0, 200, 54)
    # Under elim(1), S(t*x + y^255, t*y + 1) = y^256 - x leaves the second
    # block's degree field, while the lcm t*x*y fits.
    elim = packing(MonomialOrder.elim(1).layout(3), 8)
    f = elim.pack_terms({(1, 1, 0): 1, (0, 0, 255): 1})
    g = elim.pack_terms({(1, 0, 1): 1, (0, 0, 0): 1})
    _, lcm = _lcm(elim, (1, 1, 0), (1, 0, 1))
    divisors = [make_divisor(terms, 5, elim) for terms in (f, g)]
    with pytest.raises(PackingOverflow):
        _s_terms(*divisors, lcm, 5, elim.guards)
    with pytest.raises(PackingOverflow):
        _s_terms(*reversed(divisors), lcm, 5, elim.guards)


# -- Fedder's criterion by membership in I^[p] ---------------------------------


def _fedder_by_intersection(sigma, I):
    """The "fedder" verdict from the whole module (I^[p] : I), built by
    elimination and reduced: the reference for the membership check."""
    return buchberger(fedder_module(I)).contains(sigma.coeff)


def _product_power(I):
    """(g_1 * ... * g_r)^(p-1), which lies in (I^[p] : I)."""
    product = I.context.one()
    for g in I.generators:
        product = product * g
    return product.pow_p_minus_1()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fedder_verdict_matches_the_intersection(data):
    ctx = data.draw(contexts.filter(lambda c: c.p <= 5))
    I = data.draw(ideals(ctx, max_gens=3, max_terms=2))
    section = data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3))
    if data.draw(st.booleans()):
        section = data.draw(polys(ctx, max_exp=1, max_terms=2)) * _product_power(I)
    sigma = TwistedEndo(section)
    assert is_compatible(sigma, I, "fedder") == _fedder_by_intersection(sigma, I)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_principal_fedder_module_matches_the_colon(data):
    ctx = data.draw(contexts)
    g = data.draw(polys(ctx, max_exp=2, max_terms=3, nonzero=True))
    I = ideal(g)
    by_colon = colon(frobenius_power_ideal(I), g).generators
    assert [h.terms for h in fedder_module(I).generators] == [h.terms for h in by_colon]
    roots = [h for c in by_colon for h in frobenius_roots(c).values()]
    G = buchberger(IdealPresentation(ctx, roots))
    res = exists_compatible_splitting(I)
    assert (res.exists, res.obstruction.basis) == (G.is_unit_ideal(), G.basis)


def test_principal_fedder_module_at_a_large_prime_is_quick():
    # g^(p-1) by squarings would take seconds here: (xy + x + 1)^64 times
    # (xy + x + 1)^32 alone is over a million term products.
    start = time.perf_counter()
    assert exists_compatible_splitting(_ideal(ring(101, "x y"), "x*y+x+1")).exists
    assert time.perf_counter() - start < 1.0


def _probe_fedder(m):
    """Count the Fedder check's work through ``m`` (a MonkeyPatch): the
    generators of every run of the Buchberger core that finished,
    unpacked, and the ``divide_terms`` calls made outside the core.  The
    checks divide by the core's minimal basis as it is, with no
    inter-reduction (``_reduce_tails``), so those calls are the
    membership tests of c * g, or of its roots."""
    import frobsplit.idealtheory as idealtheory

    core, divide = idealtheory._buchberger_core, idealtheory.divide_terms
    runs, memberships = [], []
    inside = [0]

    def counted_core(generators, p, pk):
        inside[0] += 1
        try:
            result = core(generators, p, pk)
        finally:
            inside[0] -= 1
        runs.append([pk.unpack_terms(g) for g in generators])
        return result

    def counted_divide(terms, divisors, p, pk, quotient=None, membership=False):
        if not inside[0]:
            memberships.append(terms)
        return divide(terms, divisors, p, pk, quotient, membership)

    m.setattr(idealtheory, "_buchberger_core", counted_core)
    m.setattr(idealtheory, "divide_terms", counted_divide)
    return runs, memberships


def _coprime_leads(I: IdealPresentation) -> bool:
    """Do the grevlex leading monomials of I's generators share no
    variable, pair by pair?  Such generators are their own Groebner basis
    (Buchberger's first criterion), so the checks run no core on them."""
    leads = [leading(g, MonomialOrder.grevlex())[0] for g in I.generators]
    return all(
        not any(i and j for i, j in zip(a, b)) for a, b in itertools.combinations(leads, 2)
    )


def test_fedder_stops_at_the_first_generator_that_fails(monkeypatch):
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("the Fedder check built a colon")

    for name in ("colon", "intersect", "exact_divide"):
        monkeypatch.setattr(idealtheory, name, built)
    ctx = ring(3, "x y")
    I = _ideal(ctx, "x", "y")
    xy2 = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
    with monkeypatch.context() as m:
        runs, memberships = _probe_fedder(m)
        m.setattr(Polynomial, "pow_p_minus_1", built)
        # 1 * x is not in (x^3, y^3): the first membership test decides.
        # x^3 and y^3 share no variable, so they are their own basis.
        assert is_compatible(TwistedEndo(ctx.one()), I, "fedder") is False
        assert (len(runs), len(memberships)) == (0, 1)
        runs.clear(), memberships.clear()
        # (xy)^2 * x and (xy)^2 * y both are.
        assert is_compatible(xy2, I, "fedder") is True
        assert (len(runs), len(memberships)) == (0, 2)
        runs.clear(), memberships.clear()
        # 1 * x is not in (x^3, x^3*y^3 + y^6), whose leads share x: the
        # basis comes from a run, and the first membership decides.
        J = _ideal(ctx, "x", "x*y + y^2")
        assert is_compatible(TwistedEndo(ctx.one()), J, "fedder") is False
        assert (len(runs), len(memberships)) == (1, 1)
        runs.clear(), memberships.clear()
        # (xy)^2 * xy is in ((xy)^3), whose one generator is its own basis.
        assert is_compatible(xy2, _ideal(ctx, "x*y"), "fedder") is True
        assert (len(runs), len(memberships)) == (0, 1)
    # (g^[p] : g) = (g^(p-1)) needs no colon.
    assert fedder_module(_ideal(ctx, "x*y+1")).generators


@pytest.mark.parametrize("method", ["fedder", "both"])
@pytest.mark.parametrize("gens", [["x*y+x+1"], ["x*y+x+1", "x+y"]])
def test_large_prime_fedder_check_is_refused_before_any_colon(method, gens, monkeypatch):
    # These checks were refused by the Fedder module's budget, though they
    # build no module.  They are decided at once now, still with no colon,
    # bracket-power ideal, Buchberger run or exact division built.
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("the Fedder check built a colon")

    for name in ("colon", "frobenius_power_ideal", "buchberger", "exact_divide"):
        monkeypatch.setattr(idealtheory, name, built)
    ctx = ring(1009, "x y")
    sigma, I = TwistedEndo(ctx.one()), _ideal(ctx, *gens)
    start = time.perf_counter()
    assert is_compatible(sigma, I, method) is is_compatible(sigma, I, "finite") is False
    assert time.perf_counter() - start < 1.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fedder_check_takes_no_roots_and_no_basis_of_the_ideal(data):
    import frobsplit.idealtheory as idealtheory

    ctx = data.draw(contexts.filter(lambda c: c.p <= 5))
    I = data.draw(ideals(ctx, max_terms=2))
    sigma = TwistedEndo(data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3)))
    bracket = [g.terms for g in frobenius_power_ideal(I).generators]

    def no_roots(*args):
        raise AssertionError("the Fedder check took p-th roots")

    with pytest.MonkeyPatch.context() as m:
        runs, _ = _probe_fedder(m)
        m.setattr(idealtheory, "packed_roots", no_roots)
        verdict = is_compatible(sigma, I, "fedder")
    # The basis of I^[p] comes from its own run, never from one of I,
    # which the finite method builds; generators g^p whose leads share no
    # variable, one g^p among them, are their own basis, and c = 0 lies in
    # every ideal: no run at all.
    needs_a_basis = not _coprime_leads(I) and not sigma.coeff.is_zero()
    assert runs == ([bracket] if needs_a_basis else [])
    assert verdict == is_compatible(sigma, I, "finite")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fedder_membership_matches_the_intersection_at_larger_primes(data):
    ctx = data.draw(contexts)
    I = data.draw(ideals(ctx, max_gens=3, max_exp=2, max_terms=2))
    kinds = ["random", "first power", "product power", "bracket power"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        section = data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3))
    elif kind == "first power":
        # c * g_1 lies in I^[p]; whether every c * g does is the question.
        section = data.draw(polys(ctx, max_exp=1, max_terms=2)) * I.generators[0].pow_p_minus_1()
    elif kind == "product power":
        section = data.draw(polys(ctx, max_exp=1, max_terms=2)) * _product_power(I)
    else:
        section = ctx.zero()
        for g in I.generators:
            section = section + data.draw(polys(ctx, max_exp=1, max_terms=2)) * g.frobenius()
    sigma = TwistedEndo(section)
    verdict = is_compatible(sigma, I, "fedder")
    assert verdict == _fedder_by_intersection(sigma, I)
    if kind in ("product power", "bracket power"):
        assert verdict is True


def test_fedder_check_on_the_heaviest_colon_case(monkeypatch):
    # The heaviest case of compat-fedder (seed 7, case #63) by colons,
    # two eliminations; by membership it takes one Buchberger run on I^[p].
    ctx = ring(3, "a b c")
    I = _ideal(ctx, "a*b*c + c^3 + 2*a^2 + 2*a*b", "a*b^2 + 2*a*b*c + 1")
    bracket = [g.terms for g in frobenius_power_ideal(I).generators]
    sections = [ctx.one(), _product_power(I), parse_expr("a^2*b*c^2 + b^5 + 2", ctx)]
    sections.append(parse_expr("a + c", ctx) * sections[1] + parse_expr("b*c", ctx))
    for section in sections:
        sigma = TwistedEndo(section)
        is_compatible(sigma, I, "both")
        with monkeypatch.context() as m:
            runs, _ = _probe_fedder(m)
            is_compatible(sigma, I, "fedder")
        assert runs == [bracket]
    assert is_compatible(TwistedEndo(sections[1]), I, "fedder") is True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_fedder_verdict_matches_membership_in_a_basis_of_the_bracket_power(data):
    ctx = data.draw(contexts)
    I = data.draw(ideals(ctx, max_gens=3, max_exp=2, max_terms=2))
    Ip = frobenius_power_ideal(I)
    if data.draw(st.booleans()):
        section = data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3))
    else:
        section = ctx.zero()
        for g in Ip.generators:
            section = section + data.draw(polys(ctx, max_exp=1, max_terms=2)) * g
    G = buchberger(Ip)
    expected = all(normal_form(section * g, G).is_zero() for g in I.generators)
    assert is_compatible(TwistedEndo(section), I, "fedder") is expected


def test_fedder_check_that_overflows_reruns_wider(monkeypatch):
    # x^120 + y^3 and x^3*y^120 + x^3*y^3 fit 7-bit fields; their leads
    # share x, and the lcm of those, of degree 240, does not.
    ctx = ring(3, "x y")
    I = _ideal(ctx, "x^40 + y", "x*y^40 + x*y")
    sigma = TwistedEndo(ctx.one())
    wider, widths = Packing.wider, []

    def counted(pk):
        widths.append(pk.bits)
        return wider(pk)

    with monkeypatch.context() as m:
        m.setattr(Packing, "wider", counted)
        verdict = is_compatible(sigma, I, "fedder")
    assert widths == [7]
    assert verdict is is_compatible(sigma, I, "finite") is False


def _finite_by_roots(sigma, I):
    """The "finite" verdict unpacked: a basis of I by ``buchberger``, the
    roots of each c * g by ``frobenius_roots`` and ``GroebnerBasis.contains``
    on each: the reference for the packed check."""
    G = buchberger(I)
    roots = (h for g in I.generators for h in frobenius_roots(sigma.coeff * g).values())
    return all(map(G.contains, roots))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_finite_verdict_matches_membership_of_the_roots_in_a_basis(data):
    ctx = data.draw(contexts)
    I = data.draw(ideals(ctx, max_gens=3, max_exp=2, max_terms=2))
    if data.draw(st.booleans()):
        section = data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3))
    else:
        section = data.draw(polys(ctx, max_exp=1, max_terms=2)) * _product_power(I)
    sigma = TwistedEndo(section)
    assert is_compatible(sigma, I, "finite") is _finite_by_roots(sigma, I)


def _no_bracket_power(m):
    """Make every route to I^[p] or to a colon raise, through ``m``."""
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("the finite check used the bracket power or a colon")

    for name in ("frobenius_power_ideal", "colon", "intersect"):
        m.setattr(idealtheory, name, built)
    m.setattr(Polynomial, "frobenius", built)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_finite_check_takes_a_basis_of_the_ideal_and_nothing_of_the_bracket(data):
    ctx = data.draw(contexts.filter(lambda c: c.p <= 5))
    I = data.draw(ideals(ctx, max_terms=2))
    sigma = TwistedEndo(data.draw(polys(ctx, max_exp=2 * ctx.p - 1, max_terms=3)))
    with pytest.MonkeyPatch.context() as m:
        runs, _ = _probe_fedder(m)
        _no_bracket_power(m)
        verdict = is_compatible(sigma, I, "finite")
    # The basis of I comes from its own run, never from one of I^[p],
    # which the Fedder method builds; generators whose leads share no
    # variable, one g among them, are their own basis, and c = 0 lies in
    # every ideal: no run at all.
    needs_a_basis = not _coprime_leads(I) and not sigma.coeff.is_zero()
    assert runs == ([[g.terms for g in I.generators]] if needs_a_basis else [])
    assert verdict == is_compatible(sigma, I, "fedder")


def test_finite_check_stops_at_the_first_root_outside_the_ideal(monkeypatch):
    ctx = ring(3, "x y")
    I = _ideal(ctx, "x", "y")
    with monkeypatch.context() as m:
        runs, memberships = _probe_fedder(m)
        _no_bracket_power(m)
        # (1 + xy) * x = x + x^2*y has the root 1 twice, and (1 + xy) * y
        # has it too; 1 is not in (x, y), and the first membership decides.
        # x and y share no variable, so they are their own basis.
        assert is_compatible(TwistedEndo(parse_expr("1 + x*y", ctx)), I, "finite") is False
        assert (len(runs), len(memberships)) == (0, 1)
        runs.clear(), memberships.clear()
        # (xy)^2 * x = x^3 * y^2 and (xy)^2 * y have the roots x and y.
        xy2 = TwistedEndo(parse_expr("(x*y)^(p-1)", ctx))
        assert is_compatible(xy2, I, "finite") is True
        assert (len(runs), len(memberships)) == (0, 2)
        runs.clear(), memberships.clear()
        # (1 + xy) * x has the root 1, not in (x, x*y + y^2), whose leads
        # share x: the basis comes from a run, and the first root decides.
        J = _ideal(ctx, "x", "x*y + y^2")
        assert is_compatible(TwistedEndo(parse_expr("1 + x*y", ctx)), J, "finite") is False
        assert (len(runs), len(memberships)) == (1, 1)
        runs.clear(), memberships.clear()
        # (xy)^2 * xy has the one root xy, and (xy) is its own basis.
        assert is_compatible(xy2, _ideal(ctx, "x*y"), "finite") is True
        assert (len(runs), len(memberships)) == (0, 1)
        runs.clear(), memberships.clear()
        # c = 0 is decided before anything is packed.
        assert is_compatible(TwistedEndo(ctx.zero()), I, "finite") is True
        assert (len(runs), len(memberships)) == (0, 0)


def test_finite_check_that_overflows_reruns_wider(monkeypatch):
    # x^100 + y and x*y^100 + x fit 7-bit fields; their leading monomials
    # share x, and the lcm of those, of degree 200, does not.
    ctx = ring(3, "x y")
    I = _ideal(ctx, "x^100 + y", "x*y^100 + x")
    sigma = TwistedEndo(ctx.one())
    wider, widths = Packing.wider, []

    def counted(pk):
        widths.append(pk.bits)
        return wider(pk)

    with monkeypatch.context() as m:
        m.setattr(Packing, "wider", counted)
        verdict = is_compatible(sigma, I, "finite")
    assert widths == [7]
    assert verdict is is_compatible(sigma, I, "fedder") is False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_colon_generators_are_a_grevlex_groebner_basis(data):
    # LM(a * g) = LM(a) * LM(g): the quotients of a Groebner basis of
    # J cap (g) by g are one of (J : g).
    ctx = data.draw(contexts.filter(lambda c: c.p <= 5))
    J = data.draw(ideals(ctx))
    g = data.draw(polys(ctx, max_exp=2, max_terms=3, nonzero=True))
    gens = colon(J, g).generators
    grevlex = MonomialOrder.grevlex()
    G = GroebnerBasis(ctx, grevlex, gens)
    for a, b in itertools.combinations(gens, 2):
        assert normal_form(s_polynomial(a, b, grevlex), G).is_zero()


# -- p-th roots on packed keys -------------------------------------------------


def _exists_by_the_module(I):
    """The existence verdict by its first construction: the Fedder module
    as polynomials, each generator split by ``frobenius_roots``, and
    ``buchberger`` on the roots."""
    roots = [h for c in fedder_module(I).generators for h in frobenius_roots(c).values()]
    G = buchberger(IdealPresentation(I.context, roots))
    return G.is_unit_ideal(), G.basis


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_principal_exists_split_matches_the_module_route(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ctx = ring(p, [f"x{i}" for i in range(data.draw(st.integers(1, 3)))])
    g = data.draw(polys(ctx, max_exp=2, max_terms=3, nonzero=True))
    # g^(p-1) by division needs p > 3; draw the route, then keep a g that takes it.
    divides = p > 3 and data.draw(st.booleans())
    assume(_p_minus_1_route(len(g.terms), ctx.arity, g.total_degree(), p)[1] == divides)
    res = exists_compatible_splitting(ideal(g))
    assert (res.exists, res.obstruction.basis) == _exists_by_the_module(ideal(g))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_generator_exists_split_matches_the_module_route(data):
    ctx = data.draw(contexts.filter(lambda c: c.p <= 5))
    gens = data.draw(st.lists(polys(ctx, max_exp=2, max_terms=2, nonzero=True), min_size=2, max_size=2))
    I = IdealPresentation(ctx, gens)
    res = exists_compatible_splitting(I)
    assert (res.exists, res.obstruction.basis) == _exists_by_the_module(I)


@pytest.mark.parametrize(
    "p,expr",
    # g^(p-1) by squaring past 7-bit fields, and g^(p-1) by dividing g^p
    # whose degree, 132 or 143, is past them while g^(p-1)'s is not.
    [(3, "(x^35+y)^2"), (11, "(x^6+y)^2"), (11, "(x^6+y*z)^2*z")],
)
def test_principal_exists_split_packs_at_the_width_of_g_to_the_p(p, expr):
    I = _ideal(ring(p, "x y z"), expr)
    res = exists_compatible_splitting(I)
    assert (res.exists, res.obstruction.basis) == _exists_by_the_module(I)
    assert not res.exists
    # Both routes above raise g on packed keys; g^(p-1) by repeated
    # multiplication does not.
    (g,) = I.generators
    power = I.context.one()
    for _ in range(p - 1):
        power = power * g
    G = buchberger(IdealPresentation(I.context, list(frobenius_roots(power).values())))
    assert (res.exists, res.obstruction.basis) == (G.is_unit_ideal(), G.basis)


def _count_unpacking(m):
    """Record, through ``m`` (a MonkeyPatch), what every call of
    ``Packing.unpack_terms`` returns."""
    unpack, unpacked = Packing.unpack_terms, []

    def counted(pk, terms):
        unpacked.append(unpack(pk, terms))
        return unpacked[-1]

    m.setattr(Packing, "unpack_terms", counted)
    return unpacked


@pytest.mark.parametrize("gens", [["x*y+z", "x^2+y*z+1"], ["x^3+y^3+z^3"], ["x*y*z+x+1"]])
def test_finite_check_unpacks_nothing(gens, monkeypatch):
    ctx = ring(5, "x y z")
    I = _ideal(ctx, *gens)
    for section in ("1", "(x*y*z)^(p-1)", "x^3*y^7 + 2*z^9 + x*y"):
        sigma = TwistedEndo(parse_expr(section, ctx))
        with monkeypatch.context() as m:
            unpacked = _count_unpacking(m)
            is_compatible(sigma, I, "finite")
        assert unpacked == []


@pytest.mark.parametrize(
    "p,expr",
    # Bases [x, y, z] and [1]; [xy + z^2], with g^(p-1) by division; and
    # [(x + y)^2, (x + y)z], by squaring.
    [(5, "x^3+y^3+z^3"), (101, "x*y+x+1"), (7, "(x*y+z^2)^2"), (3, "(x+y)^3*z+(x+y)^2*z^2")],
)
def test_principal_exists_split_unpacks_only_the_obstruction_basis(p, expr, monkeypatch):
    import frobsplit.idealtheory as idealtheory

    def built(*args):
        raise AssertionError("the module built as a polynomial")

    ctx = ring(p, "x y z")
    I = _ideal(ctx, expr)
    expected = exists_compatible_splitting(I)
    with monkeypatch.context() as m:
        m.setattr(idealtheory, "fedder_module", built)
        m.setattr(Polynomial, "pow_p_minus_1", built)
        unpacked = _count_unpacking(m)
        res = exists_compatible_splitting(I)
    assert res == expected
    # One call per basis element, for its tail behind the monic leading term.
    leads = [leading(h, MonomialOrder.grevlex())[0] for h in res.obstruction.basis]
    tails = [{m: c for m, c in h.terms.items() if m != lt} for h, lt in zip(res.obstruction.basis, leads)]
    assert unpacked == tails


# Ideals of F_3[x0, x1] whose minimal basis from the core is not reduced
# under any order of ORDERS: an S-polynomial adds an element whose leading
# monomial divides a tail term of an earlier one.
NOT_REDUCED = [
    ("x0^2 + 2*x0*x1", "x0^2 + x0*x1"),
    ("x0 + 2*x1 + 1", "x0*x1 + 2*x1^2"),
    ("2*x0^3 + x0^2*x1 + x1", "x0^3 + x0"),
]


def _minimal_basis(I, pk):
    """The core's minimal basis of I, packed with ``pk``."""
    import frobsplit.idealtheory as idealtheory

    return idealtheory._buchberger_core([pk.pack_terms(g.terms) for g in I.generators], I.context.p, pk)[0]


def _assert_reduced(G):
    """Every element of G is monic, and no term of one is divisible by the
    leading monomial of another."""
    leads = [leading(g, G.order) for g in G.basis]
    assert all(c == 1 for _, c in leads)
    for i, g in enumerate(G.basis):
        for j, (lm, _) in enumerate(leads):
            assert i == j or not any(monomial_divides(lm, m) for m in g.terms)


@pytest.mark.parametrize("gens", NOT_REDUCED)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
def test_the_core_returns_a_minimal_basis_that_reduces_to_the_reduced_one(gens, order):
    import frobsplit.idealtheory as idealtheory

    ctx = ring(3, "x0 x1")
    I = _ideal(ctx, *gens)
    pk = packing(order.layout(ctx.arity), fit_bits(6))
    minimal = _minimal_basis(I, pk)
    reduced = idealtheory._reduce_tails(minimal, ctx.p, pk)
    assert minimal != reduced
    assert [d[:3] for d in minimal] == [d[:3] for d in reduced]
    G = buchberger(I, order)
    _assert_reduced(G)
    assert [pk.pack_terms(g.terms) for g in G.basis] == [{lead: 1} | dict(tail) for lead, _, _, tail in reduced]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_membership_by_the_minimal_basis_matches_the_reduced_basis(data):
    order = data.draw(st.sampled_from(ORDERS))
    ctx = data.draw(contexts.filter(lambda c: order.kind != "elim" or c.arity > 1))
    if ctx.arity == 2 and data.draw(st.booleans()):
        I = _ideal(ctx, *data.draw(st.sampled_from(NOT_REDUCED)))
    else:
        I = data.draw(ideals(ctx, max_gens=3))
    kind = data.draw(st.sampled_from(["random", "member", "member plus a term"]))
    if kind == "random":
        f = data.draw(polys(ctx, max_exp=3, max_terms=4))
    else:
        f = ctx.zero()
        for g in I.generators:
            f = f + data.draw(polys(ctx, max_exp=2, max_terms=2)) * g
        if kind != "member":
            f = f + data.draw(polys(ctx, max_exp=1, max_terms=1, nonzero=True))
    p = ctx.p

    def run(pk):
        return not divide_terms(pk.pack_terms(f.terms), _minimal_basis(I, pk), p, pk)

    top = max(degree(h.terms) for h in I.generators + ((f,) if f.terms else ()))
    verdict = packed_call(packing(order.layout(ctx.arity), fit_bits(top)), run)
    assert verdict is buchberger(I, order).contains(f)
    if kind == "member":
        assert verdict is True


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_membership_by_the_packed_basis_matches_the_core_and_the_reduced_basis(data):
    import frobsplit.idealtheory as idealtheory

    ctx = data.draw(contexts)
    p = ctx.p
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["random", "variable power", "repeated"]))
        if kind == "repeated" and gens:
            gens.append(data.draw(st.sampled_from(gens)).scale(data.draw(st.integers(1, p - 1))))
            continue
        g = data.draw(polys(ctx, max_exp=2, max_terms=3))
        if kind == "variable power":
            # It leads g, and such leads of two distinct variables are coprime.
            g = g + ctx.variable(data.draw(st.integers(0, ctx.arity - 1))) ** 7
        # With no constant term, no generator but a constant below makes
        # the unit ideal.
        g = g - ctx.constant(g.terms.get((0,) * ctx.arity, 0))
        gens.append(g if not g.is_zero() else ctx.variable(0))
    if data.draw(st.integers(0, 4)) == 0:
        gens[data.draw(st.integers(0, len(gens) - 1))] = ctx.constant(data.draw(st.integers(1, p - 1)))
    I = IdealPresentation(ctx, gens)
    kind = data.draw(st.sampled_from(["random", "member", "member plus a constant"]))
    if kind == "random":
        f = data.draw(polys(ctx, max_exp=3, max_terms=4))
    else:
        f = ctx.zero()
        for g in I.generators:
            f = f + data.draw(polys(ctx, max_exp=2, max_terms=2)) * g
        if kind != "member":
            # Not a member, unless a generator is a constant.
            f = f + ctx.constant(data.draw(st.integers(1, p - 1)))
    core, runs = idealtheory._buchberger_core, []

    def counted_core(*args):
        runs.append(args)
        return core(*args)

    def run(pk):
        runs.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(idealtheory, "_buchberger_core", counted_core)
            basis = idealtheory._packed_basis([pk.pack_terms(g.terms) for g in I.generators], p, pk)
        packed_f = pk.pack_terms(f.terms)
        full = divide_terms(packed_f, basis, p, pk)
        early = divide_terms(packed_f, basis, p, pk, membership=True)
        minimal = _minimal_basis(I, pk)
        by_core = divide_terms(packed_f, minimal, p, pk)
        by_core_early = divide_terms(packed_f, minimal, p, pk, membership=True)
        return len(runs), full, early, by_core, by_core_early

    top = max(degree(h.terms) for h in I.generators + ((f,) if f.terms else ()))
    layout = MonomialOrder.grevlex().layout(ctx.arity)
    core_runs, full, early, by_core, by_core_early = packed_call(packing(layout, fit_bits(top)), run)
    assert core_runs == (0 if _coprime_leads(I) else 1)
    # The early remainder is the full one's leading term, or nothing.
    assert early == dict(list(full.items())[:1])
    assert by_core_early == dict(list(by_core.items())[:1])
    G = buchberger(I)
    verdict = not full
    assert verdict is (not by_core) is G.contains(f) is normal_form(f, G).is_zero()
    if kind == "member":
        assert verdict is True


def test_compatibility_checks_make_no_inter_reduction_division(monkeypatch):
    import frobsplit.idealtheory as idealtheory

    ctx = ring(3, "x0 x1")
    I = _ideal(ctx, *NOT_REDUCED[0])
    Ip = frobenius_power_ideal(I)
    pk = packing(MonomialOrder.grevlex().layout(2), fit_bits(15))
    # Both bases the checks divide by are minimal and not reduced.
    for J in (I, Ip):
        minimal = _minimal_basis(J, pk)
        assert minimal != idealtheory._reduce_tails(minimal, ctx.p, pk)
    sections = [ctx.one(), _product_power(I), parse_expr("x0^2*x1^5 + x1^4 + 2", ctx)]
    expected = [is_compatible(TwistedEndo(c), I, "both") for c in sections]
    assert expected[1] is True

    def inter_reduced(*args):
        raise AssertionError("a compatibility check inter-reduced its basis")

    for method in ("fedder", "finite"):
        for c, verdict in zip(sections, expected):
            with monkeypatch.context() as m:
                runs, memberships = _probe_fedder(m)
                m.setattr(idealtheory, "_reduce_tails", inter_reduced)
                assert is_compatible(TwistedEndo(c), I, method) is verdict
            # One run of the core; outside it, only the membership tests
            # divide, and the Fedder check makes one per generator at most.
            assert len(runs) == 1 and memberships
            assert method == "finite" or len(memberships) <= len(I.generators)
    # Where a basis is unpacked, it is the reduced one.
    _assert_reduced(buchberger(I))
    J = _ideal(ctx, "x0*x1 + x1^2", "x0^2")
    got = intersect(I, J)
    assert [list(g.terms.items()) for g in got.generators] == [
        list(g.terms.items()) for g in tagged_intersect(I, J).generators
    ]
    _assert_reduced(buchberger(got))
    assert list(buchberger(got).basis) == list(got.generators)
    _assert_reduced(exists_compatible_splitting(I).obstruction)
