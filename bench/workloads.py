"""The benchmark's four workloads.

A round is a list of ``Case`` objects.  A case's ``run`` is the timed call
into frobsplit; its ``check`` inspects the output afterwards and returns
``None`` when it is right or a description of what is wrong.  Checks
compute their expectations with ``reference`` (or, where stated, with the
program's other, independent method), never from saved output.

Every round has the same structure: the ideals, sections, matrix
relabelings and command shapes come from a fixed pool.  The seed and the
round number choose how each case presents that structure: fresh
variable names, a unit scaling x_i -> c_i * x_i of the variables (an
isomorphism that keeps every support and so every operation count), and
fresh sections or coefficients where the verdict allows.  So every case
is a distinct input, and a result cache keyed on the library's objects
misses, while a round costs the same whatever the seed.  Random
structure per seed made the quartile spread of five runs 0.2-0.3 on
compat-fedder, whose Buchberger costs span four orders of magnitude.

Library functions are looked up on the ``frobsplit`` modules at call
time, so the tracer's wrappers see every call the workloads make.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import frobsplit as fs
import frobsplit.cli

import reference as ref


@dataclass
class Case:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# -- inputs -----------------------------------------------------------------

NAME_LETTERS = "abcdefghjkmnqrstuvwyz"  # no "p": the parser reads it as the prime


def _rand_terms(
    rng: random.Random, n: int, p: int, max_deg: int, max_terms: int = 4, nonzero: bool = True
) -> dict:
    """The acceptance suite's random polynomial: same draws, same order."""
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.randrange(1, p)
    return terms


def _rand_homogeneous(rng: random.Random, n: int, p: int, deg: int, max_terms: int) -> dict:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = rng.randrange(1, p)
    return terms


def _nonconstant(rng: random.Random, n: int, p: int, max_deg: int, max_terms: int) -> dict:
    g = _rand_terms(rng, n, p, max_deg, max_terms)
    while not any(any(m) for m in g):
        g = _rand_terms(rng, n, p, max_deg, max_terms)
    return g


class Presentation:
    """Variable names and unit scalings for one case."""

    def __init__(self, rng: random.Random, n: int, p: int):
        names: dict[str, None] = {}
        while len(names) < n:
            names[rng.choice(NAME_LETTERS) + str(rng.randrange(100))] = None
        self.names = list(names)
        self.units = [rng.randrange(1, p) for _ in range(n)]
        self.p = p

    def ring(self):
        return fs.ring(self.p, self.names)

    def __call__(self, f: dict) -> dict:
        out = {}
        for m, c in f.items():
            for u, e in zip(self.units, m):
                c = c * pow(u, e, self.p)
            out[m] = c % self.p
        return out


def _has_small_term(f: dict, p: int) -> bool:
    return any(all(e <= p - 1 for e in m) for m in f)


def _exists_homogeneous_case(label: str, ctx, g: dict) -> Case:
    """exists_compatible_splitting((g)) for homogeneous g.

    The traces of x^a * g^(p-1) are homogeneous, so they generate the unit
    ideal exactly when one of them is a nonzero constant, that is, when
    g^(p-1) has a term with every exponent at most p-1.
    """
    p, n = ctx.p, ctx.arity
    I = fs.ideal(fs.Polynomial(ctx, g))

    def check(res) -> str | None:
        want = _has_small_term(ref.power(g, p - 1, p, n), p)
        if res.exists != want:
            return f"exists={res.exists}, expected {want}"
        unit = [b.terms for b in res.obstruction.basis] == [{(0,) * n: 1}]
        if unit != res.exists:
            return "obstruction basis disagrees with the verdict"
        return None

    return Case(label, lambda: fs.exists_compatible_splitting(I), check)


# -- compat-fedder ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def criterion7_ideals() -> tuple:
    """The 100 ideals of the acceptance suite's criterion 7 (seed 42).

    Each entry is (p, n, generators).  The suite's section is drawn too,
    to keep the draw sequence, and replaced by a fresh one per case.
    """
    rng = random.Random(42)
    pool = []
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.choice([1, 2, 3])
        gens = [_rand_terms(rng, n, p, 3) for _ in range(rng.randint(1, 2))]
        _rand_terms(rng, n, p, 2 * p, nonzero=False)
        pool.append((p, n, tuple(gens)))
    return tuple(pool)


# Positive controls reuse the first two-generator ideals of the pool; the
# existence test runs on homogeneous principal ideals of these shapes.
FEDDER_CONTROLS = 4
FEDDER_EXISTS = [(2, 3, 2), (3, 2, 2), (3, 3, 2)]


def _fedder_case(label: str, ctx, gens: list[dict], sigma: dict, control: bool) -> Case:
    I = fs.IdealPresentation(ctx, [fs.Polynomial(ctx, g) for g in gens])
    endo = fs.TwistedEndo(fs.Polynomial(ctx, sigma))

    def check(verdict) -> str | None:
        if control and verdict is not True:
            return f"section in I^[p] judged incompatible ({verdict})"
        finite = fs.is_compatible(endo, I, "finite")
        if verdict != finite:
            return f"fedder={verdict} but finite={finite}"
        return None

    return Case(label, lambda: fs.is_compatible(endo, I, "fedder"), check)


def build_compat_fedder(rng: random.Random) -> list[Case]:
    pool = criterion7_ideals()
    cases = []
    for i, (p, n, gens) in enumerate(pool):
        show = Presentation(rng, n, p)
        sigma = _rand_terms(rng, n, p, 2 * p, nonzero=False)
        cases.append(
            _fedder_case(f"fedder #{i} p={p} n={n}", show.ring(), [show(g) for g in gens], show(sigma), False)
        )
    controls = [i for i, (_, _, gens) in enumerate(pool) if len(gens) == 2][:FEDDER_CONTROLS]
    for i in controls:
        p, n, gens = pool[i]
        show = Presentation(rng, n, p)
        sigma: dict = {}
        for g in gens:
            h = _rand_terms(rng, n, p, 2, 2)
            sigma = ref.add(sigma, ref.mul(ref.frobenius(g, p), h, p), p)
        cases.append(
            _fedder_case(f"control #{i} p={p} n={n}", show.ring(), [show(g) for g in gens], show(sigma), True)
        )
    shapes = random.Random("compat-fedder/exists")
    for p, n, deg in FEDDER_EXISTS:
        g = _rand_homogeneous(shapes, n, p, deg, 3)
        show = Presentation(rng, n, p)
        cases.append(_exists_homogeneous_case(f"exists p={p} n={n}", show.ring(), show(g)))
    return cases


# -- compat-finite ----------------------------------------------------------

# (p, n) of the random hypersurfaces; p^n between about 2000 and 4096.
FINITE_HYPERSURFACES = [(7, 4), (3, 7), (2, 12), (5, 5), (13, 3)]
# (p, n, degree) of the homogeneous hypersurfaces for the existence test.
FINITE_EXISTS = [(5, 4, 2), (7, 3, 2), (2, 9, 2)]


def _det(size: int, p: int) -> dict:
    return ref.determinant(lambda i, j: size * i + j, range(size), list(range(size)), size * size, p)


def _principal_case(label: str, ctx, g: dict, sigma: dict) -> Case:
    """Finite check for the principal ideal (g): (g^[p] : g) = (g^(p-1)),
    so the verdict is divisibility of the coefficient by g^(p-1)."""
    p, n = ctx.p, ctx.arity
    I = fs.ideal(fs.Polynomial(ctx, g))
    endo = fs.TwistedEndo(fs.Polynomial(ctx, sigma))

    def check(verdict) -> str | None:
        want = ref.divides(ref.power(g, p - 1, p, n), sigma, p)
        if verdict != want:
            return f"verdict {verdict}, but g^(p-1) divides the coefficient: {want}"
        return None

    return Case(label, lambda: fs.is_compatible(endo, I, "finite"), check)


def _principal_pair(shapes: random.Random, rng: random.Random, label: str, p: int, n: int, g: dict) -> list[Case]:
    """One section divisible by g^(p-1), and the same plus one more term."""
    cofactor = next(iter(_rand_terms(shapes, n, p, 2, 1)))
    extra = next(iter(_rand_terms(shapes, n, p, n * (p - 1), 1)))
    show = Presentation(rng, n, p)
    ctx, g = show.ring(), show(g)
    base = ref.mul(ref.power(g, p - 1, p, n), {cofactor: rng.randrange(1, p)}, p)
    spoiled = ref.add(base, {extra: rng.randrange(1, p)}, p)
    return [
        _principal_case(f"{label} divisible", ctx, g, base),
        _principal_case(f"{label} perturbed", ctx, g, spoiled),
    ]


def build_compat_finite(rng: random.Random) -> list[Case]:
    shapes = random.Random("compat-finite/shapes")
    cases = []
    for size, p in ((3, 2), (2, 5), (2, 7)):
        cases += _principal_pair(shapes, rng, f"det{size} p={p}", p, size * size, _det(size, p))
    for p, n in FINITE_HYPERSURFACES:
        g = _nonconstant(shapes, n, p, 3, 3)
        cases += _principal_pair(shapes, rng, f"hypersurface p={p} n={n}", p, n, g)
    for p, n, deg in FINITE_EXISTS:
        g = _rand_homogeneous(shapes, n, p, deg, 3)
        show = Presentation(rng, n, p)
        cases.append(_exists_homogeneous_case(f"exists p={p} n={n}", show.ring(), show(g)))
    # Refused today: p^n above the enumeration limit.  The inputs do not
    # depend on the seed, so every round fails exactly these two.
    ctx = fs.ring(3, [f"x{i}" for i in range(9)])
    det3 = _det(3, 3)
    cases.append(_principal_case("det3 p=3 (p^n=19683)", ctx, det3, ref.power(det3, 2, 3, 9)))
    ctx = fs.ring(11, "x y z w")
    cases.append(
        _exists_homogeneous_case(
            "exists xy-zw p=11 (p^n=14641)", ctx, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 10}
        )
    )
    return cases


# -- matrix-chains ----------------------------------------------------------

# (n, p, relabelings per round, chain-ordered).  A uniform relabeling of
# the matrix variables makes the chain search backtrack; on the two largest
# sections that costs 1-13 s a case, so those are relabeled along a random
# valid chain instead, and the search succeeds at its first try on every
# level.  n = 3 at p = 7 (about 9 s a case) and n = 4 at p >= 3 (over
# 150 s) are left out.  The counts put the median case at n = 3, p = 2
# (a few ms rather than a sub-millisecond n = 2 case) and the 90th
# percentile among the n = 3, p = 5 sections.
MATRIX_SHAPES = [(2, p, 1, False) for p in (2, 3, 5, 7, 11, 13)]
MATRIX_SHAPES += [(3, 2, 4, False), (3, 3, 4, False), (3, 5, 2, True), (4, 2, 1, True)]


@functools.lru_cache(maxsize=None)
def _standard_product(n: int, p: int) -> dict:
    return ref.nested_minor_product(n, p, lambda i, j: i * n + j)


@functools.lru_cache(maxsize=None)
def _standard_section(n: int, p: int) -> dict:
    return ref.power(_standard_product(n, p), p - 1, p, n * n)


def _permute(f: dict, perm: list[int]) -> dict:
    out = {}
    for m, c in f.items():
        exps = [0] * len(m)
        for i, e in enumerate(m):
            exps[perm[i]] = e
        out[tuple(exps)] = c
    return out


def _random_chain(rng: random.Random, product: dict, arity: int) -> list[int]:
    """A random residue order for product^(p-1), found on the product alone:
    x_i^(p-1) divides f^(p-1) exactly when x_i divides f."""

    def dfs(current: dict, remaining: list[int]) -> list[int] | None:
        if not remaining:
            return []
        for var in rng.sample(remaining, len(remaining)):
            nxt = ref.residue(current, var, 1)
            if nxt:
                rest = dfs(nxt, [v for v in remaining if v != var])
                if rest is not None:
                    return [var] + rest
        return None

    order = dfs(product, list(range(arity)))
    if order is None:
        raise RuntimeError("nested-minor product has no residue chain")
    return order


@functools.lru_cache(maxsize=None)
def matrix_relabelings() -> tuple:
    """(n, p, perm, label, verdict method) for every case slot of a round:
    matrix entry (i, j) becomes ring variable perm[i*n+j]."""
    shapes = random.Random("matrix-chains/relabelings")
    slots = []
    for n, p, copies, chain_ordered in MATRIX_SHAPES:
        arity = n * n
        for copy in range(copies):
            if chain_ordered:
                order = _random_chain(shapes, _standard_product(n, p), arity)
                perm = [0] * arity
                for position, var in enumerate(order):
                    perm[var] = position
            else:
                perm = list(range(arity))
                shapes.shuffle(perm)
            kind = "chain-ordered" if chain_ordered else "uniform"
            slots.append((n, p, tuple(perm), f"matrix n={n} p={p} {kind} #{copy}", ("fastpath", "trace")[copy % 2]))
    return tuple(slots)


def _matrix_case(rng: random.Random, n: int, p: int, perm: tuple, label: str, verdict_by: str) -> Case:
    arity = n * n
    names = Presentation(rng, arity, p).names
    # The section is built in a ring whose variable k is named after the
    # variable that matrix entry k becomes, then moved to the target ring,
    # where the chain search meets the variables in relabeled order.
    layout = fs.RingContext(fs.Prime(p), tuple(names[perm[k]] for k in range(arity)))
    target = fs.RingContext(fs.Prime(p), tuple(names))

    def run():
        f = fs.matrix_section_coefficient(layout, n)
        g = fs.embed(f, target, list(perm))
        chain = fs.search_chain(g)
        if verdict_by == "fastpath":
            verdict = fs.homogeneous_fastpath(fs.TwistedEndo(g))
        else:
            verdict = fs.check_splitting(fs.TwistedEndo(g))
        return g, chain, verdict

    def check(out) -> str | None:
        g, chain, verdict = out
        f = g.terms
        if f != _permute(_standard_section(n, p), list(perm)):
            return "f^(p-1) differs from the square-and-multiply power"
        if {sum(m) for m in f} != {arity * (p - 1)}:
            return f"section is not homogeneous of degree {arity * (p - 1)}"
        if f.get((p - 1,) * arity) != 1:
            return "origin coefficient is not 1"
        if verdict.kind.value != "Splitting":
            return f"verdict {verdict.kind.value}, expected Splitting"
        if chain is None:
            return "no residue chain found"
        if sorted(var for var, _ in chain.steps) != list(range(arity)):
            return "chain does not run through every variable"
        current = f
        for var, result in chain.steps:
            current = ref.residue(current, var, p - 1)
            if current is None or current != result.terms:
                return f"chain step along variable {var} differs from the residue"
        if len(current) != 1 or any(any(m) for m in current):
            return "chain does not end in a nonzero constant"
        if chain.terminal.residue != next(iter(current.values())):
            return "chain terminal differs from the last residue"
        return None

    return Case(label, run, check)


def build_matrix_chains(rng: random.Random) -> list[Case]:
    return [_matrix_case(rng, *slot) for slot in matrix_relabelings()]


# -- cli --------------------------------------------------------------------

CLI_PRIMES = (2, 3, 5, 7)
DEMO_PRIMES = (11, 13, 17, 19, 23)


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = frobsplit.cli.main(argv)
    return code, out.getvalue()


def _cli_case(label: str, argv: list[str], check_json: Callable[[dict], "str | None"]) -> Case:
    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "output is not one JSON report"
        return check_json(report)

    return Case(label, lambda: _run_cli(argv), check)


def _verdict_is(want) -> Callable[[dict], "str | None"]:
    def check(report: dict) -> str | None:
        got = report["checks"][0]["verdict"]
        return None if got == want else f"verdict {got!r}, expected {want!r}"

    return check


def _corpus_case(fmt: str) -> Case:
    argv = ["corpus", "run", "--format", fmt]

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"corpus run exited {code}"
        lines = text.splitlines()
        if not lines:
            return "corpus run printed nothing"
        if fmt == "json":
            checks = [c for line in lines for c in json.loads(line)["checks"]]
            failed = [c["kind"] for c in checks if c["pass"] is not True]
        else:
            failed = [line for line in lines if not line.startswith("[PASS] ")]
        return f"failing corpus checks: {failed[:3]}" if failed else None

    return Case(f"corpus {fmt}", lambda: _run_cli(argv), check)


def _section_with_noise(rng: random.Random, n: int, p: int) -> dict:
    """(x_1...x_n)^(p-1) plus terms the trace of 1 ignores."""
    f = {(p - 1,) * n: 1}
    for m, c in _rand_terms(rng, n, p, 2 * p, 3).items():
        if not all(e % p == p - 1 for e in m):
            f[m] = c
    return f


def _expected_splitting(f: dict, p: int, n: int) -> str:
    image = ref.trace(f, p)
    if set(image) == {(0,) * n}:
        return "Splitting" if image[(0,) * n] == 1 else "SpansSplitting"
    return "NotSplitting"


def _chain_verdict(f: dict, order: list[int], p: int) -> bool:
    current = f
    for var in order:
        current = ref.residue(current, var, p - 1)
        if not current:
            return False
    return True


def _any_chain(f: dict, remaining: list[int], p: int) -> bool:
    if not remaining:
        return True
    for var in remaining:
        nxt = ref.residue(f, var, p - 1)
        if nxt and _any_chain(nxt, [v for v in remaining if v != var], p):
            return True
    return False


def _cli_invocations(shapes: random.Random, rng: random.Random) -> list[Case]:
    """One invocation of every subcommand but corpus.  ``shapes`` draws the
    structure, ``rng`` the presentation."""
    cases = []
    p = shapes.choice(CLI_PRIMES)
    n = shapes.choice((1, 2, 3))
    show = Presentation(rng, n, p)
    names = show.names
    common = ["-p", str(p), "--vars", ",".join(names), "--format", "json"]

    f = _section_with_noise(shapes, n, p) if shapes.random() < 0.7 else _rand_terms(shapes, n, p, 2 * p, 3)
    f = ref.scale(show(f), rng.randrange(1, p), p)
    cases.append(
        _cli_case(
            "split-check",
            ["split-check", *common, ref.render(f, names)],
            _verdict_is(_expected_splitting(f, p, n)),
        )
    )

    g = _nonconstant(shapes, n, p, 2, 2)
    sigma = ref.mul(ref.power(g, p - 1, p, n), _rand_terms(shapes, n, p, 1, 1), p)
    if shapes.random() < 0.5:
        sigma = ref.add(sigma, _rand_terms(shapes, n, p, 2, 1), p)
    g, sigma = show(g), show(sigma)
    method = shapes.choice(["fedder", "finite", "both"])
    cases.append(
        _cli_case(
            "compat",
            ["compat", *common, "--method", method, ref.render(sigma, names), "--ideal", ref.render(g, names)],
            _verdict_is(ref.divides(ref.power(g, p - 1, p, n), sigma, p)),
        )
    )

    # (g^[p] : g) = (g^(p-1)); its reduced basis is g^(p-1) made monic.
    gp = ref.power(g, p - 1, p, n)
    lead = max(gp, key=ref.grevlex_key)
    basis = [ref.render(ref.monic(gp, lead, p), names)]

    def fedder_check(report: dict) -> str | None:
        got = report["checks"][0]["certificate"]["groebner"]
        return None if got == basis else f"basis {got}, expected {basis}"

    cases.append(_cli_case("fedder", ["fedder", *common, "--ideal", ref.render(g, names)], fedder_check))

    hn = shapes.choice((2, 3))
    hp = shapes.choice((2, 3, 5))
    hshow = Presentation(rng, hn, hp)
    h = hshow(_rand_homogeneous(shapes, hn, hp, shapes.choice((2, 3)), 3))
    cases.append(
        _cli_case(
            "exists-split",
            ["exists-split", "-p", str(hp), "--vars", ",".join(hshow.names), "--format", "json",
             "--ideal", ref.render(h, hshow.names)],
            _verdict_is(_has_small_term(ref.power(h, hp - 1, hp, hn), hp)),
        )
    )

    split = show(_section_with_noise(shapes, n, p))
    divisor = show({tuple(shapes.randint(0, p) for _ in range(n)): 1})
    cases.append(
        _cli_case(
            "d-split",
            ["d-split", *common, ref.render(split, names), "--divisor", ref.render(divisor, names)],
            _verdict_is(ref.divides(divisor, split, p)),
        )
    )

    unit = ref.add({(0,) * n: shapes.randrange(1, p)}, _rand_terms(shapes, n, p, 2, 2), p)
    chained = ref.mul({(p - 1,) * n: 1}, unit, p)
    if shapes.random() < 0.3:
        chained = ref.add(chained, _rand_terms(shapes, n, p, p, 1), p)
    chained = show(chained)
    order = shapes.sample(range(n), n)
    cases.append(
        _cli_case(
            "certify",
            ["certify", *common, ref.render(chained, names), "--order", ",".join(names[i] for i in order)],
            _verdict_is(_chain_verdict(chained, order, p)),
        )
    )
    cases.append(
        _cli_case(
            "search-chain",
            ["search-chain", *common, ref.render(chained, names)],
            _verdict_is(_any_chain(chained, list(range(n)), p)),
        )
    )

    demo_p = rng.choice(DEMO_PRIMES)

    def matrix_check(report: dict) -> str | None:
        verdicts = {c["kind"]: c for c in report["checks"]}
        if verdicts["splitting"]["verdict"] != "Splitting":
            return "matrix section is not a splitting"
        if verdicts["splitting"]["certificate"]["origin"] != "1":
            return "origin coefficient is not 1"
        if verdicts["chain"]["verdict"] is not True:
            return "no residue chain"
        return None

    cases.append(
        _cli_case(
            "matrix-demo",
            ["matrix-demo", "-p", str(demo_p), "--size", "2", "--format", "json"],
            matrix_check,
        )
    )

    gens = sorted(shapes.sample(range(1, 12), shapes.randint(2, 3)))
    if shapes.random() < 0.3:
        gens[0] = 1
    if all(x % 2 == 0 for x in gens) or all(x % 3 == 0 for x in gens) or all(x % 5 == 0 for x in gens):
        gens.append(7)
    rng.shuffle(gens)
    cases.append(
        _cli_case(
            "semigroup",
            ["semigroup", "-p", str(p), "--gens", rng.choice([",", " "]).join(map(str, gens)), "--format", "json"],
            _verdict_is(1 in gens),
        )
    )

    deg = shapes.randint(0, 3 * (p - 1))
    line = {(deg,): shapes.randrange(1, p)}
    for m, c in _rand_terms(shapes, 1, p, deg, 2).items():
        line.setdefault(m, c)
    lshow = Presentation(rng, 1, p)
    line = lshow(line)
    low = min(m[0] for m in line)

    def p1_check(report: dict) -> str | None:
        got = report["checks"][0]["verdict"]
        want_extends = deg <= 2 * (p - 1)
        if got["extends"] != want_extends:
            return f"extends={got['extends']} for degree {deg}"
        if got["compatible_zero"] != (low >= p - 1):
            return "compatibility at zero is wrong"
        if want_extends and got["compatible_infinity"] != (deg <= p - 1):
            return "compatibility at infinity is wrong"
        return None

    cases.append(
        _cli_case(
            "p1",
            ["p1", "-p", str(p), "--vars", lshow.names[0], "--format", "json", ref.render(line, lshow.names)],
            p1_check,
        )
    )
    return cases


def build_cli(rng: random.Random) -> list[Case]:
    shapes = random.Random("cli/shapes")
    cases = [_corpus_case("text"), _corpus_case("json")]
    for _ in range(3):
        cases += _cli_invocations(shapes, rng)
    return cases


WORKLOADS: dict[str, Callable[[random.Random], list[Case]]] = {
    "compat-fedder": build_compat_fedder,
    "compat-finite": build_compat_finite,
    "matrix-chains": build_matrix_chains,
    "cli": build_cli,
}


def build_round(workload: str, seed: int, index: int) -> list[Case]:
    """Round ``index`` of a workload: the same seed gives the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{index}"))
