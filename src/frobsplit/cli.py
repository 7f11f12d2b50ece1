"""Command-line interface and corpus runner.

``CHECKS`` is the one table of checks: for each kind, the fields it needs
(``variables`` and ``sigma`` from the case, the rest from the check) and
a runner returning ``(verdict, certificate)``.  ``corpus run`` validates
a JSON file of cases against it before running any.  Every subcommand in
``COMMANDS`` but ``matrix-demo`` takes only the flags its check reads and
runs as a one-check case through the same ``_run_check``.  Reports are
stable text (one line per check) or JSON.

Exit codes: 0 all checks passed, 1 some verdict differed from its
expectation, 2 usage or parse error, a malformed corpus file included.
In a well-formed corpus, an expression that does not parse or a
computation that fails is a failed check.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cached_property, lru_cache
from typing import Any, Callable, Sequence

from ._value import Factory, Value
from .expr import ParseError, parse_expr
from .fparith import Polynomial, Prime, ring
from .idealtheory import (
    IdealPresentation,
    buchberger,
    exists_compatible_splitting,
    fedder_module,
    is_compatible,
    nilpotent_witness,
)
from .rescert import (
    ResidueChain,
    certify_chain,
    matrix_context,
    matrix_factors,
    matrix_section_coefficient,
    origin_coefficient,
    render_truncated,
    search_chain,
)
from .splitcore import (
    NumericalSemigroup,
    TwistedEndo,
    check_splitting,
    is_divisor_splitting,
    p1_extension_check,
    semigroup_split_check,
)

SCHEMA_VERSION = 1


class CheckResult(Value, frozen=False):
    kind: str
    verdict: Any
    expected: Any = None
    passed: bool = True
    certificate: Any = None

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "kind": self.kind,
            "verdict": self.verdict,
            "expected": self.expected,
            "pass": self.passed,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


class Report(Value, frozen=False):
    case: str
    prime: int | None
    checks: list[CheckResult] = Factory(list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "case": self.case,
            "prime": self.prime,
            "checks": [c.to_json() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {self.case}.{c.kind}: verdict={c.verdict}"
            if c.expected is not None:
                line += f" expected={c.expected}"
            if c.certificate is not None:
                line += f" certificate={json.dumps(c.certificate, sort_keys=True)}"
            lines.append(line)
        return "\n".join(lines)


def chain_certificate(chain: ResidueChain) -> dict:
    names = chain.initial.context.variables
    return {
        "initial": render_truncated(chain.initial),
        "steps": [
            {"var": names[var], "result": render_truncated(poly)}
            for var, poly in chain.steps
        ],
        "terminal": str(chain.terminal),
    }


class CorpusCase(Value):
    """One corpus entry: a ring, an optional section, and expected checks.

    ``context``, the ring, is built from the fields and is not one itself:
    it is in neither ``==`` nor the repr."""

    name: str
    prime: int
    variables: tuple[str, ...]
    sigma: str | None
    checks: tuple[dict, ...]

    def __post_init__(self) -> None:
        """Build the ring once: it validates the prime and the names."""
        Prime(self.prime)
        object.__setattr__(self, "context", ring(self.prime, self.variables) if self.variables else None)

    def parse(self, text: str) -> Polynomial:
        """An expression in the case's ring."""
        if self.context is None:
            raise ValueError(f"case {self.name!r} has no variables")
        return parse_expr(text, self.context)

    @cached_property
    def section(self) -> TwistedEndo:
        """The section sigma, parsed once for all the case's checks.  An
        error is not cached: each check that needs sigma raises it again."""
        if self.sigma is None:
            raise ValueError(f"case {self.name!r} has no sigma expression")
        return TwistedEndo(self.parse(self.sigma))

    @classmethod
    def from_json(cls, obj: Any) -> "CorpusCase":
        """A case from its corpus entry; ValueError unless it fits ``CHECKS``."""
        if not isinstance(obj, dict):
            raise ValueError(f"a corpus case is a {type(obj).__name__}, not an object")
        name = obj.get("name")
        if not isinstance(name, str):
            raise ValueError('a corpus case has no "name" string')
        if not isinstance(obj.get("prime"), int):
            raise ValueError(f'case {name!r} has no integer "prime"')
        variables = obj.get("variables", [])
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError(f'case {name!r}: "variables" is not a list of names')
        checks = obj.get("checks")
        if not isinstance(checks, list):
            raise ValueError(f'case {name!r} has no "checks" list')
        for check in checks:
            if not isinstance(check, dict):
                raise ValueError(f"case {name!r}: a check is a {type(check).__name__}, not an object")
            kind = check.get("kind")
            if not isinstance(kind, str) or kind not in CHECKS:
                raise ValueError(f"case {name!r}: unknown check kind {kind!r}")
            for key in CHECKS[kind][0]:
                if not (obj if key in ("variables", "sigma") else check).get(key):
                    raise ValueError(f"case {name!r}: a {kind!r} check needs {key!r}")
            if kind == "nilpotent":
                bound = check.get("bound", 4)
                if isinstance(bound, bool) or not isinstance(bound, int) or bound < 2:
                    raise ValueError(
                        f'case {name!r}: a "nilpotent" check\'s "bound" must be an integer of at least 2,'
                        f" not {bound!r}"
                    )
        try:
            return cls(name, obj["prime"], tuple(variables), obj.get("sigma"), tuple(checks))
        except ValueError as exc:
            raise ValueError(f"case {name!r}: {exc}") from None


class _Run:
    """One check of a case: its inputs, and a runner per kind for ``CHECKS``."""

    def __init__(self, case: CorpusCase, check: dict):
        self.case = case
        self.check = check
        self.ctx = case.context

    def ideal(self) -> IdealPresentation:
        return IdealPresentation(self.ctx, [self.case.parse(s) for s in self.check["ideal"]])

    def splitting(self) -> tuple[Any, Any]:
        v = check_splitting(self.case.section)
        if v.witness is not None:
            return v.kind.value, {"witness": render_truncated(v.witness)}
        return v.kind.value, None if v.constant is None else {"constant": str(v.constant)}

    def spans(self) -> tuple[Any, Any]:
        return check_splitting(self.case.section).spans, None

    def compatible(self) -> tuple[Any, Any]:
        return is_compatible(self.case.section, self.ideal(), self.check.get("method", "both")), None

    def fedder(self) -> tuple[Any, Any]:
        C = fedder_module(self.ideal())
        return [str(g) for g in C.generators], {"groebner": [str(g) for g in buchberger(C).basis]}

    def exists_split(self) -> tuple[Any, Any]:
        res = exists_compatible_splitting(self.ideal())
        return res.exists, {"obstruction": [str(g) for g in res.obstruction.basis]}

    def d_split(self) -> tuple[Any, Any]:
        sigma, h = self.case.section, self.case.parse(self.check["divisor"])
        if h.is_zero():
            raise ValueError("the divisor must be nonzero")
        return is_divisor_splitting(sigma, h), None

    def chain(self) -> tuple[Any, Any]:
        """Certify the chain in the check's ``order``, or search for one."""
        coeff = self.case.section.coeff
        if self.check.get("order") is None:
            return _search(coeff)
        unknown = [name for name in self.check["order"] if name not in self.ctx.variables]
        if unknown:
            raise ValueError(f"unknown variable {unknown[0]!r}")
        order = [self.ctx.index(name) for name in self.check["order"]]
        try:
            return True, chain_certificate(certify_chain(coeff, order))
        except ArithmeticError as exc:
            return False, {"error": str(exc)}

    def semigroup(self) -> tuple[Any, Any]:
        res = semigroup_split_check(NumericalSemigroup(self.check["generators"]), self.case.prime)
        return res.split, {"witness": res.witness}

    def nilpotent(self) -> tuple[Any, Any]:
        g = self.case.parse(self.check["element"])
        return nilpotent_witness(g, self.ideal(), self.check.get("bound", 4)), None

    def p1(self) -> tuple[Any, Any]:
        res = p1_extension_check(self.case.section)
        keys = ("extends", "compatible_zero", "compatible_infinity")
        verdict = {key: getattr(res, key) for key in keys}
        other = res.other_chart
        return verdict, None if other is None else {"other_chart": render_truncated(other)}


def _search(coeff: Polynomial) -> tuple[bool, Any]:
    chain = search_chain(coeff)
    return (False, None) if chain is None else (True, chain_certificate(chain))


# check kind: (the fields it needs, its runner)
CHECKS: dict[str, tuple[tuple[str, ...], Callable[[_Run], tuple[Any, Any]]]] = {
    "splitting": (("variables", "sigma"), _Run.splitting),
    "spans": (("variables", "sigma"), _Run.spans),
    "compatible": (("variables", "sigma", "ideal"), _Run.compatible),
    "fedder": (("variables", "ideal"), _Run.fedder),
    "exists-split": (("variables", "ideal"), _Run.exists_split),
    "d-split": (("variables", "sigma", "divisor"), _Run.d_split),
    "chain": (("variables", "sigma"), _Run.chain),
    "semigroup": (("generators",), _Run.semigroup),
    "nilpotent": (("variables", "element", "ideal"), _Run.nilpotent),
    "p1": (("variables", "sigma"), _Run.p1),
}


def _run_check(case: CorpusCase, check: dict) -> CheckResult:
    kind = check["kind"]
    if kind not in CHECKS:
        raise ValueError(f"unknown check kind {kind!r}")
    _, run = CHECKS[kind]
    verdict, certificate = run(_Run(case, check))
    expected = check.get("expected")
    return CheckResult(kind, verdict, expected, expected is None or verdict == expected, certificate)


def run_case(case: CorpusCase) -> Report:
    """Execute every check of a case; per-check errors are captured."""
    report = Report(case.name, case.prime)
    for check in case.checks:
        try:
            report.checks.append(_run_check(case, check))
        except Exception as exc:
            report.checks.append(
                CheckResult(check.get("kind", "?"), f"error: {exc}", check.get("expected"), False)
            )
    return report


def shipped_corpus_path() -> str:
    """Filesystem path of the corpus of worked examples shipped with the package."""
    # Imported here: no other command needs it, and it takes several ms.
    from importlib import resources

    return str(resources.files("frobsplit").joinpath("corpus/worked_examples.json"))


def _load_corpus(path: str) -> list[CorpusCase]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("the corpus is not a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported corpus schema {data.get('schema')!r}")
    if not isinstance(data.get("cases"), list):
        raise ValueError('the corpus has no "cases" list')
    return [CorpusCase.from_json(obj) for obj in data["cases"]]


def _names(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _integers(text: str) -> list[int]:
    return [int(g) for g in _names(text)]


# The arguments a subcommand takes besides the shared flags.
_ARGUMENTS: dict[str, dict] = {
    "--method": dict(choices=["fedder", "finite", "both"], default="both", help="compatibility method"),
    "expr": dict(),
    "--ideal": dict(nargs="+", required=True),
    "--divisor": dict(required=True),
    "--order": dict(type=_names, required=True, help="variable names, e.g. 'x,y'"),
    "--size": dict(type=int, default=3),
    "--gens": dict(dest="generators", type=_integers, required=True, help="generators, e.g. '2,3'"),
    "action": dict(choices=["run"]),
    "file": dict(nargs="?", help="corpus JSON (defaults to the shipped one)"),
}

# subcommand: (help, the check kind it runs or None, the last shared flag it
# takes in the chain format < prime < vars, its other arguments)
COMMANDS: dict[str, tuple[str, str | None, str, str]] = {
    "split-check": ("is the section a splitting?", "splitting", "vars", "expr"),
    "compat": ("is the section compatible with an ideal?", "compatible", "vars", "--method expr --ideal"),
    "fedder": ("coefficients compatible with an ideal", "fedder", "vars", "--ideal"),
    "exists-split": ("does a compatible splitting exist?", "exists-split", "vars", "--ideal"),
    "d-split": ("is the splitting divisor-compatible?", "d-split", "vars", "expr --divisor"),
    "certify": ("run a residue chain in a given order", "chain", "vars", "expr --order"),
    "search-chain": ("search for a residue chain", "chain", "vars", "expr"),
    "matrix-demo": ("nested-minor section of a generic matrix", None, "prime", "--size"),
    "semigroup": ("splitness of a numerical semigroup ring", "semigroup", "prime", "--gens"),
    "p1": ("extension to the projective line", "p1", "vars", "expr"),
    "corpus": ("run a corpus of cases", None, "format", "action file"),
}


# Arguments argparse must not take for options: negative numbers and lists
# of them, so that "--gens -3,5" reaches the check of the generators.
_NEGATIVE_NUMBERS = re.compile(r"^-\d[\d,]*$")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it is the same for
    every argv, and parsing leaves it unchanged.  Its ``commands`` maps
    each subcommand to that subcommand's own parser (the subparsers
    action's ``choices``), so that ``main`` parses a subcommand's
    arguments once, with that parser alone; the top-level parser parses
    only an argv that names no subcommand."""
    # Shared flags and -h come through parent parsers, each extending the one
    # before: copying an action is cheaper than add_argument.
    fmt = argparse.ArgumentParser()
    fmt.add_argument("--format", choices=["text", "json"], default="text")
    prime = argparse.ArgumentParser(add_help=False, parents=[fmt])
    prime.add_argument("--prime", "-p", type=int, default=2, help="characteristic (a prime)")
    ring_flags = argparse.ArgumentParser(add_help=False, parents=[prime])
    ring_flags.add_argument("--vars", type=_names, default="", help="variable names, e.g. 'x,y'")
    shared = {"format": fmt, "prime": prime, "vars": ring_flags}
    parser = argparse.ArgumentParser(
        prog="frobsplit",
        description="Frobenius splitting checks for polynomial rings over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, kind, flags, arguments) in COMMANDS.items():
        cmd = sub.add_parser(name, parents=[shared[flags]], help=help_text, add_help=False)
        cmd._negative_number_matcher = _NEGATIVE_NUMBERS
        for argument in arguments.split():
            cmd.add_argument(argument, **_ARGUMENTS[argument])
        cmd.set_defaults(kind=kind)
    parser.commands = sub.choices
    return parser


def _run_subcommand(args: argparse.Namespace) -> Report:
    """Run a subcommand as a one-check case: ``--vars`` and the expression
    make the ring and the section, its other flags are the check's fields."""
    check = dict(vars(args))
    name, prime, _ = check.pop("command"), check.pop("prime"), check.pop("format")
    variables, sigma = tuple(check.pop("vars", ())), check.pop("expr", None)
    if "vars" in args and not variables:
        raise ParseError("no variables given (use --vars)", 0)
    case = CorpusCase(name, prime, variables, sigma, (check,))
    return Report(name, prime, [_run_check(case, check)])


def _matrix_demo(n: int, p: int) -> Report:
    ctx = matrix_context(n, p)
    coeff = matrix_section_coefficient(ctx, n)
    factors = CheckResult("factors", [str(f) for f in matrix_factors(ctx, n)])
    v = check_splitting(TwistedEndo(coeff))
    origin = {"origin": str(origin_coefficient(coeff))}
    splitting = CheckResult("splitting", v.kind.value, certificate=origin)
    found, certificate = _search(coeff)
    chain = CheckResult("chain", found, passed=found, certificate=certificate)
    return Report(f"matrix-demo-{n}", p, [factors, splitting, chain])


def main(argv: Sequence[str] | None = None) -> int:
    """Run the subcommand that argv (``sys.argv[1:]`` when None) names,
    and return its exit code.  argv is parsed once.  When argv[0] names a
    command, the rest goes straight to that command's own parser, as the
    subparsers action would hand it on, and arguments left over are an
    error of the top-level parser, as there.  Any other argv (none, -h,
    an unknown command, a leading --) goes to the top-level parser."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    if argv and argv[0] in COMMANDS:
        args, rest = parser.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    else:
        args = parser.parse_args(argv)
    as_json = args.format == "json"
    try:
        if args.command == "corpus":
            reports = [run_case(case) for case in _load_corpus(args.file or shipped_corpus_path())]
        elif args.command == "matrix-demo":
            reports = [_matrix_demo(args.size, args.prime)]
        else:
            reports = [_run_subcommand(args)]
        for report in reports:
            print(json.dumps(report.to_json(), sort_keys=True) if as_json else report.to_text())
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(report.passed for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
