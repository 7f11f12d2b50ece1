"""CLI output against recorded golden files, and the exit-code contract:
0 pass, 1 verdict mismatch, 2 usage or parse error, for malformed input too."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobsplit
from frobsplit import cli
from frobsplit.cli import build_parser, main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_output_matches_golden(record, capsys):
    code = main(record["argv"])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (record["stdout"], record["stderr"], record["exit"])


def _case(**fields):
    case = {"name": "c", "prime": 3, "variables": ["x", "y"], "sigma": "(x*y)^(p-1)"}
    case.update(fields)
    return {key: value for key, value in case.items() if value is not None}


def _corpus(*cases):
    return {"schema": 1, "cases": list(cases)}


def _without(key):
    case = _case(checks=[{"kind": "splitting"}])
    del case[key]
    return _corpus(case)


MALFORMED = {
    "top level is a list": [],
    "no cases": {"schema": 1},
    "case is not an object": _corpus(5),
    "no name": _without("name"),
    "no prime": _without("prime"),
    "no checks": _without("checks"),
    "check is not an object": _corpus(_case(checks=["splitting"])),
    "string prime": _corpus(_case(prime="3", checks=[{"kind": "splitting"}])),
    "check without kind": _corpus(_case(checks=[{"expected": True}])),
    "unknown kind": _corpus(_case(checks=[{"kind": "nonsense"}])),
    "compatible without ideal": _corpus(_case(checks=[{"kind": "compatible"}])),
    "splitting without sigma": _corpus(_case(sigma=None, checks=[{"kind": "splitting"}])),
    "fedder without variables": _corpus(_case(variables=None, checks=[{"kind": "fedder", "ideal": ["x"]}])),
    "variables not a list": _corpus(_case(variables="xy", checks=[{"kind": "splitting"}])),
    "prime not prime": _corpus(_case(prime=4, checks=[{"kind": "splitting"}])),
    "prime not prime without variables": _corpus(
        _case(prime=4, variables=None, sigma=None, checks=[{"kind": "semigroup", "generators": [2, 3]}])
    ),
    "unreadable variable": _corpus(_case(variables=["p"], sigma="p", checks=[{"kind": "splitting"}])),
}


def _write(tmp_path, data) -> str:
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _assert_usage_error(code, captured):
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_corpus_is_a_usage_error(data, tmp_path, capsys):
    code = main(["corpus", "run", _write(tmp_path, data)])
    _assert_usage_error(code, capsys.readouterr())


@pytest.mark.parametrize("bound", ["4", 1e3, True, 1])
def test_malformed_nilpotent_bound_is_a_usage_error(bound, tmp_path, capsys):
    """A bound that is not an int of at least 2 (a string, a float, a bool)
    is refused at load, naming the case and the field."""
    check = {"kind": "nilpotent", "element": "x", "ideal": ["y", "y - x^2"], "bound": bound}
    code = main(["corpus", "run", _write(tmp_path, _corpus(_case(checks=[check])))])
    captured = capsys.readouterr()
    _assert_usage_error(code, captured)
    assert "case 'c'" in captured.err and '"bound"' in captured.err


@pytest.mark.parametrize("bound", [None, 2, 10])
def test_wellformed_nilpotent_bound_runs(bound, tmp_path, capsys):
    check = {"kind": "nilpotent", "element": "x", "ideal": ["y", "y - x^2"], "expected": 2}
    if bound is not None:
        check["bound"] = bound
    assert main(["corpus", "run", _write(tmp_path, _corpus(_case(checks=[check])))]) == 0
    assert capsys.readouterr().out.startswith("[PASS] c.nilpotent: verdict=2")


def test_malformed_case_stops_the_run_before_any_output(tmp_path, capsys):
    good = _case(checks=[{"kind": "splitting", "expected": "Splitting"}])
    code = main(["corpus", "run", _write(tmp_path, _corpus(good, _case(name=None, checks=[])))])
    _assert_usage_error(code, capsys.readouterr())


def test_expression_errors_in_a_wellformed_corpus_stay_failed_checks(tmp_path, capsys):
    data = _corpus(_case(sigma="x +", checks=[{"kind": "splitting", "expected": "Splitting"}]))
    code = main(["corpus", "run", _write(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("[FAIL] c.splitting: verdict=error: ")


def test_malformed_corpus_under_optimize(tmp_path):
    """Validation must not rest on ``assert``, which ``python -O`` strips."""
    path = _write(tmp_path, _corpus(_case(variables=None, checks=[{"kind": "d-split", "divisor": "x"}])))
    src = str(Path(frobsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import sys; from frobsplit.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "corpus", "run", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_corpus_runs_fedder_and_chain_search(tmp_path, capsys):
    checks = [
        {"kind": "fedder", "ideal": ["x*y"], "expected": ["x*y"]},
        {"kind": "chain", "expected": True},
    ]
    code = main(["corpus", "run", _write(tmp_path, _corpus(_case(prime=2, checks=checks)))])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("[PASS] c.chain: verdict=True expected=True certificate=")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "-p", "2", "--vars", "x,y", "(x*y)^(p-1)", "--order", "z"], "unknown variable 'z'"),
        (["split-check", "-p", "3", "--vars", "p,q", "p*q"], "invalid variable name 'p'"),
        (["split-check", "-p", "3", "--vars", "x,1y", "x"], "invalid variable name '1y'"),
        (["d-split", "-p", "3", "--vars", "x", "x^2", "--divisor", "0"], "the divisor must be nonzero"),
    ],
)
def test_bad_input_is_a_usage_error(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    _assert_usage_error(code, captured)
    assert message in captured.err


DET3 = "x11*x22*x33 + x12*x23*x31 + x13*x21*x32 - x13*x22*x31 - x12*x21*x33 - x11*x23*x32"
DET3_VARS = "x11,x12,x13,x21,x22,x23,x31,x32,x33"


# Each was refused (exit 2, "needs p^n = ...") while the finite check and the
# existence test enumerated [0, p-1]^n up to p^n = 4096.
@pytest.mark.parametrize(
    "argv, out",
    [
        (
            ["exists-split", "-p", "11", "--vars", "x,y,z,w", "--ideal", "x*y-z*w"],
            '[PASS] exists-split.exists-split: verdict=True certificate={"obstruction": ["1"]}\n',
        ),
        (
            ["compat", "-p", "3", "--vars", DET3_VARS, "--method", "both", f"({DET3})^2", "--ideal", DET3],
            "[PASS] compat.compatible: verdict=True\n",
        ),
        (
            ["compat", "-p", "3", "--vars", DET3_VARS, "--method", "both", f"({DET3})^2 + x11", "--ideal", DET3],
            "[PASS] compat.compatible: verdict=False\n",
        ),
    ],
    ids=["exists-split p^n=14641", "compat det3 p^n=19683", "compat det3 perturbed"],
)
def test_formerly_refused_calls_are_decided(argv, out, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (out, "")


# Each was refused as "Fedder module too large", though the Fedder check
# builds no Fedder module: its basis of I^[p] repeats Buchberger on I.
@pytest.mark.parametrize("p", ["1009", "10007", "2305843009213693951"])
def test_compat_at_a_large_prime_is_decided_at_once(p, capsys):
    start = time.perf_counter()
    assert main(["compat", "-p", p, "--vars", "x,y", "x*y", "--ideal", "x*y+x+1"]) == 0
    assert capsys.readouterr() == ("[PASS] compat.compatible: verdict=False\n", "")
    assert time.perf_counter() - start < 1.0


# A valid call of every subcommand but compat, which reads --method.
BASE_ARGV = {
    "split-check": ["split-check", "--vars", "x", "x"],
    "fedder": ["fedder", "--vars", "x", "--ideal", "x"],
    "exists-split": ["exists-split", "--vars", "x", "--ideal", "x"],
    "d-split": ["d-split", "--vars", "x", "x", "--divisor", "x"],
    "certify": ["certify", "--vars", "x", "x", "--order", "x"],
    "search-chain": ["search-chain", "--vars", "x", "x"],
    "matrix-demo": ["matrix-demo", "--size", "2"],
    "semigroup": ["semigroup", "--gens", "2,3"],
    "p1": ["p1", "--vars", "x", "x"],
    "corpus": ["corpus", "run"],
}

# The flags each subcommand used to accept and ignore.
IGNORED_FLAGS = (
    [(command, "--method") for command in BASE_ARGV]
    + [(command, "--vars") for command in ("matrix-demo", "semigroup", "corpus")]
    + [("corpus", "--prime")]
)


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS)
def test_flags_a_subcommand_does_not_read_are_rejected(command, flag, capsys):
    argv = BASE_ARGV[command]
    value = {"--method": "finite", "--vars": "x", "--prime": "3"}[flag]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["semigroup", "--gens", "-3,5"], "generators must be positive integers"),
        (["semigroup", "--gens", "2,-3"], "generators must be positive integers"),
        (["split-check", "-p", "3", "--vars", "x", "x^(2^(2^40))"], "exponent too large"),
        # One digit, so nothing cancels: 10^6 + 1 terms.
        (["split-check", "-p", "1000003", "--vars", "x,y", "(x+y)^(10^6)"], "power too large"),
        (["exists-split", "-p", "1009", "--vars", "x,y", "--ideal", "x*y+x+1"], "Fedder module too large"),
        (["exists-split", "-p", "10007", "--vars", "x,y", "--ideal", "x*y+x+1"], "Fedder module too large"),
        # 15 digits 1: 3^15 terms.
        (["split-check", "-p", "2", "--vars", "x,y", "(x+y+1)^(p^15-1)"], "power too large"),
        # 6.9 million term products, under their budget, for 4,762,800 terms.
        (["split-check", "-p", "7", "--vars", "x,y", "(x+y+1)^(2^20)"], "power too large"),
        # One digit, bounded at 509,545 and 2,007,006 terms: 1.0 s and 4.9 s
        # to build.
        (["split-check", "-p", "1009", "--vars", "x,y", "(x+y+1)^(p-1)"], "power too large"),
        (["split-check", "-p", "2003", "--vars", "x,y", "(x+y+1)^(p-1)"], "power too large"),
        # The 3x3 minor to the 28th is bounded at 237,336 terms; the section
        # was refused at a multiplication after 2.1 s.
        (["matrix-demo", "--size", "3", "-p", "29"], "matrix too large"),
    ],
)
def test_oversized_or_negative_input_is_a_quick_usage_error(argv, message, capsys):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    _assert_usage_error(code, captured)
    assert message in captured.err
    assert elapsed < 1.0


def test_a_power_sparse_in_characteristic_p_is_checked_at_once(capsys):
    # (x+y+z)^300 at p = 3 is 54 terms, taken by the base-3 digits of 300;
    # it was refused as "power too large".
    start = time.perf_counter()
    code = main(["split-check", "-p", "3", "--vars", "x,y,z", "(x+y+z)^300"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.startswith("[PASS] split-check.splitting")
    assert elapsed < 1.0


# Usage errors that argparse itself reports, with SystemExit(2).
PARSER_ERRORS = [
    ["no-such-command"],
    ["semigroup", "--gens"],
    ["fedder", "--vars", "x", "--ideal", "x", "--method", "finite"],
    ["compat", "-p", "3", "--vars", "x", "x", "--ideal", "x", "--method", "nope"],
]


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_repeated_calls_in_one_process_give_the_same_output(capsys):
    # The parser is built once per process; no call may leave state behind.
    assert build_parser() is build_parser()
    argvs = [record["argv"] for record in GOLDEN] + PARSER_ERRORS
    first = [_run(argv, capsys) for argv in argvs]
    again = [_run(argv, capsys) for argv in reversed(argvs)][::-1]
    assert first == again
    assert first[: len(GOLDEN)] == [(r["stdout"], r["stderr"], r["exit"]) for r in GOLDEN]
    assert all(code == 2 and "usage: frobsplit" in err for _, err, code in first[len(GOLDEN) :])


# -- the exit-code contract as a property --------------------------------------

VALID = ["x", "x*y + 1", "x + y + 1", "x*y + x + 1", "(x*y)^(p-1)", "(x*y)^(p-1) + x", "x^2*y + y^3", "0", "2"]
MALFORMED = ["x +", "x^²", "(" * 200 + "x" + ")" * 200, "x */ y", "", "w", "x^-1", "1/0", "x^(1/2)"]
# Refused at every prime of PRIMES; at p = 2, (x+y+1)^(p^11-1) only by the
# bound on its terms, 3^11, as its term products are under their budget.
# (x+y)^(10^6) and (x+y+1)^(2^20) are not: their powers by base-p digits
# are small at small p (at p = 2, x^(2^20) + y^(2^20) + 1).
OVERSIZED = ["(x+y+1)^(p^15-1)", "x^(2^(2^40))", "(x+y)^(p^24-1)", "(x+y+1)^(p^11-1)"]
# Valid entries are repeated so that more draws are decided.
EXPRESSIONS = 3 * VALID + MALFORMED + OVERSIZED
# Primes stay small enough for a Buchberger run whose division steps grow
# with p: reducing (xy)^(p-1) by xy + 1 takes p - 1 of them.
PRIMES = 2 * ["2", "3", "5", "7", "1009", "10007"] + ["4", "1", "0", "-3", "three"]

exprs = st.sampled_from(EXPRESSIONS)
ring_flags = st.tuples(
    st.sampled_from(3 * [[]] + 2 * [["--format", "json"]] + [["--format", "xml"]]),
    st.sampled_from(PRIMES).map(lambda p: ["-p", p]),
    st.sampled_from(["x,y", "x,y", "x,y", "x,y,z", "x", "", "x,x", "p"]).map(lambda v: ["--vars", v]),
).map(lambda flags: [arg for flag in flags for arg in flag])
ideal = st.lists(exprs, min_size=1, max_size=3).map(lambda gens: ["--ideal", *gens])
method = st.sampled_from([[], ["--method", "fedder"], ["--method", "finite"], ["--method", "both"]])
order = st.sampled_from(["x,y", "y,x", "x", "z", ""]).map(lambda v: ["--order", v])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [arg for part in ps for arg in part])


def _one(strategy):
    return strategy.map(lambda value: [value])


# --size 5 at p = 2 is a valid section that takes seconds, and so left out.
matrix_sizes = st.tuples(st.integers(-1, 12), st.sampled_from(PRIMES)).filter(lambda sp: sp != (5, "2"))

ARGVS = st.one_of(
    _command("split-check", ring_flags, _one(exprs)),
    _command("compat", ring_flags, method, _one(exprs), ideal),
    _command("fedder", ring_flags, ideal),
    _command("exists-split", ring_flags, ideal),
    _command("d-split", ring_flags, _one(exprs), _one(exprs).map(lambda e: ["--divisor", *e])),
    _command("certify", ring_flags, _one(exprs), order),
    _command("search-chain", ring_flags, _one(exprs)),
    _command("p1", ring_flags, _one(exprs)),
    matrix_sizes.map(lambda sp: ["matrix-demo", "--size", str(sp[0]), "-p", sp[1]]),
    st.sampled_from(["2,3", "3,5,7", "-3,5", "0", "x", "", "4,6"]).map(lambda g: ["semigroup", "--gens", g]),
    st.sampled_from([["corpus", "run"], ["corpus", "run", "no-such-corpus.json"], ["corpus"]]),
    st.lists(st.sampled_from(["-p", "3", "--bogus", "x", "run", "--vars"]), max_size=3),
)


@settings(max_examples=150, deadline=None)
@given(argv=ARGVS, extra=st.sampled_from(6 * [[]] + [["--bogus"], ["-p"]]))
def test_every_argv_keeps_the_exit_code_contract(argv, extra):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + extra)
        except SystemExit as exc:
            code = exc.code
    elapsed = time.perf_counter() - start
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        usage = lines and lines[0].startswith("usage: frobsplit") and ": error: " in lines[-1]
        assert usage or (len(lines) == 1 and lines[0].startswith("error: ")), err
        assert elapsed < 2.0


# -- argv is parsed once -------------------------------------------------------


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _echo_check(case, check):
    """In place of a check's computation, the inputs parsed for it."""
    return cli.CheckResult(check["kind"], repr((case.prime, case.variables, case.sigma, check)))


def _echo_matrix_demo(n, p):
    return cli.Report(f"matrix-demo-{n}", p, [cli.CheckResult("size", n)])


@settings(max_examples=150, deadline=None)
@given(
    prefix=st.sampled_from(8 * [[]] + [["--"], ["-h"]]),
    argv=ARGVS,
    extra=st.sampled_from(6 * [[]] + [["--bogus"], ["-p"], ["-h"], ["--"], ["--", "x"]]),
)
def test_a_subcommand_parsed_alone_answers_as_the_top_level_parser_does(prefix, argv, extra):
    # With COMMANDS empty, main hands every argv to the top-level parser,
    # whose subparsers action parses a subcommand's arguments a second time.
    # The checks only echo what was parsed for them: some draws of ARGVS
    # start Buchberger runs with no work bound, and this property is about
    # parsing.
    argv = prefix + argv + extra
    build_parser()  # built, with every subcommand, before COMMANDS is emptied
    with mock.patch.multiple(cli, _run_check=_echo_check, _matrix_demo=_echo_matrix_demo):
        dispatched = _outcome(argv)
        with mock.patch.object(cli, "COMMANDS", {}):
            assert _outcome(argv) == dispatched


def test_a_subcommand_call_never_reaches_the_top_level_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a subcommand's arguments")

    monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
    for record in GOLDEN:
        assert _run(record["argv"], capsys) == (record["stdout"], record["stderr"], record["exit"])
    out, err, code = _run(["semigroup", "--gens", "2,3", "--bogus"], capsys)
    assert (out, code) == ("", 2)
    assert err.startswith("usage: frobsplit [-h]")
    assert err.endswith("frobsplit: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [["semigroup", "-p", "3", "--gens", "2,3"], [], ["no-such-command"]])
def test_main_without_argv_reads_sys_argv(argv, monkeypatch, capsys):
    expected = _run(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["frobsplit", *argv])
    assert _run(None, capsys) == expected
