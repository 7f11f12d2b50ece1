"""CLI commands, report formats, corpus execution, exit codes."""

import json
import time

import pytest

from frobsplit import cli, parse_expr
from frobsplit.cli import (
    CHECKS,
    CorpusCase,
    _load_corpus,
    main,
    run_case,
    shipped_corpus_path,
)


def test_split_check_text(capsys):
    code = main(["split-check", "-p", "3", "--vars", "x,y", "(x*y)^(p-1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict=Splitting" in out


def test_split_check_json(capsys):
    code = main(["split-check", "-p", "2", "--vars", "x,y", "--format", "json", "y^2+x^3+x^2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == 1
    assert report["prime"] == 2
    assert report["checks"][0]["kind"] == "splitting"
    assert report["checks"][0]["verdict"] == "NotSplitting"
    assert report["checks"][0]["certificate"] == {"witness": "0"}


def test_compat_command(capsys):
    code = main(["compat", "-p", "3", "--vars", "x,y", "(x*y)^(p-1)", "--ideal", "x*y"])
    assert code == 0
    assert "verdict=True" in capsys.readouterr().out


def test_fedder_command(capsys):
    code = main(["fedder", "-p", "2", "--vars", "x,y", "--ideal", "x*y", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["verdict"] == ["x*y"]


def test_exists_split_command(capsys):
    code = main(["exists-split", "-p", "2", "--vars", "x,y", "--ideal", "y*(y-x^2)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=False" in out and "obstruction" in out


def test_d_split_command(capsys):
    code = main(["d-split", "-p", "3", "--vars", "x,y", "(x*y)^(p-1)", "--divisor", "x*y"])
    assert code == 0
    assert "verdict=True" in capsys.readouterr().out


def test_certify_command(capsys):
    code = main(["certify", "-p", "2", "--vars", "x,y", "(x*y)^(p-1)", "--order", "x,y"])
    assert code == 0
    assert '"terminal": "1"' in capsys.readouterr().out


def test_search_chain_command(capsys):
    code = main(["search-chain", "-p", "3", "--vars", "x,y", "(y^2-x^3-x^2)^(p-1)"])
    assert code == 0
    assert "verdict=False" in capsys.readouterr().out


def test_search_chain_without_a_chain_is_decided_at_once(capsys):
    # v0 ... v9 * v10^2 at p = 2 has no chain: every residue along v10
    # vanishes.  A depth-first search over orders took 47 s to say so.
    names = [f"v{i}" for i in range(11)]
    expr = "*".join(names[:10]) + "*v10^2"
    start = time.perf_counter()
    assert main(["search-chain", "-p", "2", "--vars", ",".join(names), expr]) == 0
    assert time.perf_counter() - start < 1
    assert "verdict=False" in capsys.readouterr().out


def test_matrix_demo_command(capsys):
    code = main(["matrix-demo", "-p", "2", "--size", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=Splitting" in out and "chain" in out


def test_semigroup_command(capsys):
    code = main(["semigroup", "-p", "2", "--gens", "2,3", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["verdict"] is False
    assert report["checks"][0]["certificate"]["witness"] == 1


def test_p1_command(capsys):
    code = main(["p1", "-p", "3", "--vars", "x", "x^(p-1)", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["verdict"] == {
        "extends": True,
        "compatible_zero": True,
        "compatible_infinity": True,
    }


def test_corpus_shipped_passes(capsys):
    code = main(["corpus", "run"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_corpus_explicit_path(capsys):
    code = main(["corpus", "run", shipped_corpus_path()])
    capsys.readouterr()
    assert code == 0


def test_corpus_detects_failures(tmp_path, capsys):
    bad = {
        "schema": 1,
        "cases": [
            {
                "name": "wrong",
                "prime": 2,
                "variables": ["x", "y"],
                "sigma": "(x*y)^(p-1)",
                "checks": [{"kind": "splitting", "expected": "NotSplitting"}],
            }
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["corpus", "run", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_corpus_schema_version_checked(tmp_path, capsys):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": 99, "cases": []}))
    code = main(["corpus", "run", str(path)])
    capsys.readouterr()
    assert code == 2


def test_case_errors_are_captured_not_fatal():
    case = CorpusCase(
        name="broken",
        prime=3,
        variables=("x",),
        sigma="x^(0-1)",
        checks=({"kind": "splitting", "expected": "Splitting"}, {"kind": "nonsense"}),
    )
    report = run_case(case)
    assert not report.passed
    assert len(report.checks) == 2
    assert all("error" in str(c.verdict) for c in report.checks)


def test_case_parses_its_section_once(monkeypatch):
    texts = []

    def counting_parse(text, ctx):
        texts.append(text)
        return parse_expr(text, ctx)

    monkeypatch.setattr(cli, "parse_expr", counting_parse)
    checks = (
        {"kind": "splitting"},
        {"kind": "spans"},
        {"kind": "chain"},
        {"kind": "d-split", "divisor": "x"},
    )
    case = CorpusCase("cross", 3, ("x", "y"), "(x*y)^(p-1)", checks)
    assert run_case(case).passed
    assert texts == ["(x*y)^(p-1)", "x"]
    # Across the shipped corpus: one parse for sigma, one per other expression.
    for case in _load_corpus(shipped_corpus_path()):
        texts.clear()
        run_case(case)
        needs_sigma = any("sigma" in CHECKS[check["kind"]][0] for check in case.checks)
        others = sum(
            len(check.get("ideal", ())) + ("divisor" in check) + ("element" in check)
            for check in case.checks
        )
        assert len(texts) == needs_sigma + others


def test_unparsable_section_fails_every_check_that_needs_it():
    checks = ({"kind": "splitting"}, {"kind": "spans"}, {"kind": "semigroup", "generators": [1]})
    report = run_case(CorpusCase("broken", 3, ("x",), "x +", checks))
    verdicts = [c.verdict for c in report.checks]
    assert verdicts[0] == verdicts[1] and verdicts[0].startswith("error: ")
    assert verdicts[2] is True


def test_parse_error_exit_code(capsys):
    code = main(["split-check", "-p", "3", "--vars", "x", "x +"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


@pytest.mark.parametrize("levels", [250, 1000])
@pytest.mark.parametrize(
    "argv, text, check",
    [
        (["split-check", "-p", "3", "--vars", "x,y"], "{}", {"kind": "splitting"}),
        (["split-check", "-p", "3", "--vars", "x,y"], "x^{}", {"kind": "splitting"}),
        (["fedder", "-p", "3", "--vars", "x,y", "--ideal", "x"], "{}", {"kind": "fedder"}),
    ],
    ids=["expression", "exponent", "ideal generator"],
)
def test_deep_nesting_is_a_parse_error(argv, text, check, levels, capsys):
    deep = text.format("(" * levels + "2" + ")" * levels)
    assert main(argv + [deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expression nested too deeply (at position ")
    assert "Traceback" not in err
    if check["kind"] == "fedder":
        case = CorpusCase("deep", 3, ("x", "y"), None, ({**check, "ideal": ["x", deep]},))
    else:
        case = CorpusCase("deep", 3, ("x", "y"), deep, (check,))
    (result,) = run_case(case).checks
    assert result.verdict.startswith("error: expression nested too deeply")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_determinism(capsys):
    runs = []
    for _ in range(2):
        assert main(["corpus", "run", "--format", "json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_missing_vars_is_usage_error(capsys):
    code = main(["split-check", "-p", "3", "x"])
    assert code == 2
    assert "vars" in capsys.readouterr().err
