"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Each workload runs at a reduced size and must check out clean, and each
workload's checker must reject a deliberately wrong answer.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import frobsplit as fs  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

def reduced_round(name: str, seed: int = 0) -> list[workloads.Case]:
    """Round 0 without the cases that take up to seconds each."""
    cases = workloads.build_round(name, seed, 0)
    if name == "compat-fedder":
        return [c for c in cases if not c.label.endswith("p=3 n=3")]
    if name == "matrix-chains":
        return [c for c in cases if "chain-ordered" not in c.label]
    return cases


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_round_checks_out(name):
    tally = run.Tally()
    tally.run_round(reduced_round(name))
    assert tally.wrong == []
    expected_failures = 2 if name == "compat-finite" else 0
    assert tally.failed == expected_failures


def test_failed_share_is_the_same_for_every_seed():
    for seed in (0, 1, 2):
        cases = workloads.build_round("compat-finite", seed, 0)
        refused = []
        for case in cases:
            if "p^n=" in case.label:
                with pytest.raises(ValueError):
                    case.run()
                refused.append(case.label)
        assert len(refused) == 2 and len(cases) == 21


def test_rounds_are_distinct_and_reproducible():
    a = [c.label for c in workloads.build_round("matrix-chains", 3, 0)]
    b = [c.label for c in workloads.build_round("matrix-chains", 3, 0)]
    assert a == b
    first = workloads.build_round("compat-fedder", 3, 0)[0].run()
    again = workloads.build_round("compat-fedder", 3, 0)[0].run()
    assert first == again
    rings = {
        case.run()[0].context
        for index in (0, 1)
        for case in workloads.build_round("matrix-chains", 3, index)
        if "n=3 p=2" in case.label
    }
    assert len(rings) == 8


def _first(name: str, label_part: str) -> workloads.Case:
    return next(c for c in reduced_round(name) if label_part in c.label)


def test_compat_fedder_checker_rejects_flipped_verdicts():
    for part in ("p=2 n=2", "control", "p=3 n=1"):
        case = _first("compat-fedder", part)
        verdict = case.run()
        assert case.check(verdict) is None
        assert case.check(not verdict) is not None
    case = _first("compat-fedder", "exists")
    res = case.run()
    assert case.check(res) is None
    assert case.check(dataclasses.replace(res, exists=not res.exists)) is not None


def test_compat_finite_checker_rejects_flipped_verdicts():
    for part in ("det3 p=2 divisible", "det2 p=5 perturbed", "hypersurface p=13"):
        case = _first("compat-finite", part)
        verdict = case.run()
        assert case.check(verdict) is None
        assert case.check(not verdict) is not None
    case = _first("compat-finite", "exists p=5")
    res = case.run()
    assert case.check(dataclasses.replace(res, exists=not res.exists)) is not None


def test_matrix_checker_rejects_wrong_outputs():
    case = _first("matrix-chains", "n=3 p=3")
    g, chain, verdict = case.run()
    assert case.check((g, chain, verdict)) is None
    wrong_verdict = fs.SplitVerdict(fs.VerdictKind.NOT_SPLITTING, witness=g.context.zero())
    assert case.check((g, chain, wrong_verdict)) is not None
    assert case.check((g.scale(2), chain, verdict)) is not None
    assert case.check((g, None, verdict)) is not None
    var, step = chain.steps[1]
    bad_steps = chain.steps[:1] + ((var, step.scale(2)),) + chain.steps[2:]
    assert case.check((g, dataclasses.replace(chain, steps=bad_steps), verdict)) is not None


def test_cli_checker_rejects_wrong_outputs():
    cases = reduced_round("cli")
    for case in cases:
        code, text = case.run()
        assert case.check((code, text)) is None, case.label
        assert case.check((1, text)) is not None
    corpus = next(c for c in cases if c.label == "corpus json")
    code, text = corpus.run()
    assert corpus.check((0, text.replace('"pass": true', '"pass": false', 1))) is not None
    text_case = next(c for c in cases if c.label == "corpus text")
    code, text = text_case.run()
    assert text_case.check((0, text.replace("[PASS]", "[FAIL]", 1))) is not None
    for case in cases:
        if case.label in ("split-check", "semigroup", "compat", "exists-split", "d-split", "search-chain"):
            code, text = case.run()
            report = json.loads(text)
            verdict = report["checks"][0]["verdict"]
            report["checks"][0]["verdict"] = (not verdict) if isinstance(verdict, bool) else "NotSplitting!"
            assert case.check((0, json.dumps(report))) is not None, case.label


def test_tracer_wraps_every_binding_and_restores_them():
    original = fs.fparith.exact_divide
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = fs.fparith.exact_divide
        assert wrapped is not original
        for module in (fs, fs.splitcore, fs.idealtheory, fs.rescert):
            assert module.exact_divide is wrapped
        ctx = fs.ring(3, "x y")
        (ctx.variable(0) + ctx.variable(1)).pow_p_minus_1()
    finally:
        tracer.uninstall()
    for module in (fs, fs.fparith, fs.splitcore, fs.idealtheory, fs.rescert):
        assert module.exact_divide is original
    assert tracer.calls["fparith.exact_divide"] == 1
    assert tracer.calls["fparith.pow_p_minus_1"] == 1
    assert tracer.seconds["fparith.pow_p_minus_1"] >= tracer.seconds["fparith.exact_divide"]


def test_matrix_chains_makes_no_groebner_calls():
    tracer = tracing.Tracer()
    tally = run.Tally()
    tally.run_round(reduced_round("matrix-chains"), tracer)
    assert tracer.calls["idealtheory.buchberger"] == 0
    assert tracer.calls["rescert.residue_step"] > 0


def _main_json(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_declared_metric(trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _main_json(["--workload", "cli", "--seed", "0", "--seconds", "0", "--trace", trace])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
