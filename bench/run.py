"""Benchmark runner for frobsplit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload (a fixed list of cases presented afresh
from the seed and the round number) until S seconds have passed and at
least MIN_CASES cases have run, checks every output outside the timed
region, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times are scaled to a
reference machine speed (calibration.py).

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each round runs twice, once plain and once with spans
around the library's public functions (order alternating), and the
metrics are the per-layer ones, per traced round.  Load comes from this
one process with no extra threads; the set-up probes run one at a time
before the timed loop.  Each run also writes its result, and in a traced
run every span's totals, to bench/results/.  See README.md for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
MIN_CASES = 100
HARD_STOP_S = 120.0
SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics: (layer, span) call counts and inclusive seconds, and
# layer self time.
PER_LAYER_CALLS = [
    "fparith.mul",
    "fparith.exact_divide",
    "idealtheory.buchberger",
    "idealtheory.normal_form",
    "splitcore.frobenius_trace",
    "rescert.residue_step",
    "expr.parse_expr",
    "cli.main",
]
PER_LAYER_SECONDS = [
    "fparith.mul",
    "fparith.exact_divide",
    "fparith.pow_p_minus_1",
    "idealtheory.buchberger",
    "idealtheory.colon",
    "idealtheory.intersect",
    "idealtheory.fedder_module",
    "idealtheory.exists_compatible_splitting",
    "idealtheory.normal_form",
    "idealtheory.is_compatible",
    "splitcore.frobenius_trace",
    "rescert.residue_step",
    "rescert.search_chain",
    "rescert.matrix_section_coefficient",
    "expr.parse_expr",
]
SELF_LAYERS = ["fparith", "idealtheory", "splitcore", "rescert", "cli"]


def per_layer_units() -> dict[str, str]:
    units = {f"{k}.calls": "count" for k in PER_LAYER_CALLS}
    units.update({f"{k}.s": "s" for k in PER_LAYER_SECONDS})
    units.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    units["idealtheory.buchberger.basis_len"] = "count"
    units["rescert.residue_step.ok_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def import_program():
    """Import frobsplit from this checkout's src/, or exit with status 1."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import frobsplit
    except ImportError as exc:
        sys.exit(f"error: cannot import frobsplit from {ROOT / 'src'}: {exc}")
    if Path(frobsplit.__file__).resolve().parent != ROOT / "src" / "frobsplit":
        sys.exit(f"error: frobsplit was imported from {frobsplit.__file__}, not from this checkout")


def measure_setup(workload: str, seed: int) -> float:
    """Time to import frobsplit and build one round, at the reference speed:
    the least over fresh interpreters, divided by the median slowdown
    measured between them.  A 0.1 s start-up only ever gains noise, so the
    least is the steadiest; scaling each probe by the one noisy slowdown
    next to it doubled the spread instead of cutting it."""
    times = []
    slowdowns = [calibration.slowdown()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
        slowdowns.append(calibration.slowdown())
    return min(times) / statistics.median(slowdowns)


class Tally:
    """Outcomes and timings of the rounds run so far.

    ``scaled`` and ``raw`` hold one list of case times per round, in case
    order: ``scaled`` at the reference speed (see calibration.py), ``raw``
    as the clock read them.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.scaled: list[list[float]] = []
        self.raw: list[list[float]] = []

    def run_round(self, cases, tracer=None) -> tuple[float, float]:
        """Run every case, timing each call alone, then check the outputs.
        Returns the round's summed case time, raw and at reference speed."""
        clock = time.perf_counter
        outputs = []
        segments: list[tuple[float, float, list[float]]] = []
        current: list[float] = []
        before = calibration.slowdown()
        calibrated_at = clock()
        if tracer is not None:
            tracer.install()
        try:
            for case in cases:
                if current and clock() - calibrated_at > calibration.EVERY_S:
                    after = calibration.slowdown()
                    segments.append((before, after, current))
                    before, current, calibrated_at = after, [], clock()
                start = clock()
                try:
                    out = case.run()
                    ok = True
                except Exception as exc:  # a refused or crashed operation counts as failed
                    out, ok = exc, False
                current.append(clock() - start)
                outputs.append((case, ok, out))
        finally:
            if tracer is not None:
                tracer.uninstall()
        segments.append((before, calibration.slowdown(), current))
        self.raw.append([t for _, _, times in segments for t in times])
        self.scaled.append([t * 2 / (before + after) for before, after, times in segments for t in times])
        for case, ok, out in outputs:
            self.attempted += 1
            if not ok:
                self.failed += 1
                continue
            try:
                problem = case.check(out)
            except Exception as exc:  # malformed output is a wrong answer
                problem = f"check raised {exc!r}"
            if problem is not None:
                self.wrong.append(f"{case.label}: {problem}")
        return sum(self.raw[-1]), sum(self.scaled[-1])

    @property
    def cases(self) -> int:
        return sum(map(len, self.raw))


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def round_figures(rounds: list[list[float]]) -> dict[str, float]:
    """wall_s, case_ms_p50 and case_ms_p90 from each case's median time
    across rounds.  Every round holds the same cases in the same order, so
    the percentiles fall on the same cases however many rounds a run has
    time for, and one slow round moves no case's median."""
    typical = [statistics.median(slot) for slot in zip(*rounds)]
    return {
        "wall_s": sum(typical),
        "case_ms_p50": 1000 * statistics.median(typical),
        "case_ms_p90": 1000 * quantile(typical, 90),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is None:
            tally.run_round(workloads.build_round(args.workload, args.seed, index))
        else:
            # Each round runs plain and traced on equal inputs, in turns
            # first, so the difference between the two is the overhead.
            for traced_run in (index % 2 == 1, index % 2 == 0):
                cases = workloads.build_round(args.workload, args.seed, index)
                if traced_run:
                    traced.append(tally.run_round(cases, tracer))
                else:
                    plain.append(tally.run_round(cases))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and tally.cases >= MIN_CASES):
            break

    for line in tally.wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)

    record: dict = {"workload": args.workload, "seed": args.seed, "rounds": index}
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            **round_figures(tally.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        record["unscaled"] = round_figures(tally.raw)
    else:
        rounds = len(traced)
        # Span times are scaled like the traced rounds they ran in.
        factor = sum(s for _, s in traced) / sum(r for r, _ in traced)
        metrics = {f"{k}.calls": tracer.calls[k] / rounds for k in PER_LAYER_CALLS}
        metrics.update({f"{k}.s": factor * tracer.seconds[k] / rounds for k in PER_LAYER_SECONDS})
        metrics.update({f"{layer}.self_s": factor * tracer.self_seconds[layer] / rounds for layer in SELF_LAYERS})
        metrics["idealtheory.buchberger.basis_len"] = tracer.basis_len / rounds
        tried = tracer.calls["rescert.residue_step"]
        metrics["rescert.residue_step.ok_ratio"] = tracer.ok["rescert.residue_step"] / tried if tried else 1.0
        metrics["trace.overhead_s"] = statistics.median(t[1] - p[1] for t, p in zip(traced, plain))
        units = per_layer_units()
        record["traced_rounds"] = rounds
        record["spans"] = {
            key: {"calls": tracer.calls[key], "s": tracer.seconds[key], "returned": tracer.ok[key]}
            for key in sorted(tracer.calls)
        }
        record["self_s"] = dict(tracer.self_seconds)

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
