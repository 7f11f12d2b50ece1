"""Spans around the public functions of frobsplit's layers, installed from outside.

Each wrapped function becomes a span of its layer (the module it is
defined in).  The tracer records calls and inclusive time per function,
and self time per layer: a span's duration minus the time its child spans
cover.  A function is replaced at every name it is bound to in every
loaded ``frobsplit`` module, because modules import functions by name
(``exact_divide`` lives in four namespaces).  Methods are replaced on the
class.  Helpers called once per monomial (``grevlex_key``, the
``monomial_*`` functions, ``term_str``) are not wrapped: their time is
part of the caller's self time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import frobsplit.cli
import frobsplit.expr
import frobsplit.fparith
import frobsplit.idealtheory
import frobsplit.rescert
import frobsplit.splitcore

# layer -> (module, [(metric name, attribute path)]).  ``Class.method``
# paths wrap a method on its class.
SPANS = {
    "fparith": (
        frobsplit.fparith,
        [
            ("mul", "Polynomial.__mul__"),
            ("add", "Polynomial.__add__"),
            ("sub", "Polynomial.__sub__"),
            ("neg", "Polynomial.__neg__"),
            ("pow", "Polynomial.__pow__"),
            ("scale", "Polynomial.scale"),
            ("frobenius", "Polynomial.frobenius"),
            ("pow_p_minus_1", "Polynomial.pow_p_minus_1"),
            ("exact_divide", "exact_divide"),
            ("substitute_zero", "substitute_zero"),
            ("embed", "embed"),
            ("compose", "compose"),
        ],
    ),
    "splitcore": (
        frobsplit.splitcore,
        [
            ("frobenius_trace", "frobenius_trace"),
            ("apply", "TwistedEndo.__call__"),
            ("check_splitting", "check_splitting"),
            ("homogeneous_fastpath", "homogeneous_fastpath"),
            ("is_divisor_splitting", "is_divisor_splitting"),
            ("localized_apply", "localized_apply"),
            ("tensor", "tensor"),
            ("p1_extension_check", "p1_extension_check"),
            ("semigroup_split_check", "semigroup_split_check"),
        ],
    ),
    "idealtheory": (
        frobsplit.idealtheory,
        [
            ("buchberger", "buchberger"),
            ("normal_form", "normal_form"),
            ("contains", "GroebnerBasis.contains"),
            ("s_polynomial", "s_polynomial"),
            ("frobenius_power_ideal", "frobenius_power_ideal"),
            ("intersect", "intersect"),
            ("colon", "colon"),
            ("fedder_module", "fedder_module"),
            ("is_compatible", "is_compatible"),
            ("exists_compatible_splitting", "exists_compatible_splitting"),
            ("nilpotent_witness", "nilpotent_witness"),
        ],
    ),
    "rescert": (
        frobsplit.rescert,
        [
            ("residue_step", "residue_step"),
            ("certify_chain", "certify_chain"),
            ("search_chain", "search_chain"),
            ("origin_coefficient", "origin_coefficient"),
            ("matrix_context", "matrix_context"),
            ("minor", "minor"),
            ("matrix_factors", "matrix_factors"),
            ("matrix_section_coefficient", "matrix_section_coefficient"),
            ("render_truncated", "render_truncated"),
        ],
    ),
    "expr": (frobsplit.expr, [("parse_expr", "parse_expr"), ("parse_ast", "parse_ast")]),
    "cli": (
        frobsplit.cli,
        [
            ("main", "main"),
            ("build_parser", "build_parser"),
            ("run_case", "run_case"),
            ("chain_certificate", "chain_certificate"),
            ("shipped_corpus_path", "shipped_corpus_path"),
        ],
    ),
}

LAYERS = tuple(SPANS)


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket a
    traced stretch of work and may be repeated."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.ok: dict[str, int] = defaultdict(int)
        self.basis_len = 0
        self._stack: list[float] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, layer: str, key: str, fn):
        stack, active = self._stack, self._active
        calls, seconds, self_seconds, ok = self.calls, self.seconds, self.self_seconds, self.ok
        clock = time.perf_counter
        is_buchberger = key == "idealtheory.buchberger"

        def span(*args, **kwargs):
            stack.append(0.0)
            active[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_seconds[layer] += elapsed - child
                active[key] -= 1
                if not active[key]:
                    seconds[key] += elapsed
                calls[key] += 1
            ok[key] += 1
            if is_buchberger:
                self.basis_len += len(result.basis)
            return result

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for name, m in sys.modules.items() if name == "frobsplit" or name.startswith("frobsplit.")]
        for layer, (module, entries) in SPANS.items():
            for name, path in entries:
                key = f"{layer}.{name}"
                if "." in path:
                    owner_name, attr = path.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrapper(layer, key, original))
                    continue
                original = getattr(module, path)
                wrapped = self._wrapper(layer, key, original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
