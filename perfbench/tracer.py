"""Span tracer for the benchmark's traced runs.

The tracer swaps each public function listed in ``TRACED`` for a
pass-through wrapper, in every loaded ``heiscot`` namespace that binds
it (including aliases such as ``curvature._exact_inv``), and restores
every binding on ``uninstall``.  A wrapper records one span per call:

    (name, start, end, parent, op, outer_start, outer_end)

``start``/``end`` bracket the wrapped call itself; ``outer_*`` also
cover the wrapper's own bookkeeping, so a parent's self time excludes
its children's bookkeeping and ``sum(outer - inner)`` is the tracing
overhead.  Spans stay in memory until ``write`` dumps them as JSON lines.

Hot helpers (``is_exact``, ``fr``, ``bracket_sparse``, ...) are not
wrapped: their per-call cost is of the order of the wrapper's.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import namedtuple
from fractions import Fraction
from time import perf_counter

TRACED = {
    "curvature": ("levi_civita", "riemann", "ricci_from_riemann",
                  "ricci_nilpotent_summands", "signature", "second_bianchi_defect"),
    "_exact": ("inv", "det", "ldl_inertia", "nullspace_sparse"),
    "automorphism": ("assemble", "bracket_defect", "is_automorphism",
                     "random_automorphism", "symplectic_rotation"),
    "metric_moduli": ("reduce_with_diagnostics", "are_equivalent", "act", "williamson"),
    "adinvariant": ("ad_invariance_defect", "normalize_ad_invariant", "certify_flat",
                    "ad_invariant_solution_space"),
    "complex_structures": ("is_integrable", "normalize_complex_structure",
                           "hermitian_metric_space", "solve_integrable_family"),
    "forms_kahler": ("build_omega", "pseudo_kahler_metric", "certify_pseudo_kahler",
                     "closed_invariant_space"),
    "lie_core": ("build_thn", "derivation_algebra"),
}

CLI_VERBS = ("algebra", "aut", "reduce", "equiv", "adinv", "complex", "kahler", "curvature")

COUNTERS = (
    "curvature.levi_civita.gamma_nnz_frac",
    "curvature.levi_civita.gamma_den_bits_max",
    "metric_moduli.act.calls_per_are_equivalent",
    "metric_moduli.are_equivalent.equivalent",
    "metric_moduli.are_equivalent.inconclusive",
    "automorphism.assemble.failed",
    "exact.nullspace_sparse.rows",
    "exact.nullspace_sparse.nullity",
    "complex_structures.normalize_complex_structure.failed",
    "trace.overhead_frac",
)

Span = namedtuple("Span", "name start end parent op outer_start outer_end")


def label(module: str, func: str) -> str:
    """Metric prefix of a traced function; metric names may not start with '_'."""
    return f"{module.lstrip('_')}.{func}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            names += [f"{label(module, func)}.calls", f"{label(module, func)}.self_ms"]
    names += [f"cli.{verb}.ms" for verb in CLI_VERBS]
    return names + list(COUNTERS)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of the part
    of that interval covered by its direct children's outer intervals."""
    children = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(idx)
    out = []
    for idx, sp in enumerate(spans):
        ivs = sorted((max(spans[c].outer_start, sp.start), min(spans[c].outer_end, sp.end))
                     for c in children[idx])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((sp.end - sp.start) - covered)
    return out


def _gamma_stats(gamma):
    """(nonzero fraction, max denominator bits) of an exact connection."""
    entries = gamma.ravel()
    nonzero = [x for x in entries if x != 0]
    bits = max((x.denominator.bit_length() for x in nonzero if isinstance(x, Fraction)),
               default=0)
    return len(nonzero) / len(entries), bits


class Tracer:
    """Records spans and mechanism counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.gamma: list[tuple[float, int]] = []
        self.verdicts = {"equivalent": 0, "inconclusive": 0}
        self.nullspace = [0, 0]
        self.failed: dict[str, int] = {}

    # -- binding management ------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        import heiscot

        # import every submodule first: one imported while installed would
        # keep the wrappers after uninstall
        modules = [heiscot] + [importlib.import_module(f"heiscot.{info.name}")
                               for info in pkgutil.iter_modules(heiscot.__path__)]
        for module, funcs in TRACED.items():
            owner = sys.modules[f"heiscot.{module}"]
            for func in funcs:
                orig = getattr(owner, func)
                wrapper = self._wrap(label(module, func), orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = {
            "curvature.levi_civita": self._observe_gamma,
            "metric_moduli.are_equivalent": self._observe_verdict,
            "exact.nullspace_sparse": self._observe_nullspace,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_start = perf_counter()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                end = perf_counter()
                stack.pop()
                self.failed[name] = self.failed.get(name, 0) + 1
                spans[idx] = Span(name, start, end, parent, self.op, outer_start, perf_counter())
                raise
            end = perf_counter()
            stack.pop()
            if observe is not None:
                observe(args, result)
            spans[idx] = Span(name, start, end, parent, self.op, outer_start, perf_counter())
            return result

        return wrapper

    def _observe_gamma(self, args, gamma) -> None:
        if gamma.dtype == object:
            self.gamma.append(_gamma_stats(gamma))

    def _observe_verdict(self, args, result) -> None:
        if result.verdict in self.verdicts:
            self.verdicts[result.verdict] += 1

    def _observe_nullspace(self, args, basis) -> None:
        self.nullspace[0] += len(args[0])
        self.nullspace[1] += len(basis)

    # -- reporting ---------------------------------------------------------

    def metrics(self, traced_wall_s: float, cli_ms: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics over every recorded span, keyed as metric_names()."""
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        for sp, own in zip(self.spans, self_times(self.spans)):
            calls[sp.name] = calls.get(sp.name, 0) + 1
            self_ms[sp.name] = self_ms.get(sp.name, 0.0) + 1000.0 * own
        out: dict[str, float] = {}
        for module, funcs in TRACED.items():
            for func in funcs:
                key = label(module, func)
                out[f"{key}.calls"] = calls.get(key, 0)
                out[f"{key}.self_ms"] = self_ms.get(key, 0.0)
        for verb in CLI_VERBS:
            out[f"cli.{verb}.ms"] = float(cli_ms.get(verb, 0))
        out["curvature.levi_civita.gamma_nnz_frac"] = (
            sum(f for f, _ in self.gamma) / len(self.gamma) if self.gamma else 0.0)
        out["curvature.levi_civita.gamma_den_bits_max"] = max((b for _, b in self.gamma), default=0)
        out["metric_moduli.act.calls_per_are_equivalent"] = self._act_per_equivalence()
        out["metric_moduli.are_equivalent.equivalent"] = self.verdicts["equivalent"]
        out["metric_moduli.are_equivalent.inconclusive"] = self.verdicts["inconclusive"]
        out["automorphism.assemble.failed"] = self.failed.get("automorphism.assemble", 0)
        out["exact.nullspace_sparse.rows"] = self.nullspace[0]
        out["exact.nullspace_sparse.nullity"] = self.nullspace[1]
        out["complex_structures.normalize_complex_structure.failed"] = self.failed.get(
            "complex_structures.normalize_complex_structure", 0)
        overhead = sum((sp.outer_end - sp.outer_start) - (sp.end - sp.start) for sp in self.spans)
        out["trace.overhead_frac"] = overhead / traced_wall_s if traced_wall_s > 0 else 0.0
        return out

    def _act_per_equivalence(self) -> float:
        """act calls made inside are_equivalent, per are_equivalent call."""
        inside = [False] * len(self.spans)
        decisions = acts = 0
        for idx, sp in enumerate(self.spans):
            inside[idx] = sp.name == "metric_moduli.are_equivalent" or (
                sp.parent >= 0 and inside[sp.parent])
            if sp.name == "metric_moduli.are_equivalent":
                decisions += 1
            elif sp.name == "metric_moduli.act" and inside[idx]:
                acts += 1
        return acts / decisions if decisions else 0.0

    def write(self, path) -> None:
        """Dump the spans as JSON lines, times in seconds on perf_counter's clock."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")
