"""Trace recorder and summariser for the traced benchmark run.

The recorder wraps public functions at the module attributes their
callers look up, records one span per call (name, start, end, parent,
pass id) plus a few deterministic counts, and restores every attribute
when it is uninstalled.  Nothing under src/ is edited; work inside the
engine (pair update, reduction, finalize) is not split here.
"""

from __future__ import annotations

import time
from statistics import median

from hilbertkunz import BudgetExceededError, INFINITE, cli, groebner, hk
from hilbertkunz.hk import RingPresentation

# wrapped attributes: (module, attribute) -> span name.  hk looks up the
# Groebner operations through its own namespace, cli looks up the hk and
# asymptotics entry points through its own, and groebner calls buchberger
# from syzygies and cokernel_dimension.
TRACED = {
    (hk, "buchberger"): "hk.buchberger",
    (hk, "colength"): "hk.colength",
    (hk, "syzygies"): "hk.syzygies",
    (hk, "bracket_power"): "hk.bracket_power",
    (hk, "krull_dimension"): "hk.krull_dimension",
    (groebner, "buchberger"): "groebner.buchberger",
    (cli, "parse_problem"): "cli.parse_problem",
    (cli, "series"): "cli.series",
    (cli, "delta_n"): "cli.delta_n",
    (cli, "tor1_length"): "cli.tor1_length",
    (cli, "fit_two_point"): "cli.fit_two_point",
    (cli, "tau_from_recurrence"): "cli.tau_from_recurrence",
    (cli, "verify_closed_form"): "cli.verify_closed_form",
    (cli, "gamma_estimate"): "cli.gamma_estimate",
    (cli, "tau_from_delta"): "cli.tau_from_delta",
    (cli, "run_command"): "cli.run_command",
}
# the ring's cached length lookups; a request answered without a new
# colength call is a cache hit
LENGTH_REQUESTS = ("_colength_of_ideal", "_colength_of_module")

BUCHBERGER = ("hk.buchberger", "groebner.buchberger")
ASYMPTOTICS = ("cli.fit_two_point", "cli.tau_from_recurrence",
               "cli.verify_closed_form", "cli.gamma_estimate",
               "cli.tau_from_delta")
# per-layer self times: metric -> span names whose self time it sums
SELF_TIMES = {
    "groebner.colength_s": ("hk.colength",),
    "groebner.buchberger_s": BUCHBERGER,
    "groebner.syzygies_s": ("hk.syzygies",),
    "groebner.krull_dimension_s": ("hk.krull_dimension",),
    "hk.series_s": ("cli.series",),
    "hk.bracket_power_s": ("hk.bracket_power",),
    "hk.tor1_length_s": ("cli.tor1_length",),
    "hk.delta_n_s": ("cli.delta_n",),
    "cli.parse_problem_s": ("cli.parse_problem",),
    "cli.run_command.self_s": ("cli.run_command",),
    "asymptotics.s": ASYMPTOTICS,
}
COUNTS = ("groebner.colength_calls", "groebner.lead_terms",
          "groebner.std_monomials", "groebner.buchberger_calls",
          "groebner.input_terms", "groebner.basis_elems",
          "groebner.basis_terms", "groebner.syzygy_gens",
          "groebner.budget_errors", "hk.length_requests",
          "hk.length_cache_hits")


def _terms(x) -> int:
    """Number of terms of a polynomial or a free-module element."""
    if hasattr(x, "components"):
        return sum(len(c) for c in x.components())
    return len(x)


def _span_counts(name: str, args, result) -> dict:
    if name in BUCHBERGER:
        return {"groebner.buchberger_calls": 1,
                "groebner.input_terms": sum(_terms(g) for g in args[0]),
                "groebner.basis_elems": len(result.elements),
                "groebner.basis_terms": sum(_terms(g)
                                            for g in result.elements)}
    if name == "hk.colength":
        return {"groebner.colength_calls": 1,
                "groebner.lead_terms": len(args[0].lead_terms()),
                "groebner.std_monomials":
                    0 if result is INFINITE else int(result)}
    if name == "hk.syzygies":
        return {"groebner.syzygy_gens": len(result)}
    return {}


class Recorder:
    """Spans and counts of the passes run while it is installed."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, pass_id]
        self.counts: dict = {}     # pass_id -> {count name: value}
        self.pass_id = 0
        self._stack: list = []
        self._request_depth = 0
        self._saved: list = []

    def _bump(self, key: str, by: int = 1):
        row = self.counts.setdefault(self.pass_id, dict.fromkeys(COUNTS, 0))
        row[key] += by

    def _wrap_span(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.pass_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError as exc:
                # count each error once, at the innermost span it leaves
                if not getattr(exc, "counted_by_trace", False):
                    exc.counted_by_trace = True
                    self._bump("groebner.budget_errors")
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for key, value in _span_counts(name, args, result).items():
                self._bump(key, value)
            return result
        return traced

    def _wrap_request(self, fn):
        def traced(*args, **kwargs):
            outermost = self._request_depth == 0
            before = self._colength_calls()
            self._request_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._request_depth -= 1
                if outermost:
                    self._bump("hk.length_requests")
                    if self._colength_calls() == before:
                        self._bump("hk.length_cache_hits")
        return traced

    def _colength_calls(self) -> int:
        return self.counts.get(self.pass_id, {}).get(
            "groebner.colength_calls", 0)

    def install(self):
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for (module, attr), name in TRACED.items():
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap_span(name, original))
        for attr in LENGTH_REQUESTS:
            original = vars(RingPresentation).get(attr)
            if original is not None:
                self._saved.append((RingPresentation, attr, original))
                setattr(RingPresentation, attr, self._wrap_request(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children: dict = {}
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()),
                            key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def summarise(spans, counts: dict) -> tuple:
    """(per-layer metrics, names of counts that differ between passes).

    Times are medians over passes of each pass's summed self time.
    Counts must be equal in every pass; the first pass's value is
    reported.
    """
    selfs = self_times(spans)
    passes = sorted({span[4] for span in spans} | set(counts))
    per_pass = {pid: dict.fromkeys(SELF_TIMES, 0.0) for pid in passes}
    metric_of = {name: metric for metric, names in SELF_TIMES.items()
                 for name in names}
    for span, own in zip(spans, selfs):
        metric = metric_of.get(span[0])
        if metric is not None:
            per_pass[span[4]][metric] += own
    metrics = {metric: median(per_pass[pid][metric] for pid in passes)
               for metric in SELF_TIMES} if passes else \
        dict.fromkeys(SELF_TIMES, 0.0)
    zero = dict.fromkeys(COUNTS, 0)
    rows = [{**zero, **counts.get(pid, {})} for pid in passes] or [zero]
    unstable = sorted(k for k in COUNTS if len({row[k] for row in rows}) > 1)
    metrics.update(rows[0])
    requests = rows[0]["hk.length_requests"]
    metrics["hk.length_cache_hit_ratio"] = \
        rows[0]["hk.length_cache_hits"] / requests if requests else 0.0
    return metrics, unstable
