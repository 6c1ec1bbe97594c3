"""Problem-file parsing, command dispatch, and JSON reports.

The input format is line oriented with '#' comments:

    ring p=5 vars=[x1,x2,x3,x4]
    quotient = [x1^4 + x2^4 + x3^4 + x4^4]
    ideal I = [x1, x2, x3, x4]
    module M = cyclic []
    module N = idealmod [x1, x2]
    module T = coker rows=2 [[x1, 0], [0, x2]]
    closedform F = 168/61 * 125^n - 107/61 * 3^n

Reports are single JSON objects with big integers rendered as decimal
strings.  Identical input and version produce identical payloads except
for diagnostics.timing_ms.  Exit codes: 0 success, 1 input, validation
or usage error, 2 computation budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import __version__
from .asymptotics import (ClosedForm, fit_two_point, gamma_estimate,
                          parse_closed_form, tau_from_delta,
                          tau_from_recurrence, verify_closed_form)
from .groebner import Budget, BudgetExceededError, INFINITE, colength
from .hk import (HKSeries, IdealHandle, InfiniteColengthError,
                 ModulePresentation, RingPresentation, _prefetch_lengths,
                 bracket_power, check_m_primary, delta_n, series,
                 tor1_length)
from .poly import ExponentOverflowError, ParseError, PolyRing


@dataclass
class ProblemFile:
    ring: RingPresentation
    ideals: Dict[str, IdealHandle]
    modules: Dict[str, ModulePresentation]
    closed_forms: Dict[str, ClosedForm]
    text: str


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_RING_RE = re.compile(r"ring\s+p\s*=\s*(\d+)\s+vars\s*=\s*(\[[^\]]*\])\s*$")
_QUOT_RE = re.compile(r"quotient\s*=\s*(.*)$")
_IDEAL_RE = re.compile(r"ideal\s+(\S+)\s*=\s*(.*)$")
_MODULE_RE = re.compile(r"module\s+(\S+)\s*=\s*(\S+)\s*(.*)$")
_CLOSED_RE = re.compile(r"closedform\s+(\S+)\s*=\s*(.*)$")
_ROWS_RE = re.compile(r"rows\s*=\s*(\d+)\s*(.*)$")


def _split_list(text: str, line: int) -> List[str]:
    """Split a [a, b, c] list on top-level commas; nested lists allowed."""
    s = text.strip()
    if not s.startswith("[") or not s.endswith("]"):
        raise ParseError("expected a bracketed list", line=line)
    inner = s[1:-1]
    items: List[str] = []
    depth = 0
    current = []
    for ch in inner:
        if ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line=line)
            current.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ParseError("unbalanced brackets", line=line)
    tail = "".join(current).strip()
    if tail or items:
        items.append(tail)
    if any(not item for item in items):
        raise ParseError("empty list entry", line=line)
    return items


def _check_name(name: str, seen: dict, kind: str, line: int):
    if not _NAME_RE.match(name):
        raise ParseError(f"invalid {kind} name {name!r}", line=line)
    if name in seen:
        raise ParseError(f"duplicate {kind} name {name!r}", line=line)


@contextmanager
def _at_line(lineno: Optional[int]):
    """Re-raise any input error inside the block as a ParseError there."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(exc.message, line=lineno, col=exc.col) from None
    except (ValueError, ExponentOverflowError) as exc:
        raise ParseError(str(exc), line=lineno) from None


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; raises only ParseError.

    Every error names its line, except a file with no ring line.
    """
    ring: Optional[PolyRing] = None   # checked on its line, built with Q below
    quotient_line: Optional[tuple] = None
    pending: List[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("ring"):
            if ring is not None:
                raise ParseError("duplicate ring declaration", line=lineno)
            m = _RING_RE.match(stripped)
            if not m:
                raise ParseError(
                    "malformed ring line; expected "
                    "'ring p=<prime> vars=[a,b,...]'", line=lineno)
            with _at_line(lineno):
                ring = PolyRing(int(m.group(1)),
                                _split_list(m.group(2), lineno))
            continue
        if stripped.startswith("quotient"):
            if ring is None:
                raise ParseError("quotient before ring declaration",
                                 line=lineno)
            if quotient_line is not None:
                raise ParseError("duplicate quotient declaration", line=lineno)
            m = _QUOT_RE.match(stripped)
            if not m:
                raise ParseError("malformed quotient line", line=lineno)
            quotient_line = (m.group(1), lineno)
            continue
        pending.append((lineno, stripped))
    if ring is None:
        raise ParseError("missing ring declaration")
    qtext, qline = quotient_line or ("[]", None)
    with _at_line(qline):
        ring_pres = RingPresentation(ring.p, ring.vars,
                                     _split_list(qtext, qline))

    ideals: Dict[str, IdealHandle] = {}
    modules: Dict[str, ModulePresentation] = {}
    closed_forms: Dict[str, ClosedForm] = {}
    for lineno, stripped in pending:
        if stripped.startswith("ideal"):
            m = _IDEAL_RE.match(stripped)
            if not m:
                raise ParseError("malformed ideal line", line=lineno)
            name, body = m.group(1), m.group(2)
            _check_name(name, ideals, "ideal", lineno)
            with _at_line(lineno):
                ideals[name] = IdealHandle(ring_pres,
                                           _split_list(body, lineno))
        elif stripped.startswith("module"):
            m = _MODULE_RE.match(stripped)
            if not m:
                raise ParseError("malformed module line", line=lineno)
            name, kind, body = m.group(1), m.group(2), m.group(3).strip()
            _check_name(name, modules, "module", lineno)
            with _at_line(lineno):
                if kind == "cyclic":
                    modules[name] = ModulePresentation.cyclic(
                        ring_pres, _split_list(body, lineno))
                elif kind == "idealmod":
                    modules[name] = ModulePresentation.ideal_as_module(
                        ring_pres, _split_list(body, lineno))
                elif kind == "coker":
                    mr = _ROWS_RE.match(body)
                    if not mr:
                        raise ParseError(
                            "coker needs 'rows=<int> [[...], ...]'",
                            line=lineno)
                    rows = int(mr.group(1))
                    cols = [_split_list(c, lineno)
                            for c in _split_list(mr.group(2), lineno)]
                    modules[name] = ModulePresentation.coker(
                        ring_pres, rows, cols)
                else:
                    raise ParseError(
                        f"unknown module kind {kind!r}; expected cyclic, "
                        "idealmod or coker", line=lineno)
        elif stripped.startswith("closedform"):
            m = _CLOSED_RE.match(stripped)
            if not m:
                raise ParseError("malformed closedform line", line=lineno)
            name, body = m.group(1), m.group(2)
            _check_name(name, closed_forms, "closed form", lineno)
            with _at_line(lineno):
                closed_forms[name] = parse_closed_form(body)
        else:
            raise ParseError(f"unrecognized line {stripped.split()[0]!r}",
                             line=lineno)
    return ProblemFile(ring_pres, ideals, modules, closed_forms, text)


# -- JSON rendering helpers ----------------------------------------------------


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def _series_entries(s: HKSeries) -> list:
    return [{"n": n, "q": q, "e": str(e)} for n, q, e in s.entries]


def _series_payload(s: HKSeries) -> dict:
    payload = {
        "module": s.module_label,
        "ideal": s.ideal_label,
        "entries": _series_entries(s),
    }
    if s.error is not None:
        payload["error"] = s.error
        payload["failed_n"] = s.failed_n
    return payload


def _fit_payload(fit) -> dict:
    return {
        "method": fit.method,
        "d": fit.d,
        "window": list(fit.window),
        "alpha": _frac(fit.alpha),
        "beta": _frac(fit.beta),
        "alpha_hat": fit.alpha_hat,
        "beta_hat": fit.beta_hat,
        "residuals": [{"n": n, "value": _frac(r)} for n, r in fit.residuals],
        "c_min": _frac(fit.c_min),
        "per_window": [{"n_lo": a, "n_hi": b, "alpha": _frac(wa),
                        "alpha_hat": float(wa), "beta": _frac(wb),
                        "beta_hat": float(wb)}
                       for a, b, wa, wb in fit.per_window],
    }


class _CommandError(Exception):
    """An input or usage error found by a command; exits 1."""

    def __init__(self, message: str, kind: str = "command"):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):    # argparse exits 2, the budget code
        raise _CommandError(message, kind="usage")


def _lookup(table: dict, name: Optional[str], kind: str):
    if name is None:
        raise _CommandError(f"missing --{kind} argument")
    try:
        return table[name]
    except KeyError:
        raise _CommandError(
            f"unknown {kind} {name!r}; declared: {sorted(table)}") from None


def _inputs(problem: ProblemFile, args, partial) -> tuple:
    """The --module and the m-primary --ideal that a command reads.

    A stop in the m-primary check is a stop before e_0: it raises with
    exc.partial = partial(s) for the series s stopped at n = 0.
    """
    ideal = _lookup(problem.ideals, args.ideal, "ideal")
    module = _lookup(problem.modules, args.module, "module")
    try:
        primary = check_m_primary(ideal)
    except BudgetExceededError as exc:
        exc.partial = partial(HKSeries(args.module, args.ideal, (),
                                       error=str(exc), failed_n=0,
                                       budget=exc.diagnostics()))
        raise
    if not primary:
        raise _CommandError(
            f"ideal {args.ideal!r} is not m-primary: the quotient has "
            "infinite length")
    for n in range(args.nmax + 1):   # overflow before any further run
        bracket_power(ideal, n)
    return module, ideal


def _series(problem: ProblemFile, args, module, ideal, partial) -> HKSeries:
    """The series e_0..e_nmax; a stop raises with exc.partial = partial(s)."""
    s = series(problem.ring, module, ideal, args.nmax,
               module_label=args.module, ideal_label=args.ideal)
    if s.error is not None:
        exc = BudgetExceededError(**s.budget)
        exc.partial = partial(s)
        raise exc
    return s


def _series_section(s: HKSeries) -> dict:
    return {"series": _series_payload(s)}


# -- commands -----------------------------------------------------------------------


def _cmd_check(problem: ProblemFile, args) -> dict:
    ideal = _lookup(problem.ideals, args.ideal, "ideal")
    ring = problem.ring
    value = ring._colength_of_ideal(ring.quotient + ideal.gens)
    return {
        "d": ring.dimension,
        "m_primary": value is not INFINITE,
        "colength": "INFINITE" if value is INFINITE else str(value),
    }


def _cmd_series(problem: ProblemFile, args):
    # the series results payload is the plain entry list
    s = _series(problem, args, *_inputs(problem, args, _series_entries),
                _series_entries)
    return _series_entries(s)


def _cmd_fit(problem: ProblemFile, args) -> dict:
    module, ideal = _inputs(problem, args, _series_section)
    if args.rank is not None:
        _prefetch_lengths(problem.ring, module, ideal, args.nmax)
    s = _series(problem, args, module, ideal, _series_section)
    d = args.d if args.d is not None else problem.ring.dimension
    fit = fit_two_point(s, d)
    tau = tau_from_recurrence(s, d, problem.ring.p)
    out = {
        "series": _series_payload(s),
        "fit": _fit_payload(fit),
        "tau_recurrence": {
            "n": tau.n,
            "tau": _frac(tau.tau),
            "tau_hat": tau.tau_hat,
            "beta_implied": _frac(tau.beta_implied),
            "beta_hat": tau.beta_hat,
            "sequence": [{"n": n, "value": _frac(v)}
                         for n, v in tau.sequence],
        },
    }
    if args.rank is not None:
        deltas = []
        out["delta"] = {"rank": args.rank, "entries": []}
        for n, q, _ in s.entries:
            try:
                value = delta_n(problem.ring, module, ideal, n,
                                rank=args.rank)
            except BudgetExceededError as exc:
                exc.partial = out
                raise
            deltas.append((n, q, value))
            out["delta"]["entries"].append(
                {"n": n, "q": q, "delta": str(value)})
        trend = tau_from_delta(deltas, d)
        out["delta"].update({
            "tau_hat": trend.tau_hat,
            "v_sequence": [{"n": n, "value": _frac(v)}
                           for n, v in trend.sequence],
            "v_differences": [{"n": n, "value": _frac(v)}
                              for n, v in trend.differences],
        })
    return out


def _cmd_verify(problem: ProblemFile, args) -> dict:
    module, ideal = _inputs(problem, args, _series_section)
    if args.closed_form is None:
        raise _CommandError("missing --closed-form argument")
    cf = problem.closed_forms.get(args.closed_form)
    if cf is None:
        try:
            cf = parse_closed_form(args.closed_form)
        except ParseError as exc:
            raise _CommandError(f"bad closed form: {exc}") from None
    s = _series(problem, args, module, ideal, _series_section)
    report = verify_closed_form(s, cf)
    return {
        "series": _series_payload(s),
        "closed_form": str(cf),
        "checks": [{"n": c.n, "q": c.q, "e": str(c.value),
                    "predicted": _frac(c.predicted), "pass": c.passed}
                   for c in report.checks],
        "all_pass": report.all_pass,
    }


def _cmd_tor(problem: ProblemFile, args) -> dict:
    module, ideal = _inputs(problem, args, lambda s: {"tor1": []})
    _prefetch_lengths(problem.ring, module, ideal, args.nmax, tor=True)
    entries = []
    rows = []
    for n in range(args.nmax + 1):
        try:
            value = tor1_length(problem.ring, module, ideal, n)
        except BudgetExceededError as exc:
            exc.partial = {"tor1": rows}
            raise
        q = problem.ring.p ** n
        entries.append((n, q, value))
        rows.append({"n": n, "q": q, "length": str(value)})
    d = args.d if args.d is not None else problem.ring.dimension
    gamma = gamma_estimate(entries, d)
    return {
        "tor1": rows,
        "gamma_hat": gamma.gamma_hat,
        "gamma_sequence": [{"n": n, "value": _frac(v)}
                           for n, v in gamma.sequence],
    }


def _cmd_gb(problem: ProblemFile, args) -> dict:
    if args.ideal is not None:
        gb = _lookup(problem.ideals, args.ideal, "ideal").gb
        label = args.ideal
    else:
        gb = problem.ring.defining_gb
        label = "(quotient)"
    value = colength(gb)
    return {
        "ideal": label,
        "order": gb.order.name,
        "basis": [str(g) for g in gb.elements],
        "lead_terms": [{"position": pos, "exponents": list(exps)}
                       for pos, exps in gb.lead_terms()],
        "colength": "INFINITE" if value is INFINITE else str(value),
    }


_COMMANDS = {
    "check": _cmd_check,
    "series": _cmd_series,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
    "tor": _cmd_tor,
    "gb": _cmd_gb,
}

# budgets: the default keeps casual runs bounded; --deep raises the pair
# and basis budgets for the expensive high-n computations
_DEFAULT_PAIRS = 200_000
_DEEP_PAIRS = 5_000_000
_DEEP_BASIS = 500_000


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilbertkunz",
        description="Hilbert-Kunz series, fits and checks over F_p")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        c = sub.add_parser(name)
        c.add_argument("file", help="problem file path")
        c.add_argument("--nmax", type=int, default=2)
        c.add_argument("--module", type=str, default=None)
        c.add_argument("--ideal", type=str, default=None)
        c.add_argument("--d", type=int, default=None,
                       help="override the ring dimension used in fits")
        c.add_argument("--rank", type=int, default=None,
                       help="assert the module rank for delta reports")
        c.add_argument("--budget-pairs", type=int, default=None,
                       help="cap on Buchberger pairs processed")
        c.add_argument("--json", type=str, default=None,
                       help="write the report to this path")
        c.add_argument("--closed-form", type=str, default=None,
                       help="closed form expression or declared name")
        c.add_argument("--deep", action="store_true",
                       help="raise the default computation budget")
    return parser


def _make_budget(args) -> Budget:
    pairs = args.budget_pairs
    if pairs is None:
        pairs = _DEEP_PAIRS if args.deep else _DEFAULT_PAIRS
    basis = _DEEP_BASIS if args.deep else Budget().max_basis
    return Budget(max_pairs=pairs, max_basis=basis)


def run_command(argv: List[str]) -> tuple:
    """Execute a CLI invocation; returns (report dict, exit code)."""
    report, exit_code, _ = _run(list(argv))
    return report, exit_code


def _run(argv: List[str]) -> tuple:
    started = time.monotonic()
    report = {
        "command": list(argv),
        "version": __version__,
        "input": {},
        "results": {},
        "diagnostics": {"warnings": [], "budget": {}},
    }
    exit_code = 0
    json_path = None
    try:
        args = _build_parser().parse_args(argv)
        json_path = args.json
        for flag, value in (("--nmax", args.nmax),
                            ("--budget-pairs", args.budget_pairs),
                            ("--d", args.d), ("--rank", args.rank)):
            if value is not None and value < 0:
                raise _CommandError(f"{flag} must be >= 0", kind="usage")
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CommandError(f"cannot read {args.file}: {exc}") from None
        report["input"] = {
            "path": args.file,
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "text": text,
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            problem = parse_problem(text)
            # every Groebner run of the command, Q and Q + I included
            problem.ring.budget = _make_budget(args)
            report["ring"] = {
                "p": problem.ring.p,
                "vars": list(problem.ring.vars),
                "quotient": [str(g) for g in problem.ring.quotient],
            }
            report["results"] = _COMMANDS[args.command](problem, args)
        report["diagnostics"]["warnings"] = sorted(
            {str(w.message) for w in caught})
    except ParseError as exc:
        report["error"] = {"kind": "parse", "message": exc.message,
                           "line": exc.line, "col": exc.col}
        exit_code = 1
    except _CommandError as exc:
        report["error"] = {"kind": exc.kind, "message": str(exc)}
        exit_code = 1
    except InfiniteColengthError as exc:
        report["error"] = {"kind": "not-m-primary", "message": str(exc)}
        exit_code = 1
    except BudgetExceededError as exc:
        # every budget stop; partial holds what was finished before it
        report["error"] = {"kind": "budget", "message": str(exc)}
        partial = getattr(exc, "partial", None)
        if partial is not None:
            report["results"] = partial
        report["diagnostics"]["budget"] = exc.diagnostics()
        exit_code = 2
    except ExponentOverflowError as exc:
        report["error"] = {"kind": "overflow", "message": str(exc)}
        exit_code = 1
    except ValueError as exc:
        report["error"] = {"kind": "invalid-input", "message": str(exc)}
        exit_code = 1
    report["diagnostics"]["timing_ms"] = int(
        (time.monotonic() - started) * 1000)
    return report, exit_code, json_path


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, exit_code, json_path = _run(argv)
    text = json.dumps(report, indent=2, sort_keys=True)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
