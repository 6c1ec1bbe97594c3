"""Closed-form verification and coefficient extraction from length series.

Everything here consumes sequences of exact integers (n, q, value) and
computes in exact rational arithmetic; floating point appears only in the
rendered report fields.  The leading and subleading coefficients of
value = alpha q^d + beta q^{d-1} + O(q^{d-2}) are extracted by solving
two-point linear systems exactly; the error-term constants are exposed as
exact maxima, never asserted to converge, because no rate is available
for the O(q^{d-2}) tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .poly import ParseError


def _entries(seriesish) -> List[Tuple[int, int, int]]:
    """Accept an HKSeries or a raw iterable of (n, q, value) triples."""
    entries = getattr(seriesish, "entries", seriesish)
    out = [(int(n), int(q), int(v)) for (n, q, v) in entries]
    if not out:
        raise ValueError("empty series")
    if any(b[0] <= a[0] for a, b in zip(out, out[1:])):
        raise ValueError("series entries must be strictly increasing in n")
    return out


@dataclass(frozen=True)
class ClosedForm:
    """A finite sum of geometric terms n -> sum of c_i * b_i^n."""

    terms: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        bases = [b for _, b in self.terms]
        if len(set(bases)) != len(bases):
            raise ValueError("closed-form bases must be distinct")
        if any(b <= 0 for b in bases):
            raise ValueError("closed-form bases must be positive integers")

    def value(self, n: int) -> Fraction:
        return sum((c * b ** n for c, b in self.terms), Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (c, b) in enumerate(self.terms):
            mag = abs(c)
            coeff = str(mag.numerator) if mag.denominator == 1 \
                else f"{mag.numerator}/{mag.denominator}"
            body = f"{coeff} * {b}^n"
            if i == 0:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(("+ " if c >= 0 else "- ") + body)
        return " ".join(parts)


def parse_closed_form(text: str) -> ClosedForm:
    """Parse "168/61 * 125^n - 107/61 * 3^n" style expressions exactly."""
    import re
    s = text.replace("−", "-").strip()
    if not s:
        raise ParseError("empty closed form")
    term_re = re.compile(
        r"\s*(?P<sign>[+-])?\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*"
        r"\*\s*(?P<base>\d+)\s*\^\s*n")
    pos = 0
    terms = []
    first = True
    while pos < len(s):
        m = term_re.match(s, pos)
        if not m:
            raise ParseError(f"cannot parse closed form near {s[pos:pos+20]!r}",
                             col=pos + 1)
        sign = m.group("sign")
        if not first and sign is None:
            raise ParseError("terms must be joined by '+' or '-'",
                             col=m.start() + 1)
        num = int(m.group("num"))
        den = int(m.group("den")) if m.group("den") else 1
        if den == 0:
            raise ParseError("zero denominator", col=m.start() + 1)
        c = Fraction(num, den)
        if sign == "-":
            c = -c
        terms.append((c, int(m.group("base"))))
        pos = m.end()
        first = False
    try:
        return ClosedForm(tuple(terms))
    except ValueError as exc:          # a zero or repeated base
        raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class EntryCheck:
    n: int
    q: int
    value: int
    predicted: Fraction
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[EntryCheck, ...]
    all_pass: bool


def verify_closed_form(series, cf: ClosedForm) -> VerificationReport:
    """Exact per-entry comparison of a series against a closed form.

    An entry passes only if the closed form evaluates to an integer equal
    to the recorded value; no floating point is involved anywhere.
    """
    checks = []
    ok = True
    for n, q, v in _entries(series):
        predicted = cf.value(n)
        passed = predicted == v
        ok = ok and passed
        checks.append(EntryCheck(n, q, v, predicted, passed))
    return VerificationReport(tuple(checks), ok)


@dataclass(frozen=True)
class FitReport:
    """Two-term fit value = alpha q^d + beta q^{d-1} with diagnostics.

    alpha/beta are exact rationals from the two-point solve; the _hat
    fields are their float renderings.  residuals holds the exact defect
    at every series entry, c_min is the smallest constant C with
    |value - alpha q^d - beta q^{d-1}| <= C q^{d-2} over the entries with
    n >= 1, and per_window carries the same solve over every consecutive
    window so slow convergence stays visible (the error terms carry no
    effective rate, so no single number is presented as the limit).
    """
    method: str
    d: int
    window: Tuple[int, int]
    alpha: Fraction
    beta: Fraction
    alpha_hat: float
    beta_hat: float
    residuals: Tuple[Tuple[int, Fraction], ...]
    c_min: Fraction
    per_window: Tuple[Tuple[int, int, Fraction, Fraction], ...] = ()
    tau_hat: Optional[float] = None


def _residuals(entries, alpha: Fraction, beta: Fraction, d: int):
    res = []
    cmin = Fraction(0)
    for n, q, v in entries:
        r = v - alpha * q ** d - beta * q ** (d - 1)
        res.append((n, r))
        if n >= 1:
            scaled = abs(r) / Fraction(q) ** (d - 2)
            if scaled > cmin:
                cmin = scaled
    return tuple(res), cmin


def _solve_two_point(by_n, n_lo: int, n_hi: int, d: int):
    (q1, v1), (q2, v2) = by_n[n_lo], by_n[n_hi]
    # divide the rows by q^{d-1}: alpha q_i + beta = v_i / q_i^{d-1}
    r1 = Fraction(v1, q1 ** (d - 1))
    r2 = Fraction(v2, q2 ** (d - 1))
    alpha = (r2 - r1) / (q2 - q1)
    beta = r1 - alpha * q1
    return alpha, beta


def fit_two_point(series, d: int, p: int, n_lo: Optional[int] = None,
                  n_hi: Optional[int] = None) -> FitReport:
    """Solve value = alpha q^d + beta q^{d-1} exactly at two entries.

    Defaults to the two largest n available.  The system is never
    singular for distinct positive q.  Residuals, the error constant and
    the per-window estimate trail are reported over the whole series so
    slow convergence stays visible.
    """
    entries = _entries(series)
    if len(entries) < 2:
        raise ValueError("need at least two entries to fit")
    by_n = {n: (q, v) for n, q, v in entries}
    if n_hi is None:
        n_hi = entries[-1][0]
    if n_lo is None:
        n_lo = entries[-2][0]
    if n_lo not in by_n or n_hi not in by_n:
        raise ValueError(f"fit window ({n_lo}, {n_hi}) not inside the series")
    if not n_lo < n_hi:
        raise ValueError("fit window must satisfy n_lo < n_hi")
    alpha, beta = _solve_two_point(by_n, n_lo, n_hi, d)
    residuals, cmin = _residuals(entries, alpha, beta, d)
    per_window = []
    for (a, _, _), (b, _, _) in zip(entries, entries[1:]):
        wa, wb = _solve_two_point(by_n, a, b, d)
        per_window.append((a, b, wa, wb))
    return FitReport("two-point", d, (n_lo, n_hi), alpha, beta,
                     float(alpha), float(beta), residuals, cmin,
                     tuple(per_window))


@dataclass(frozen=True)
class TauEstimate:
    """tau extracted from the Frobenius recurrence on a ring series.

    sequence[k] is (value_{n+1} - p^d value_n) / q^{d-1} at n = k, an
    exact rational; tau is the entry at the requested n and beta_implied
    converts it through beta (p^{d-1} - p^d) = tau.
    """
    d: int
    p: int
    n: int
    tau: Fraction
    tau_hat: float
    beta_implied: Fraction
    beta_hat: float
    sequence: Tuple[Tuple[int, Fraction], ...]


def tau_from_recurrence(series, d: int, p: int,
                        n: Optional[int] = None) -> TauEstimate:
    """Estimate the q^{d-1} coefficient from consecutive series entries."""
    entries = _entries(series)
    if len(entries) < 2:
        raise ValueError("need at least two entries")
    by_n = {nn: (q, v) for nn, q, v in entries}
    seq = []
    for nn, q, v in entries[:-1]:
        if nn + 1 not in by_n:
            continue
        _, v_next = by_n[nn + 1]
        seq.append((nn, Fraction(v_next - p ** d * v, q ** (d - 1))))
    if not seq:
        raise ValueError("no consecutive entries in the series")
    if n is None:
        n = seq[-1][0]
    chosen = dict(seq).get(n)
    if chosen is None:
        raise ValueError(f"entries n={n} and n={n + 1} are not both present")
    beta = chosen / (p ** (d - 1) - p ** d)
    return TauEstimate(d, p, n, chosen, float(chosen), beta, float(beta),
                       tuple(seq))


@dataclass(frozen=True)
class DeltaTrend:
    """v_n = delta_n / q^{d-1} with successive differences.

    The differences scaled by q are reported so the O(1/q) prediction for
    v_{n+1} - v_n can be inspected directly.
    """
    tau_hat: float
    v_last: Fraction
    sequence: Tuple[Tuple[int, Fraction], ...]
    differences: Tuple[Tuple[int, Fraction], ...]


def tau_from_delta(delta_series, d: int, p: int) -> DeltaTrend:
    """Normalize a delta series by q^{d-1} and expose its convergence."""
    entries = _entries(delta_series)
    seq = [(n, Fraction(v, q ** (d - 1))) for n, q, v in entries]
    diffs = tuple((seq[i + 1][0], seq[i + 1][1] - seq[i][1])
                  for i in range(len(seq) - 1))
    return DeltaTrend(float(seq[-1][1]), seq[-1][1], tuple(seq), diffs)


@dataclass(frozen=True)
class GammaEstimate:
    """Tor-length growth normalized by q^{d-1}, with the full trend."""
    gamma_hat: float
    gamma_last: Fraction
    sequence: Tuple[Tuple[int, Fraction], ...]


def gamma_estimate(tor_series, d: int, p: int) -> GammaEstimate:
    entries = _entries(tor_series)
    seq = [(n, Fraction(v, q ** (d - 1))) for n, q, v in entries]
    return GammaEstimate(float(seq[-1][1]), seq[-1][1], tuple(seq))


def residual_bound(series, alpha: Fraction, beta: Fraction, d: int) -> Fraction:
    """Smallest C with |value - alpha q^d - beta q^{d-1}| <= C q^{d-2}.

    Taken over the entries with n >= 1; exact rational arithmetic
    throughout.  Returns 0 when the two-term model matches exactly.
    """
    entries = _entries(series)
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    _, cmin = _residuals(entries, alpha, beta, d)
    return cmin
