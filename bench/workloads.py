"""Seeded workload inputs, the CLI commands they run, and the output gate.

Each workload is a problem text made from a seed plus a list of CLI
commands run on it.  The seed changes only the text; every expected
integer is fixed by the workload (closed forms and the module and Tor
values below), so a seed can never move the gate.  Seed 0 gives the
shipped problem for det-colength and the (x1, x2), (c, d) = (2, 1)
inputs for the two quartic workloads.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import hilbertkunz as hk

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
NMAX = 3

# closed forms as (coefficient, base) pairs: e_n = sum c * base^n
DET_FORM = ((Fraction(13, 8), 81), (Fraction(-2, 8), 27),
            (Fraction(-1, 8), 9), (Fraction(-2, 8), 3))
QUARTIC_FORM = ((Fraction(168, 61), 125), (Fraction(-107, 61), 3))
# e_n of the ideal (x_i, x_j) as a module and Tor_1 lengths of R/(x_i, x_j)
# over the diagonal quartic; the quartic is symmetric in its variables, so
# these do not depend on the pair
IDEALMOD_E = (2, 372, 43210, 5380044)
TOR_LENGTHS = (2, 50, 290, 1490)

# (x_i, x_j) pairs for quartic-modules; seed 0 takes the first
VAR_PAIRS = tuple(combinations(("x1", "x2", "x3", "x4"), 2))
# shear constants (c, d) in F_5^* for quartic-dense; seed 0 takes (2, 1).
# Only these two independent shears are safe: permuting the variables of
# the sheared form, or chaining shears, ran for more than 500 s at n = 3.
SHEARS = ((2, 1),) + tuple((c, d) for c in range(1, 5) for d in range(1, 5)
                           if (c, d) != (2, 1))

WORKLOADS = ("det-colength", "quartic-modules", "quartic-dense")


def closed_form_values(form, nmax: int = NMAX) -> tuple:
    out = []
    for n in range(nmax + 1):
        value = sum(c * base ** n for c, base in form)
        if value.denominator != 1:
            raise ValueError(f"closed form is not integral at n = {n}")
        out.append(int(value))
    return tuple(out)


def _shipped(name: str) -> str:
    return (PROBLEMS / name).read_text(encoding="utf-8")


def det_symmetries() -> tuple:
    """vars=[...] orders that permute the rows and columns of the matrix.

    The shipped problem takes the 2x2 minors of [[x1,x2,x3],[x4,x5,x6]]
    with vars listed row by row.  Listing them row by row after a row
    swap or a column permutation gives the same ideal in the program's
    variable indices, so every order here has the same monomial order
    class and the same cost.  Arbitrary orders do not: at n = 3 they
    took 5.2 to 10.1 s against 7.1 s for the shipped order.
    """
    matrix = (("x1", "x2", "x3"), ("x4", "x5", "x6"))
    return tuple(tuple(matrix[r][c] for r in rows for c in cols)
                 for rows in permutations(range(2))
                 for cols in permutations(range(3)))


def det_order(seed: int) -> tuple:
    symmetries = det_symmetries()
    if seed == 0:
        return symmetries[0]
    return random.Random(seed).choice(symmetries)


def det_text(seed: int) -> str:
    """The shipped determinantal problem; seed s > 0 reorders vars=[...]."""
    text = _shipped("determinantal.hk")
    if seed == 0:
        return text
    shipped = "vars=[x1,x2,x3,x4,x5,x6]"
    if shipped not in text:
        raise ValueError("determinantal.hk no longer lists vars in order")
    return text.replace(shipped, "vars=[" + ",".join(det_order(seed)) + "]")


def var_pair(seed: int) -> tuple:
    return VAR_PAIRS[0] if seed == 0 else random.Random(seed).choice(VAR_PAIRS)


def modules_text(seed: int) -> str:
    """The shipped quartic plus an ideal module and a torsion module."""
    a, b = var_pair(seed)
    return (_shipped("quartic.hk")
            + f"module N = idealmod [{a}, {b}]\n"
            + f"module T = coker rows=1 [[{a}], [{b}]]\n")


def shear(seed: int) -> tuple:
    return SHEARS[0] if seed == 0 else random.Random(seed).choice(SHEARS)


def dense_quartic(c: int, d: int) -> str:
    """(x1 + c*x3)^4 + x2^4 + (x3 + d*x4)^4 + x4^4 over F_5, expanded.

    The problem parser has no parentheses, so the library's own
    polynomial arithmetic expands the form.
    """
    ring = hk.PolyRing(5, ["x1", "x2", "x3", "x4"])
    parts = [f"x1 + {c}*x3", "x2", f"x3 + {d}*x4", "x4"]
    total = ring.zero()
    for part in parts:
        total = hk.poly_add(total, hk.poly_power(hk.parse_poly(part, ring), 4))
    return str(total)


def dense_text(seed: int) -> str:
    """The quartic after the shear x1 -> x1 + c*x3, x3 -> x3 + d*x4.

    A linear change of coordinates fixes m and its Frobenius powers, so
    the e_n and the closed form stay those of the shipped quartic.
    """
    c, d = shear(seed)
    form = re.search(r"^closedform known = .*$", _shipped("quartic.hk"),
                     re.M).group(0)
    return (f"# Diagonal quartic over F_5 after the shear "
            f"x1 -> x1 + {c}*x3, x3 -> x3 + {d}*x4.\n"
            "ring p=5 vars=[x1,x2,x3,x4]\n"
            f"quotient = [{dense_quartic(c, d)}]\n"
            "ideal m = [x1, x2, x3, x4]\n"
            "module R = cyclic []\n"
            f"{form}\n")


def problem_text(workload: str, seed: int) -> str:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return {"det-colength": det_text, "quartic-modules": modules_text,
            "quartic-dense": dense_text}[workload](seed)


def ready_ideal(workload: str) -> str:
    """The ideal whose m-primary check ends set-up."""
    return {"det-colength": "m", "quartic-modules": "I",
            "quartic-dense": "m"}[workload]


def operations(workload: str, path: str, nmax: int = NMAX) -> list:
    """The CLI commands of one pass: (argv, expected integers) pairs.

    Expected integers are keyed by the report field that carries them.
    """
    deep = ["--nmax", str(nmax), "--deep"]
    if workload == "det-colength":
        e = closed_form_values(DET_FORM, nmax)
        return [(["fit", path, "--module", "R", "--ideal", "m"] + deep,
                 {"p": 3, "e": e})]
    e_r = closed_form_values(QUARTIC_FORM, nmax)
    if workload == "quartic-dense":
        return [(["verify", path, "--module", "R", "--ideal", "m",
                  "--closed-form", "known"] + deep,
                 {"p": 5, "e": e_r, "verified": True})]
    e_n = IDEALMOD_E[:nmax + 1]
    return [
        (["verify", path, "--module", "M", "--ideal", "I",
          "--closed-form", "known"] + deep,
         {"p": 5, "e": e_r, "verified": True}),
        (["fit", path, "--module", "N", "--ideal", "I", "--rank", "1"] + deep,
         {"p": 5, "e": e_n,
          "delta": tuple(a - b for a, b in zip(e_n, e_r))}),
        (["tor", path, "--module", "T", "--ideal", "I"] + deep,
         {"p": 5, "tor1": TOR_LENGTHS[:nmax + 1]}),
    ]


def _column(rows, key: str, p: int, want: tuple) -> list:
    """Mismatches of one n/q/value table against the expected values."""
    got = [(int(r["n"]), int(r["q"]), int(r[key])) for r in rows]
    expected = [(n, p ** n, v) for n, v in enumerate(want)]
    return [] if got == expected else [f"{key}: got {got}, want {expected}"]


def check_report(report: dict, exit_code: int, expected: dict) -> list:
    """Every reason the report is wrong; an empty list means it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "error" in report:
        problems.append(f"error: {report['error']}")
    results = report.get("results")
    if not isinstance(results, dict):
        return problems + ["no results object"]
    p = expected["p"]
    try:
        if "e" in expected:
            problems += _column(results["series"]["entries"], "e", p,
                                expected["e"])
        if expected.get("verified"):
            problems += _column(results["checks"], "e", p, expected["e"])
            if results["all_pass"] is not True or \
                    not all(c["pass"] is True for c in results["checks"]):
                problems.append("closed-form check failed")
        if "delta" in expected:
            problems += _column(results["delta"]["entries"], "delta", p,
                                expected["delta"])
        if "tor1" in expected:
            problems += _column(results["tor1"], "length", p,
                                expected["tor1"])
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
