"""Problem-file parsing, command dispatch, reports and exit codes."""

import copy
import json
import os
import pathlib
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from hilbertkunz import (Budget, BudgetExceededError, ParseError, cli, hk,
                         parse_problem, poly)
from hilbertkunz.cli import run_command

QUARTIC = """\
# Diagonal quartic over F_5.
ring p=5 vars=[x1,x2,x3,x4]
quotient = [x1^4 + x2^4 + x3^4 + x4^4]
ideal I = [x1, x2, x3, x4]
module M = cyclic []
closedform known = 168/61 * 125^n - 107/61 * 3^n
"""

REGULAR = """\
ring p=3 vars=[x,y]
ideal I = [x, y]
module M = cyclic []
module T = coker rows=1 [[x]]
module TT = coker rows=2 [[x, 0], [0, y]]
module J = idealmod [x, y]
"""


def write(tmp_path, text, name="problem.hk"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def stripped(report):
    out = copy.deepcopy(report)
    out["diagnostics"].pop("timing_ms", None)
    return out


# -- parse_problem -----------------------------------------------------------------

def test_parse_quartic_file():
    problem = parse_problem(QUARTIC)
    assert problem.ring.p == 5
    assert problem.ring.vars == ("x1", "x2", "x3", "x4")
    assert len(problem.ring.quotient) == 1
    assert set(problem.ideals) == {"I"}
    assert set(problem.modules) == {"M"}
    assert set(problem.closed_forms) == {"known"}


def test_parse_coker_and_idealmod():
    problem = parse_problem(REGULAR)
    T = problem.modules["T"]
    assert T.kind == "coker" and T.ambient_rank == 1
    TT = problem.modules["TT"]
    assert TT.kind == "coker" and len(TT.columns) == 2
    assert str(TT.columns[0]) == "(x, 0)"
    J = problem.modules["J"]
    assert J.kind == "idealmod" and len(J.gens) == 2


def test_parse_non_prime_characteristic():
    with pytest.raises(ParseError) as err:
        parse_problem("ring p=6 vars=[x]\n")
    assert "non-prime" in err.value.message
    assert err.value.line == 1


def test_parse_duplicate_names():
    text = "ring p=5 vars=[x]\nideal I = [x]\nideal I = [x]\n"
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert "duplicate" in err.value.message
    assert err.value.line == 3


def test_parse_missing_ring():
    with pytest.raises(ParseError):
        parse_problem("ideal I = [x]\n")


def test_parse_unknown_variable_position():
    with pytest.raises(ParseError) as err:
        parse_problem("ring p=5 vars=[x]\nideal I = [x*z]\n")
    assert err.value.line == 2


def test_parse_bad_lines():
    for bad in ("ring p=5 vars=[x]\nfrobnicate\n",
                "ring p=5 vars=[x]\nmodule M = weird [x]\n",
                "ring p=5 vars=[x]\nmodule M = coker [x]\n",
                "ring p=5 vars=[x]\nquotient = [x\n",
                "ring p=5 vars=[x]\nring p=5 vars=[x]\n"):
        with pytest.raises(ParseError):
            parse_problem(bad)


def test_parse_coker_column_length_mismatch():
    text = "ring p=5 vars=[x,y]\nmodule T = coker rows=2 [[x]]\n"
    with pytest.raises(ParseError):
        parse_problem(text)


@pytest.mark.parametrize("text, line", [
    ("ring p=5 vars=[x]\nclosedform F = 1 * 0^n\n", 2),
    ("ring p=5 vars=[x]\nclosedform F = 1 * 2^n + 3 * 2^n\n", 2),
    ("ring p=5 vars=[x]\nquotient = [x^32768]\n", 2),
    ("ring p=5 vars=[x]\nideal I = [x^40000]\n", 2),
    ("ring p=5 vars=[x]\n\nmodule M = cyclic [x^32768]\n", 3),
    ("ring p=5 vars=[x]\nmodule T = coker rows=1 [[x^9 * x^32760]]\n", 2),
    ("ring p=5 vars=[x]\nideal I = [" + "9" * 5000 + "]\n", 2),
], ids=["zero-base", "repeated-base", "quotient-exponent", "ideal-exponent",
        "module-exponent", "coker-product-exponent", "long-integer"])
def test_parse_errors_name_their_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.line == line


def test_parse_characteristic_range_checked_before_primality(monkeypatch):
    asked = []

    def is_prime(p):
        asked.append(p)
        assert p < 2**31, "trial division asked about an unsupported p"
        return True
    monkeypatch.setattr(poly, "is_prime", is_prime)
    for p in (2**31, 2305843009213693951, 0, 1):
        with pytest.raises(ParseError) as err:
            parse_problem(f"ring p={p} vars=[x]\n")
        assert err.value.line == 1
    assert asked == []


_FRAGMENTS = (
    "ring p=5 vars=[x,y]", "ring p=3 vars=[x]", "ring p=6 vars=[x]",
    "ring p=2147483648 vars=[x]", "ring p=5 vars=[]", "ring p=5 vars=[x,x]",
    "ring p=5 vars=[1x]", "quotient = [x^4 + y^4]", "quotient = [x^32768]",
    "quotient = [x", "ideal I = [x, y]", "ideal I = [x^40000]",
    "ideal J = [z]", "ideal K = x", "ideal 1 = [x]", "module M = cyclic []",
    "module M = cyclic [x*y]", "module N = idealmod [x, y]",
    "module T = coker rows=2 [[x, 0], [0, y]]",
    "module T = coker rows=1 [[x^32768]]", "module U = coker rows=2 [[x]]",
    "module V = coker [x]", "module W = weird [x]",
    "closedform F = 168/61 * 125^n - 107/61 * 3^n",
    "closedform F = 1 * 0^n", "closedform G = 1/0 * 2^n",
    "closedform H = 1 * 2^n + 1 * 2^n", "closedform K = ", "# comment", "",
    "frobnicate",
)


@st.composite
def problem_texts(draw):
    lines = []
    for fragment in draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=6)):
        cut = draw(st.integers(0, len(fragment)))
        noise = draw(st.text(alphabet="xy0159^*+-/[],= n", max_size=4))
        lines.append(draw(st.sampled_from(
            [fragment, fragment[:cut] + noise + fragment[cut:]])))
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(problem_texts())
def test_parse_problem_raises_only_parse_errors(text):
    try:
        parse_problem(text)
    except ParseError as exc:
        assert exc.line is not None or exc.message == \
            "missing ring declaration"


def test_comments_and_blanks_ignored():
    text = "# header\n\nring p=5 vars=[x]  # trailing\n\n# done\n"
    problem = parse_problem(text)
    assert problem.ring.p == 5


# -- commands ------------------------------------------------------------------------

def test_cmd_series_regular(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["series", path, "--module", "M", "--ideal", "I", "--nmax", "3"])
    assert code == 0
    entries = report["results"]
    assert [e["e"] for e in entries] == ["1", "9", "81", "729"]
    assert [e["q"] for e in entries] == [1, 3, 9, 27]


REPO = pathlib.Path(__file__).resolve().parent.parent


def test_cmd_series_shipped_quartic():
    report, code = run_command(
        ["series", str(REPO / "problems/quartic.hk"), "--module", "M",
         "--ideal", "I", "--nmax", "2"])
    assert code == 0
    assert [e["e"] for e in report["results"]] == ["1", "339", "43017"]


def test_cmd_series_shipped_determinantal():
    report, code = run_command(
        ["series", str(REPO / "problems/determinantal.hk"), "--module", "R",
         "--ideal", "m", "--nmax", "2"])
    assert code == 0
    assert [e["e"] for e in report["results"]] == ["1", "123", "10467"]


def test_cmd_check_shipped_determinantal():
    report, code = run_command(
        ["check", str(REPO / "problems/determinantal.hk"), "--ideal", "m"])
    assert code == 0
    assert report["results"]["d"] == 4
    assert report["results"]["m_primary"] is True


def test_cmd_check_quartic(tmp_path):
    path = write(tmp_path, QUARTIC)
    report, code = run_command(["check", path, "--ideal", "I"])
    assert code == 0
    assert report["results"] == {"d": 3, "m_primary": True, "colength": "1"}


def test_cmd_fit_exact_two_term(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["fit", path, "--module", "M", "--ideal", "I", "--nmax", "3"])
    assert code == 0
    fit = report["results"]["fit"]
    assert fit["alpha"] == "1" and fit["beta"] == "0"
    assert fit["c_min"] == "0"
    assert all(r["value"] == "0" for r in fit["residuals"])
    tau = report["results"]["tau_recurrence"]
    assert tau["tau"] == "0"


def test_cmd_fit_with_rank_reports_delta(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["fit", path, "--module", "J", "--ideal", "I", "--nmax", "2",
         "--rank", "1"])
    assert code == 0
    delta = report["results"]["delta"]
    assert [e["delta"] for e in delta["entries"]] == ["1", "1", "1"]


DIM0 = """\
ring p=3 vars=[x,y]
quotient = [x^2, y^3]
ideal m = [x, y]
module R = cyclic []
"""


def test_cmd_fit_and_tor_in_dimension_zero(tmp_path):
    # d = 0 takes q^(d-1) = 1/q: the fit is exact, the reports complete
    path = write(tmp_path, DIM0)
    report, code = run_command(
        ["fit", path, "--module", "R", "--ideal", "m", "--nmax", "2"])
    assert code == 0
    assert [e["e"] for e in report["results"]["series"]["entries"]] == \
        ["1", "6", "6"]
    fit = report["results"]["fit"]
    assert (fit["d"], fit["alpha"], fit["beta"]) == (0, "6", "0")
    report, code = run_command(
        ["tor", path, "--module", "R", "--ideal", "m", "--nmax", "2"])
    assert code == 0
    assert [e["value"] for e in report["results"]["gamma_sequence"]] == \
        ["0"] * 3


def test_cmd_fit_with_d_zero(tmp_path):
    # e_n = q^2 fitted as alpha + beta / q over the window q = 9, 27
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["fit", path, "--module", "M", "--ideal", "I", "--nmax", "3",
         "--d", "0"])
    assert code == 0
    fit = report["results"]["fit"]
    assert (fit["d"], fit["alpha"], fit["beta"]) == (0, "1053", "-8748")
    # tau at n = 2 is (e_3 - e_2) * q = (729 - 81) * 9
    assert report["results"]["tau_recurrence"]["tau"] == "5832"


def test_cmd_verify_named_form(tmp_path):
    path = write(tmp_path, QUARTIC)
    report, code = run_command(
        ["verify", path, "--module", "M", "--ideal", "I", "--nmax", "1",
         "--closed-form", "known"])
    assert code == 0
    assert report["results"]["all_pass"] is True
    assert [c["pass"] for c in report["results"]["checks"]] == [True, True]


def test_cmd_verify_literal_form(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["verify", path, "--module", "M", "--ideal", "I", "--nmax", "3",
         "--closed-form", "1 * 9^n"])
    assert code == 0
    assert report["results"]["all_pass"] is True


def test_cmd_verify_failing_form(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["verify", path, "--module", "M", "--ideal", "I", "--nmax", "2",
         "--closed-form", "1 * 8^n"])
    assert code == 0
    assert report["results"]["all_pass"] is False


def test_cmd_tor(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["tor", path, "--module", "T", "--ideal", "I", "--nmax", "3"])
    assert code == 0
    lengths = [e["length"] for e in report["results"]["tor1"]]
    assert lengths == ["1", "3", "9", "27"]    # q exactly, q = 3^n
    assert report["results"]["gamma_sequence"][-1]["value"] == "1"


def test_cmd_tor_accepts_every_module_kind(tmp_path):
    path = write(tmp_path, REGULAR)
    for module, length in (("M", "0"), ("J", "1")):
        report, code = run_command(
            ["tor", path, "--module", module, "--ideal", "I", "--nmax", "2"])
        assert code == 0
        assert [e["length"] for e in report["results"]["tor1"]] == \
            [length] * 3


@pytest.mark.parametrize("form", ["1 * 0^n", "1 * 3^n + 2 * 3^n"])
def test_verify_invalid_closed_form_base_is_a_command_error(tmp_path, form):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["verify", path, "--module", "M", "--ideal", "I",
         "--closed-form", form])
    assert code == 1
    assert report["error"]["kind"] == "command"
    assert report["error"]["message"].startswith("bad closed form: ")


@pytest.mark.parametrize("form", ["7" * 5000 + " * 3^n",
                                  "1 * " + "7" * 5000 + "^n"],
                         ids=["coefficient", "base"])
def test_verify_closed_form_past_the_digit_limit_is_a_command_error(
        tmp_path, form):
    # int() refuses more than 4300 digits with a bare ValueError
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["verify", path, "--module", "M", "--ideal", "I",
         "--closed-form", form])
    assert code == 1
    assert report["error"]["kind"] == "command"
    assert report["error"]["message"].startswith("bad closed form: ")


def test_cmd_gb(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(["gb", path, "--ideal", "I"])
    assert code == 0
    assert report["results"]["basis"] == ["y", "x"]
    assert report["results"]["colength"] == "1"


def test_cmd_gb_quotient_only(tmp_path):
    path = write(tmp_path, QUARTIC)
    report, code = run_command(["gb", path])
    assert code == 0
    assert report["results"]["ideal"] == "(quotient)"
    assert report["results"]["colength"] == "INFINITE"


# -- exit codes and error objects ---------------------------------------------------------

def test_exit_parse_error(tmp_path):
    path = write(tmp_path, "ring p=6 vars=[x]\n")
    report, code = run_command(["check", path, "--ideal", "I"])
    assert code == 1
    assert report["error"]["kind"] == "parse"
    assert report["error"]["line"] == 1


def test_exit_unknown_reference(tmp_path):
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["series", path, "--module", "M", "--ideal", "nope"])
    assert code == 1
    assert "unknown ideal" in report["error"]["message"]


def test_exit_not_m_primary(tmp_path):
    path = write(tmp_path, "ring p=5 vars=[x,y]\nideal I = [x]\n"
                           "module M = cyclic []\n")
    report, code = run_command(["series", path, "--module", "M",
                                "--ideal", "I"])
    assert code == 1
    assert "not m-primary" in report["error"]["message"]


def test_fit_of_one_entry_is_an_invalid_input_error(tmp_path):
    report, code = run_command(
        ["fit", write(tmp_path, QUARTIC), "--module", "M", "--ideal", "I",
         "--nmax", "0"])
    assert code == 1
    assert report["error"] == {"kind": "invalid-input",
                               "message": "need at least two entries to fit"}


def test_exit_budget_exceeded(tmp_path):
    path = write(tmp_path, QUARTIC)
    report, code = run_command(
        ["series", path, "--module", "M", "--ideal", "I", "--nmax", "2",
         "--budget-pairs", "5"])
    assert code == 2
    # partial results are preserved alongside the error object
    assert isinstance(report["results"], list)


def test_series_budget_stop_is_a_budget_error(tmp_path):
    path = write(tmp_path, QUARTIC)
    for command in (["series"], ["fit"], ["verify", "--closed-form", "known"]):
        report, code = run_command(
            command + [path, "--module", "M", "--ideal", "I", "--nmax", "2",
                       "--budget-pairs", "5"])
        assert code == 2
        assert report["error"]["kind"] == "budget"


def test_series_budget_stop_fills_budget_diagnostics(tmp_path):
    path = write(tmp_path, QUARTIC)
    for command in (["series"], ["fit"], ["verify", "--closed-form", "known"]):
        report, code = run_command(
            command + [path, "--module", "M", "--ideal", "I", "--nmax", "2",
                       "--budget-pairs", "5"])
        assert code == 2
        assert report["diagnostics"]["budget"] == {
            "stage": "buchberger pairs", "limit": 5, "count": 6}


CUT_SHORT = QUARTIC + """\
module T = coker rows=1 [[x1], [x2]]
module C = cyclic [x1, x2]
module N = idealmod [x1, x2]
module K = cyclic [x1, x2, x3, x4]
"""


def test_tor_budget_stop_keeps_finished_entries(tmp_path):
    path = write(tmp_path, CUT_SHORT)
    report, code = run_command(
        ["tor", path, "--module", "T", "--ideal", "I", "--nmax", "2",
         "--budget-pairs", "60"])
    assert code == 2
    assert report["error"]["kind"] == "budget"
    assert [e["length"] for e in report["results"]["tor1"]] == ["2", "50"]
    assert report["diagnostics"]["budget"]["stage"] == "buchberger pairs"


def test_fit_budget_stop_in_deltas_keeps_the_series(tmp_path):
    path = write(tmp_path, CUT_SHORT)
    report, code = run_command(
        ["fit", path, "--module", "C", "--ideal", "I", "--nmax", "2",
         "--rank", "0", "--budget-pairs", "100"])
    assert code == 2
    assert report["error"]["kind"] == "budget"
    results = report["results"]
    assert [e["e"] for e in results["series"]["entries"]] == ["1", "17", "97"]
    assert [e["delta"] for e in results["delta"]["entries"]] == ["1", "17"]
    assert report["diagnostics"]["budget"]["limit"] == 100


# fit --rank and tor run their two length families at once on two CPUs;
# the report must not tell the routes apart
MODULES = QUARTIC + """\
module N = idealmod [x1, x2]
module T = coker rows=1 [[x1], [x2]]
"""
NOT_PRIMARY = "ring p=5 vars=[x,y]\nideal I = [x]\nmodule M = cyclic []\n"
WARNED = "ring p=3 vars=[x,y]\nideal I = [x, y]\n" \
         "module T = coker rows=1 [[x + y^2]]\n"
ROUTE_INPUTS = {"modules": MODULES, "cut-short": CUT_SHORT,
                "not-primary": NOT_PRIMARY, "warned": WARNED}
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def on_one_cpu_and_two(tmp_path, monkeypatch, name, argv) -> list:
    """(report without timing_ms, exit code, forks, hk.buchberger runs,
    budget stops) of the command at --nmax 2 on one usable CPU, then on
    two; runs and stops are this process's, not the child's."""
    argv = argv[:1] + [write(tmp_path, ROUTE_INPUTS[name]), "--ideal", "I",
                       "--nmax", "2"] + argv[1:]
    counts = [0, 0, 0]               # forks, runs, stops
    fork = os.fork
    run = hk.buchberger

    def counted_fork():
        counts[0] += 1
        return fork()

    def counted(*args, **kwargs):
        counts[1] += 1
        try:
            return run(*args, **kwargs)
        except BudgetExceededError:
            counts[2] += 1
            raise

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(hk, "buchberger", counted)
    out = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        counts[:] = [0, 0, 0]
        report, exit_code = run_command(argv)
        out.append((stripped(report), exit_code, *counts))
    return out


@needs_fork
@pytest.mark.parametrize("name, argv, code, forks", [
    ("modules", ["fit", "--module", "N", "--rank", "1"], 0, 1),
    ("modules", ["fit", "--module", "T", "--rank", "0"], 0, 1),
    ("modules", ["tor", "--module", "N"], 0, 1),
    ("modules", ["tor", "--module", "T"], 0, 1),
    ("cut-short", ["tor", "--module", "T", "--budget-pairs", "60"], 2, 1),
    ("cut-short", ["fit", "--module", "C", "--rank", "0",
                   "--budget-pairs", "100"], 2, 1),
    ("not-primary", ["fit", "--module", "M", "--rank", "1"], 1, 0),
    ("not-primary", ["tor", "--module", "M"], 1, 0),
    ("warned", ["fit", "--module", "T", "--rank", "0"], 0, 1),
    ("warned", ["tor", "--module", "T"], 0, 1),
])
def test_one_cpu_and_two_give_the_same_report(tmp_path, monkeypatch, name,
                                              argv, code, forks):
    one, two = on_one_cpu_and_two(tmp_path, monkeypatch, name, argv)
    assert (one[1], one[2]) == (code, 0)
    assert (two[1], two[2]) == (code, forks)
    assert one[0] == two[0]
    assert bool(one[0]["diagnostics"]["warnings"]) == (name == "warned")


@pytest.mark.parametrize("name, argv, code", [
    ("warned", ["--module", "T"], 0),
    ("cut-short", ["--module", "M", "--budget-pairs", "60"], 2),
])
def test_the_report_lists_input_warnings_only(tmp_path, monkeypatch, name,
                                              argv, code):
    # any other warning raised during a command, finished or stopped, goes
    # on to the caller's filters, where a ResourceWarning gate sees it
    series = cli.series

    def noisy(*args, **kwargs):
        warnings.warn("unrelated to the input", RuntimeWarning)
        return series(*args, **kwargs)

    monkeypatch.setattr(cli, "series", noisy)
    with pytest.warns(RuntimeWarning, match="unrelated to the input"):
        report, exit_code = run_command(
            ["series", write(tmp_path, ROUTE_INPUTS[name]), "--ideal", "I",
             "--nmax", "2"] + argv)
    assert exit_code == code
    listed = report["diagnostics"]["warnings"]
    if name == "warned":
        assert listed == ["a module relation is not homogeneous; computed "
                          "lengths are affine colengths, which agree with "
                          "local lengths only in the graded case"]
    else:
        assert listed == []


@needs_fork
@pytest.mark.parametrize("argv, runs", [
    # the stop is in this process's family: run once here on either route;
    # on two CPUs the child's lengths before it (T's and R's) arrive as
    # records, so they are not run here
    (["tor", "--module", "T", "--budget-pairs", "60"], ((6, 1), (4, 1))),
    (["fit", "--module", "N", "--rank", "1", "--budget-pairs", "60"],
     ((4, 1), (4, 1))),
    # the stop is in the child's family (R's lengths): run there only
    (["fit", "--module", "C", "--rank", "0", "--budget-pairs", "100"],
     ((6, 1), (4, 0))),
    (["fit", "--module", "K", "--rank", "0", "--budget-pairs", "60"],
     ((6, 1), (4, 0))),
])
def test_no_budget_stop_is_run_twice_on_either_route(tmp_path, monkeypatch,
                                                     argv, runs):
    one, two = on_one_cpu_and_two(tmp_path, monkeypatch, "cut-short", argv)
    assert (one[1:3], two[1:3]) == ((2, 0), (2, 1))
    assert one[0] == two[0]
    assert (one[3:], two[3:]) == runs


@needs_fork
def test_tor_whose_syzygies_stop_forks_nothing(tmp_path, monkeypatch):
    # N's syzygies stop before the fork, so no family runs at once, and
    # the command's own path meets the stop
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv = ["tor", write(tmp_path, MODULES), "--module", "N", "--ideal", "I",
            "--nmax", "1", "--budget-pairs", "1"]
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report, code = run_command(argv)
        assert (code, report["results"]) == (2, {"tor1": []})
        assert report["error"]["kind"] == "budget"
    assert forks == []


STOPPED_SERIES = {
    "module": "M", "ideal": "I", "entries": [{"n": 0, "q": 1, "e": "1"}],
    "error": "computation budget exceeded in buchberger pairs: 6 > limit 5",
    "failed_n": 1}


def test_fit_and_verify_budget_stops_keep_the_series_payload(tmp_path):
    path = write(tmp_path, QUARTIC)
    for command in (["fit"], ["verify", "--closed-form", "known"]):
        report, code = run_command(
            command + [path, "--module", "M", "--ideal", "I", "--nmax", "2",
                       "--budget-pairs", "5"])
        assert code == 2
        assert report["results"] == {"series": STOPPED_SERIES}
        assert report["error"] == {"kind": "budget",
                                   "message": STOPPED_SERIES["error"]}


def test_budget_stop_before_the_first_entry_keeps_empty_results(tmp_path):
    # nothing finished is still a partial result: [] and {"tor1": []}, and
    # for fit and verify the series stopped before e_0
    path = write(tmp_path, QUARTIC)
    stopped = {"series": {
        "module": "M", "ideal": "I", "entries": [], "failed_n": 0,
        "error": "computation budget exceeded in buchberger pairs: "
                 "1 > limit 0"}}
    for command, results in ((["series"], []), (["tor"], {"tor1": []}),
                             (["fit"], stopped),
                             (["verify", "--closed-form", "known"], stopped)):
        report, code = run_command(
            command + [path, "--module", "M", "--ideal", "I", "--nmax", "2",
                       "--budget-pairs", "0"])
        assert code == 2
        assert report["results"] == results
        assert report["diagnostics"]["budget"] == {
            "stage": "buchberger pairs", "limit": 0, "count": 1}


def test_m_primary_check_is_the_e0_run(tmp_path, monkeypatch):
    # the check and e_0 of R/I read the ring's one colength of Q + I, and
    # a budget stop in the check is still a stop at n = 0
    runs = []
    run = hk.buchberger
    monkeypatch.setattr(hk, "buchberger",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))
    path = write(tmp_path, QUARTIC)
    args = [path, "--module", "M", "--ideal", "I"]
    report, code = run_command(["series"] + args + ["--nmax", "0"])
    assert code == 0 and len(runs) == 1
    report, code = run_command(["fit"] + args + ["--budget-pairs", "0"])
    assert code == 2 and len(runs) == 2
    assert report["results"]["series"]["failed_n"] == 0


@pytest.mark.parametrize("command", [["check", "--ideal", "m"], ["gb"],
                                     ["gb", "--ideal", "m"]])
def test_check_and_gb_runs_obey_the_pair_budget(command):
    # the runs of Q and of Q + I take the command's budget, not the ring's
    path = str(REPO / "problems/determinantal.hk")
    report, code = run_command(command[:1] + [path] + command[1:]
                               + ["--budget-pairs", "0"])
    assert code == 2
    assert report["error"] == {
        "kind": "budget",
        "message": "computation budget exceeded in buchberger pairs: "
                   "1 > limit 0"}
    assert report["diagnostics"]["budget"] == {
        "stage": "buchberger pairs", "limit": 0, "count": 1}
    assert report["results"] == {}


@pytest.mark.parametrize("flags, pairs, basis", [
    ([], 200_000, 50_000),
    (["--deep"], 5_000_000, 500_000),
    (["--budget-pairs", "7"], 7, 50_000),
    (["--deep", "--budget-pairs", "7"], 7, 500_000),
])
def test_make_budget(flags, pairs, basis):
    # --deep raises the basis cap with the pair cap; --budget-pairs sets
    # only the pairs, and the default keeps Budget's basis cap
    args = cli._build_parser().parse_args(["series", "x.hk"] + flags)
    assert cli._make_budget(args) == Budget(max_pairs=pairs,
                                            max_basis=basis)


def test_the_parser_is_built_once(tmp_path, monkeypatch):
    # built on the first command and kept: a command that fails to parse
    # leaves it usable for the next one
    builds = []
    build = cli._build_parser

    def counting():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counting)
    path = write(tmp_path, REGULAR)
    report, code = run_command(["series", path, "--bogus"])
    assert (code, report["error"]["kind"]) == (1, "usage")
    report, code = run_command(
        ["series", path, "--module", "M", "--ideal", "I", "--nmax", "1"])
    assert code == 0
    assert [e["e"] for e in report["results"]] == ["1", "9"]
    assert len(builds) == 1


@pytest.mark.slow
def test_determinantal_e5_fit_with_deep():
    # 7-10 s on a 2-core machine, most of it the Buchberger run
    # (colength about 1 s); the run needs 59783 basis elements, past the
    # default cap of 50000
    report, code = run_command(
        ["fit", str(REPO / "problems/determinantal.hk"), "--module", "R",
         "--ideal", "m", "--nmax", "5", "--deep"])
    assert code == 0
    assert report["results"]["series"]["entries"][5]["e"] == "5662429983"


def test_missing_file():
    report, code = run_command(["check", "/nonexistent/file.hk",
                                "--ideal", "I"])
    assert code == 1


def test_exit_exponent_overflow(tmp_path):
    # q = 3^30 blows the per-variable exponent cap: reported, exit 1
    path = write(tmp_path, REGULAR)
    report, code = run_command(
        ["series", path, "--module", "M", "--ideal", "I", "--nmax", "30"])
    assert code == 1
    assert report["error"]["kind"] == "overflow"


@pytest.mark.parametrize("command", [["series"], ["fit", "--rank", "1"],
                                     ["tor"]])
def test_exponent_overflow_stops_before_any_length(tmp_path, monkeypatch,
                                                   command):
    # every bracket power up to --nmax is formed after the m-primary check,
    # so q = 2^15 is reported before any of e_0..e_14 is computed
    runs = []
    run = hk.buchberger
    monkeypatch.setattr(hk, "buchberger",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))
    path = write(tmp_path, "ring p=2 vars=[x]\nideal I = [x]\n"
                           "module M = cyclic []\n")
    report, code = run_command(command[:1] + [
        path, "--module", "M", "--ideal", "I", "--nmax", "15"] + command[1:])
    assert code == 1
    assert report["results"] == {}
    assert report["error"] == {
        "kind": "overflow",
        "message": "q = 2^15 = 32768 exceeds the supported exponent bound"}
    assert len(runs) == 1            # the m-primary check's run of Q + I


@pytest.mark.parametrize("argv", [
    ["series", "problem.hk", "--nmax", "x"],
    ["series", "problem.hk", "--no-such-flag"],
    ["bogus", "problem.hk"],
    [],
] + [[command, "problem.hk", flag, "-1"] for command in sorted(cli._COMMANDS)
     for flag in ("--nmax", "--budget-pairs", "--d", "--rank")])
def test_exit_usage_error_is_a_report(argv):
    # a usage error is an input error (1), never the budget exit code (2);
    # a negative count is one for every command (--budget-pairs 0 is the
    # immediate stop)
    report, code = run_command(argv)
    assert code == 1
    assert report["error"]["kind"] == "usage"
    assert report["command"] == argv
    assert report["results"] == {}


def test_main_usage_error_prints_report(capsys):
    from hilbertkunz.cli import main
    code = main(["series", "problem.hk", "--nmax", "x"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["error"]["kind"] == "usage"
    assert "--nmax" in data["error"]["message"]


def test_help_still_exits_zero(capsys):
    from hilbertkunz.cli import main
    with pytest.raises(SystemExit) as info:
        main(["series", "--help"])
    assert info.value.code == 0
    assert "usage: hilbertkunz series" in capsys.readouterr().out


# -- report shape and determinism ------------------------------------------------------------

def test_report_shape_and_digest(tmp_path):
    path = write(tmp_path, QUARTIC)
    report, code = run_command(["check", path, "--ideal", "I"])
    assert code == 0
    assert report["version"]
    assert len(report["input"]["digest"]) == 64
    assert report["ring"]["p"] == 5
    assert isinstance(report["diagnostics"]["timing_ms"], int)
    # the echoed input re-parses to an equivalent problem
    echoed = parse_problem(report["input"]["text"])
    assert echoed.ring.p == 5
    assert set(echoed.ideals) == {"I"}


def test_report_determinism(tmp_path):
    path = write(tmp_path, QUARTIC)
    args = ["series", path, "--module", "M", "--ideal", "I", "--nmax", "1"]
    r1, c1 = run_command(list(args))
    r2, c2 = run_command(list(args))
    assert c1 == c2 == 0
    assert stripped(r1) == stripped(r2)
    # payloads serialize byte-identically
    assert json.dumps(stripped(r1), sort_keys=True) == \
        json.dumps(stripped(r2), sort_keys=True)


def test_json_output_file(tmp_path):
    path = write(tmp_path, REGULAR)
    out = tmp_path / "report.json"
    from hilbertkunz.cli import main
    code = main(["check", path, "--ideal", "I", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["results"]["m_primary"] is True


@pytest.mark.parametrize("equals", [True, False])
def test_json_output_file_other_spellings(tmp_path, capsys, equals):
    # argparse accepts --json=PATH and the abbreviation --js PATH too
    path = write(tmp_path, REGULAR)
    out = tmp_path / "report.json"
    from hilbertkunz.cli import main
    flag = ["--json=" + str(out)] if equals else ["--js", str(out)]
    code = main(["check", path, "--ideal", "I"] + flag)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["results"]["m_primary"] is True
    assert capsys.readouterr().out == ""


def test_big_integers_rendered_as_strings(tmp_path):
    path = write(tmp_path, REGULAR)
    report, _ = run_command(
        ["series", path, "--module", "M", "--ideal", "I", "--nmax", "2"])
    for entry in report["results"]:
        assert isinstance(entry["e"], str)


def test_shipped_problem_files_parse():
    for name in ("problems/quartic.hk", "problems/determinantal.hk"):
        problem = parse_problem((REPO / name).read_text(encoding="utf-8"))
        assert problem.ring.p in (3, 5)
