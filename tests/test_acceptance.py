"""Acceptance gate: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
and timings.  Expensive series are computed once in module-scoped
fixtures and shared; the stated runtime targets are asserted directly.
"""

import functools
import math
import random
import time
from fractions import Fraction

import pytest

from hilbertkunz import (DEGLEX, GREVLEX, LEX, IdealHandle,
                         ModulePresentation, PolyRing, RingPresentation,
                         bracket_power, buchberger, colength, delta_n,
                         en_cyclic, en_module, fit_two_point, gamma_estimate,
                         module_dimension, parse_closed_form, residual_bound,
                         tau_from_recurrence, tor1_length,
                         verify_closed_form)

from oracles import (box_staircase_count, dense_colength,
                     random_artinian_ideal, random_monomial_ideal)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {desc}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {num}: PASS - {desc} [{elapsed:.2f}s]")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def quartic():
    ring = RingPresentation(5, ["x1", "x2", "x3", "x4"],
                            ["x1^4 + x2^4 + x3^4 + x4^4"])
    ideal = IdealHandle(ring, ["x1", "x2", "x3", "x4"])
    module = ModulePresentation.cyclic(ring, [])
    return ring, ideal, module


@pytest.fixture(scope="module")
def quartic_series(quartic):
    ring, ideal, module = quartic
    timings = {}
    values = []
    for n in range(3):
        t0 = time.perf_counter()
        values.append(en_module(ring, module, ideal, n))
        timings[n] = time.perf_counter() - t0
    return values, timings


@pytest.fixture(scope="module")
def determinantal():
    ring = RingPresentation(3, ["x1", "x2", "x3", "x4", "x5", "x6"],
                            ["x1*x5 - x2*x4", "x1*x6 - x3*x4",
                             "x2*x6 - x3*x5"])
    ideal = IdealHandle(ring, ["x1", "x2", "x3", "x4", "x5", "x6"])
    module = ModulePresentation.cyclic(ring, [])
    return ring, ideal, module


@pytest.fixture(scope="module")
def determinantal_series(determinantal):
    ring, ideal, module = determinantal
    timings = {}
    values = []
    for n in range(4):
        t0 = time.perf_counter()
        values.append(en_module(ring, module, ideal, n))
        timings[n] = time.perf_counter() - t0
    return values, timings


@criterion(1, "diagonal quartic: e_0..e_2 = 1, 339, 43017 exactly, "
              "closed form verified, runtime targets met")
def test_criterion_1_quartic(quartic_series):
    values, timings = quartic_series
    assert values == [1, 339, 43017]
    cf = parse_closed_form("168/61 * 125^n - 107/61 * 3^n")
    entries = [(n, 5 ** n, v) for n, v in enumerate(values)]
    report = verify_closed_form(entries, cf)
    assert report.all_pass
    assert all(c.predicted == c.value for c in report.checks)
    assert timings[0] + timings[1] < 1.0
    assert timings[2] < 60.0


@criterion(2, "determinantal ring p=3: e_0..e_3 = 1, 123, 10467, 858573 "
              "exactly, runtime targets met")
def test_criterion_2_determinantal(determinantal_series):
    values, timings = determinantal_series
    assert values == [1, 123, 10467, 858573]
    cf = parse_closed_form("13/8 * 81^n - 2/8 * 27^n - 1/8 * 9^n - 2/8 * 3^n")
    entries = [(n, 3 ** n, v) for n, v in enumerate(values)]
    assert verify_closed_form(entries, cf).all_pass
    assert timings[0] + timings[1] + timings[2] < 10.0
    assert timings[3] < 900.0


@criterion(3, "beta extraction: fit at q in {9,27} gives beta within 1e-4 "
              "of -199/729, and C_min = 5/24 exactly")
def test_criterion_3_beta(determinantal_series):
    values, _ = determinantal_series
    entries = [(n, 3 ** n, v) for n, v in enumerate(values)]
    fit = fit_two_point(entries, 4, n_lo=2, n_hi=3)
    exact = Fraction(-199, 729)
    assert fit.beta == exact
    assert abs(fit.beta_hat - (-0.27298)) <= 1e-4
    assert abs(fit.beta_hat - float(exact)) <= 1e-4
    cmin = residual_bound(entries, Fraction(13, 8), Fraction(-1, 4), 4)
    assert cmin == Fraction(5, 24)


@criterion(4, "tau consistency: recurrence at n=2 gives 10746/729 exactly "
              "and the per-n sequence moves monotonically toward 13.5")
def test_criterion_4_tau(determinantal_series):
    values, _ = determinantal_series
    entries = [(n, 3 ** n, v) for n, v in enumerate(values)]
    est = tau_from_recurrence(entries, 4, 3, n=2)
    assert est.tau == Fraction(10746, 729)
    assert abs(est.tau_hat - 14.7407407407) < 1e-9
    target = Fraction(27, 2)           # (p^4 - p^3)/4 = 13.5 at p = 3
    dists = [abs(v - target) for _, v in est.sequence]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    # the implied beta agrees with the theorem's conversion
    assert est.beta_implied == est.tau / (3 ** 3 - 3 ** 4)


@criterion(5, "regular rings: e_n = q^d for d in {1,2,3}, p in {2,3,5}, "
              "n <= 3, and delta_n(R) = 0 on every test ring")
def test_criterion_5_regular(quartic, determinantal):
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            ring = RingPresentation(p, [f"x{i}" for i in range(1, d + 1)])
            ideal = IdealHandle(ring, list(ring.vars))
            module = ModulePresentation.cyclic(ring, [])
            for n in range(4):
                assert en_cyclic(ring, (), ideal, n) == p ** (n * d)
                assert delta_n(ring, module, ideal, n) == 0
    for ring, ideal, module in (quartic, determinantal):
        for n in range(2):
            assert delta_n(ring, module, ideal, n) == 0


@criterion(6, "oracle equivalence: 25 random ideals vs dense linear "
              "algebra, 25 random monomial ideals vs box enumeration, "
              "colength invariant across grevlex/lex/deglex")
def test_criterion_6_oracles():
    rng = random.Random(20260808)
    nontrivial = 0
    for _ in range(25):
        R, gens, bounds = random_artinian_ideal(rng)
        per_order = {order.name: colength(buchberger(gens, order))
                     for order in (GREVLEX, LEX, DEGLEX)}
        assert len(set(per_order.values())) == 1, per_order
        got = per_order["grevlex"]
        assert got <= 200
        assert got == dense_colength(gens, bounds)
        nontrivial += got > 1
    assert nontrivial >= 20       # the sample must exercise real staircases
    for _ in range(25):
        R, exps, bounds = random_monomial_ideal(rng)
        gens = [R.monomial(e) for e in exps]
        expected = box_staircase_count(exps, bounds)
        per_order = {order.name: colength(buchberger(gens, order))
                     for order in (GREVLEX, LEX, DEGLEX)}
        assert set(per_order.values()) == {expected}, per_order


@criterion(7, "Tor suite: zero on free modules, exactly q for R/(x) in "
              "F_2[x,y] with gamma_hat = 1, growth exponent within the "
              "torsion bound over the quartic ring")
def test_criterion_7_tor(quartic):
    flat = RingPresentation(2, ["x", "y"])
    ideal = IdealHandle(flat, ["x", "y"])
    for s in (1, 2):
        free = ModulePresentation.coker(flat, s, [])
        for n in range(4):
            assert tor1_length(flat, free, ideal, n) == 0
    hyper = ModulePresentation.coker(flat, 1, [["x"]])
    tor_entries = []
    for n in range(5):
        value = tor1_length(flat, hyper, ideal, n)
        assert value == 2 ** n
        tor_entries.append((n, 2 ** n, value))
    gamma = gamma_estimate(tor_entries, 2)
    assert gamma.gamma_last == 1
    assert all(v == 1 for _, v in gamma.sequence)

    ring, ideal_q, _ = quartic
    section = ModulePresentation.coker(ring, 1, [["x1"]])
    ell = module_dimension(ring, section).dimension
    assert ell == 2
    t1 = tor1_length(ring, section, ideal_q, 1)
    t2 = tor1_length(ring, section, ideal_q, 2)
    exponent = math.log(t2 / t1, ring.p)
    assert exponent <= ell + 0.25


@criterion(8, "property suites: direct-sum additivity, presentation "
              "invariance, bracket_power(I,0) = I, parse/print round "
              "trips, S-pair re-verification")
def test_criterion_8_properties(quartic):
    rng = random.Random(4242)

    # e_n additivity under direct sums, n <= 2
    ring = RingPresentation(3, ["x", "y"])
    ideal = IdealHandle(ring, ["x", "y"])
    A = ModulePresentation.coker(ring, 1, [["x"]])
    B = ModulePresentation.coker(ring, 1, [["y^2"]])
    AB = ModulePresentation.coker(ring, 2, [["x", "0"], ["0", "y^2"]])
    for n in range(3):
        assert en_module(ring, AB, ideal, n) == \
            en_module(ring, A, ideal, n) + en_module(ring, B, ideal, n)
    q_ring, q_ideal, _ = quartic
    RR = ModulePresentation.coker(q_ring, 2, [])
    for n in range(2):
        assert en_module(q_ring, RR, q_ideal, n) == \
            2 * en_cyclic(q_ring, (), q_ideal, n)

    # presentation invariance: redundant generators and scalar operations
    base = ModulePresentation.coker(ring, 2, [["x", "y"], ["y^2", "0"]])
    redundant = ModulePresentation.coker(
        ring, 2, [["x", "y"], ["y^2", "0"], ["x*y", "y^2"]])
    swapped = ModulePresentation.coker(ring, 2, [["y^2", "0"], ["x", "y"]])
    scaled = ModulePresentation.coker(ring, 2, [["2*x", "2*y"], ["y^2", "0"]])
    for n in range(3):
        e = en_module(ring, base, ideal, n)
        for other in (redundant, swapped, scaled):
            assert en_module(ring, other, ideal, n) == e

    # bracket_power(I, 0) reproduces I by mutual membership
    for gens in (["x", "y"], ["x + y", "y^2"], ["x^2 + x*y", "y"]):
        handle = IdealHandle(ring, gens)
        bp = bracket_power(handle, 0)
        forward = buchberger(list(handle.gens), ring=ring.ring)
        backward = buchberger(list(bp.gens), ring=ring.ring)
        assert all(forward.contains(g) for g in bp.gens)
        assert all(backward.contains(g) for g in handle.gens)

    # parse/print round trips on random canonical polynomials
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        nv = rng.choice([1, 2, 3])
        R = PolyRing(p, ["x", "y", "z"][:nv])
        items = []
        for _ in range(rng.randint(0, 5)):
            exps = tuple(rng.randint(0, 6) for _ in range(nv))
            items.append((exps, rng.randint(1, p - 1)))
        f = R.from_terms(items)
        assert R.parse(str(f)) == f

    # Buchberger S-pair re-verification on representative bases
    q_gb = buchberger(list(q_ring.quotient) +
                      [g for g in bracket_power(q_ideal, 1).gens],
                      ring=q_ring.ring)
    assert q_gb.verify()
    R5 = PolyRing(5, ["x", "y", "z"])
    gb2 = buchberger([R5.parse("x^2 - y*z"), R5.parse("y^2 - x*z"),
                      R5.parse("z^2 - x*y")])
    assert gb2.verify()
    mod_gb = buchberger(
        [g for g in (bracket_power(IdealHandle(ring, ["x", "y"]), 1).gens)],
        ring=ring.ring)
    assert mod_gb.verify()

    # the paper-style asymptotic statements are non-effective at desk
    # scale; these exact property suites together with the closed-form
    # checks above stand in for them
