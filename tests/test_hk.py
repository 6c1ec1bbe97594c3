"""Bracket powers, e_n values, delta_n, Tor lengths and series."""

import math
import warnings

import pytest

from hilbertkunz import (Budget, BudgetExceededError, FreeModuleElement,
                         IdealHandle, InfiniteColengthError,
                         ModulePresentation, NonHomogeneousInputWarning,
                         RingPresentation, bracket_power, buchberger,
                         check_m_primary, colength, delta_n, en_cyclic,
                         en_module, module_dimension, module_rank, series,
                         tor1_length)
from hilbertkunz import ParseError, PolyRing, RingMismatchError

from oracles import box_staircase_count, module_dense_colength
from hilbertkunz import syzygies


def regular_ring(p, d):
    return RingPresentation(p, [f"x{i}" for i in range(1, d + 1)])


def quartic_ring():
    return RingPresentation(5, ["x1", "x2", "x3", "x4"],
                            ["x1^4 + x2^4 + x3^4 + x4^4"])


def determinantal_ring():
    return RingPresentation(3, ["x1", "x2", "x3", "x4", "x5", "x6"],
                            ["x1*x5 - x2*x4", "x1*x6 - x3*x4",
                             "x2*x6 - x3*x5"])


def maximal_ideal(ring):
    return IdealHandle(ring, list(ring.vars))


# -- bracket powers ------------------------------------------------------------

def test_bracket_power_squares():
    ring = regular_ring(2, 2)
    I = IdealHandle(ring, ["x1", "x2"])
    bp = bracket_power(I, 1)
    assert bp.q == 2
    assert [str(g) for g in bp.gens] == ["x1^2", "x2^2"]


def test_bracket_power_quartic_vars():
    ring = quartic_ring()
    bp = bracket_power(maximal_ideal(ring), 1)
    assert [str(g) for g in bp.gens] == ["x1^5", "x2^5", "x3^5", "x4^5"]


def test_bracket_power_nontrivial_generators():
    # (x+y, y)^[2] = (x^2+y^2, y^2) equals (x^2, y^2): mutual membership
    ring = regular_ring(2, 2)
    R = ring.ring
    I = IdealHandle(ring, ["x1 + x2", "x2"])
    bp = bracket_power(I, 1)
    gb = buchberger(list(bp.gens), ring=R)
    ref = buchberger([R.parse("x1^2"), R.parse("x2^2")], ring=R)
    for g in bp.gens:
        assert ref.contains(g)
    for g in ref.elements:
        assert gb.contains(g.component(0))


def test_bracket_power_zero_reproduces_ideal():
    ring = quartic_ring()
    I = IdealHandle(ring, ["x1 + x2", "x3"])
    bp = bracket_power(I, 0)
    assert bp.q == 1
    gb = buchberger(list(bp.gens), ring=ring.ring)
    for g in I.gens:
        assert gb.contains(g)
    gb2 = buchberger(list(I.gens), ring=ring.ring)
    for g in bp.gens:
        assert gb2.contains(g)


def test_bracket_power_negative_n():
    ring = regular_ring(2, 2)
    with pytest.raises(ValueError):
        bracket_power(maximal_ideal(ring), -1)


# -- m-primary checks -----------------------------------------------------------

def test_m_primary_maximal_ideal():
    for ring in (regular_ring(3, 2), quartic_ring(), determinantal_ring()):
        assert check_m_primary(maximal_ideal(ring))


def test_not_m_primary():
    ring = regular_ring(5, 2)
    assert not check_m_primary(IdealHandle(ring, ["x1"]))


def test_long_integer_in_a_generator_is_a_parse_error():
    ring = determinantal_ring()
    with pytest.raises(ParseError) as err:
        IdealHandle(ring, ["7" * 5000 + "*x1"])
    assert err.value.message == "integer has too many digits"
    assert err.value.col == 1


def test_en_raises_on_non_primary():
    ring = regular_ring(5, 2)
    I = IdealHandle(ring, ["x1"])
    with pytest.raises(InfiniteColengthError):
        en_cyclic(ring, (), I, 1)


# -- e_n for cyclic modules --------------------------------------------------------

def test_regular_ring_powers():
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            ring = regular_ring(p, d)
            I = maximal_ideal(ring)
            for n in range(3):
                assert en_cyclic(ring, (), I, n) == p ** (n * d)


def test_quartic_small():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    assert en_cyclic(ring, (), I, 0) == 1
    assert en_cyclic(ring, (), I, 1) == 339


def test_determinantal_small():
    ring = determinantal_ring()
    I = maximal_ideal(ring)
    assert [en_cyclic(ring, (), I, n) for n in range(3)] == [1, 123, 10467]
    assert ring.dimension == 4


def test_monomial_ideal_en_matches_box_count():
    # for monomial I the bracket power is monomial: staircase combinatorics
    ring = regular_ring(3, 2)
    I = IdealHandle(ring, ["x1", "x2^2"])
    for n in range(3):
        q = 3 ** n
        expected = box_staircase_count([(q, 0), (0, 2 * q)], [q, 2 * q])
        assert en_cyclic(ring, (), I, n) == expected == 2 * q * q


# -- e_n for general modules ---------------------------------------------------------

def test_coker_without_relations_equals_cyclic():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    M = ModulePresentation.coker(ring, 1, [])
    for n in range(2):
        assert en_module(ring, M, I, n) == en_cyclic(ring, (), I, n)


def test_cyclic_equals_rank_one_coker():
    # cyclic(J) is coker(1, J): every invariant agrees on the two shapes
    for ring, J in ((quartic_ring(), ["x1^2", "x2"]),
                    (quartic_ring(), ["x1^4 + x2^4 + x3^4 + x4^4"]),
                    (regular_ring(3, 2), ["x1^2", "x1*x2"])):
        I = maximal_ideal(ring)
        cyc = ModulePresentation.cyclic(ring, J)
        cok = ModulePresentation.coker(ring, 1, [[j] for j in J])
        for n in range(2):
            assert en_module(ring, cyc, I, n) == en_module(ring, cok, I, n)
        assert module_rank(ring, cyc) == module_rank(ring, cok)
        assert module_dimension(ring, cyc) == module_dimension(ring, cok)


def _syzygy_columns(ring, gens):
    """Syzygies over R = P/Q of gens, cut from the syzygies over P of
    gens followed by the generators of Q."""
    polys = [ring.parse(g) for g in gens]
    m = len(polys)
    cols = []
    for v in syzygies(polys + list(ring.quotient)):
        comps = v.components()[:m]
        if any(not c.is_zero() for c in comps):
            cols.append(FreeModuleElement.from_components(ring.ring, comps))
    return cols


def test_ideal_as_module_equals_syzygy_coker():
    # an ideal with m generators is coker(m, syzygies of the generators)
    for ring, J in ((quartic_ring(), ["x1", "x2"]),
                    (regular_ring(2, 2), ["x1^2", "x1*x2", "x2^2"]),
                    (determinantal_ring(), ["x1", "x4"])):
        I = maximal_ideal(ring)
        ideal = ModulePresentation.ideal_as_module(ring, J)
        cok = ModulePresentation.coker(ring, len(J),
                                       _syzygy_columns(ring, J))
        for n in range(2):
            assert en_module(ring, ideal, I, n) == en_module(ring, cok, I, n)
        assert module_dimension(ring, ideal) == module_dimension(ring, cok)


def test_direct_sum_additivity():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    MM = ModulePresentation.coker(ring, 2, [])
    for n in range(2):
        assert en_module(ring, MM, I, n) == 2 * en_cyclic(ring, (), I, n)


def test_block_diagonal_additivity():
    ring = regular_ring(3, 2)
    I = maximal_ideal(ring)
    A = ModulePresentation.coker(ring, 1, [["x1"]])
    B = ModulePresentation.coker(ring, 1, [["x2^2"]])
    AB = ModulePresentation.coker(ring, 2, [["x1", "0"], ["0", "x2^2"]])
    for n in range(3):
        assert en_module(ring, AB, I, n) == \
            en_module(ring, A, I, n) + en_module(ring, B, I, n)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_presentation_invariance():
    ring = regular_ring(5, 2)
    I = maximal_ideal(ring)
    R = ring.ring
    base = ModulePresentation.coker(ring, 2, [["x1", "x2"], ["x2^2", "0"]])
    # redundant column: x2 * first column
    redundant = ModulePresentation.coker(
        ring, 2, [["x1", "x2"], ["x2^2", "0"], ["x1*x2", "x2^2"]])
    # invertible scalar row and column operations
    transformed = ModulePresentation.coker(
        ring, 2, [["x1 + 2*x2^2", "x2"], ["3*x2^2", "0"],
                  ["2*x1 + 4*x2^2 + x2^2", "2*x2"]])
    for n in range(3):
        e = en_module(ring, base, I, n)
        assert en_module(ring, redundant, I, n) == e
        assert en_module(ring, transformed, I, n) == e


def test_ideal_as_module_hand_example():
    # J = (x, y) in F_2[x, y]: e_n(J) = q^2 + 1, cross-checked densely
    ring = regular_ring(2, 2)
    R = ring.ring
    I = maximal_ideal(ring)
    J = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    for n in range(3):
        q = 2 ** n
        got = en_module(ring, J, I, n)
        vectors = [FreeModuleElement.from_components(
            R, [R.parse("x2"), R.parse("-x1")])]
        for pos in range(2):
            for v in range(1, 3):
                vectors.append(FreeModuleElement.basis_vector(
                    R, 2, pos, R.parse(f"x{v}^{q}")))
        oracle = module_dense_colength(vectors, 2, [q, q])
        assert got == oracle == q * q + 1


def test_ideal_as_module_principal():
    # a principal ideal on a domain is free of rank one
    ring = quartic_ring()
    I = maximal_ideal(ring)
    J = ModulePresentation.ideal_as_module(ring, ["x1"])
    for n in range(2):
        assert en_module(ring, J, I, n) == en_cyclic(ring, (), I, n)


def test_ideal_as_module_tolerates_zero_generator():
    # a zero generator adds a dead position, not length
    ring = quartic_ring()
    I = maximal_ideal(ring)
    J = ModulePresentation.ideal_as_module(ring, ["x1", "0"])
    assert en_module(ring, J, I, 1) == en_cyclic(ring, (), I, 1)


def test_zero_module_en():
    ring = regular_ring(3, 2)
    I = maximal_ideal(ring)
    Z = ModulePresentation.ideal_as_module(ring, [])
    assert en_module(ring, Z, I, 1) == 0
    Z2 = ModulePresentation.coker(ring, 1, [["1"]])
    assert en_module(ring, Z2, I, 1) == 0
    Z0 = ModulePresentation.coker(ring, 0, [])
    assert en_module(ring, Z0, I, 1) == 0


def test_coker_rejects_a_negative_rank():
    # R^-2 is no module: it used to give e_1 = 0 and rank -2
    with pytest.raises(ValueError):
        ModulePresentation.coker(regular_ring(3, 2), -2, [])
    with pytest.raises(ValueError):
        ModulePresentation("coker", ambient_rank=-2)


def test_e0_is_length_mod_ideal():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    M = ModulePresentation.cyclic(ring, ["x1^2"])
    got = en_module(ring, M, I, 0)
    gb = buchberger(list(ring.quotient) + [ring.parse("x1^2")] +
                    [ring.parse(v) for v in ring.vars], ring=ring.ring)
    assert got == colength(gb) == 1


# -- ranks ----------------------------------------------------------------------------

def test_module_ranks():
    ring = quartic_ring()
    assert module_rank(ring, ModulePresentation.cyclic(ring, [])) == 1
    assert module_rank(ring, ModulePresentation.cyclic(ring, ["x1"])) == 0
    # the defining equation is zero in R, so R/(Q) = R has rank 1
    assert module_rank(ring, ModulePresentation.cyclic(
        ring, ["x1^4 + x2^4 + x3^4 + x4^4"])) == 1
    assert module_rank(ring, ModulePresentation.coker(ring, 2, [])) == 2
    assert module_rank(ring, ModulePresentation.coker(ring, 1, [["x1"]])) == 0
    assert module_rank(ring, ModulePresentation.ideal_as_module(
        ring, ["x1", "x2"])) == 1
    assert module_rank(ring, ModulePresentation.ideal_as_module(ring, [])) == 0
    # a known rank is passed to delta_n, which then computes none
    free = ModulePresentation.coker(ring, 2, [])
    assert delta_n(ring, free, maximal_ideal(ring), 1, rank=2) == 0


def test_ideal_rank_uses_the_generator_row():
    # the 1 x 6 generator row needs at most six 1 x 1 minors; presenting
    # the ideal through its 22 syzygy columns would exceed this budget
    ring = determinantal_ring()
    ring.budget = Budget(max_minors=6)
    J = ModulePresentation.ideal_as_module(ring, list(ring.vars))
    assert module_rank(ring, J) == 1


# -- delta_n ------------------------------------------------------------------------

def test_delta_of_ring_vanishes():
    for ring in (regular_ring(2, 2), regular_ring(5, 3), quartic_ring()):
        I = maximal_ideal(ring)
        M = ModulePresentation.cyclic(ring, [])
        for n in range(2):
            assert delta_n(ring, M, I, n) == 0


def test_delta_additivity_on_blocks():
    ring = regular_ring(2, 2)
    I = maximal_ideal(ring)
    # J = (x, y) as a module has rank 1 and delta_n = 1
    J = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    for n in range(3):
        assert delta_n(ring, J, I, n) == 1
    # R + R with rank 2 gives zero
    MM = ModulePresentation.coker(ring, 2, [])
    assert delta_n(ring, MM, I, 1) == 0


def test_delta_principal_ideal():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    J = ModulePresentation.ideal_as_module(ring, ["x1"])
    for n in range(2):
        assert delta_n(ring, J, I, n) == 0


# -- Tor lengths ----------------------------------------------------------------------

def test_tor_zero_module():
    ring = regular_ring(2, 2)
    I = maximal_ideal(ring)
    T = ModulePresentation.coker(ring, 1, [["1"]])
    for n in range(4):
        assert tor1_length(ring, T, I, n) == 0


def test_tor_free_module():
    ring = regular_ring(2, 2)
    I = maximal_ideal(ring)
    for s in (1, 2):
        T = ModulePresentation.coker(ring, s, [])
        for n in range(4):
            assert tor1_length(ring, T, I, n) == 0


def test_tor_hyperplane_exact():
    # T = R/(x) over F_2[x, y]: Tor_1(R/I_n, T) = (I_n : x)/I_n has length q
    ring = regular_ring(2, 2)
    I = maximal_ideal(ring)
    T = ModulePresentation.coker(ring, 1, [["x1"]])
    for n in range(5):
        assert tor1_length(ring, T, I, n) == 2 ** n


def test_tor_direct_sum_additivity():
    # Tor_1 is additive over direct sums: R/(x1) + R/(x2) against its parts
    ring = regular_ring(3, 2)
    I = maximal_ideal(ring)
    A = ModulePresentation.coker(ring, 1, [["x1"]])
    B = ModulePresentation.coker(ring, 1, [["x2"]])
    AB = ModulePresentation.coker(ring, 2, [["x1", "0"], ["0", "x2"]])
    for n in range(4):
        parts = tor1_length(ring, A, I, n) + tor1_length(ring, B, I, n)
        assert tor1_length(ring, AB, I, n) == parts == 2 * 3 ** n


def test_tor_accepts_every_module_kind():
    # each kind goes through its cokernel presentation: R/(x1) is
    # coker(1, [[x1]]), and Tor_1(m, R/m^[q]) = Tor_2(k, R/m^[q]) is the
    # one-dimensional socle of R/m^[q] (Koszul complex on x1, x2)
    ring = regular_ring(3, 2)
    I = maximal_ideal(ring)
    cyclic = ModulePresentation.cyclic(ring, ["x1"])
    coker = ModulePresentation.coker(ring, 1, [["x1"]])
    ideal = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    for n in range(4):
        assert tor1_length(ring, cyclic, I, n) == \
            tor1_length(ring, coker, I, n) == 3 ** n
        assert tor1_length(ring, ideal, I, n) == 1


def test_polynomials_from_another_ring_are_rejected():
    # these were repacked into R's ring: en_cyclic of 6x^2 + y^3 from
    # F_7[x,y] gave 10 over F_5[x,y], and a^2 from F_5[a,b,c] gave 25
    ring = RingPresentation(5, ["x", "y"])
    I = maximal_ideal(ring)
    for f in (PolyRing(7, ["x", "y"]).parse("6*x^2 + y^3"),
              PolyRing(5, ["a", "b", "c"]).parse("a^2")):
        with pytest.raises(RingMismatchError):
            en_cyclic(ring, [f], I, 1)
        with pytest.raises(RingMismatchError):
            IdealHandle(ring, [f])
        with pytest.raises(RingMismatchError):
            ModulePresentation.cyclic(ring, [f])
        column = FreeModuleElement.from_components(f.ring, [f])
        with pytest.raises(RingMismatchError):
            ModulePresentation.coker(ring, 1, [column])
    # an equal ring built separately is the same ring
    same = PolyRing(5, ["x", "y"])
    f = same.parse("x^2")
    assert en_cyclic(ring, [f], I, 1) == en_cyclic(ring, ["x^2"], I, 1) == 10
    column = FreeModuleElement.from_components(same, [f])
    assert en_module(ring, ModulePresentation.coker(ring, 1, [column]),
                     I, 1) == 10


def test_tor_growth_on_quartic_hypersurface_section():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    T = ModulePresentation.coker(ring, 1, [["x1"]])
    md = module_dimension(ring, T)
    assert md.dimension == 2 and not md.is_zero_module
    values = [tor1_length(ring, T, I, n) for n in range(1, 3)]
    exponent = math.log(values[1] / values[0], ring.p)
    assert exponent <= md.dimension + 0.25


def test_tor_growth_on_determinantal_section():
    ring = determinantal_ring()
    I = maximal_ideal(ring)
    T = ModulePresentation.coker(ring, 1, [["x1"]])
    md = module_dimension(ring, T)
    assert md.dimension == 3 and not md.is_zero_module
    assert module_rank(ring, T) == 0        # torsion over the domain
    values = [tor1_length(ring, T, I, n) for n in range(1, 3)]
    exponent = math.log(values[1] / values[0], ring.p)
    assert exponent <= md.dimension + 0.25


# -- module dimensions ------------------------------------------------------------------

def test_module_dimension_free():
    ring = quartic_ring()
    free = ModulePresentation.coker(ring, 2, [])
    md = module_dimension(ring, free)
    assert md.dimension == ring.dimension == 3
    assert not md.is_zero_module


def test_module_dimension_hypersurface_section():
    ring = quartic_ring()
    T = ModulePresentation.cyclic(ring, ["x1"])
    assert module_dimension(ring, T).dimension == 2


def test_module_dimension_zero_module():
    ring = quartic_ring()
    Z = ModulePresentation.coker(ring, 2, [["1", "0"], ["0", "1"]])
    md = module_dimension(ring, Z)
    assert md.dimension == 0 and md.is_zero_module


def test_module_dimension_ideal_as_module():
    ring = quartic_ring()
    J = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    md = module_dimension(ring, J)
    assert md.dimension == 3 and not md.is_zero_module
    Z = ModulePresentation.ideal_as_module(ring, [])
    assert module_dimension(ring, Z).is_zero_module


def test_module_dimension_of_the_maximal_ideal_as_module():
    # six generators: a presentation of 6 rows and 22 syzygy columns
    ring = determinantal_ring()
    m = ModulePresentation.ideal_as_module(ring, list(ring.vars))
    md = module_dimension(ring, m)
    assert md.dimension == 4 and not md.is_zero_module


# -- series ------------------------------------------------------------------------------

def test_series_regular():
    ring = regular_ring(3, 2)
    I = maximal_ideal(ring)
    M = ModulePresentation.cyclic(ring, [])
    s = series(ring, M, I, 3)
    assert s.entries == ((0, 1, 1), (1, 3, 9), (2, 9, 81), (3, 27, 729))
    assert s.error is None
    assert all(e >= 0 for e in s.values())


def test_series_partial_on_budget():
    ring = quartic_ring()
    I = maximal_ideal(ring)
    M = ModulePresentation.cyclic(ring, [])
    ring.budget = Budget(max_pairs=20)
    s = series(ring, M, I, 2)
    assert s.error is not None
    assert s.failed_n is not None
    assert len(s.entries) == s.failed_n


def test_ring_budget_stops_every_entry_point():
    # the ring's budget governs every run over it, the runs for Q and
    # Q + I included: each entry point stops at its first pair
    ring = determinantal_ring()
    ring.budget = Budget(max_pairs=0)
    I = maximal_ideal(ring)
    R = ModulePresentation.cyclic(ring, [])
    J = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    for call in (lambda: module_rank(ring, J),
                 lambda: module_dimension(ring, R),
                 lambda: delta_n(ring, R, I, 1),
                 lambda: tor1_length(ring, R, I, 1),
                 lambda: check_m_primary(I)):
        with pytest.raises(BudgetExceededError):
            call()
    s = series(ring, R, I, 2)
    assert s.entries == ()
    assert s.failed_n == 0


@pytest.mark.slow
def test_quartic_e4():
    # 7-10 s on a 2-core machine: 5284 Buchberger pairs, a final
    # basis of 1727 elements
    ring = quartic_ring()
    assert en_cyclic(ring, (), maximal_ideal(ring), 4) == 672387153


def test_determinantal_e4():
    # 0.4-0.9 s on a 2-core machine: Buchberger 0.3-0.6 s, and the
    # 6809 minimal leads are counted in 0.06-0.15 s
    ring = determinantal_ring()
    assert en_cyclic(ring, (), maximal_ideal(ring), 4) == 69817221


def test_ring_dimension_cache_consistency():
    ring = determinantal_ring()
    d1 = ring.dimension
    fresh = determinantal_ring()
    assert d1 == fresh.dimension == 4


# -- warnings ------------------------------------------------------------------------------

def test_non_homogeneous_warning():
    with pytest.warns(NonHomogeneousInputWarning):
        RingPresentation(5, ["x", "y"], ["x^2 + y"])
    ring = regular_ring(5, 2)
    with pytest.warns(NonHomogeneousInputWarning):
        IdealHandle(ring, ["x1 + 1", "x2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        IdealHandle(ring, ["x1", "x2"])     # homogeneous: no warning
