"""Bracket powers, e_n values, delta_n, Tor lengths and series."""

import math
import os
import random
import signal
import threading
import time
import warnings

import pytest

from hilbertkunz import (INFINITE, Budget, BudgetExceededError,
                         FreeModuleElement, IdealHandle, InfiniteColengthError,
                         ModulePresentation, NonHomogeneousInputWarning,
                         RingPresentation, bracket_power, buchberger,
                         check_m_primary, colength, delta_n, en_cyclic,
                         en_module, module_dimension, module_rank, series,
                         tor1_length)
from hilbertkunz import ParseError, PolyRing, RingMismatchError, hk

from oracles import (box_staircase_count, minors_rank, module_dense_colength,
                     segre_lattice_en)
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


def test_m_primary_check_and_e0_share_one_run(monkeypatch):
    # both ask the ring for the colength of Q + I
    runs = []
    run = hk.buchberger
    monkeypatch.setattr(hk, "buchberger",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))
    ring = quartic_ring()
    I = maximal_ideal(ring)
    assert check_m_primary(I)
    assert en_cyclic(ring, (), I, 0) == 1
    assert len(runs) == 1


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


def test_module_kinds_need_their_own_fields():
    # gens are read off the one presentation, so a kind given gens
    # alone, which used to keep them beside an empty presentation and
    # count e_1 = 9 over F_3[x, y], is rejected
    ring = RingPresentation(3, ["x", "y"])
    with pytest.raises(TypeError):
        ModulePresentation("idealmod", gens=["x", "y"])
    with pytest.raises(TypeError):
        ModulePresentation("cyclic", gens=["x"])
    for kind, fields in (("idealmod", {}), ("image", {}),
                         ("coker", {"image": ()}),
                         ("idealmod", {"image": (), "columns": [1]})):
        with pytest.raises(ValueError):
            ModulePresentation(kind, **fields)
    I = IdealHandle(ring, ["x", "y"])
    J = ModulePresentation.ideal_as_module(ring, ["x", "y"])
    T = ModulePresentation.cyclic(ring, ["x"])
    assert [str(g) for g in J.gens] == ["x", "y"]
    assert [str(g) for g in T.gens] == ["x"]
    assert (en_module(ring, J, I, 1), en_module(ring, T, I, 1)) == (10, 3)


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


def test_ideal_rank_uses_the_generator_row(monkeypatch):
    # an ideal's rank is 1 minus that of coker(1, its generators): its 22
    # syzygy columns are never computed
    def no_syzygies(*args, **kwargs):
        raise AssertionError("module_rank computed syzygies")

    monkeypatch.setattr(hk, "syzygies", no_syzygies)
    ring = determinantal_ring()
    J = ModulePresentation.ideal_as_module(ring, list(ring.vars))
    assert module_rank(ring, J) == 1


def test_rank_of_a_non_prime_quotient_raises():
    # k[x, y]/(x*y) is no domain: R/(x) has multiplicity 1 of its 2
    ring = RingPresentation(5, ["x", "y"], ["x*y"])
    with pytest.raises(ValueError):
        module_rank(ring, ModulePresentation.cyclic(ring, ["x"]))


def _random_matrix(rng, ring, drops):
    """A matrix of up to 3 x 3 sparse entries of degree <= 2, where one
    column is sometimes a combination of two others; or, sometimes, the
    drops matrix (full rank over P, lower modulo Q) with its columns
    scaled by random entries, one random column appended, and transposed
    half the time."""
    R = ring.ring

    def entry():
        if rng.random() < 0.4:
            return R.zero()
        items = [(tuple(rng.choice([0, 0, 1, 2]) for _ in R.vars),
                  rng.randrange(1, R.p)) for _ in range(rng.randint(1, 2))]
        return R.from_terms(items)

    if drops and rng.random() < 0.3:
        scales = [entry() or R.one() for _ in drops[0]]
        matrix = [[R.parse(f) * c for f, c in zip(row, scales)] + [entry()]
                  for row in drops]
        return matrix if rng.random() < 0.5 else [list(col)
                                                  for col in zip(*matrix)]
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
    if cols >= 3 and rng.random() < 0.5:
        f, g = entry(), entry()
        for row in matrix:
            row[2] = f * row[0] + g * row[1]
    return matrix


# (p, variables, defining generators, a matrix whose rank drops modulo Q);
# the cusp is prime but not graded, and each list of defining generators
# is a Groebner basis, as the minors oracle needs
RANK_RINGS = [
    (5, ["x", "y", "z"], [], None),
    (5, ["x1", "x2", "x3", "x4"], ["x1^4 + x2^4 + x3^4 + x4^4"],
     [["x1^2 + 2*x2^2", "x3^2 + 2*x4^2"], ["2*x4^2 - x3^2", "x1^2 - 2*x2^2"]]),
    (3, ["x1", "x2", "x3", "x4", "x5", "x6"],
     ["x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5"],
     [["x1", "x2", "x3"], ["x4", "x5", "x6"]]),
    (7, ["x", "y", "z"], ["y^2 - x^3 - x*z"], [["y", "x"], ["x^2 + z", "y"]]),
]


@pytest.mark.filterwarnings("ignore::hilbertkunz.NonHomogeneousInputWarning")
def test_module_rank_agrees_with_the_minors_oracle():
    # seeded coker and image shapes of the same matrices
    rng = random.Random(20)
    for p, names, quotient, drops in RANK_RINGS:
        for _ in range(100):
            ring = RingPresentation(p, names, quotient)
            matrix = _random_matrix(rng, ring, drops)
            rows, cols = len(matrix), len(matrix[0])
            want = minors_rank(matrix, ring.quotient)
            coker = ModulePresentation.coker(
                ring, rows, [[row[j] for row in matrix] for j in range(cols)])
            image = ModulePresentation("image", image=coker.columns,
                                       ambient_rank=cols)
            assert module_rank(ring, coker) == rows - want, (names, matrix)
            assert module_rank(ring, image) == want, (names, matrix)


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


def test_delta_without_a_rank_computes_it_once(monkeypatch):
    # the rank is cached on the ring, so what rank=None adds over a given
    # rank does not grow with the number of n
    runs = []
    run = hk.buchberger
    monkeypatch.setattr(hk, "buchberger",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))

    def calls(rank, n_max):
        ring = quartic_ring()
        N = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
        runs.clear()
        for n in range(n_max + 1):
            delta_n(ring, N, maximal_ideal(ring), n, rank=rank)
        return len(runs)

    extra = [calls(None, n_max) - calls(1, n_max) for n_max in (0, 1, 2)]
    assert extra[0] == extra[1] == extra[2] > 0


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


# -- two length families at once ----------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


@needs_fork
def test_prefetch_ships_the_childs_lengths_infinite_included(monkeypatch):
    # I = (x1) is not m-primary: R's family, in the child, stops at its
    # first length, which crosses the pipe as the one INFINITE
    use_cpus(monkeypatch, 2)
    runs = []
    run = hk.buchberger
    monkeypatch.setattr(hk, "buchberger",
                        lambda *args, **kw: runs.append(1) or run(*args, **kw))
    ring = regular_ring(5, 2)
    I = IdealHandle(ring, ["x1"])
    hk._prefetch_lengths(ring, ModulePresentation.cyclic(ring, ["x2"]), I, 1)
    assert len(runs) == 2          # this process ran e_0 and e_1 of R/(x2)
    lengths = [v for k, v in ring._cache.items() if k[0] == "colength"]
    assert sorted(v for v in lengths if v is not INFINITE) == [1, 5]
    assert sum(v is INFINITE for v in lengths) == 1
    with pytest.raises(InfiniteColengthError):
        en_cyclic(ring, (), I, 0)
    assert len(runs) == 2          # a cache hit


@needs_fork
def test_no_fork_beside_another_thread(monkeypatch):
    use_cpus(monkeypatch, 2)
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    ring = regular_ring(5, 2)
    args = (ring, ModulePresentation.cyclic(ring, []), maximal_ideal(ring), 1)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        hk._prefetch_lengths(*args)
    finally:
        release.set()
        waiting.join()
    assert forked == []
    hk._prefetch_lengths(*args)
    assert forked == [1]


@needs_fork
def test_a_child_that_dies_changes_nothing(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    run_family = hk._run_family

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return run_family(*args)

    monkeypatch.setattr(hk, "_run_family", dying)
    ring = quartic_ring()
    I = maximal_ideal(ring)
    N = ModulePresentation.ideal_as_module(ring, ["x1", "x2"])
    hk._prefetch_lengths(ring, N, I, 1)
    assert sum(k[0] == "colength" for k in ring._cache) == 2     # N's only
    assert [delta_n(ring, N, I, n, rank=1) for n in range(2)] == [1, 33]


@needs_fork
@pytest.mark.parametrize("stop", [
    KeyboardInterrupt(), BudgetExceededError("buchberger pairs", 0, 1)])
def test_the_child_is_killed_unless_this_family_finished(monkeypatch, stop):
    # unwinding, or a stop that ends this process's family, kills the
    # child (here still busy) before it is reaped
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        raise stop

    monkeypatch.setattr(hk, "en_module", stalled)
    reaped = []
    waitpid = os.waitpid
    monkeypatch.setattr(os, "waitpid", lambda pid, options: reaped.append(
        waitpid(pid, options)) or reaped[-1])
    ring = regular_ring(5, 2)
    args = (ring, ModulePresentation.cyclic(ring, []), maximal_ideal(ring), 1)
    if isinstance(stop, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            hk._prefetch_lengths(*args)
    else:
        hk._prefetch_lengths(*args)
    [(_, status)] = reaped
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


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


@pytest.mark.parametrize("call, value", [
    (lambda ring, I: en_cyclic(ring, (), I, 1), 123),
    (lambda ring, I: ring.dimension, 4),
    (lambda ring, I: len(I.gb), 6),
    (lambda ring, I: module_rank(ring, ModulePresentation.ideal_as_module(
        ring, ["x1", "x2"])), 1),
    (lambda ring, I: en_module(ring, ModulePresentation.ideal_as_module(
        ring, ["x1", "x2"]), I, 0), 2),
])
def test_a_budget_stop_is_kept_per_budget(monkeypatch, call, value):
    # the ring's memo keeps the stop under the budget it hit: the same
    # request under that budget stops again without a Groebner run, and
    # under another budget it runs again
    ring = determinantal_ring()
    I = maximal_ideal(ring)
    ring.budget = Budget(max_pairs=0)
    with pytest.raises(BudgetExceededError) as first:
        call(ring, I)
    runs = []
    for name in ("buchberger", "syzygies"):
        run = getattr(hk, name)
        monkeypatch.setattr(hk, name, lambda *args, run=run, **kw:
                            runs.append(1) or run(*args, **kw))
    with pytest.raises(BudgetExceededError) as again:
        call(ring, I)
    assert again.value.diagnostics() == first.value.diagnostics() == {
        "stage": "buchberger pairs", "limit": 0, "count": 1}
    assert runs == []
    ring.budget = Budget(max_pairs=1)
    with pytest.raises(BudgetExceededError) as other:
        call(ring, I)
    assert other.value.diagnostics()["count"] == 2 and runs == [1]
    ring.budget = None
    assert call(ring, I) == value


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


@pytest.mark.parametrize("gens, k", [(["x1", "x4"], 1),
                                     (["x1", "x2", "x3"], -1),
                                     (["x1^2", "x1*x4", "x4^2"], 2)])
def test_determinantal_ideal_series_match_the_lattice_count(gens, k):
    # (x1, x4) = t1 (s1, s2), (x1, x2, x3) = s1 (t1, t2, t3) and
    # (x1^2, x1 x4, x4^2) = t1^2 (s1, s2)^2 are the class modules M_1,
    # M_-1 and M_2 of the Segre ring that the lattice count reads
    ring = determinantal_ring()
    module = ModulePresentation.ideal_as_module(ring, gens)
    got = series(ring, module, maximal_ideal(ring), 3)
    assert got.values() == [segre_lattice_en(n, k) for n in range(4)]


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
