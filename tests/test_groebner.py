"""Buchberger engine, colength, syzygy, dimension and rank tests."""

import random

import pytest

from hilbertkunz import (Budget, BudgetExceededError, DEGLEX, GREVLEX,
                         INFINITE, LEX, ExponentOverflowError,
                         FreeModuleElement, PolyRing,
                         buchberger, cokernel_dimension, colength,
                         krull_dimension, matrix_rank_over_domain,
                         monomial_ideal_colength, normal_form, syzygies)
from hilbertkunz.groebner import _minimal
from hilbertkunz.poly import as_vector

from oracles import (box_staircase_count, dense_colength,
                     random_artinian_ideal, random_monomial_ideal)


def ring(p, *names):
    return PolyRing(p, names)


def gb_strings(gb):
    return sorted(str(g) for g in gb.elements)


# -- buchberger basics ---------------------------------------------------------

def test_already_a_basis():
    R = ring(5, "x", "y")
    gb = buchberger([R.parse("x"), R.parse("y")])
    assert gb_strings(gb) == ["x", "y"]


def test_reduction_of_redundant_generator():
    R = ring(2, "x", "y")
    gb = buchberger([R.parse("x^2 + y^2"), R.parse("y^2")])
    assert gb_strings(gb) == ["x^2", "y^2"]
    # both generating sets span the same ideal: mutual membership
    gb2 = buchberger([R.parse("x^2"), R.parse("y^2")])
    for f in [R.parse("x^2 + y^2"), R.parse("y^2")]:
        assert gb2.contains(f)
    for g in gb2.elements:
        assert gb.contains(g.component(0))


def test_empty_generators():
    R = ring(5, "x", "y")
    gb = buchberger([], ring=R)
    assert len(gb) == 0
    assert colength(gb) is INFINITE


def test_zero_generators_dropped():
    R = ring(5, "x", "y")
    gb = buchberger([R.zero(), R.parse("x")])
    assert gb_strings(gb) == ["x"]


def test_cyclic_overlap_example():
    # a standard example with a nontrivial S-polynomial cascade
    R = ring(32003, "x", "y", "z")
    gb = buchberger([R.parse("x^2 - y"), R.parse("x^3 - z")])
    assert gb.verify()
    # lead terms generate the expected staircase
    assert gb.contains(R.parse("x*y - z"))
    assert gb.contains(R.parse("y^3 - z^2"))


def test_determinism_and_input_order_independence():
    R = ring(7, "x", "y", "z")
    gens = [R.parse("x*y - z^2"), R.parse("y^2 - x*z"), R.parse("x^2 - y*z")]
    a = buchberger(gens)
    b = buchberger(list(reversed(gens)))
    assert [str(g) for g in a.elements] == [str(g) for g in b.elements]
    c = buchberger(gens)
    assert [str(g) for g in a.elements] == [str(g) for g in c.elements]


def test_budget_exceeded_reported():
    R = ring(7, "x", "y", "z")
    gens = [R.parse("x*y - z^2"), R.parse("y^2 - x*z"), R.parse("x^2 - y*z")]
    with pytest.raises(BudgetExceededError) as err:
        buchberger(gens, budget=Budget(max_pairs=1))
    assert err.value.diagnostics()["stage"] == "buchberger pairs"
    with pytest.raises(BudgetExceededError):
        buchberger(gens, budget=Budget(max_basis=2))


def test_spair_reverification():
    R = ring(5, "x", "y", "z")
    for gens in (
        [R.parse("x^2 - y"), R.parse("x^3 - z")],
        [R.parse("x + y + z"), R.parse("x*y + y*z + x*z"), R.parse("x*y*z - 1")],
    ):
        assert buchberger(gens).verify()


def _equal_and_dividing_ideal(R):
    # the first two share the lead x*y, which divides the third's x^2*y
    return [R.parse("x*y - z^2"), R.parse("x*y + y*z"),
            R.parse("x^2*y + y^3 - z^3")]


def _equal_and_dividing_submodule(R):
    def vec(a, b):
        return FreeModuleElement.from_components(R, [R.parse(a), R.parse(b)])
    # the same pattern in position 0, and a dividing pair in position 1
    return [vec("x*y - z^2", "x"), vec("x*y + y*z", "y"),
            vec("x^2*y", "z"), vec("0", "x - y"), vec("0", "x^2 + z^2")]


def _shared_lead_submodule(R):
    def vec(a, b):
        return FreeModuleElement.from_components(R, [R.parse(a), R.parse(b)])
    # two inputs share the minimal lead x*y in position 0; finalize keeps
    # the one with the lower index
    return [vec("x*y + z^2", "y"), vec("x*y", "z"), vec("0", "x^2 - y*z")]


@pytest.mark.parametrize("build", [_equal_and_dividing_ideal,
                                   _equal_and_dividing_submodule,
                                   _shared_lead_submodule])
def test_equal_and_dividing_input_leads(build):
    # in one input order the live set keeps elements with non-minimal
    # leads, and the final tails are reduced against those too
    R = ring(5, "x", "y", "z")
    gens = build(R)
    rank = gens[0].rank if isinstance(gens[0], FreeModuleElement) else 1
    bases = [buchberger(order, ring=R, rank=rank)
             for order in (gens, gens[::-1])]
    assert bases[0].elements == bases[1].elements
    for gb in bases:
        assert gb.verify()
        assert all(normal_form(g, gb).is_zero() for g in gens)
    for order in (gens, gens[::-1]):
        syz = syzygies(order)
        assert syz
        for s in syz:
            combo = FreeModuleElement(R, rank, {})
            for i, g in enumerate(order):
                combo = combo + s.component(i) * as_vector(g)
            assert combo.is_zero()


def test_minimal_matches_brute_force():
    # one routine drops non-minimal monomials for the staircase, the pair
    # update and finalize; the reference compares exponent tuples directly
    rng = random.Random(1988)
    for nvars in (2, 3, 4):
        R = PolyRing(5, [f"x{i}" for i in range(nvars)])
        for _ in range(150):
            pool = [R.pack([rng.randrange(4) for _ in range(nvars)])
                    for _ in range(rng.randrange(1, 10))]
            lcms = [R.mono_lcm(rng.choice(pool), rng.choice(pool))
                    for _ in range(rng.randrange(6))]
            monos = pool + rng.choices(pool, k=3) + lcms + lcms
            exps = {m: R.unpack(m) for m in monos}

            def divides(a, b):
                return all(x <= y for x, y in zip(exps[a], exps[b]))

            want = sorted(m for m in exps
                          if not any(h != m and divides(h, m) for h in exps))
            assert list(_minimal(sorted(monos), R.guards)) == want


# -- normal forms ---------------------------------------------------------------

def test_normal_form_of_generators_is_zero():
    R = ring(5, "x", "y", "z")
    gens = [R.parse("x^2 - y"), R.parse("x^3 - z")]
    gb = buchberger(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()


def test_normal_form_lex_example():
    R = PolyRing(5, ["x", "y"], order=LEX)
    gb = buchberger([R.parse("x")], order=LEX)
    assert normal_form(R.parse("x^2 + y"), gb) == R.parse("y")


def test_normal_form_zero_and_idempotent():
    R = ring(3, "x", "y")
    gb = buchberger([R.parse("x^2 + y"), R.parse("y^2")])
    assert normal_form(R.zero(), gb).is_zero()
    f = R.parse("x^3 + x*y + y^2 + 2")
    nf = normal_form(f, gb)
    assert normal_form(nf, gb) == nf
    assert gb.contains(f - nf)


def test_membership_both_directions():
    R = ring(5, "x", "y")
    gb = buchberger([R.parse("x^2 - y")])
    assert gb.contains(R.parse("x^4 - y^2"))
    assert not gb.contains(R.parse("x^2"))
    assert not gb.contains(R.parse("y"))


# -- colength ----------------------------------------------------------------------

def test_colength_univariate():
    R = ring(5, "x")
    assert colength(buchberger([R.parse("x^3")])) == 3


def test_colength_square():
    R = ring(2, "x", "y")
    gb = buchberger([R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    assert colength(gb) == 3


def test_colength_quartic_first_power():
    # the diagonal quartic with fifth powers: 339 standard monomials
    R = ring(5, "x1", "x2", "x3", "x4")
    gens = [R.parse("x1^4 + x2^4 + x3^4 + x4^4")] + \
        [R.parse(f"x{i}^5") for i in range(1, 5)]
    assert colength(buchberger(gens)) == 339


def test_colength_infinite():
    R = ring(5, "x", "y")
    assert colength(buchberger([R.parse("x")])) is INFINITE


def test_colength_unit_ideal():
    R = ring(5, "x", "y")
    assert colength(buchberger([R.parse("1")])) == 0


def test_monomial_ideal_colength_direct():
    assert monomial_ideal_colength([(3,)], 1) == 3
    assert monomial_ideal_colength([(2, 0), (1, 1), (0, 2)], 2) == 3
    assert monomial_ideal_colength([(1, 0)], 2) is INFINITE
    assert monomial_ideal_colength([(0, 0)], 2) == 0


def test_monomial_ideal_colength_missing_pure_power():
    # every variable needs a pure power, not only the last one
    assert monomial_ideal_colength([(0, 1)], 2) is INFINITE
    assert monomial_ideal_colength([(1, 1), (0, 2)], 2) is INFINITE
    assert monomial_ideal_colength([(0, 3, 0), (0, 0, 2), (1, 1, 1)], 3) \
        is INFINITE
    assert monomial_ideal_colength([], 2) is INFINITE


def test_monomial_ideal_colength_exponent_cap():
    with pytest.raises(ExponentOverflowError):
        monomial_ideal_colength([(32768,)], 1)
    assert monomial_ideal_colength([(32767,)], 1) == 32767


def test_staircase_queries():
    R = ring(2, "x", "y")
    gb = buchberger([R.parse("x^2"), R.parse("x*y"), R.parse("y^2")])
    st = gb.staircase()
    assert st.covers(0, (2, 0))
    assert st.covers(0, (2, 5))
    assert not st.covers(0, (1, 0))
    assert sorted(st.minimal_generators()) == [(0, (0, 2)), (0, (1, 1)),
                                               (0, (2, 0))]


# -- random cross-checks against independent oracles ----------------------------------

def test_colength_matches_dense_oracle_sample():
    rng = random.Random(2024)
    for _ in range(8):
        R, gens, bounds = random_artinian_ideal(rng)
        got = colength(buchberger(gens))
        assert got == dense_colength(gens, bounds)


def test_colength_order_invariance_sample():
    rng = random.Random(77)
    for _ in range(8):
        R, gens, bounds = random_artinian_ideal(rng)
        values = {order.name: colength(buchberger(gens, order))
                  for order in (GREVLEX, LEX, DEGLEX)}
        assert len(set(values.values())) == 1, values


def test_monomial_colength_matches_box_enumeration_sample():
    rng = random.Random(99)
    for _ in range(8):
        R, gens, bounds = random_monomial_ideal(rng)
        got = monomial_ideal_colength(gens, R.nvars)
        assert got == box_staircase_count(gens, bounds)


def test_colength_matches_box_enumeration_many_variables():
    # 4 to 6 variables, so the slice recursion runs several levels deep
    # and shares one memo across them; the box stays at most 729 points
    rng = random.Random(4096)
    names = ["a", "b", "c", "d", "e", "f"]
    for trial in range(24):
        nv = 4 + trial % 3
        cap = 5 if nv == 4 else 3
        R = ring(rng.choice([2, 3, 5]), *names[:nv])
        bounds = [rng.randint(1, cap) for _ in range(nv)]
        exps = [tuple(b if j == i else 0 for j in range(nv))
                for i, b in enumerate(bounds)]
        for _ in range(rng.randint(0, 8)):
            cand = tuple(rng.randint(0, cap) for _ in range(nv))
            if sum(cand) > 0:
                exps.append(cand)
        rng.shuffle(exps)
        expected = box_staircase_count(exps, bounds)
        assert monomial_ideal_colength(exps, nv) == expected
        gb = buchberger([R.monomial(e) for e in exps])
        assert colength(gb) == expected


def test_module_colength_one_position_not_artinian():
    R = ring(3, "x", "y")
    squares = [FreeModuleElement.basis_vector(R, 2, 0, R.parse(mono))
               for mono in ("x^2", "y^2")]
    x_only = FreeModuleElement.basis_vector(R, 2, 1, R.parse("x^3"))
    assert colength(buchberger(squares + [x_only], ring=R, rank=2)) \
        is INFINITE
    unit = FreeModuleElement.basis_vector(R, 2, 1, R.one())
    assert colength(buchberger(squares + [unit], ring=R, rank=2)) == 4


# -- krull dimension -----------------------------------------------------------------

def test_dimension_zero_ideal():
    R = ring(5, "x1", "x2", "x3", "x4")
    assert krull_dimension(buchberger([], ring=R)) == 4


def test_dimension_hypersurface():
    R = ring(5, "x1", "x2", "x3", "x4")
    gb = buchberger([R.parse("x1^4 + x2^4 + x3^4 + x4^4")])
    assert krull_dimension(gb) == 3


def test_dimension_determinantal():
    R = ring(3, "x1", "x2", "x3", "x4", "x5", "x6")
    gb = buchberger([R.parse("x1*x5 - x2*x4"), R.parse("x1*x6 - x3*x4"),
                     R.parse("x2*x6 - x3*x5")])
    assert krull_dimension(gb) == 4


def test_dimension_artinian_is_zero():
    R = ring(5, "x", "y")
    assert krull_dimension(buchberger([R.parse("x"), R.parse("y^2")])) == 0


# -- syzygies -------------------------------------------------------------------------

def test_koszul_syzygy():
    R = ring(5, "x", "y")
    syz = syzygies([R.parse("x"), R.parse("y")])
    assert [str(s) for s in syz] == ["(y, 4*x)"]


def test_single_generator_no_syzygy():
    R = ring(5, "x", "y")
    assert syzygies([R.parse("x")]) == []


def test_syzygies_kill_generators_and_are_complete():
    R = ring(5, "x", "y")
    gens = [R.parse("x^2"), R.parse("x*y"), R.parse("y^2")]
    syz = syzygies(gens)
    for s in syz:
        combo = R.zero()
        for i, g in enumerate(gens):
            combo = combo + s.component(i) * g
        assert combo.is_zero()
    reference = [
        FreeModuleElement.from_components(R, [R.parse("y"), R.parse("-x"),
                                              R.zero()]),
        FreeModuleElement.from_components(R, [R.zero(), R.parse("y"),
                                              R.parse("-x")]),
    ]
    # module equality via equality of reduced Groebner bases
    a = buchberger(syz, ring=R, rank=3)
    b = buchberger(reference, ring=R, rank=3)
    assert [str(g) for g in a.elements] == [str(g) for g in b.elements]


def test_syzygy_of_syzygies_of_xy_is_zero():
    R = ring(5, "x", "y")
    first = syzygies([R.parse("x"), R.parse("y")])
    assert syzygies(first) == []


def test_syzygy_with_zero_generator():
    R = ring(5, "x", "y")
    syz = syzygies([R.parse("x"), R.zero()])
    gb = buchberger(syz, ring=R, rank=2)
    e1 = FreeModuleElement.basis_vector(R, 2, 1)
    assert gb.contains(e1)
    # and nothing kills the live generator alone
    e0 = FreeModuleElement.basis_vector(R, 2, 0)
    assert not gb.contains(e0)


def test_syzygies_of_proportional_generators():
    R = ring(5, "x", "y")
    syz = syzygies([R.parse("x"), R.parse("2*x")])
    gb = buchberger(syz, ring=R, rank=2)
    v = FreeModuleElement.from_components(R, [R.parse("2"), R.parse("-1")])
    assert gb.contains(v)


# -- module Groebner bases ----------------------------------------------------------

def test_module_buchberger_and_colength():
    # F^2 / <(y, -x), pure squares>: the hand-checkable rank-2 example
    R = ring(2, "x", "y")
    gens = [FreeModuleElement.from_components(R, [R.parse("y"), R.parse("x")])]
    for pos in range(2):
        for mono in ("x^2", "y^2"):
            gens.append(FreeModuleElement.basis_vector(R, 2, pos,
                                                       R.parse(mono)))
    gb = buchberger(gens, ring=R, rank=2)
    assert gb.verify()
    assert colength(gb) == 5
    lead_positions = sorted(pos for pos, _ in gb.lead_terms())
    assert lead_positions.count(0) >= 1 and lead_positions.count(1) >= 1


def test_module_colength_infinite_without_coverage():
    R = ring(2, "x", "y")
    gens = [FreeModuleElement.basis_vector(R, 2, 0, R.parse("x")),
            FreeModuleElement.basis_vector(R, 2, 0, R.parse("y"))]
    gb = buchberger(gens, ring=R, rank=2)
    assert colength(gb) is INFINITE


# -- matrix rank and cokernel dimension ------------------------------------------------

def test_rank_identity():
    R = ring(5, "x", "y")
    for s in (1, 2, 3):
        mat = [[R.one() if i == j else R.zero() for j in range(s)]
               for i in range(s)]
        assert matrix_rank_over_domain(mat) == s


def test_rank_row_vector():
    R = ring(5, "x", "y")
    assert matrix_rank_over_domain([[R.parse("x"), R.parse("y")]]) == 1


def test_rank_nonzero_scalar():
    R = ring(5, "x", "y")
    assert matrix_rank_over_domain([[R.parse("x^2 + y")]]) == 1
    assert matrix_rank_over_domain([[R.zero()]]) == 0


def test_rank_modulo_quotient():
    # x1 * x5 == x2 * x4 on the determinantal variety: the matrix
    # [[x1, x2], [x4, x5]] drops to rank 1 modulo the minors
    R = ring(3, "x1", "x2", "x3", "x4", "x5", "x6")
    q = buchberger([R.parse("x1*x5 - x2*x4"), R.parse("x1*x6 - x3*x4"),
                    R.parse("x2*x6 - x3*x5")])
    mat = [[R.parse("x1"), R.parse("x2")], [R.parse("x4"), R.parse("x5")]]
    assert matrix_rank_over_domain(mat) == 2
    assert matrix_rank_over_domain(mat, q) == 1


def test_rank_budget():
    R = ring(5, "x", "y")
    mat = [[R.parse("x")] * 6 for _ in range(6)]
    with pytest.raises(BudgetExceededError):
        matrix_rank_over_domain(mat, budget=Budget(max_minors=3))


def test_cokernel_dimension_free_and_zero():
    R = ring(5, "x", "y", "z")
    dim, zero = cokernel_dimension([], 2, [], R)
    assert (dim, zero) == (3, False)
    cols = [FreeModuleElement.basis_vector(R, 2, i) for i in range(2)]
    dim, zero = cokernel_dimension(cols, 2, [], R)
    assert (dim, zero) == (0, True)
