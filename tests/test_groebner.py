"""Buchberger engine, colength, syzygy, dimension and rank tests."""

import gc
import heapq
import pathlib
import random
import warnings
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hilbertkunz import (Budget, BudgetExceededError, DEGLEX, GREVLEX,
                         INFINITE, LEX, ExponentOverflowError,
                         FreeModuleElement, ModulePresentation,
                         NonHomogeneousInputWarning, PolyRing,
                         RingPresentation, buchberger, colength,
                         krull_dimension, module_dimension, module_rank,
                         monomial_ideal_colength, normal_form, syzygies)
from hilbertkunz import en_cyclic, groebner, parse_problem
from hilbertkunz.groebner import Staircase, _minimal
from hilbertkunz.poly import as_vector

from oracles import (box_staircase_count, dense_colength, division_remainder,
                     gauss_rank_mod_p, monomials_up_to_degree,
                     random_artinian_ideal, random_monomial_ideal)


REPO = pathlib.Path(__file__).resolve().parent.parent


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
    # two inputs share the minimal lead x*y in position 0; the second
    # retires the first, and the basis reduces the live one's tail
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


# the reduced bases of the builders, taken from the eager tail reduction
# that ran at the end of a run before elements were built on demand (the
# first two)
# and from the lowest-indexed element of each lead (the third)
EAGER_BASES = {
    _equal_and_dividing_ideal: [
        "y*z + z^2", "x*y + 4*z^2", "x*z^2 + z^3", "y^3 + 3*z^3", "z^4"],
    _equal_and_dividing_submodule: [
        "(0, x + 4*y)", "(0, y*z + z^2)", "(0, y^2 + z^2)", "(0, z^3)",
        "(y*z + z^2, 0)", "(x*y + 4*z^2, y)", "(z^3, 4*z)",
        "(x*z^2, z^2 + z)"],
    _shared_lead_submodule: [
        "(0, x^2 + 4*y*z)", "(0, x*y^2 + 4*x*y*z + 4*z^3)",
        "(0, y^3*z + 4*y^2*z^2 + 4*x*z^3)", "(z^2, y + 4*z)", "(x*y, z)"],
}


@pytest.mark.parametrize("build", list(EAGER_BASES))
def test_length_runs_build_no_reduced_basis(build, monkeypatch):
    R = ring(5, "x", "y", "z")
    gens = build(R)
    rank = gens[0].rank if isinstance(gens[0], FreeModuleElement) else 1
    gb = buchberger(gens, ring=R, rank=rank)
    calls = []
    engines = []
    reduce = groebner._Engine.reduce
    init = groebner._Engine.__init__

    def counting(self, work, *args, **kwargs):
        calls.append(len(work))
        return reduce(self, work, *args, **kwargs)

    def building(self, *args, **kwargs):
        engines.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groebner._Engine, "reduce", counting)
    monkeypatch.setattr(groebner._Engine, "__init__", building)
    assert colength(gb) is INFINITE
    assert len(gb) == len(EAGER_BASES[build])
    assert len(gb.lead_terms()) == len(gb)
    assert not gb.contains_one()
    assert calls == []
    # a normal form is one reduction in the run's engine: no reduced
    # basis is read and no engine is built for it
    for k, g in enumerate(gens, 1):
        assert gb.contains(g)
        assert len(calls) == k
    x = R.parse("x")
    outside = x if rank == 1 else FreeModuleElement.basis_vector(R, rank, 0, x)
    assert gb.normal_form(outside) == outside
    assert len(calls) == len(gens) + 1
    assert engines == []
    elements = gb.elements
    assert len(calls) > len(gens) + 1     # the first read runs the reduction
    assert [str(g) for g in elements] == EAGER_BASES[build]
    done = len(calls)
    assert gb.elements is elements
    assert len(calls) == done
    assert engines == []


def test_verify_rejects_an_unfinished_run():
    # the run is skipped, so the S-pair of the two elements does not reduce
    # to zero; verify reduces it in an engine of its own
    R = ring(5, "x", "y")
    eng = groebner._Engine(R, 1, R.order, groebner.DEFAULT_BUDGET)
    for f in ("x^2 - y", "x*y - 1"):
        eng._update_pairs(eng.add(dict(R.parse(f)._d)))
    gb = groebner.GroebnerBasis(eng)
    assert gb_strings(gb) == ["x*y + 4", "x^2 + 4*y"]
    assert not gb.verify()


def test_minimal_matches_brute_force():
    # one routine drops non-minimal monomials for the staircase and the
    # pair update; the reference compares exponent tuples directly
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


@st.composite
def lead_index_runs(draw):
    """(ring, rank, steps): elements of an ideal or a rank-2 submodule in
    lex or grevlex, each with whether its pair update (and so retirement)
    runs.  Some elements repeat an earlier element shifted by a monomial,
    which gives equal (shift 1) and dividing leads."""
    order = draw(st.sampled_from([LEX, GREVLEX]))
    nv = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    R = PolyRing(3, ["x", "y", "z"][:nv], order=order)
    exps = st.tuples(*[st.integers(0, 3)] * nv)
    steps = []
    for _ in range(draw(st.integers(1, 12))):
        if steps and draw(st.booleans()):
            base = draw(st.sampled_from(steps))[0]
            u = R.pack(draw(st.tuples(*[st.integers(0, 1)] * nv)))
            vec = {t + u: c for t, c in base.items()}
        else:
            terms = draw(st.lists(st.tuples(st.integers(0, rank - 1), exps,
                                            st.integers(1, 2)),
                                  min_size=1, max_size=3))
            vec = {pos << R.mono_bits | R.pack(e): c for pos, e, c in terms}
        steps.append((vec, draw(st.booleans())))
    return R, rank, steps


@settings(max_examples=150, deadline=None)
@given(lead_index_runs())
def test_lead_index_matches_a_list_scan(case):
    # the reducer is the first live divisor, single-term elements before
    # the rest, then in index order; a pair update retires every other
    # live element whose lead the new lead divides
    R, rank, steps = case
    bits, mask = R.mono_bits, R.mono_mask
    eng = groebner._Engine(R, rank, R.order, groebner.DEFAULT_BUDGET)
    live = []

    def divides(a, b):
        return a >> bits == b >> bits and all(
            x <= y for x, y in zip(R.unpack(a & mask), R.unpack(b & mask)))

    probes = set()
    for vec, update in steps:
        k = eng.add(dict(vec))
        lt = eng.lts[k]
        if update:
            eng._update_pairs(k)
            live = [i for i in live if not divides(lt, eng.lts[i])]
        live.append(k)
        probes |= set(vec) | {lt + R.pack([1] * R.nvars)}
        for t in probes:
            index = eng.index.get(t >> bits)
            if index is None:
                continue
            divisors = [i for i in live if divides(eng.lts[i], t)]
            assert index.reducer(t) == min(
                divisors, key=lambda i: (len(eng.basis[i]) > 0, i),
                default=-1)
            assert groebner._members(index.divisors(t)) == sorted(divisors)
            assert groebner._members(index.multiples(t)) == sorted(
                i for i in live if divides(t, eng.lts[i]))


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


@pytest.mark.parametrize("basis, f", [
    (["x*y + z^2"], "x*y*z^32766"),
    # the two steps make z^32768 with opposite signs: it cancels, and the
    # overflow is still reported
    (["x*y + z^2", "x*w + z^2"], "x*y*z^32766 - x*w*z^32766"),
])
def test_normal_form_overflow_in_a_reduction_step(basis, f):
    R = ring(5, "x", "y", "w", "z")
    gb = buchberger([R.parse(g) for g in basis])
    with pytest.raises(ExponentOverflowError) as err:
        normal_form(R.parse(f), gb)
    assert any(entry.name == "reduce" for entry in err.traceback)


def test_buchberger_overflow_in_a_reduction_step():
    # the S-vector x*z^2 - x*y*z^32766 fits; its step by x*y + z^2 makes
    # z^32768
    R = PolyRing(5, ["x", "y", "z"], order=LEX)
    with pytest.raises(ExponentOverflowError) as err:
        buchberger([R.parse("x*y + z^2"), R.parse("x^2 + x*z^32766")], LEX)
    assert any(entry.name == "reduce" for entry in err.traceback)


def _entries(vec):
    return {(pos, exps): c for pos, exps, c in as_vector(vec).entries()}


@st.composite
def division_cases(draw):
    """(order, basis, f): up to three generators of an ideal or a rank-2
    submodule over F_2, F_3 or F_5, and an element to divide."""
    p = draw(st.sampled_from([2, 3, 5]))
    order = draw(st.sampled_from([LEX, GREVLEX]))
    nv = draw(st.integers(2, 3))
    rank = draw(st.integers(1, 2))
    R = PolyRing(p, ["x", "y", "z"][:nv], order=order)

    def element(top, size, low=0):
        terms = draw(st.lists(st.tuples(
            st.integers(0, rank - 1),
            st.tuples(*[st.integers(0, top)] * nv).filter(
                lambda e: sum(e) >= low),
            st.integers(1, p - 1)), min_size=1, max_size=size))
        comps = [R.from_terms([(e, c) for pos, e, c in terms if pos == i])
                 for i in range(rank)]
        return comps[0] if rank == 1 else \
            FreeModuleElement.from_components(R, comps)

    # no constant terms, so the unit ideal is rare
    gens = [element(3, 3, low=1) for _ in range(draw(st.integers(1, 3)))]
    return order, buchberger(gens, order, ring=R, rank=rank), element(6, 8)


@settings(max_examples=150, deadline=None)
@given(division_cases())
def test_normal_form_matches_textbook_division(case):
    # normal forms modulo a Groebner basis are unique, so division that
    # picks its reducers in its own way must leave the same remainder
    order, gb, f = case
    want = division_remainder(_entries(f),
                              [_entries(g) for g in gb.elements],
                              order.name, gb.ring.p)
    nf = normal_form(f, gb)
    assert type(nf) is type(f)
    assert _entries(nf) == want


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
    assert sorted(gb.lead_terms()) == [(0, (0, 2)), (0, (1, 1)),
                                       (0, (2, 0))]
    assert gb.contains(R.parse("x^2*y^5"))
    assert not gb.contains(R.parse("x"))
    assert colength(gb) == 3


def test_one_staircase_per_run(monkeypatch):
    # the GroebnerBasis constructor builds the run's staircase from the
    # live elements, and colength, the dimension and staircase() all read
    # that one
    calls = []
    init = groebner.Staircase.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(groebner.Staircase, "__init__", counting)
    R = ring(5, "x", "y", "z")
    # a complete intersection of degrees 2, 2 and 3
    gb = buchberger([R.parse("x^2 - y*z"), R.parse("y^2 + x*z"),
                     R.parse("z^3")])
    assert colength(gb) == 12
    assert krull_dimension(gb) == 0
    assert gb.staircase() is gb.staircase()
    assert len(calls) == 1


def test_unread_basis_is_freed_without_the_collector():
    # the deferred build holds the run's engine; a reference from it back
    # to the basis would keep both alive until the cycle collector runs
    R = ring(5, "x", "y", "z")
    gens = [R.parse("x^2 - y*z"), R.parse("y^2 + x*z"), R.parse("z^3")]
    gc.collect()
    gc.disable()
    try:
        for read in (False, True):
            gb = buchberger(gens)
            if read:
                gb.elements
            del gb
            assert gc.collect() == 0
    finally:
        gc.enable()


def _sheared_quartic(q):
    """The diagonal quartic after x1 -> x1 + 2*x3, x3 -> x3 + x4, over F_5,
    with the pure powers x_i^q."""
    R = ring(5, "x1", "x2", "x3", "x4")
    f = sum((R.parse(part) ** 4 for part in ("x1 + 2*x3", "x2", "x3 + x4",
                                             "x4")), R.zero())
    return [f] + [R.parse(f"x{i}^{q}") for i in range(1, 5)]


# reduction steps of the same runs; unlike the shape, they change when
# the reducer choice does
SHEARED_QUARTIC_STEPS = {2: 3370, 3: 122756}

# pops that the chain criterion skips in the same runs
SHEARED_QUARTIC_CHAINED = {2: 22, 3: 237}


@pytest.mark.parametrize("n, popped, added, leads, length", [
    (2, 128, 47, 46, 43017),
    (3, 810, 268, 267, 5379051),
])
def test_sheared_quartic_run_shape(n, popped, added, leads, length,
                                   monkeypatch):
    # pairs popped, elements added and leads pin the shape of the run,
    # reduction steps the reducer choice, and chained pops the pairs the
    # chain criterion skips
    engines = []
    run = groebner._Engine.run

    def recording(self):
        engines.append(self)
        run(self)

    monkeypatch.setattr(groebner._Engine, "run", recording)
    gb = buchberger(_sheared_quartic(5 ** n))
    (eng,) = engines
    assert (eng.pairs_popped, len(eng.basis), len(gb), colength(gb)) == \
        (popped, added, leads, length)
    assert eng.reduction_steps == SHEARED_QUARTIC_STEPS[n]
    assert eng.pairs_chained == SHEARED_QUARTIC_CHAINED[n]


@pytest.mark.parametrize("n, popped, added, leads, steps, chained, length", [
    (2, 216, 113, 113, 112, 0, 10467),
    (3, 1620, 815, 815, 814, 0, 858573),
])
def test_determinantal_run_shape(n, popped, added, leads, steps, chained,
                                 length, monkeypatch):
    # the run for Q + m^[q] on the shipped determinantal ring: all but
    # the three binomials of Q are monomials, so no pair is chained
    problem = parse_problem((REPO / "problems/determinantal.hk").read_text())
    engines = []
    run = groebner._Engine.run

    def recording(self):
        engines.append(self)
        run(self)

    monkeypatch.setattr(groebner._Engine, "run", recording)
    assert en_cyclic(problem.ring, (), problem.ideals["m"], n) == length
    eng = engines[-1]
    assert (eng.pairs_popped, len(eng.basis),
            len(groebner.GroebnerBasis(eng)), eng.reduction_steps) == \
        (popped, added, leads, steps)
    assert eng.pairs_chained == chained


def test_reduction_pushes_each_term_once(monkeypatch):
    # a term that cancels waits in the heap at coefficient 0, and a step
    # creates only terms below the popped one, so no term is pushed twice
    # in one reduction
    queued = []

    def heapify(heap):
        queued.append({t for _, t in heap})
        heapq.heapify(heap)

    def heappush(heap, item):
        if len(item) == 2:                # a term, not a pair
            assert item[1] not in queued[-1]
            queued[-1].add(item[1])
        heapq.heappush(heap, item)

    monkeypatch.setattr(groebner, "heapq", SimpleNamespace(
        heapify=heapify, heappush=heappush, heappop=heapq.heappop))
    gb = buchberger(_sheared_quartic(25))
    assert colength(gb) == 43017
    assert gb.elements and len(queued) > 100


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
    # non-minimal input in 2 to 6 variables: many leads sharing the cut
    # exponent, plus repeated leads and multiples of them
    for trial in range(60):
        nv = 2 + trial % 5
        cap = {2: 12, 3: 6, 4: 4, 5: 3, 6: 3}[nv]
        exps, bounds = _slab_heavy_exps(rng, nv, cap)
        for e in rng.sample(exps, min(4, len(exps))):
            exps.append(e)
            exps.append(tuple(a + rng.randint(0, 2) for a in e))
        rng.shuffle(exps)
        assert monomial_ideal_colength(exps, nv) == \
            box_staircase_count(exps, bounds)


def _minimal_exps(exps):
    """The exponent tuples that no other one divides, duplicates once."""
    exps = set(exps)
    return [e for e in exps
            if not any(d != e and all(a <= b for a, b in zip(d, e))
                       for d in exps)]


def _slab_heavy_exps(rng, nv, cap):
    """(exponent tuples, bounds): pure powers, and leads at the last
    exponents 0, 1 and 2, that field being the one _count_standard cuts.
    Their other exponents sum to one degree less at each cut, so leads at
    one cut do not divide each other and a later one may divide the rest
    of an older one."""
    bounds = [rng.randint(2, cap) for _ in range(nv)]
    bounds[-1] = max(bounds[-1], 3)
    exps = [tuple(b if j == i else 0 for j in range(nv))
            for i, b in enumerate(bounds)]
    deg = rng.randint(3, cap + 1)
    for cut in range(3):
        for _ in range(rng.randint(1, 5)):
            head = [0] * (nv - 1)
            for _ in range(deg - cut):
                head[rng.randrange(nv - 1)] += 1
            exps.append(tuple(head) + (cut,))
    return exps, bounds


def test_count_standard_sweep_matches_box_enumeration():
    # the slabs are swept upward: many leads share each cut exponent, and
    # a lead at a higher cut often has a projection that divides the
    # projection of an older one, which must then leave the slab
    rng = random.Random(1717)
    dropped = shared = 0
    for trial in range(60):
        nv = 2 + trial % 5
        cap = {2: 12, 3: 6, 4: 4, 5: 3, 6: 3}[nv]
        R = ring(3, *[f"x{i}" for i in range(nv)])
        exps, bounds = _slab_heavy_exps(rng, nv, cap)
        kept = _minimal_exps(exps)
        gens = tuple(sorted(R.pack(e) for e in kept))
        assert groebner._count_standard(gens, R.guards, {}) == \
            box_staircase_count(kept, bounds)
        cuts = [e[-1] for e in kept if 0 < e[-1] < bounds[-1]]
        shared += len(cuts) > len(set(cuts))
        dropped += any(g[-1] < h[-1] and all(a <= b for a, b in
                                             zip(h[:-1], g[:-1]))
                       for g in kept for h in kept)
    assert shared >= 30 and dropped >= 30


def _permuted(exps, perm):
    return [tuple(e[i] for i in perm) for e in exps]


def test_monomial_colength_does_not_depend_on_the_variable_order():
    # the count cuts along the least-used variable first, so every
    # renaming of the variables must give the same number; the fixed
    # cases tie some or all of the lead counts per variable
    rng = random.Random(1010)
    cases = [random_monomial_ideal(rng, nvars=3 + trial % 2)[1:]
             for trial in range(12)]
    cases += [([(2, 0, 0), (0, 2, 0), (0, 0, 2)], [2, 2, 2]),
              ([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1),
                (1, 0, 1)], [3, 3, 3]),
              ([(4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 2),
                (1, 1, 0, 0), (0, 0, 1, 1)], [4, 2, 3, 2])]
    for exps, bounds in cases:
        expected = box_staircase_count(exps, bounds)
        for perm in permutations(range(len(bounds))):
            assert monomial_ideal_colength(_permuted(exps, perm),
                                           len(bounds)) == expected


def test_module_colength_does_not_depend_on_the_variable_order():
    # x: 3 leads, y and z: 2 each at position 0, which keeps ring order;
    # z: 3 leads at position 1, which moves it, so the two positions cut
    # along different variables and share one memo
    R = ring(3, "x", "y", "z")
    by_pos = [[(2, 0, 0), (0, 3, 0), (0, 0, 4), (1, 1, 0), (1, 0, 1)],
              [(4, 0, 0), (0, 2, 0), (0, 0, 3), (0, 1, 1), (1, 0, 1)]]
    kept = [tuple(sorted(R.pack(e) for e in exps)) for exps in by_pos]
    assert [groebner._least_used_first(k, 3) == k for k in kept] \
        == [True, False]
    expected = (box_staircase_count(by_pos[0], [2, 3, 4])
                + box_staircase_count(by_pos[1], [4, 2, 3]))
    for perm in permutations(range(3)):
        gens = [FreeModuleElement.basis_vector(R, 2, pos, R.monomial(e))
                for pos, exps in enumerate(by_pos)
                for e in _permuted(exps, perm)]
        assert colength(buchberger(gens, ring=R, rank=2)) == expected


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


def test_dimension_of_a_module_is_the_maximum_over_positions():
    R = ring(5, "x", "y", "z")
    per_pos = [[R.parse("x*y"), R.parse("x*z^2")],       # dim 2 at e_0
               [R.parse("x"), R.parse("y^3 - z")]]       # dim 1 at e_1
    gens = [FreeModuleElement.basis_vector(R, 2, pos, f)
            for pos, fs in enumerate(per_pos) for f in fs]
    dims = [krull_dimension(buchberger(fs)) for fs in per_pos]
    assert dims == [2, 1]
    assert krull_dimension(buchberger(gens, ring=R, rank=2)) == 2
    # a position without relations is free
    assert krull_dimension(buchberger(gens[2:], ring=R, rank=2)) == 3
    unit = FreeModuleElement.basis_vector(R, 2, 0, R.one())
    assert krull_dimension(buchberger([unit] + gens[2:], ring=R,
                                      rank=2)) == 1


# -- multiplicity ------------------------------------------------------------------

def test_multiplicity_of_hypersurfaces_and_the_determinantal_ring():
    # a hypersurface of degree k has multiplicity k, and the 2 x 2 minors
    # of a generic 2 x 3 matrix cut out a variety of degree 3
    R = ring(5, "x1", "x2", "x3", "x4")
    for f, k in (("x1^4 + x2^4 + x3^4 + x4^4", 4), ("x1*x2 - x3^2", 2),
                 ("x1^3*x2 + x4^2", 4)):
        assert buchberger([R.parse(f)]).staircase().multiplicity(3) == k
    D = ring(3, "x1", "x2", "x3", "x4", "x5", "x6")
    gb = buchberger([D.parse("x1*x5 - x2*x4"), D.parse("x1*x6 - x3*x4"),
                     D.parse("x2*x6 - x3*x5")])
    assert gb.staircase().multiplicity(4) == 3


def test_multiplicity_sums_positions_of_the_top_dimension():
    R = ring(5, "x", "y", "z")
    # e_0: x*y (two planes), e_1: x (dimension 2, degree 1), e_2: x, y
    # (dimension 1, below 2), and at rank 4, e_3 free
    per_pos = [["x*y"], ["x"], ["x", "y"]]

    def stairs(rank):
        gens = [FreeModuleElement.basis_vector(R, rank, pos, R.parse(f))
                for pos, fs in enumerate(per_pos) for f in fs]
        return buchberger(gens, ring=R, rank=rank).staircase()

    assert stairs(3).multiplicity(2) == 3
    with pytest.raises(ValueError):
        stairs(3).multiplicity(1)        # positions 0 and 1 lie above 1
    assert stairs(4).multiplicity(3) == 1
    with pytest.raises(ValueError):
        stairs(4).multiplicity(2)        # the free position lies above 2


def _hilbert_function(gens, nvars, k):
    """Monomials of degree k in no monomial ideal generator's multiples."""
    return sum(1 for m in monomials_up_to_degree(nvars, k) if sum(m) == k
               and not any(all(a <= b for a, b in zip(g, m)) for g in gens))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=4))
def test_multiplicity_is_the_hilbert_polynomial_leading_term(gens):
    # the (d-1)-th difference of the Hilbert function at a large degree
    # is the multiplicity; at d = 0 it is the Hilbert function's sum, the
    # colength (every exponent of a standard monomial is below 3, so its
    # degree is at most 6)
    R = ring(5, "x", "y", "z")
    stairs = Staircase(R, 1, [R.pack(g) for g in gens])
    d = stairs.dimension()
    if d == 0:
        assert stairs.multiplicity(0) == sum(_hilbert_function(gens, 3, k)
                                             for k in range(7))
        return
    values = [_hilbert_function(gens, 3, k) for k in range(30 - d, 31)]
    for _ in range(d - 1):
        values = [b - a for a, b in zip(values, values[1:])]
    assert stairs.multiplicity(d) == values[-1]


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


def _rank2_vectors(R):
    rows = [("x*y - z^2", "x"), ("x*y + y*z", "y^2"), ("x^2*y + y^3", "z"),
            ("0", "x^2 - y*z"), ("0", "x^3 + z^3")]
    return [FreeModuleElement.from_components(R, [R.parse(a), R.parse(b)])
            for a, b in rows]


def _assert_kills(syz, gens):
    for s in syz:
        combo = FreeModuleElement(gens[0].ring, gens[0].rank, {})
        for i, g in enumerate(gens):
            combo = combo + s.component(i) * g
        assert combo.is_zero()


def test_syzygies_of_four_rank2_vectors():
    R = ring(5, "x", "y", "z")
    gens = _rank2_vectors(R)[:4]
    syz = syzygies(gens)
    assert len(syz) == 4
    _assert_kills(syz, gens)


def _single_term_ideal(R):
    return [R.parse(f) for f in ("x^2", "x*y - z^2", "y^2", "x*z")]


@pytest.mark.parametrize("build, shape", [
    (lambda R: _rank2_vectors(R)[:4], (25, 5, 19, 126)),
    # single-term by module terms: no pairs among x^2, y^2 and x*z
    (_single_term_ideal, (4, 0, 6, 2)),
])
def test_syzygy_run_shape(build, shape, monkeypatch):
    # the run on the tagged inputs g_i + e_(rank+i): pairs popped, pairs
    # chained, elements added and reduction steps when it ends (the final
    # S-pair pass reduces in the same engine afterwards)
    shapes = []
    run = groebner._Engine.run

    def recording(self):
        run(self)
        shapes.append((self.pairs_popped, self.pairs_chained,
                       len(self.basis), self.reduction_steps))

    monkeypatch.setattr(groebner._Engine, "run", recording)
    syzygies(build(ring(5, "x", "y", "z")))
    assert shapes[0] == shape


def _homogeneous(R, rng, degree):
    monos = [e for e in monomials_up_to_degree(R.nvars, degree)
             if sum(e) == degree]
    return sum((R.monomial(e, rng.randrange(1, R.p))
                for e in rng.sample(monos, rng.randint(1, 3))), R.zero())


def _degree_rows(vectors, weights, degree, nvars, index):
    """Rows of u * v for each vector v of weight w <= degree and monomial
    u of degree - w, each keyed by index[(position, exponents)]."""
    rows = []
    for vec, w in zip(vectors, weights):
        if w > degree:
            continue
        for u in monomials_up_to_degree(nvars, degree - w):
            if sum(u) != degree - w:
                continue
            row = {}
            for pos, exps, c in vec.entries():
                key = (pos, tuple(a + b for a, b in zip(u, exps)))
                row[index.setdefault(key, len(index))] = c
            rows.append(row)
    return rows


def test_syzygies_match_dense_kernels():
    # homogeneous inputs g_i of degree d_i: in the grading where e_i has
    # degree d_i each syzygy is homogeneous, and in every degree D the
    # syzygies' monomial multiples span the kernel of the dense map
    # (a_i) -> sum a_i g_i from the sum of P_(D - d_i) to P_D^rank
    rng = random.Random(1980)
    for trial in range(40):
        R = ring(rng.choice([2, 3, 5, 7]), "x", "y", "z")
        rank = 1 if trial < 24 else 2
        m = rng.randint(2, 4) if rank == 1 else rng.randint(3, 4)
        degs = [rng.randint(1, 2) for _ in range(m)]
        gens = []
        for d in degs:
            parts = [_homogeneous(R, rng, d) for _ in range(rank)]
            if rank == 2 and rng.random() < 0.3:
                parts[rng.randrange(2)] = R.zero()
            gens.append(FreeModuleElement.from_components(R, parts))
        syz = syzygies(gens)
        _assert_kills(syz, gens)
        weights = []
        for s in syz:
            shifted = {sum(exps) + degs[i] for i, exps, _ in s.entries()}
            assert len(shifted) == 1
            weights.append(shifted.pop())
        for degree in range(max(degs) + 3):
            images = _degree_rows(gens, degs, degree, R.nvars, {})
            kernel = len(images) - gauss_rank_mod_p(images, R.p)
            spans = _degree_rows(syz, weights, degree, R.nvars, {})
            assert gauss_rank_mod_p(spans, R.p) == kernel


@pytest.mark.slow
def test_syzygies_of_five_rank2_vectors():
    # 10-14 s on 2 cores, most of it in the final Groebner run over the
    # raw syzygies
    R = ring(5, "x", "y", "z")
    gens = _rank2_vectors(R)
    syz = syzygies(gens)
    assert len(syz) == 14
    _assert_kills(syz, gens)


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


# -- module rank and cokernel dimension ----------------------------------------------

def _matrix_rank(p, names, quotient, rows):
    """Rank over Frac(P/Q) of a matrix of strings, read two ways: as the
    image of its columns, and as s minus the rank of their cokernel."""
    R = RingPresentation(p, names, quotient)
    s = len(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonHomogeneousInputWarning)
        coker = ModulePresentation.coker(
            R, s, [[row[j] for row in rows] for j in range(len(rows[0]))])
    image = ModulePresentation("image", image=coker.columns,
                               ambient_rank=len(coker.columns))
    rank = module_rank(R, image)
    assert rank == s - module_rank(R, coker)
    return rank


def test_rank_identity():
    for s in (1, 2, 3):
        mat = [["1" if i == j else "0" for j in range(s)] for i in range(s)]
        assert _matrix_rank(5, ["x", "y"], [], mat) == s


def test_rank_row_vector():
    assert _matrix_rank(5, ["x", "y"], [], [["x", "y"]]) == 1


def test_rank_nonzero_scalar():
    assert _matrix_rank(5, ["x", "y"], [], [["x^2 + y"]]) == 1
    assert _matrix_rank(5, ["x", "y"], [], [["0"]]) == 0


def test_rank_modulo_quotient():
    # x1 * x5 == x2 * x4 on the determinantal variety: the matrix
    # [[x1, x2], [x4, x5]] drops to rank 1 modulo the minors
    names = ["x1", "x2", "x3", "x4", "x5", "x6"]
    mat = [["x1", "x2"], ["x4", "x5"]]
    assert _matrix_rank(3, names, [], mat) == 2
    assert _matrix_rank(3, names, ["x1*x5 - x2*x4", "x1*x6 - x3*x4",
                                   "x2*x6 - x3*x5"], mat) == 1


def test_cokernel_dimension_free_and_zero():
    R = RingPresentation(5, ["x", "y", "z"])
    md = module_dimension(R, ModulePresentation.coker(R, 2, []))
    assert (md.dimension, md.is_zero_module) == (3, False)
    unit = ModulePresentation.coker(R, 2, [["1", "0"], ["0", "1"]])
    md = module_dimension(R, unit)
    assert (md.dimension, md.is_zero_module) == (0, True)


QUARTIC = (5, ("x1", "x2", "x3", "x4"), ["x1^4 + x2^4 + x3^4 + x4^4"])
DETERMINANTAL = (3, ("x1", "x2", "x3", "x4", "x5", "x6"),
                 ["x1*x5 - x2*x4", "x1*x6 - x3*x4", "x2*x6 - x3*x5"])


@pytest.mark.parametrize("shape, rank, columns, expected", [
    (QUARTIC, 1, [], (3, False)),
    (DETERMINANTAL, 1, [], (4, False)),
    (QUARTIC, 1, [["x1"]], (2, False)),
    (QUARTIC, 2, [["x1", "x2"], ["x3", "0"]], (2, False)),
    (DETERMINANTAL, 2, [["x1", "x2"], ["x4", "x5"]], (4, False)),
    (DETERMINANTAL, 2, [["1", "0"], ["x1", "x2"]], (3, False)),
    (DETERMINANTAL, 2, [["1", "x3"], ["x1", "1"]], (3, False)),
    (DETERMINANTAL, 2, [["1", "x3"], ["0", "1"]], (0, True)),
])
def test_cokernel_dimension_does_not_depend_on_the_order(shape, rank,
                                                         columns, expected):
    # (dimension, zero module) of coker(rank, columns) over P/Q, from the
    # relations' staircase in each order and from module_dimension
    p, names, quotient = shape
    R = ring(p, *names)
    relations = [FreeModuleElement.from_components(R, [R.parse(c)
                                                       for c in col])
                 for col in columns]
    relations += [FreeModuleElement.basis_vector(R, rank, i, R.parse(f))
                  for f in quotient for i in range(rank)]
    for order in (GREVLEX, LEX, DEGLEX):
        gb = buchberger(relations, order, ring=R, rank=rank)
        units = sum(not any(exps) for _, exps in gb.lead_terms())
        assert (krull_dimension(gb), units == rank) == expected
    ring_q = RingPresentation(p, names, quotient)
    md = module_dimension(ring_q, ModulePresentation.coker(ring_q, rank,
                                                           columns))
    assert (md.dimension, md.is_zero_module) == expected
