"""Arithmetic, parser and order tests for the polynomial layer."""

import pytest
from hypothesis import given, settings, strategies as st

from hilbertkunz import (DEGLEX, GREVLEX, LEX, EXP_LIMIT,
                         ExponentOverflowError, FreeModuleElement, ParseError,
                         PolyRing, RingMismatchError, get_order, is_prime,
                         parse_poly, poly_power)
from hilbertkunz.poly import as_vector


def ring2():
    return PolyRing(2, ["x", "y"])


def ring5():
    return PolyRing(5, ["x", "y"])


# -- construction and validation -------------------------------------------------

def test_prime_validation():
    with pytest.raises(ValueError):
        PolyRing(6, ["x"])
    with pytest.raises(ValueError):
        PolyRing(1, ["x"])
    with pytest.raises(ValueError):
        PolyRing(2**31 + 11, ["x"])
    PolyRing(2147483647, ["x"])      # 2^31 - 1 is prime and in range


def test_is_prime_spots():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(32003)
    assert not is_prime(32001)


def test_variable_validation():
    with pytest.raises(ValueError):
        PolyRing(5, [])
    with pytest.raises(ValueError):
        PolyRing(5, ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(5, ["1bad"])


def test_get_order():
    assert get_order("grevlex") is GREVLEX
    assert get_order("LEX") is LEX
    with pytest.raises(ValueError):
        get_order("elimination")


# -- basic arithmetic -----------------------------------------------------------

def test_add_identity():
    R = ring5()
    f = R.parse("x^2 + 3*y")
    assert f + R.zero() == f


def test_char2_cancellation():
    R = ring2()
    f = R.parse("x + y")
    assert (f + f).is_zero()


def test_residue_arithmetic():
    R = ring5()
    assert R.parse("3*x") + R.parse("4*x") == R.parse("2*x")


def test_mul_identity():
    R = ring5()
    f = R.parse("x^2 + 3*y")
    assert f * R.one() == f


def test_freshman_dream():
    R = ring2()
    f = R.parse("x + y")
    assert f * f == R.parse("x^2 + y^2")


def test_difference_of_squares():
    R = ring5()
    assert R.parse("x + y") * R.parse("x - y") == R.parse("x^2 + 4*y^2")


def test_power_zero_is_one():
    R = ring5()
    assert poly_power(R.parse("x^2 + 3*y"), 0) == R.one()


def test_char5_binomial():
    R = ring5()
    assert R.parse("x + y") ** 5 == R.parse("x^5 + y^5")


def test_monomial_power():
    R = ring5()
    assert R.parse("x^2") ** 3 == R.parse("x^6")


def test_frobenius_matches_pow():
    R = ring5()
    f = R.parse("2*x^2 + 3*x*y + y")
    assert f.frobenius_power(5) == f ** 5
    assert f.frobenius_power(25) == f ** 25
    assert f.frobenius_power(1) == f


def test_ring_mismatch():
    f = ring2().parse("x")
    g = PolyRing(3, ["x", "y"]).parse("x")
    with pytest.raises(RingMismatchError):
        f + g
    with pytest.raises(RingMismatchError):
        f * g


def test_exponent_overflow():
    R = ring5()
    with pytest.raises(ExponentOverflowError):
        R.monomial((EXP_LIMIT, 0))
    f = R.parse("x^20000")
    with pytest.raises(ExponentOverflowError):
        f * f
    with pytest.raises(ExponentOverflowError):
        R.parse("x^3").frobenius_power(5 ** 7)


# -- parser -----------------------------------------------------------------------

def test_parse_quartic():
    R = PolyRing(5, ["x1", "x2"])
    f = R.parse("x1^4 + x2^4")
    assert f.terms() == [((4, 0), 1), ((0, 4), 1)]


def test_parse_coefficient_reduction():
    R = ring5()
    assert R.parse("7*x") == R.parse("2*x")
    assert R.parse("10*x").is_zero()


def test_parse_unknown_variable():
    R = PolyRing(5, ["x1", "x2"])
    with pytest.raises(ParseError) as err:
        R.parse("x1*z")
    assert "z" in str(err.value)
    assert err.value.col == 4


def test_parse_integer_past_the_digit_limit_is_a_parse_error():
    # int() refuses more than 4300 digits with a bare ValueError
    R = ring5()
    for text, col in (("7" * 5000 + "*x", 1), ("x^" + "7" * 5000, 3),
                      ("y + " + "1" * 5000, 5)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, R)
        assert err.value.message == "integer has too many digits"
        assert err.value.col == col


def test_parse_errors_carry_position():
    R = ring5()
    with pytest.raises(ParseError) as err:
        R.parse("x + + y")
    assert err.value.col is not None
    with pytest.raises(ParseError):
        R.parse("")
    with pytest.raises(ParseError):
        R.parse("x ^ y")
    with pytest.raises(ParseError):
        R.parse("x !")


def test_parse_signs_and_unicode_minus():
    R = ring5()
    assert R.parse("-x") == R.parse("4*x")
    assert R.parse("x − y") == R.parse("x - y")
    assert R.parse("x - 2") == R.parse("x + 3")


def test_parse_repeated_variable_accumulates():
    R = ring5()
    assert R.parse("x*x*y") == R.parse("x^2*y")
    assert R.parse("2*x*3") == R.parse("x")


def test_str_zero_round_trip():
    R = ring5()
    assert str(R.zero()) == "0"
    assert R.parse("0").is_zero()
    assert R.parse(str(R.parse("x - x"))).is_zero()


# -- property tests ------------------------------------------------------------------

def _ring_strategy():
    return st.builds(
        lambda p, v: PolyRing(p, ["x", "y", "z"][:v]),
        st.sampled_from([2, 3, 5]), st.integers(1, 3))


def _poly(ring, draw, terms=st.integers(0, 4)):
    n = draw(terms)
    items = []
    for _ in range(n):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(ring.nvars))
        coeff = draw(st.integers(1, ring.p - 1)) if ring.p > 2 else 1
        items.append((exps, coeff))
    return ring.from_terms(items)


@st.composite
def ring_and_polys(draw, count=2):
    ring = draw(_ring_strategy())
    return (ring,) + tuple(_poly(ring, draw) for _ in range(count))


@settings(max_examples=120, deadline=None)
@given(ring_and_polys(count=3))
def test_ring_axioms(data):
    ring, f, g, h = data
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f + (-f)).is_zero()


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(count=2), st.integers(-7, 7))
def test_vector_arithmetic_matches_polynomial_arithmetic(data, c):
    ring, f, g = data
    vf, vg = as_vector(f), as_vector(g)
    assert as_vector(f + g) == vf + vg
    assert as_vector(f - g) == vf - vg
    assert as_vector(-f) == -vf
    assert as_vector(c * f) == c * vf
    assert as_vector(f * g) == f * vg
    # the position bits ride along unchanged
    assert f * FreeModuleElement.basis_vector(ring, 2, 1, g) == \
        FreeModuleElement.basis_vector(ring, 2, 1, f * g)


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(count=2))
def test_frobenius_additivity(data):
    ring, f, g = data
    p = ring.p
    assert (f + g) ** p == f ** p + g ** p


@settings(max_examples=100, deadline=None)
@given(ring_and_polys(count=1))
def test_parse_print_round_trip(data):
    ring, f = data
    assert ring.parse(str(f)) == f


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=1), st.sampled_from([GREVLEX, LEX, DEGLEX]))
def test_order_axioms(data, order):
    ring, f = data
    key = ring.mono_key_fn(order)
    monos = [ring.pack(e) for e, _ in f.terms()]
    monos.append(0)                     # the monomial 1
    x0 = ring.pack((1,) + (0,) * (ring.nvars - 1))
    # totality: identical keys only for identical monomials
    for a in monos:
        for b in monos:
            assert (key(a) == key(b)) == (a == b)
            # multiplicative: shifting by a variable preserves comparisons
            if ring.mono_deg(a) < 1000 and ring.mono_deg(b) < 1000:
                assert (key(a) < key(b)) == (
                    key(ring.mono_mul(a, x0)) < key(ring.mono_mul(b, x0)))
    # 1 is the minimum
    for a in monos:
        assert key(0) <= key(a)


@st.composite
def _term_and_shift(draw):
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(5, [f"x{i}" for i in range(nvars)])
    rank = draw(st.integers(1, 3))
    exps = [draw(st.integers(0, EXP_LIMIT - 1)) for _ in range(nvars)]
    shift = [draw(st.integers(0, EXP_LIMIT - 1 - e)) for e in exps]
    pos = draw(st.integers(0, rank - 1))
    term = pos << ring.mono_bits | ring.pack(exps)
    return ring, rank, term, ring.pack(shift)


@settings(max_examples=200, deadline=None)
@given(_term_and_shift(), st.sampled_from([GREVLEX, LEX, DEGLEX]))
def test_term_keys_add_under_monomial_shifts(data, order):
    # the reduction kernel keys a shifted term as its stored key plus an
    # offset: key(t + u) = key(t) + key(u) - key(1)
    ring, rank, t, u = data
    key = ring.term_key_fn(order, rank)
    monokey = ring.mono_key_fn(order)
    assert key(t + u) == key(t) + monokey(u) - monokey(0)


# exponents at both ends of a field, 0 and EXP_LIMIT - 1 = 0x7FFF, are drawn
# often, since that is where a borrow or carry between fields would show
_exponent = st.one_of(st.sampled_from([0, 1, EXP_LIMIT - 2, EXP_LIMIT - 1]),
                      st.integers(0, EXP_LIMIT - 1))


@st.composite
def _exponent_pair(draw):
    nvars = draw(st.integers(1, 6))
    a = [draw(_exponent) for _ in range(nvars)]
    b = [draw(_exponent) for _ in range(nvars)]
    return PolyRing(5, [f"x{i}" for i in range(nvars)]), a, b


@settings(max_examples=300, deadline=None)
@given(_exponent_pair())
def test_mono_lcm_is_the_fieldwise_maximum(data):
    ring, a, b = data
    lcm = ring.mono_lcm(ring.pack(a), ring.pack(b))
    assert ring.unpack(lcm) == tuple(map(max, a, b))
    assert lcm == ring.mono_lcm(ring.pack(b), ring.pack(a))


# -- explicit order comparisons --------------------------------------------------------

def test_grevlex_classic_comparison():
    # x^2 y z > x y^3 in deglex (degree first... equal here) differs from lex
    R = PolyRing(5, ["x", "y", "z"])
    grev = R.mono_key_fn(GREVLEX)
    a = R.pack((1, 0, 1))       # xz
    b = R.pack((0, 2, 0))       # y^2
    # same degree; grevlex compares the last variable: z exponent 1 > 0
    # so xz is smaller
    assert grev(a) < grev(b)
    lex = R.mono_key_fn(LEX)
    assert lex(a) > lex(b)


def test_deglex_vs_lex():
    R = ring5()
    deglex = R.mono_key_fn(DEGLEX)
    lexk = R.mono_key_fn(LEX)
    x = R.pack((1, 0))
    y3 = R.pack((0, 3))
    assert deglex(x) < deglex(y3)       # degree dominates
    assert lexk(x) > lexk(y3)           # x dominates


# -- free module elements -----------------------------------------------------------

def test_module_element_round_trip():
    R = ring5()
    f = R.parse("x^2 + 3*y")
    g = R.parse("y - x")
    v = FreeModuleElement.from_components(R, [f, g])
    assert v.component(0) == f
    assert v.component(1) == g
    assert v.rank == 2


def test_module_position_priority():
    # descending position priority: anything in slot 0 beats slot 1
    R = ring5()
    v = FreeModuleElement.from_components(R, [R.parse("x"), R.parse("x^3")])
    pos, exps, coeff = v.lead_entry()
    assert pos == 0 and exps == (1, 0) and coeff == 1


def test_module_arithmetic():
    R = ring5()
    v = FreeModuleElement.from_components(R, [R.parse("x"), R.parse("y")])
    w = FreeModuleElement.from_components(R, [R.parse("4*x"), R.zero()])
    assert (v + w).component(0) == R.zero()
    assert (R.parse("x") * v).component(1) == R.parse("x*y")
    assert (v - v).is_zero()


def test_basis_vector():
    R = ring5()
    e1 = FreeModuleElement.basis_vector(R, 3, 1)
    assert e1.component(1) == R.one()
    assert e1.component(0).is_zero()
    with pytest.raises(ValueError):
        FreeModuleElement.basis_vector(R, 2, 5)


def test_module_rank_mismatch():
    R = ring5()
    v = FreeModuleElement.from_components(R, [R.parse("x")])
    w = FreeModuleElement.from_components(R, [R.parse("x"), R.parse("y")])
    with pytest.raises(RingMismatchError):
        v + w
