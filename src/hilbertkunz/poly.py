"""Exact sparse polynomial arithmetic over prime fields F_p.

A monomial is packed into a single Python integer, 16 bits per variable
with the top bit of every field reserved as a borrow guard.  This makes
monomial multiplication an integer addition and divisibility a single
masked subtraction, which is what keeps the Buchberger engine usable in
pure Python.  Exponents are therefore capped at 2**15 - 1 = 32767; any
operation that would exceed the cap raises ExponentOverflowError instead
of wrapping.

Coefficients are plain Python ints kept fully reduced into [0, p).  The
zero polynomial has an empty term dict, there are never zero coefficients
or duplicate monomials, so equality of canonical values is dict equality.

Free-module elements reuse the same packing with the component index in
the bits above the monomial fields, so the Groebner engine works on one
representation for ideals (rank 1) and submodules of free modules alike.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Optional, Sequence

EXP_LIMIT = 1 << 15          # exponents must stay strictly below this
_FIELD = 16
_FIELD_MASK = 0xFFFF
_POS_LIMIT = 1 << 16         # free-module rank cap


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class ExponentOverflowError(OverflowError):
    """An exponent left the representable range [0, 32768)."""


class ParseError(ValueError):
    """Syntax or validation error, with a 1-based position when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        self.message = message
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {col})" if col is not None else ")")
        elif col is not None:
            where = f" (col {col})"
        super().__init__(message + where)


def is_prime(n: int) -> bool:
    """Trial division; adequate for the supported range p < 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class MonomialOrder:
    """One of the three supported monomial orders.

    All orders are encoded as integer sort keys, so that key(a) < key(b)
    exactly when a < b in the order.  Every key map is injective, total,
    multiplicative and has the empty monomial as minimum.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(("MonomialOrder", self.name))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
DEGLEX = MonomialOrder("deglex")

_ORDERS = {"grevlex": GREVLEX, "lex": LEX, "deglex": DEGLEX}


def get_order(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}; "
                         f"choose from {sorted(_ORDERS)}") from None


class PolyRing:
    """The polynomial ring F_p[x_1..x_v] with a default monomial order.

    Values built from one ring instance may be combined freely; combining
    values from rings with different characteristic or variables raises
    RingMismatchError.  The order only affects sorted views and Groebner
    runs, never the stored representation, so the same polynomial can be
    examined under several orders.
    """

    __slots__ = ("p", "vars", "nvars", "order", "_var_index", "_shifts",
                 "mono_bits", "mono_mask", "guards", "_key_cache",
                 "_one_cache")

    def __init__(self, p: int, variables: Sequence[str],
                 order: MonomialOrder = GREVLEX):
        if not (2 <= p < 2**31):      # before the slow primality test
            raise ValueError(f"characteristic must satisfy 2 <= p < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"non-prime characteristic p={p}")
        variables = tuple(variables)
        if not variables:
            raise ValueError("at least one variable is required")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        for name in variables:
            if not name or not (name[0].isalpha() or name[0] == "_") \
                    or not all(c.isalnum() or c == "_" for c in name):
                raise ValueError(f"invalid variable name {name!r}")
        self.p = p
        self.vars = variables
        self.nvars = len(variables)
        self.order = order
        self._var_index = {name: i for i, name in enumerate(variables)}
        # variable 0 sits in the highest field so raw packing is the lex key
        self._shifts = tuple(_FIELD * (self.nvars - 1 - i)
                             for i in range(self.nvars))
        self.mono_bits = _FIELD * self.nvars
        self.mono_mask = (1 << self.mono_bits) - 1
        self.guards = sum(0x8000 << (_FIELD * i) for i in range(self.nvars))
        self._key_cache: dict = {}
        self._one_cache: Optional[Polynomial] = None

    # -- ring identity -------------------------------------------------

    def compatible(self, other: "PolyRing") -> bool:
        return self.p == other.p and self.vars == other.vars

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.p == other.p
                and self.vars == other.vars and self.order == other.order)

    def __hash__(self):
        return hash((self.p, self.vars, self.order.name))

    def __repr__(self):
        return (f"PolyRing(p={self.p}, vars={list(self.vars)}, "
                f"order={self.order.name})")

    # -- packed monomials ------------------------------------------------

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, "
                             f"got {len(exponents)}")
        m = 0
        for e, sh in zip(exponents, self._shifts):
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e >= EXP_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {e} exceeds the supported bound {EXP_LIMIT - 1}")
            m |= e << sh
        return m

    def unpack(self, m: int) -> tuple:
        return tuple((m >> sh) & _FIELD_MASK for sh in self._shifts)

    def mono_deg(self, m: int) -> int:
        d = 0
        for sh in self._shifts:
            d += (m >> sh) & _FIELD_MASK
        return d

    def mono_mul(self, a: int, b: int) -> int:
        s = a + b
        if s & self.guards:
            raise ExponentOverflowError(
                "monomial product exceeds the exponent bound "
                f"{EXP_LIMIT - 1}")
        return s

    def mono_divides(self, a: int, b: int) -> bool:
        """Whether monomial a divides monomial b (componentwise <=)."""
        g = self.guards
        return ((b | g) - a) & g == g

    def mono_lcm(self, a: int, b: int) -> int:
        out = 0
        for sh in self._shifts:
            ea = (a >> sh) & _FIELD_MASK
            eb = (b >> sh) & _FIELD_MASK
            out |= (ea if ea > eb else eb) << sh
        return out

    def mono_str(self, m: int) -> str:
        parts = []
        for name, sh in zip(self.vars, self._shifts):
            e = (m >> sh) & _FIELD_MASK
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    # -- order keys ------------------------------------------------------

    def mono_key_fn(self, order: Optional[MonomialOrder] = None):
        """Map packed monomial -> int with key(a) < key(b) iff a < b."""
        order = order or self.order
        fn = self._key_cache.get(order.name)
        if fn is not None:
            return fn
        shifts = self._shifts
        bits = self.mono_bits
        if order.name == "lex":
            def fn(m: int) -> int:
                return m
        elif order.name == "deglex":
            def fn(m: int) -> int:
                d = 0
                for sh in shifts:
                    d += (m >> sh) & _FIELD_MASK
                return (d << bits) | m
        elif order.name == "grevlex":
            # ties: the last variable with a differing exponent decides,
            # smaller exponent wins, hence complemented reversed fields
            nv = self.nvars
            def fn(m: int) -> int:
                d = 0
                comp = 0
                for i in range(nv):
                    e = (m >> shifts[i]) & _FIELD_MASK
                    d += e
                    comp |= (0x7FFF - e) << (_FIELD * i)
                return (d << bits) | comp
        else:  # pragma: no cover
            raise ValueError(f"unhandled order {order.name}")
        self._key_cache[order.name] = fn
        return fn

    def term_key_fn(self, order: Optional[MonomialOrder], rank: int):
        """Key for packed (position | monomial) terms.

        Position-over-term with descending position priority: terms in
        component 0 dominate terms in component 1, and so on; ties are
        broken by the ring order on the monomial part.
        """
        monokey = self.mono_key_fn(order)
        bits = self.mono_bits
        mask = self.mono_mask
        shift = bits + 40      # ring keys fit in mono_bits + deg bits < +40
        def fn(t: int) -> int:
            return ((rank - (t >> bits)) << shift) | monokey(t & mask)
        return fn

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        if self._one_cache is None:
            self._one_cache = Polynomial(self, {0: 1})
        return self._one_cache

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        return Polynomial(self, {0: c} if c else {})

    def variable(self, which) -> "Polynomial":
        if isinstance(which, str):
            try:
                which = self._var_index[which]
            except KeyError:
                raise ValueError(f"unknown variable {which!r}") from None
        if not 0 <= which < self.nvars:
            raise ValueError(f"variable index {which} out of range")
        return Polynomial(self, {1 << self._shifts[which]: 1})

    def monomial(self, exponents: Sequence[int], coeff: int = 1) -> "Polynomial":
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {self.pack(exponents): coeff})

    def from_terms(self, terms: Iterable[tuple]) -> "Polynomial":
        """Build from (exponent tuple, coefficient) pairs, canonicalizing."""
        d: dict = {}
        for exps, c in terms:
            m = self.pack(exps)
            nc = (d.get(m, 0) + c) % self.p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return Polynomial(self, d)

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(text, self)


class Polynomial:
    """Canonical sparse polynomial over F_p.

    Immutable by convention: nothing in this package mutates a term dict
    after construction, so values may be shared freely across threads.
    """

    __slots__ = ("ring", "_d", "_hash")

    def __init__(self, ring: PolyRing, d: dict):
        # d is trusted canonical: packed monomial -> coefficient in (0, p)
        self.ring = ring
        self._d = d
        self._hash = None

    # -- views ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self) -> bool:
        return bool(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def terms(self, order: Optional[MonomialOrder] = None) -> list:
        """(exponent tuple, coefficient) pairs, descending in the order."""
        key = self.ring.mono_key_fn(order)
        return [(self.ring.unpack(m), self._d[m])
                for m in sorted(self._d, key=key, reverse=True)]

    def lead_monomial(self, order: Optional[MonomialOrder] = None):
        if not self._d:
            return None
        key = self.ring.mono_key_fn(order)
        return self.ring.unpack(max(self._d, key=key))

    def lead_coeff(self, order: Optional[MonomialOrder] = None) -> int:
        if not self._d:
            return 0
        key = self.ring.mono_key_fn(order)
        return self._d[max(self._d, key=key)]

    def min_degree(self) -> Optional[int]:
        if not self._d:
            return None
        deg = self.ring.mono_deg
        return min(deg(m) for m in self._d)

    def is_homogeneous(self) -> bool:
        if not self._d:
            return True
        deg = self.ring.mono_deg
        degrees = {deg(m) for m in self._d}
        return len(degrees) == 1

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self._d.get(self.ring.pack(exponents), 0)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring and not self.ring.compatible(other.ring):
            raise RingMismatchError(
                f"cannot combine values from {self.ring!r} and {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p = self.ring.p
        d = dict(self._d)
        for m, c in other._d.items():
            nc = (d.get(m, 0) + c) % p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return Polynomial(self.ring, d)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {m: p - c for m, c in self._d.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring, {m: (v * c) % p
                                          for m, v in self._d.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        p = self.ring.p
        guards = self.ring.guards
        out: dict = {}
        for ma, ca in self._d.items():
            for mb, cb in other._d.items():
                m = ma + mb
                if m & guards:
                    raise ExponentOverflowError(
                        "product exponent exceeds the supported bound")
                nc = (out.get(m, 0) + ca * cb) % p
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def frobenius_power(self, q: int) -> "Polynomial":
        """Term-wise image under f -> f^q for q a power of p.

        In characteristic p this equals self**q: exponents scale by q and
        coefficients are fixed by Fermat.  The caller asserts that q is a
        power of p; the identity is property-tested against __pow__.
        """
        ring = self.ring
        if q == 1:
            return self
        for m in self._d:
            for sh in ring._shifts:
                if ((m >> sh) & _FIELD_MASK) * q >= EXP_LIMIT:
                    raise ExponentOverflowError(
                        f"Frobenius power q={q} exceeds the exponent bound")
        return Polynomial(ring, {m * q: c for m, c in self._d.items()})

    # -- equality and display -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.compatible(other.ring) and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.p, self.ring.vars,
                               tuple(sorted(self._d.items()))))
        return self._hash

    def key(self) -> tuple:
        """Canonical hashable identity, used for caching."""
        return tuple(sorted(self._d.items()))

    def __str__(self):
        if not self._d:
            return "0"
        ring = self.ring
        key = ring.mono_key_fn(None)
        parts = []
        for m in sorted(self._d, key=key, reverse=True):
            c = self._d[m]
            ms = ring.mono_str(m)
            if not ms:
                parts.append(str(c))
            elif c == 1:
                parts.append(ms)
            else:
                parts.append(f"{c}*{ms}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"


class FreeModuleElement:
    """Element of the free module P^rank over a PolyRing.

    Terms are packed as (position << mono_bits) | monomial, sharing the
    guard-bit layout of Polynomial so the Groebner engine treats ideals
    and submodules uniformly.
    """

    __slots__ = ("ring", "rank", "_d", "_hash")

    def __init__(self, ring: PolyRing, rank: int, d: dict):
        if not 1 <= rank < _POS_LIMIT:
            raise ValueError(f"rank must be in [1, {_POS_LIMIT}), got {rank}")
        self.ring = ring
        self.rank = rank
        self._d = d
        self._hash = None

    @classmethod
    def from_components(cls, ring: PolyRing, polys: Sequence[Polynomial],
                        rank: Optional[int] = None) -> "FreeModuleElement":
        rank = rank if rank is not None else len(polys)
        if len(polys) > rank:
            raise ValueError("more components than rank")
        bits = ring.mono_bits
        d: dict = {}
        for pos, f in enumerate(polys):
            if f.ring is not ring and not f.ring.compatible(ring):
                raise RingMismatchError("component from a different ring")
            base = pos << bits
            for m, c in f._d.items():
                d[base | m] = c
        return cls(ring, rank, d)

    @classmethod
    def basis_vector(cls, ring: PolyRing, rank: int, pos: int,
                     poly: Optional[Polynomial] = None) -> "FreeModuleElement":
        """poly * e_pos (poly defaults to 1)."""
        if not 0 <= pos < rank:
            raise ValueError(f"position {pos} out of range for rank {rank}")
        base = pos << ring.mono_bits
        if poly is None:
            return cls(ring, rank, {base: 1})
        return cls(ring, rank, {base | m: c for m, c in poly._d.items()})

    def is_zero(self) -> bool:
        return not self._d

    def __bool__(self):
        return bool(self._d)

    def component(self, pos: int) -> Polynomial:
        bits = self.ring.mono_bits
        mask = self.ring.mono_mask
        return Polynomial(self.ring,
                          {t & mask: c for t, c in self._d.items()
                           if (t >> bits) == pos})

    def components(self) -> list:
        return [self.component(i) for i in range(self.rank)]

    def entries(self, order: Optional[MonomialOrder] = None) -> list:
        """(position, exponent tuple, coefficient), descending module order."""
        keyf = self.ring.term_key_fn(order, self.rank)
        bits = self.ring.mono_bits
        mask = self.ring.mono_mask
        return [(t >> bits, self.ring.unpack(t & mask), self._d[t])
                for t in sorted(self._d, key=keyf, reverse=True)]

    def lead_entry(self, order: Optional[MonomialOrder] = None):
        if not self._d:
            return None
        keyf = self.ring.term_key_fn(order, self.rank)
        t = max(self._d, key=keyf)
        bits = self.ring.mono_bits
        return (t >> bits, self.ring.unpack(t & self.ring.mono_mask), self._d[t])

    def _check(self, other: "FreeModuleElement"):
        if not self.ring.compatible(other.ring) or self.rank != other.rank:
            raise RingMismatchError("module elements are not compatible")

    def __add__(self, other):
        if not isinstance(other, FreeModuleElement):
            return NotImplemented
        self._check(other)
        p = self.ring.p
        d = dict(self._d)
        for t, c in other._d.items():
            nc = (d.get(t, 0) + c) % p
            if nc:
                d[t] = nc
            else:
                d.pop(t, None)
        return FreeModuleElement(self.ring, self.rank, d)

    def __neg__(self):
        p = self.ring.p
        return FreeModuleElement(self.ring, self.rank,
                                 {t: p - c for t, c in self._d.items()})

    def __sub__(self, other):
        if not isinstance(other, FreeModuleElement):
            return NotImplemented
        return self.__add__(-other)

    def __rmul__(self, other):
        """Left action of the ring: poly * element, or int * element."""
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return FreeModuleElement(self.ring, self.rank, {})
            p = self.ring.p
            return FreeModuleElement(self.ring, self.rank,
                                     {t: (v * c) % p
                                      for t, v in self._d.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.ring.compatible(other.ring):
            raise RingMismatchError("scalar from a different ring")
        p = self.ring.p
        guards = self.ring.guards
        out: dict = {}
        for mf, cf in other._d.items():
            for t, c in self._d.items():
                nt = t + mf
                if nt & guards:
                    raise ExponentOverflowError(
                        "product exponent exceeds the supported bound")
                nc = (out.get(nt, 0) + cf * c) % p
                if nc:
                    out[nt] = nc
                else:
                    out.pop(nt, None)
        return FreeModuleElement(self.ring, self.rank, out)

    def __eq__(self, other):
        if not isinstance(other, FreeModuleElement):
            return NotImplemented
        return (self.ring.compatible(other.ring) and self.rank == other.rank
                and self._d == other._d)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.p, self.ring.vars, self.rank,
                               tuple(sorted(self._d.items()))))
        return self._hash

    def key(self) -> tuple:
        return (self.rank, tuple(sorted(self._d.items())))

    def __str__(self):
        if self.rank == 1:
            return str(self.component(0))
        return "(" + ", ".join(str(self.component(i))
                               for i in range(self.rank)) + ")"

    def __repr__(self):
        return f"<{self} in rank {self.rank} over F_{self.ring.p}>"


def as_vector(g, ring: Optional[PolyRing] = None) -> FreeModuleElement:
    """View a Polynomial as a rank-1 module element (shares the term dict)."""
    if isinstance(g, FreeModuleElement):
        return g
    if isinstance(g, Polynomial):
        return FreeModuleElement(g.ring, 1, g._d)
    raise TypeError(f"expected Polynomial or FreeModuleElement, got {type(g)}")


# -- public operation names matching the library surface ------------------

def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    return f + g


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    return f * g


def poly_power(f: Polynomial, e: int) -> Polynomial:
    return f ** e


# -- parsing ----------------------------------------------------------------

_TOK_INT = "int"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"

_MINUS_CHARS = "-−"     # ASCII hyphen and the typographic minus


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_TOK_INT, int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+*^" or ch in _MINUS_CHARS:
            op = "-" if ch in _MINUS_CHARS else ch
            tokens.append((_TOK_OP, op, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col=i + 1)
    tokens.append((_TOK_END, None, n))
    return tokens


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse the shared polynomial grammar into a canonical polynomial.

    Grammar: signed terms joined by + and -, each term a '*'-separated
    product of integers and variables with optional ^exponent, e.g.
    "x1^4 + x2^4" or "7*x - 3".  Coefficients reduce mod p.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    p = ring.p
    acc: dict = {}

    def parse_term(sign: int):
        coeff = 1
        exps = [0] * ring.nvars
        expect_factor = True
        while True:
            kind, val, at = peek()
            if expect_factor:
                if kind == _TOK_INT:
                    advance()
                    coeff = coeff * val
                elif kind == _TOK_NAME:
                    advance()
                    idx = ring._var_index.get(val)
                    if idx is None:
                        raise ParseError(f"unknown variable {val!r}", col=at + 1)
                    e = 1
                    k2, v2, _ = peek()
                    if k2 == _TOK_OP and v2 == "^":
                        advance()
                        k3, v3, at3 = advance()
                        if k3 != _TOK_INT:
                            raise ParseError("expected integer exponent",
                                             col=at3 + 1)
                        e = v3
                    exps[idx] += e
                    if exps[idx] >= EXP_LIMIT:
                        raise ExponentOverflowError(
                            f"exponent {exps[idx]} exceeds the supported "
                            f"bound {EXP_LIMIT - 1}")
                else:
                    raise ParseError("expected a coefficient or variable",
                                     col=at + 1)
                expect_factor = False
            else:
                if kind == _TOK_OP and val == "*":
                    advance()
                    expect_factor = True
                else:
                    break
        m = ring.pack(exps)
        c = (acc.get(m, 0) + sign * coeff) % p
        if c:
            acc[m] = c
        else:
            acc.pop(m, None)

    # leading sign
    sign = 1
    kind, val, at = peek()
    if kind == _TOK_OP and val in "+-":
        advance()
        sign = -1 if val == "-" else 1
    elif kind == _TOK_END:
        raise ParseError("empty polynomial", col=at + 1)
    parse_term(sign)
    while True:
        kind, val, at = peek()
        if kind == _TOK_END:
            break
        if kind == _TOK_OP and val in "+-":
            advance()
            parse_term(-1 if val == "-" else 1)
        else:
            raise ParseError(f"expected '+' or '-' but found {val!r}",
                             col=at + 1)
    return Polynomial(ring, acc)
