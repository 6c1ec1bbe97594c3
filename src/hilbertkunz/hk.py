"""Hilbert-Kunz machinery over R = P/Q in characteristic p.

The central quantity is the length of M/JM for J the ideal generated by
q-th powers of a fixed ideal's generators, q = p^n.  All lengths are
computed as colengths in the ambient polynomial ring.  Every module is
presented as a cokernel of R^s (a module given by generators goes
through their syzygies first), and its length modulo I^[q] is the
colength in P^s of the relation columns plus the defining generators and
the bracket power times each free basis vector, so one Groebner engine
serves everything.

Lengths over the local ring at the origin agree with these affine
colengths whenever the inputs are homogeneous (the graded case); for
non-homogeneous input the computed value is the total affine colength and
a NonHomogeneousInputWarning is emitted.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .groebner import (Budget, BudgetExceededError, GroebnerBasis, INFINITE,
                       buchberger, cokernel_dimension, colength,
                       krull_dimension, matrix_rank_over_domain, syzygies)
from .poly import (EXP_LIMIT, ExponentOverflowError, FreeModuleElement,
                   MonomialOrder, PolyRing, Polynomial, parse_poly)


class InfiniteColengthError(ValueError):
    """A length request hit a non-Artinian quotient (ideal not m-primary)."""


class NonHomogeneousInputWarning(UserWarning):
    """Input is not graded; computed lengths are total affine colengths."""


def _warn_if_inhomogeneous(polys: Sequence[Polynomial], what: str):
    if any(not f.is_homogeneous() for f in polys):
        warnings.warn(
            f"{what} is not homogeneous; computed lengths are affine "
            "colengths, which agree with local lengths only in the graded "
            "case", NonHomogeneousInputWarning, stacklevel=3)


def _coerce_polys(ring: PolyRing, gens) -> Tuple[Polynomial, ...]:
    out = []
    for g in gens:
        if isinstance(g, str):
            out.append(parse_poly(g, ring))
        elif isinstance(g, Polynomial):
            out.append(g)
        else:
            raise TypeError(f"expected polynomial or string, got {type(g)}")
    return tuple(out)


class RingPresentation:
    """R = P/Q: characteristic, variables, and defining ideal generators.

    Caches the Groebner basis of Q, the Krull dimension, and every length
    computed over this ring, so repeated series/delta/Tor computations
    share work.
    """

    def __init__(self, p: int, variables: Sequence[str], quotient=(), *,
                 order: Optional[MonomialOrder] = None,
                 budget: Optional[Budget] = None):
        self.ring = PolyRing(p, variables, order) if order else \
            PolyRing(p, variables)
        self.quotient = _coerce_polys(self.ring, quotient)
        _warn_if_inhomogeneous(self.quotient, "the defining ideal")
        self.budget = budget
        self._q_gb: Optional[GroebnerBasis] = None
        self._dim: Optional[int] = None
        self._cache: dict = {}

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.ring.vars

    def parse(self, text: str) -> Polynomial:
        return parse_poly(text, self.ring)

    @property
    def defining_gb(self) -> GroebnerBasis:
        if self._q_gb is None:
            self._q_gb = buchberger(self.quotient, ring=self.ring,
                                    budget=self.budget)
        return self._q_gb

    @property
    def dimension(self) -> int:
        """Krull dimension d of R = P/Q."""
        if self._dim is None:
            self._dim = krull_dimension(self.defining_gb)
        return self._dim

    def is_zero_in_quotient(self, f: Polynomial) -> bool:
        """Whether f is zero in R, i.e. lies in Q."""
        return self.defining_gb.contains(f)

    # -- cached length computations ------------------------------------------

    def _colength_of_ideal(self, gens: Sequence[Polynomial],
                           budget: Optional[Budget]):
        """Colength in P of the ideal the polynomials generate.

        Shares the module cache; bench/spans.py counts length requests
        through this name and _colength_of_module.
        """
        return self._colength_of_module(_as_columns(self, gens), 1, budget)

    def _colength_of_module(self, gens: Sequence[FreeModuleElement],
                            rank: int, budget: Optional[Budget]):
        """Colength in P^rank of the submodule the vectors generate."""
        gens = [g for g in dict.fromkeys(gens) if g]
        key = ("colength", rank, tuple(sorted(g.key() for g in gens)))
        hit = self._cache.get(key)
        if hit is None:
            gb = buchberger(gens, ring=self.ring, rank=rank,
                            budget=budget or self.budget)
            hit = colength(gb)
            self._cache[key] = hit
        return hit

    def __repr__(self):
        qs = [str(g) for g in self.quotient]
        return (f"RingPresentation(p={self.p}, vars={list(self.vars)}, "
                f"quotient={qs})")


class IdealHandle:
    """An ideal I of R with its cached Groebner data and m-primary flag."""

    def __init__(self, ring: RingPresentation, gens):
        self.ring = ring
        self.gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(self.gens, "an ideal generator")
        self._gb: Optional[GroebnerBasis] = None
        self._m_primary: Optional[bool] = None

    @property
    def gb(self) -> GroebnerBasis:
        """Groebner basis of Q + I in the ambient polynomial ring."""
        if self._gb is None:
            self._gb = buchberger(list(self.ring.quotient) + list(self.gens),
                                  ring=self.ring.ring, budget=self.ring.budget)
        return self._gb

    def key(self) -> tuple:
        return tuple(g.key() for g in self.gens)

    def __repr__(self):
        return f"IdealHandle({[str(g) for g in self.gens]})"


@dataclass(frozen=True)
class BracketPower:
    """The ideal generated by q-th powers of the base ideal's generators."""
    base: IdealHandle
    n: int
    q: int
    gens: Tuple[Polynomial, ...]


def bracket_power(ideal: IdealHandle, n: int) -> BracketPower:
    """Frobenius bracket power: generators raised to q = p^n.

    In characteristic p the q-th powers of any generating set generate the
    ideal of q-th powers of all elements, which is what makes this the
    right primitive.
    """
    if n < 0:
        raise ValueError("bracket power index must be nonnegative")
    p = ideal.ring.p
    q = p ** n
    if q >= EXP_LIMIT:
        raise ExponentOverflowError(
            f"q = {p}^{n} = {q} exceeds the supported exponent bound")
    gens = tuple(g.frobenius_power(q) for g in ideal.gens)
    return BracketPower(ideal, n, q, gens)


def check_m_primary(ideal: IdealHandle,
                    ring: Optional[RingPresentation] = None) -> bool:
    """Whether R/I has finite length, i.e. colength(Q + I) is finite."""
    if ring is not None and ring is not ideal.ring:
        raise ValueError("ideal belongs to a different ring presentation")
    if ideal._m_primary is None:
        ideal._m_primary = colength(ideal.gb) is not INFINITE
    return ideal._m_primary


class ModulePresentation:
    """A finitely generated R-module, presented as a cokernel.

    Every module is coker(s, columns): R^s modulo the submodule spanned by
    the relation columns.  cyclic(J) is R/J, the case s = 1 with the
    columns J.  The one exception is a module given as the image of
    generators g_1..g_m of a submodule of R^t, such as ideal_as_module(J),
    the image of J in R^1.  It is F/K for F = R^m free on the generators
    and K their syzygies over R, so it is presented as coker(m, K).  K
    needs a Groebner run, so it is computed on first use and cached on the
    ring, never at construction.

    kind labels the declared shape: "cyclic", "coker", "idealmod", or
    "image" for the column module that tor1_length builds.
    """

    def __init__(self, kind: str, *, gens=(), columns=(), ambient_rank=1,
                 asserted_rank: Optional[int] = None, image=None):
        if kind not in ("cyclic", "coker", "idealmod", "image"):
            raise ValueError(f"unknown module kind {kind!r}")
        self.kind = kind
        self.gens = tuple(gens)
        self.columns = tuple(columns)
        self.ambient_rank = ambient_rank
        self.asserted_rank = asserted_rank
        # generators of the submodule this module is the image of, if any
        self.image = None if image is None else tuple(image)

    @classmethod
    def cyclic(cls, ring: RingPresentation, gens=(),
               asserted_rank: Optional[int] = None) -> "ModulePresentation":
        gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(gens, "a module relation")
        return cls("cyclic", gens=gens, columns=_as_columns(ring, gens),
                   asserted_rank=asserted_rank)

    @classmethod
    def coker(cls, ring: RingPresentation, ambient_rank: int, columns,
              asserted_rank: Optional[int] = None) -> "ModulePresentation":
        cols = []
        for col in columns:
            if isinstance(col, FreeModuleElement):
                if col.rank != ambient_rank:
                    raise ValueError("relation column has the wrong length")
                cols.append(col)
            else:
                polys = _coerce_polys(ring.ring, col)
                if len(polys) != ambient_rank:
                    raise ValueError("relation column has the wrong length")
                _warn_if_inhomogeneous(polys, "a module relation")
                cols.append(FreeModuleElement.from_components(
                    ring.ring, polys, rank=ambient_rank))
        return cls("coker", columns=tuple(cols), ambient_rank=ambient_rank,
                   asserted_rank=asserted_rank)

    @classmethod
    def ideal_as_module(cls, ring: RingPresentation, gens,
                        asserted_rank: Optional[int] = None) -> "ModulePresentation":
        gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(gens, "an ideal generator")
        return cls("idealmod", gens=gens, ambient_rank=max(len(gens), 1),
                   asserted_rank=asserted_rank,
                   image=_as_columns(ring, gens))

    def key(self) -> tuple:
        return (self.kind, self.ambient_rank,
                tuple(g.key() for g in self.gens),
                tuple(c.key() for c in self.columns),
                tuple(c.key() for c in self.image or ()))

    def __repr__(self):
        if self.kind in ("cyclic", "idealmod"):
            return (f"ModulePresentation({self.kind}, "
                    f"{[str(g) for g in self.gens]})")
        if self.kind == "image":
            return (f"ModulePresentation(image, {len(self.image)} "
                    "generators)")
        return (f"ModulePresentation(coker, rank {self.ambient_rank}, "
                f"{len(self.columns)} relations)")


def _as_columns(ring: RingPresentation,
                polys: Sequence[Polynomial]) -> Tuple[FreeModuleElement, ...]:
    """Polynomials as vectors of R^1."""
    return tuple(FreeModuleElement.basis_vector(ring.ring, 1, 0, f)
                 for f in polys)


@dataclass(frozen=True)
class HKSeries:
    """The sequence (n, q, e_n) as exact integers, with error diagnostics.

    After a budget stop, budget holds the stop's stage, limit and count.
    """
    module_label: str
    ideal_label: str
    entries: Tuple[Tuple[int, int, int], ...]
    error: Optional[str] = None
    failed_n: Optional[int] = None
    budget: Optional[dict] = None

    def values(self) -> list:
        return [e for (_, _, e) in self.entries]


# -- e_n computations ------------------------------------------------------------


def _require_finite(value, what: str) -> int:
    if value is INFINITE:
        raise InfiniteColengthError(
            f"{what} has infinite colength; the ideal is not m-primary "
            "over this ring")
    return value


def _colength_mod_bracket(ring: RingPresentation, s: int, columns,
                          ideal: IdealHandle, n: int,
                          budget: Optional[Budget]) -> int:
    """Length of coker(s, columns) / I^[q], a colength in P^s.

    The relation columns come first, then Q and the bracket power I^[q]
    times each basis vector of R^s.
    """
    if s == 0:
        return 0
    bracket = bracket_power(ideal, n)
    gens = list(columns)
    gens += _basis_multiples(ring, ring.quotient, s)
    gens += _basis_multiples(ring, bracket.gens, s)
    value = ring._colength_of_module(gens, s, budget)
    return _require_finite(value, "the module")


def en_cyclic(ring: RingPresentation, relations: Sequence, ideal: IdealHandle,
              n: int, *, budget: Optional[Budget] = None) -> int:
    """e_n(R/J, I) = colength of Q + J + (generators of I)^[q] in P."""
    relations = _coerce_polys(ring.ring, relations)
    return _colength_mod_bracket(ring, 1, _as_columns(ring, relations),
                                 ideal, n, budget)


def _basis_multiples(ring: RingPresentation, polys: Sequence[Polynomial],
                     rank: int) -> list:
    out = []
    for i in range(rank):
        for f in polys:
            if f:
                out.append(FreeModuleElement.basis_vector(ring.ring, rank, i, f))
    return out


def _projected_syzygies(ring: RingPresentation,
                        columns: Sequence[FreeModuleElement],
                        budget: Optional[Budget] = None) -> list:
    """Syzygies over R of the given generators of a submodule of R^s.

    Computed in P by augmenting with the quotient generators times each
    ambient basis vector and projecting the syzygy coordinates back onto
    the original generators.  Cached per generator set.
    """
    m = len(columns)
    s = columns[0].rank
    key = ("syz", s, tuple(c.key() for c in columns))
    hit = ring._cache.get(key)
    if hit is not None:
        return hit
    aug = list(columns) + _basis_multiples(ring, ring.quotient, s)
    syz = syzygies(aug, ring=ring.ring, budget=budget or ring.budget)
    bits = ring.ring.mono_bits
    projected = []
    for v in syz:
        d = {t: c for t, c in v._d.items() if (t >> bits) < m}
        if d:
            projected.append(FreeModuleElement(ring.ring, m, d))
    ring._cache[key] = projected
    return projected


def _cokernel(ring: RingPresentation, module: ModulePresentation,
              budget: Optional[Budget]) -> tuple:
    """(s, relation columns) presenting the module as a cokernel of R^s.

    An image of m generators becomes coker(m, their projected syzygies).
    """
    if module.image is None:
        return module.ambient_rank, module.columns
    if not module.image:
        return 0, ()
    return (len(module.image),
            _projected_syzygies(ring, module.image, budget=budget))


def en_module(ring: RingPresentation, module: ModulePresentation,
              ideal: IdealHandle, n: int, *,
              budget: Optional[Budget] = None) -> int:
    """e_n(M, I) = length of M / I^[q] M for the presented module."""
    s, columns = _cokernel(ring, module, budget)
    return _colength_mod_bracket(ring, s, columns, ideal, n, budget)


def module_rank(ring: RingPresentation, module: ModulePresentation, *,
                budget: Optional[Budget] = None) -> int:
    """Generic fraction-field rank of the presented module over R.

    An image has the rank of its generator matrix; coker(s, columns) has
    s minus the rank of its relation matrix.  Images are not sent through
    their syzygies here: the syzygy matrix is far wider, and the minor
    enumeration is exponential in the matrix size.  Pass asserted_rank on
    the presentation to bypass it.  Requires Q prime, which is asserted
    by the caller, not verified.
    """
    if module.asserted_rank is not None:
        return module.asserted_rank
    is_image = module.image is not None
    columns = module.image if is_image else module.columns
    if not columns:
        return 0 if is_image else module.ambient_rank
    qgb = ring.defining_gb if ring.quotient else None
    s = columns[0].rank
    matrix = [[col.component(i) for col in columns] for i in range(s)]
    rank = matrix_rank_over_domain(matrix, qgb, budget=budget or ring.budget)
    return rank if is_image else s - rank


def delta_n(ring: RingPresentation, module: ModulePresentation,
            ideal: IdealHandle, n: int, *, rank: Optional[int] = None,
            budget: Optional[Budget] = None) -> int:
    """e_n(M) - r e_n(R), the torsion-free deviation from rank growth.

    The rank is the asserted one when available, else computed through
    minors.  Torsion-freeness of M is the caller's interpretation
    hypothesis; the arithmetic identity holds regardless.
    """
    if rank is None:
        rank = module_rank(ring, module, budget=budget)
    e_m = en_module(ring, module, ideal, n, budget=budget)
    e_r = en_cyclic(ring, (), ideal, n, budget=budget)
    return e_m - rank * e_r


def tor1_length(ring: RingPresentation, module: ModulePresentation,
                ideal: IdealHandle, n: int, *,
                budget: Optional[Budget] = None) -> int:
    """Length of Tor_1(T, R/I^[q]) for any presented module T.

    Uses the alternating-sum identity along 0 -> N -> R^s -> T -> 0 with
    coker(s, columns) the module's cokernel presentation and N the column
    module: the length equals e_n(N) + e_n(T) - s e_n(R).
    """
    s, columns = _cokernel(ring, module, budget)
    column_module = ModulePresentation("image", image=columns,
                                       ambient_rank=len(columns))
    e_n_N = en_module(ring, column_module, ideal, n, budget=budget)
    e_n_T = _colength_mod_bracket(ring, s, columns, ideal, n, budget)
    e_n_R = en_cyclic(ring, (), ideal, n, budget=budget)
    value = e_n_N + e_n_T - s * e_n_R
    if value < 0:        # pragma: no cover - violates the exact identity
        raise AssertionError("negative Tor length; presentation inconsistent")
    return value


def series(ring: RingPresentation, module: ModulePresentation,
           ideal: IdealHandle, n_max: int, *, module_label: str = "M",
           ideal_label: str = "I",
           budget: Optional[Budget] = None) -> HKSeries:
    """The Hilbert-Kunz sequence e_0..e_{n_max}; partial on budget errors."""
    entries = []
    p = ring.p
    for n in range(n_max + 1):
        try:
            e = en_module(ring, module, ideal, n, budget=budget)
        except BudgetExceededError as exc:
            return HKSeries(module_label, ideal_label, tuple(entries),
                            error=str(exc), failed_n=n,
                            budget=exc.diagnostics())
        entries.append((n, p ** n, e))
    return HKSeries(module_label, ideal_label, tuple(entries))


@dataclass(frozen=True)
class ModuleDimension:
    dimension: int
    is_zero_module: bool


def module_dimension(ring: RingPresentation, module: ModulePresentation, *,
                     budget: Optional[Budget] = None) -> ModuleDimension:
    """Krull dimension of the module's support, via Fitting ideals.

    The zero module is reported as dimension 0 with the flag set rather
    than a signed sentinel.
    """
    s, columns = _cokernel(ring, module, budget)
    dim, zero = cokernel_dimension(list(columns), s, ring.quotient, ring.ring,
                                   budget=budget or ring.budget)
    return ModuleDimension(dim, zero)
