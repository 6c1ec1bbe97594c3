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

import marshal
import os
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .groebner import (DEFAULT_BUDGET, Budget, BudgetExceededError,
                       GroebnerBasis, INFINITE, buchberger, colength,
                       krull_dimension, syzygies)
from .poly import (EXP_LIMIT, ExponentOverflowError, FreeModuleElement,
                   PolyRing, Polynomial, RingMismatchError, parse_poly)


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
            if not g.ring.compatible(ring):
                raise RingMismatchError(
                    f"generator {g} is from {g.ring!r}, not {ring!r}")
            out.append(g)
        else:
            raise TypeError(f"expected polynomial or string, got {type(g)}")
    return tuple(out)


class RingPresentation:
    """R = P/Q: characteristic, variables, and defining ideal generators.

    Holds the budget for every Groebner run over it (None is the default
    Budget): Q, Q + I, syzygies, ranks, dimensions and lengths all read
    ring.budget.  One memo (_memo) keeps every result computed over this
    ring, so repeated series/delta/Tor computations share work, and every
    budget stop under the budget it hit.
    """

    def __init__(self, p: int, variables: Sequence[str], quotient=(), *,
                 budget: Optional[Budget] = None):
        self.ring = PolyRing(p, variables)
        self.quotient = _coerce_polys(self.ring, quotient)
        _warn_if_inhomogeneous(self.quotient, "the defining ideal")
        self.budget = budget
        self._cache: dict = {}

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def vars(self) -> Tuple[str, ...]:
        return self.ring.vars

    def parse(self, text: str) -> Polynomial:
        return parse_poly(text, self.ring)

    def _memo(self, key: tuple, compute):
        """compute(), once per key: its value, or its budget stop.

        A stop is kept as (stage, limit, count) under the (max_pairs,
        max_basis) of the budget it hit: the same request under the same
        budget raises an equal stop without a run, under another it runs
        again.  Keys and stops are plain tuples, which marshal carries.
        """
        if key in self._cache:
            return self._cache[key]
        budget = self.budget or DEFAULT_BUDGET
        stop_key = ("stop", (budget.max_pairs, budget.max_basis), key)
        if stop_key in self._cache:
            raise BudgetExceededError(*self._cache[stop_key])
        try:
            value = compute()
        except BudgetExceededError as exc:
            self._cache[stop_key] = (exc.stage, exc.limit, exc.count)
            raise
        self._cache[key] = value
        return value

    def _gb(self, polys: Sequence[Polynomial]) -> GroebnerBasis:
        """Groebner basis in P of the ideal the polynomials generate."""
        key = ("gb", tuple(c.key() for c in _as_columns(self, polys)))
        return self._memo(key, lambda: buchberger(polys, ring=self.ring,
                                                  budget=self.budget))

    @property
    def defining_gb(self) -> GroebnerBasis:
        return self._gb(self.quotient)

    @property
    def dimension(self) -> int:
        """Krull dimension d of R = P/Q."""
        return self._memo(("dimension",),
                          lambda: krull_dimension(self.defining_gb))

    # -- cached length computations ------------------------------------------

    def _colength_of_ideal(self, gens: Sequence[Polynomial]):
        """Colength in P of the ideal the polynomials generate.

        Shares the module cache, so the m-primary check of Q + I is the
        e_0 of R/I; bench/spans.py counts length requests through this
        name and _colength_of_module.
        """
        return self._colength_of_module(_as_columns(self, gens), 1)

    def _colength_of_module(self, gens: Sequence[FreeModuleElement],
                            rank: int):
        """Colength in P^rank of the submodule the vectors generate."""
        gens = [g for g in dict.fromkeys(gens) if g]
        key = ("colength", rank, tuple(sorted(g.key() for g in gens)))
        return self._memo(key, lambda: colength(buchberger(
            gens, ring=self.ring, rank=rank, budget=self.budget)))

    def __repr__(self):
        qs = [str(g) for g in self.quotient]
        return (f"RingPresentation(p={self.p}, vars={list(self.vars)}, "
                f"quotient={qs})")


class IdealHandle:
    """An ideal I of R; its Groebner basis of Q + I is cached on the ring."""

    def __init__(self, ring: RingPresentation, gens):
        self.ring = ring
        self.gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(self.gens, "an ideal generator")

    @property
    def gb(self) -> GroebnerBasis:
        """Groebner basis of Q + I in the ambient polynomial ring."""
        return self.ring._gb(self.ring.quotient + self.gens)

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


def check_m_primary(ideal: IdealHandle) -> bool:
    """Whether R/I has finite length, i.e. colength(Q + I) is finite.

    The colength is the ring's cached one, which e_0 reads again.
    """
    ring = ideal.ring
    value = ring._colength_of_ideal(ring.quotient + ideal.gens)
    return value is not INFINITE


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
    "image" for the column module that tor1_length builds.  An idealmod
    or image module is given by its image alone, the others by their
    columns; gens are read off the one presentation.
    """

    def __init__(self, kind: str, *, columns=(), ambient_rank=1,
                 image=None):
        if kind not in ("cyclic", "coker", "idealmod", "image"):
            raise ValueError(f"unknown module kind {kind!r}")
        if ambient_rank < 0:
            raise ValueError("a module needs a free module of rank >= 0")
        by_image = kind in ("idealmod", "image")
        if by_image != (image is not None) or (by_image and columns):
            given = "its image" if by_image else "its columns"
            raise ValueError(f"kind {kind!r} is given by {given} alone")
        self.kind = kind
        self.columns = tuple(columns)
        self.ambient_rank = ambient_rank
        # generators of the submodule this module is the image of, if any
        self.image = None if image is None else tuple(image)

    @classmethod
    def cyclic(cls, ring: RingPresentation, gens=()) -> "ModulePresentation":
        gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(gens, "a module relation")
        return cls("cyclic", columns=_as_columns(ring, gens))

    @classmethod
    def coker(cls, ring: RingPresentation, ambient_rank: int,
              columns) -> "ModulePresentation":
        cols = []
        for col in columns:
            if isinstance(col, FreeModuleElement):
                if not col.ring.compatible(ring.ring):
                    raise RingMismatchError(
                        "relation column from a different ring")
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
        return cls("coker", columns=tuple(cols), ambient_rank=ambient_rank)

    @classmethod
    def ideal_as_module(cls, ring: RingPresentation,
                        gens) -> "ModulePresentation":
        gens = _coerce_polys(ring.ring, gens)
        _warn_if_inhomogeneous(gens, "an ideal generator")
        return cls("idealmod", ambient_rank=max(len(gens), 1),
                   image=_as_columns(ring, gens))

    @property
    def gens(self) -> Tuple[Polynomial, ...]:
        """The polynomials of a cyclic or idealmod module, else ()."""
        if self.kind == "cyclic":
            return tuple(col.component(0) for col in self.columns)
        if self.kind == "idealmod":
            return tuple(g.component(0) for g in self.image)
        return ()

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


def _colength_mod_bracket(ring: RingPresentation, s: int, columns,
                          ideal: IdealHandle, n: int) -> int:
    """Length of coker(s, columns) / I^[q], a colength in P^s."""
    if s == 0:
        return 0
    gens = _over_r(ring, s, columns, bracket_power(ideal, n).gens)
    value = ring._colength_of_module(gens, s)
    if value is INFINITE:
        raise InfiniteColengthError(
            "the module has infinite colength; the ideal is not m-primary "
            "over this ring")
    return value


def en_cyclic(ring: RingPresentation, relations: Sequence, ideal: IdealHandle,
              n: int) -> int:
    """e_n(R/J, I) = colength of Q + J + (generators of I)^[q] in P."""
    relations = _coerce_polys(ring.ring, relations)
    return _colength_mod_bracket(ring, 1, _as_columns(ring, relations),
                                 ideal, n)


def _over_r(ring: RingPresentation, s: int, columns,
            bracket: Sequence[Polynomial] = ()) -> list:
    """The columns, then Q and then the bracket generators times each basis
    vector of R^s: generators in P^s of the relations of coker(s, columns)
    over R, plus the bracket power if given."""
    gens = list(columns)
    for polys in (ring.quotient, bracket):
        gens += [FreeModuleElement.basis_vector(ring.ring, s, i, f)
                 for i in range(s) for f in polys if f]
    return gens


def _projected_syzygies(ring: RingPresentation,
                        columns: Sequence[FreeModuleElement]) -> list:
    """Syzygies over R of the given generators of a submodule of R^s.

    Computed in P by augmenting with the quotient generators times each
    ambient basis vector and projecting the syzygy coordinates back onto
    the original generators.  Cached per generator set.
    """
    m = len(columns)
    s = columns[0].rank
    bits = ring.ring.mono_bits

    def project():
        projected = []
        for v in syzygies(_over_r(ring, s, columns), budget=ring.budget):
            d = {t: c for t, c in v._d.items() if (t >> bits) < m}
            if d:
                projected.append(FreeModuleElement(ring.ring, m, d))
        return projected

    return ring._memo(("syz", s, tuple(c.key() for c in columns)), project)


def _cokernel(ring: RingPresentation, module: ModulePresentation) -> tuple:
    """(s, relation columns) presenting the module as a cokernel of R^s.

    An image of m generators becomes coker(m, their projected syzygies).
    """
    if module.image is None:
        return module.ambient_rank, module.columns
    if not module.image:
        return 0, ()
    return len(module.image), _projected_syzygies(ring, module.image)


def en_module(ring: RingPresentation, module: ModulePresentation,
              ideal: IdealHandle, n: int) -> int:
    """e_n(M, I) = length of M / I^[q] M for the presented module."""
    s, columns = _cokernel(ring, module)
    return _colength_mod_bracket(ring, s, columns, ideal, n)


def _relations(ring: RingPresentation, s: int,
               columns: Sequence[FreeModuleElement]) -> GroebnerBasis:
    """Groebner basis in P^s of _over_r's relations, for s >= 1."""
    return buchberger(_over_r(ring, s, columns), ring=ring.ring, rank=s,
                      budget=ring.budget)


def _coker_rank(ring: RingPresentation, s: int, columns) -> int:
    """Rank of coker(s, columns) over R = P/Q, a domain of dimension d.

    Under the module order (position over term) the staircase at
    position i is that of the ideal J_i of the i-th components of the
    relations that vanish at the positions above i, and the module has a
    filtration with factors P/J_i, R-modules since Q lies in J_i.  A
    factor has rank 1 and multiplicity e_d(R) when J_i = Q, and else
    rank 0 and dimension below d.  The ring's order is degree-compatible,
    so multiplicities are read off the leads, and the rank is the
    staircase's degree-d multiplicity over Q's.  A ratio that is not an
    integer means Q is not prime.  Cached on the ring per presentation.
    """
    if s == 0:
        return 0

    def rank():
        d = ring.dimension
        e_r = ring.defining_gb.staircase().multiplicity(d)
        e_m = _relations(ring, s, columns).staircase().multiplicity(d)
        if not e_r or e_m % e_r:
            raise ValueError(f"multiplicity {e_m} is not a multiple of the "
                             f"ring's {e_r}: the defining ideal is not prime")
        return e_m // e_r

    return ring._memo(("rank", s, tuple(sorted(c.key() for c in columns))),
                      rank)


def module_rank(ring: RingPresentation, module: ModulePresentation) -> int:
    """Generic fraction-field rank of the presented module over R.

    coker(s, columns) has the rank of its relations' staircase (see
    _coker_rank).  An image of generators in R^t has rank t minus that of
    coker(t, generators), so no syzygies are computed.  A known rank need
    not be computed: pass rank to delta_n.  Requires Q prime, which is
    asserted by the caller; a multiplicity that is not a multiple of R's
    raises ValueError.
    """
    if module.image is None:
        return _coker_rank(ring, module.ambient_rank, module.columns)
    if not module.image:
        return 0
    t = module.image[0].rank
    return t - _coker_rank(ring, t, module.image)


def delta_n(ring: RingPresentation, module: ModulePresentation,
            ideal: IdealHandle, n: int, *, rank: Optional[int] = None) -> int:
    """e_n(M) - r e_n(R), the torsion-free deviation from rank growth.

    The rank is the given one when passed, else module_rank's.
    Torsion-freeness of M is the caller's interpretation hypothesis; the
    arithmetic identity holds regardless.
    """
    if rank is None:
        rank = module_rank(ring, module)
    e_m = en_module(ring, module, ideal, n)
    e_r = en_cyclic(ring, (), ideal, n)
    return e_m - rank * e_r


def _column_module(columns) -> ModulePresentation:
    """N in 0 -> N -> R^s -> coker(s, columns) -> 0: the columns' image."""
    return ModulePresentation("image", image=columns,
                              ambient_rank=len(columns))


def tor1_length(ring: RingPresentation, module: ModulePresentation,
                ideal: IdealHandle, n: int) -> int:
    """Length of Tor_1(T, R/I^[q]) for any presented module T.

    Uses the alternating-sum identity along 0 -> N -> R^s -> T -> 0 with
    coker(s, columns) the module's cokernel presentation and N the column
    module: the length equals e_n(N) + e_n(T) - s e_n(R).
    """
    s, columns = _cokernel(ring, module)
    e_n_N = en_module(ring, _column_module(columns), ideal, n)
    e_n_T = _colength_mod_bracket(ring, s, columns, ideal, n)
    e_n_R = en_cyclic(ring, (), ideal, n)
    value = e_n_N + e_n_T - s * e_n_R
    if value < 0:        # pragma: no cover - violates the exact identity
        raise AssertionError("negative Tor length; presentation inconsistent")
    return value


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_family(ring: RingPresentation, ideal: IdealHandle, n_max: int,
                family: Sequence[ModulePresentation]) -> bool:
    """e_n of each module of the family, n = 0..n_max, into the cache.

    Whether every request finished: an error just ends the family, and
    the caller's own requests meet it again and report it.
    """
    try:
        for n in range(n_max + 1):
            for module in family:
                en_module(ring, module, ideal, n)
    except Exception:
        return False
    return True


def _prefetch_lengths(ring: RingPresentation, module: ModulePresentation,
                      ideal: IdealHandle, n_max: int, *,
                      tor: bool = False) -> None:
    """Fill the ring's length cache for delta_n, or tor1_length with tor,
    at n = 0..n_max, running its two families of lengths at once.

    delta_n reads e_n(M) and e_n(R); tor1_length reads e_n(N) of the
    column module, e_n(T) and e_n(R).  M, or N, runs here and the rest in
    one forked child, which sends back its new lengths and budget stops
    (see RingPresentation._memo) through a pipe, merged with setdefault,
    so neither family's stop is run again.  Syzygies stay here: the first
    family needs them, and T's cokernel is built before the fork.  No fork
    without os.fork, without 2 usable CPUs, or beside another thread,
    whose locks the child could inherit held.  The caller's own requests
    then compute whatever is missing and meet every error themselves.
    The child is always reaped, and killed first unless this process
    finished its family: the caller stops there too, before it reads
    most of the child's lengths.
    """
    if (not hasattr(os, "fork") or _usable_cpus() < 2
            or threading.active_count() > 1):
        return
    r_module = ModulePresentation("cyclic")
    if tor:
        try:
            here = [_column_module(_cokernel(ring, module)[1])]
        except Exception:
            return
        there = [module, r_module]
    else:
        here, there = [module], [r_module]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            known = set(ring._cache)
            _run_family(ring, ideal, n_max, there)
            new = {key: None if value is INFINITE else value
                   for key, value in ring._cache.items()
                   if key[0] in ("colength", "stop") and key not in known}
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(new))
        finally:
            os._exit(0)
    os.close(write_end)
    data = b""
    try:
        with os.fdopen(read_end, "rb") as pipe:
            if _run_family(ring, ideal, n_max, here):
                data = pipe.read()
    finally:
        if not data:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    try:
        shipped = marshal.loads(data)
    except (EOFError, ValueError):       # killed, or died before it wrote
        return
    for key, value in shipped.items():
        ring._cache.setdefault(key, INFINITE if value is None else value)


def series(ring: RingPresentation, module: ModulePresentation,
           ideal: IdealHandle, n_max: int, *, module_label: str = "M",
           ideal_label: str = "I") -> HKSeries:
    """The Hilbert-Kunz sequence e_0..e_{n_max}; partial on budget errors."""
    entries = []
    p = ring.p
    for n in range(n_max + 1):
        try:
            e = en_module(ring, module, ideal, n)
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


def module_dimension(ring: RingPresentation,
                     module: ModulePresentation) -> ModuleDimension:
    """Krull dimension of the module's support, from one staircase.

    The staircase of its cokernel relations plus the defining generators
    times each basis vector gives the dimension, and the module is zero
    exactly when every position holds the unit.  The zero module is
    reported as dimension 0 with the flag set rather than a signed
    sentinel.
    """
    s, columns = _cokernel(ring, module)
    if s == 0:
        return ModuleDimension(0, True)
    gb = _relations(ring, s, columns)
    units = sum(not any(exps) for _, exps in gb.lead_terms())
    return ModuleDimension(gb.staircase().dimension(), units == s)
