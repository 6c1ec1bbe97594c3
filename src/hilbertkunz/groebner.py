"""Buchberger engine for ideals and submodules of free modules over F_p.

Computes reduced Groebner bases (unique for a given submodule and order),
normal forms, colengths counted through the staircase of leading terms,
syzygy modules from the minimal S-pairs (the run's pair rule; Schreyer's
theorem) of a run whose elements carry their representations in tags,
and Krull dimensions and multiplicities of quotients by the
independent-set method on the same staircase.

A GroebnerBasis is its finished run: it keeps the run's one engine,
builds its staircase from the run's live leads, and reduces in that
engine both the normal forms it is asked for and, on the first read of
its elements, the live tails of the reduced basis.

Quotient-ring questions are handled by the callers: computations for
R = P/Q adjoin the defining generators (times each free-module basis
element) to the input, so this module only ever sees the polynomial ring.

All runs are deterministic: pairs are processed by normal selection
(smallest lcm in the active order, which for the graded orders means
smallest lcm degree first) with ties broken by the generator index pair,
and the final basis is autoreduced, monic and sorted, so identical
inputs give identical bases.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence

from .poly import (ExponentOverflowError, FreeModuleElement, MonomialOrder,
                   PolyRing, Polynomial, RingMismatchError, as_vector)


@dataclass(frozen=True)
class Budget:
    """Hard limits on combinatorial blowup; exceeding them raises."""
    max_pairs: int = 2_000_000
    max_basis: int = 50_000


DEFAULT_BUDGET = Budget()


class BudgetExceededError(RuntimeError):
    def __init__(self, stage: str, limit: int, count: int):
        self.stage = stage
        self.limit = limit
        self.count = count
        super().__init__(
            f"computation budget exceeded in {stage}: {count} > limit {limit}")

    def diagnostics(self) -> dict:
        return {"stage": self.stage, "limit": self.limit, "count": self.count}


class _Infinite:
    """Sentinel returned by colength for non-Artinian quotients."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def _raise_overflow():
    raise ExponentOverflowError(
        "exponent exceeded the supported bound during reduction")


def _minimal(monos: Iterable[int], guards: int) -> tuple:
    """Drop multiples from ascending packed monomials (divisors sort first)."""
    out: list = []
    for m in monos:
        mg = m | guards
        for h in out:
            if (mg - h) & guards == guards:
                break
        else:
            out.append(m)
    return tuple(out)


def _members(bits: int) -> list:
    """Indices of the set bits of bits, ascending."""
    return [k for k, b in enumerate(bin(bits)[:1:-1]) if b == "1"]


_TWO_FIELDS = 0x8000_8000                 # the guards of two fields


def _count_standard(gens: tuple, guards: int, memo: dict) -> int:
    """Standard monomials of a minimal Artinian packed staircase.

    One field: gens[0] is its pure power.  Two fields, in closed form:
    sorted, the leads ascend in the high field h and descend in the low
    field l, so the count is the sum of (h_(i+1) - h_i) * l_i.  More
    fields: slabs between consecutive exponents of the lowest field
    (gens[0] <= 0xFFFF is its pure power, and every other lead lies below
    it there) times their slice counts.  The slab at cut lo is the minimal
    set of the projections (lowest field dropped) of the leads at or below
    lo, built from the previous slab as the cuts sweep upward: if g's
    projection divides h's, g lies above h in the lowest field, or g would
    divide h.  So the projections of the leads at lo are divided by no
    older one nor by each other, and the slab is those plus the older ones
    that none of them divides, sorted.  A two-field slab is counted in
    place; a larger one is memoized under its tuple.  Memo keys need no
    level: a k-variable staircase holds a pure power >= 2**(16 * (k - 1)),
    and every value at fewer variables is below it.
    """
    if guards == 0x8000:
        return gens[0]
    if guards == _TWO_FIELDS:
        return _count_two_fields(gens)
    hit = memo.get(gens)
    if hit is not None:
        return hit
    at_cut: dict = {}
    for g in gens[1:]:
        at_cut.setdefault(g & 0xFFFF, []).append(g >> 16)
    cuts = sorted(at_cut)                 # 0 holds the other pure powers
    cuts.append(gens[0])
    lower = guards >> 16
    slab: list = []
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        new = at_cut[lo]
        kept = []
        for s in slab:
            sg = s | lower
            for h in new:
                if (sg - h) & lower == lower:
                    break
            else:
                kept.append(s)
        slab = kept + new
        slab.sort()
        total += (hi - lo) * (_count_two_fields(slab)
                              if lower == _TWO_FIELDS else
                              _count_standard(tuple(slab), lower, memo))
    memo[gens] = total
    return total


def _count_two_fields(gens) -> int:
    """_count_standard of sorted minimal two-field leads."""
    total = 0
    h0 = l0 = 0
    for g in gens:
        h = g >> 16
        total += (h - h0) * l0
        h0, l0 = h, g & 0xFFFF
    return total


def _least_used_first(gens: tuple, nvars: int) -> tuple:
    """Minimal packed leads with fields permuted by use, sorted again.

    The field that the fewest leads use (a nonzero exponent) moves to the
    lowest field, which _count_standard cuts first; ties keep ring order.
    Permuting fields renames variables, so divisibility, minimality and
    the standard-monomial count are unchanged.  Each field is read as one
    column of exponents, and the leads are rebuilt a column at a time.
    """
    cols = [[g >> sh & 0xFFFF for g in gens] for sh in range(0, 16 * nvars, 16)]
    out = [0] * len(gens)
    for k, col in enumerate(sorted(cols, key=lambda col: -col.count(0))):
        out = [o | e << 16 * k for o, e in zip(out, col)]
    return tuple(sorted(out))


def _artinian(gens: tuple, nvars: int) -> bool:
    """Whether packed leads hold a pure power of each of nvars fields."""
    return all(any(g >> sh <= 0xFFFF and not g & ((1 << sh) - 1)
                   for g in gens) for sh in range(0, 16 * nvars, 16))


def _independent_sets(gens: tuple, nvars: int, size: int):
    """The variable sets of the given size, as index tuples, that contain
    the support (nonzero 16-bit fields) of no packed lead."""
    supports = {sum(1 << i for i in range(nvars) if g >> 16 * i & 0xFFFF)
                for g in gens}
    for free in combinations(range(nvars), size):
        mask = sum(1 << i for i in free)
        if all(s & ~mask for s in supports):
            yield free


class Staircase:
    """Leading-term submodule of a basis: minimal packed leads per position."""

    __slots__ = ("ring", "rank", "_by_pos")

    def __init__(self, ring: PolyRing, rank: int, lead_terms: Iterable[int]):
        self.ring = ring
        self.rank = rank
        bits = ring.mono_bits
        mask = ring.mono_mask
        by_pos: dict = {}
        for t in lead_terms:
            by_pos.setdefault(t >> bits, []).append(t & mask)
        self._by_pos = {pos: _minimal(sorted(monos), ring.guards)
                        for pos, monos in by_pos.items()}

    @classmethod
    def _of_minimal(cls, ring: PolyRing, rank: int, by_pos: dict) -> Staircase:
        """A staircase from per-position tuples of minimal leads, ascending."""
        stairs = cls(ring, rank, ())
        stairs._by_pos = by_pos
        return stairs

    def colength(self):
        """Count of (position, monomial) pairs outside, or INFINITE: the
        degree-0 multiplicity, where an infinite one raises ValueError."""
        try:
            return self.multiplicity(0)
        except ValueError:
            return INFINITE

    def dimension(self) -> int:
        """Krull dimension of P^rank / submodule, by independent sets.

        A position's dimension is the largest size of a variable set S
        such that no minimal lead there involves only variables from S (a
        lead's support is its nonzero 16-bit fields); sizes are tried
        largest first.  A position without leads is free, one holding the
        unit contributes nothing, and the result is the maximum.
        """
        nv = self.ring.nvars
        best = 0
        for pos in range(self.rank):
            gens = self._by_pos.get(pos, ())
            if not gens:
                return nv
            if gens[0] == 0:
                continue                  # the unit: nothing lies outside
            for size in range(nv, best, -1):
                if next(_independent_sets(gens, nv, size), None) is not None:
                    best = size
                    break
        return best

    def multiplicity(self, d: int) -> int:
        """Degree-d multiplicity of P^rank / submodule: 0 below dimension d.

        A position without leads counts 1 when d = nvars.  Otherwise each
        variable set S of size d that contains the support of no minimal
        lead there adds the colength of those leads with the S-variables
        set to 1 (the length at the prime of the other variables).  For a
        degree-compatible order this is the multiplicity of the module
        itself.  An infinite colength, or a free position below nvars,
        means dimension above d and raises ValueError.
        """
        nv = self.ring.nvars
        k = nv - d
        guards = sum(0x8000 << 16 * j for j in range(k))
        memo: dict = {}
        total = 0
        for pos in range(self.rank):
            gens = self._by_pos.get(pos, ())
            if not gens and k:
                raise ValueError(f"a free position has dimension {nv} > {d}")
            if not gens:
                total += 1
                continue
            if gens[0] == 0:
                continue                  # the unit: nothing lies outside
            # at d = 0 the one set is empty, and the leads count as they are
            for free in _independent_sets(gens, nv, d) if d else [()]:
                rest = gens
                if free:
                    kept = [i for i in range(nv) if i not in free]
                    moves = [(16 * i, 16 * j) for j, i in enumerate(kept)]
                    rest = _minimal(sorted(
                        sum((g >> src & 0xFFFF) << dst for src, dst in moves)
                        for g in gens), guards)
                if not _artinian(rest, k):
                    raise ValueError(f"the staircase has dimension above {d}")
                total += _count_standard(_least_used_first(rest, k), guards,
                                         memo)
        return total


class GroebnerBasis:
    """Reduced Groebner basis: a finished run's engine and its staircase.

    The staircase's minimal leads are the basis' leads, so lengths,
    dimensions and lead tests read no element.  They are the run's live
    leads, taken as they are: a new element retires every live one whose
    lead its lead divides, equal leads included, and a remainder of
    reduce has a lead that no live lead divides, so only a raw input can
    have a live lead below its own, and the lead index finds those.  The
    run's live elements form a Groebner basis, and a normal form does not
    depend on which Groebner basis reduces it, so normal forms reduce in
    the run's engine, and the reduced elements are the live tails of the
    minimal leads reduced there on the first read of elements, and cached.
    """

    __slots__ = ("ring", "rank", "order", "_engine", "_live", "_lts",
                 "_staircase", "_elements")

    def __init__(self, engine: _Engine):
        ring, rank, order = engine.ring, engine.rank, engine.order
        self.ring = ring
        self.rank = rank
        self.order = order
        self._engine = engine
        # a retired lead is a multiple of a live one, so the staircase is
        # built from the live elements; a raw one whose lead has another
        # live divisor is dropped
        lts = engine.lts
        mask = ring.mono_mask
        self._live = {}
        by_pos = {}
        for pos, index in engine.index.items():
            live = index.single | index.multi
            for k in _members(index.raw & live):
                if index.divisors(lts[k]) != 1 << k:
                    live ^= 1 << k
            keep = _members(live)
            self._live.update((lts[k], k) for k in keep)
            by_pos[pos] = tuple(sorted(lts[k] & mask for k in keep))
        self._staircase = Staircase._of_minimal(ring, rank, by_pos)
        # sorted by the keys the run stored: keys add under shifts, so a
        # stored key is the key of its lead
        self._lts = tuple(lts[k] for k in sorted(
            self._live.values(), key=engine.ltkeys.__getitem__))
        self._elements: Optional[tuple] = None

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            eng = self._engine
            elements = []
            for lt in self._lts:
                keyed = eng.basis[self._live[lt]]
                tail = eng.reduce(dict(zip(keyed[0::3], keyed[1::3])),
                                  dict(zip(keyed[0::3], keyed[2::3])))
                tail[lt] = 1
                elements.append(FreeModuleElement(self.ring, self.rank, tail))
            self._elements = tuple(elements)
        return self._elements

    def __len__(self):
        return len(self._lts)

    def __iter__(self):
        return iter(self.elements)

    def staircase(self) -> Staircase:
        return self._staircase

    def lead_terms(self) -> list:
        """(position, exponent tuple) of every basis element's lead."""
        bits = self.ring.mono_bits
        mask = self.ring.mono_mask
        return [(t >> bits, self.ring.unpack(t & mask)) for t in self._lts]

    def normal_form(self, f):
        return normal_form(f, self)

    def contains(self, f) -> bool:
        return not normal_form(f, self)

    def contains_one(self) -> bool:
        """For ideal bases: whether 1 lies in the ideal."""
        return any(t & self.ring.mono_mask == 0 for t in self._lts)

    def verify(self) -> bool:
        """Post-hoc check: autoreduction plus all S-pairs reduce to zero."""
        ring = self.ring
        bits = ring.mono_bits
        mask = ring.mono_mask
        for i, gi in enumerate(self.elements):
            for t in gi._d:
                for j, lt in enumerate(self._lts):
                    if i == j and t == lt:
                        continue
                    if (t >> bits) == (lt >> bits) and \
                            ring.mono_divides(lt & mask, t & mask):
                        return False
        # its own engine: the check must not trust the run's live lists
        eng = _Engine(ring, self.rank, self.order, DEFAULT_BUDGET)
        for g in self.elements:
            eng.add(dict(g._d))
        for i in range(len(self)):
            for j in range(i):
                if (self._lts[i] >> bits) != (self._lts[j] >> bits):
                    continue
                if eng.reduce(*eng.spair(j, i)):
                    return False
        return True

    def __repr__(self):
        kind = "ideal" if self.rank == 1 else f"submodule of P^{self.rank}"
        return (f"GroebnerBasis({kind}, {len(self)} elements, "
                f"order={self.order.name})")


class _LeadIndex:
    """The leads of one position's elements, as bitsets over their indices.

    Bit k of each int stands for element k.  single and multi hold the
    live single-term and multi-term elements, and raw the elements added
    as inputs rather than as remainders of reduce.  fields holds, for
    each variable, its shift, its distinct lead exponents ascending, and
    two tiers of "at least" bitsets: entry j of either tier holds the
    elements, live or retired, whose exponent there is at least exps[j]
    (the last entry is empty).  The old tier holds the elements below
    base at their own bits, the new tier the rest at bit k - base, so an
    add touches only ints of at most MERGE bits; once an element lies
    MERGE or more above base, the new tier is shifted up by base and ORed
    into the old one, and base moves to that element.  A lead divides t
    unless, in some variable, it lies above t's exponent, and it is a
    multiple of m when it lies at or above m's in every variable: bisect
    each field and OR, or AND, the bitsets of each tier, then join the
    tiers with one shift.
    """

    __slots__ = ("single", "multi", "raw", "fields", "base")

    MERGE = 1024

    def __init__(self, nvars: int):
        self.single = self.multi = self.raw = 0
        self.base = 0
        self.fields = [(sh, [], [0], [0]) for sh in range(0, 16 * nvars, 16)]

    def add(self, k: int, mono: int, single: bool, raw: bool):
        """Index element k, whose lead has the monomial of mono.

        Its bit goes into the bitsets of the exponents at or below its
        own: few for the small exponents most leads have (0 in every
        variable a lead lacks), where "at most" bitsets would take it
        at nearly every exponent.
        """
        base = self.base
        if k - base >= self.MERGE:
            for _, _, new, old in self.fields:
                for i, bits in enumerate(new):
                    if bits:
                        old[i] |= bits << base
                new[:] = [0] * len(new)
            self.base = base = k
        bit = 1 << k - base
        for sh, exps, new, old in self.fields:
            e = mono >> sh & 0xFFFF
            j = bisect_left(exps, e)
            if j == len(exps) or exps[j] != e:
                exps.insert(j, e)
                new.insert(j, new[j])
                old.insert(j, old[j])
            for i in range(j + 1):
                new[i] |= bit
        bit = 1 << k
        if single:
            self.single |= bit
        else:
            self.multi |= bit
        if raw:
            self.raw |= bit

    def divisors(self, t: int, low: int = 0) -> int:
        """Live elements k >= low, at bit k - low, whose lead divides the
        monomial of t; from low = base on, the old tier is not read."""
        base = self.base
        fields = self.fields
        out = 0
        for sh, exps, new, _ in fields:
            out |= new[bisect_right(exps, t >> sh & 0xFFFF)]
        if low >= base:
            return (self.single | self.multi) >> low & ~(out >> low - base)
        out <<= base
        for sh, exps, _, old in fields:
            out |= old[bisect_right(exps, t >> sh & 0xFFFF)]
        return ((self.single | self.multi) & ~out) >> low

    def reducer(self, t: int) -> int:
        """The lowest live single-term divisor of t, else the lowest live
        divisor, else -1.  With no old tier, the new tier's bitsets are
        read here: reduce asks this once per popped term."""
        if self.base:
            cand = self.divisors(t)
        else:
            out = 0
            for sh, exps, new, _ in self.fields:
                out |= new[bisect_right(exps, t >> sh & 0xFFFF)]
            cand = (self.single | self.multi) & ~out
        cand = cand & self.single or cand
        return (cand & -cand).bit_length() - 1

    def multiples(self, m: int) -> int:
        """Live elements whose lead is a multiple of the monomial of m."""
        base = self.base
        out_old = self.single | self.multi
        out_new = out_old >> base
        for sh, exps, new, old in self.fields:
            j = bisect_left(exps, m >> sh & 0xFFFF)
            out_new &= new[j]
            out_old &= old[j]
        return out_old | out_new << base


class _Engine:
    """One Buchberger run: its pair queue, its basis and the reduction.

    A finished run's engine is kept by its GroebnerBasis.

    Each position's elements sit in a _LeadIndex.  reduce asks it for
    the reducer of each term, the lowest live single-term divisor, else
    the lowest live divisor, the pair update for the live multiples of a
    new lead, which retire, and run for the later elements whose leads
    divide a popped pair's lcm (the chain criterion); run also decides
    a pair whose S-vector is one term by that term's reducer lookup.
    pairs_popped, pairs_chained (pops that the chain criterion skips),
    pairs_single (pops that run decides by one lookup, without spair or
    reduce; see run) and reduction_steps (reducer lookups that found one)
    count the run's work deterministically, and the first and last do
    not depend on which pops run decides so.

    Element k is stored once: its lead is lts[k] with coefficient 1 (every
    element is monic), and basis[k] is the flat tuple (term, coeff, key,
    term, coeff, key, ...) of its other terms, each with its term key.
    Term keys add under monomial shifts, key(t + u) = key(t) + key(u) -
    key(1), so a shifted term's key is its stored key plus an offset per
    reduction step and the kernel calls no key function.  The kernel,
    reduce, pushes each term onto its heap once and hands add the keys
    of a remainder, lead first.  The pair heap is keyed by monokey(lcm),
    so run keys a pair's lcm term from the popped key and calls no key
    function either.

    A term at a position >= rank, a tag, gets a key below every module
    term (position over term counts down from position 0, and the keys
    still add).  No lead lies at a tag, so tag terms ride through reduce
    and spair as tail terms, and a remainder led by one is a relation,
    not an element.
    """

    def __init__(self, ring: PolyRing, rank: int, order: MonomialOrder,
                 budget: Budget):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.budget = budget
        self.p = ring.p
        self.bits = ring.mono_bits
        self.mask = ring.mono_mask
        self.guards = ring.guards
        self.top = rank << ring.mono_bits  # terms at or above are tags
        self.keyf = ring.term_key_fn(order, rank)
        self.monokeyf = ring.mono_key_fn(order)
        self.basis: List[tuple] = []      # keyed tails, see the class doc
        self.lts: List[int] = []          # packed lead terms (pos | mono)
        self.ltkeys: List[int] = []       # term keys of the leads
        self.ltmonos: List[int] = []
        self.one_pos: List[bool] = []     # module terms on one position
        self.index: dict = {}             # pos -> _LeadIndex of its leads
        self.pairs: list = []             # heap of (lcm key, i, j, pos, lcm)
        self.pairs_popped = 0
        self.pairs_chained = 0            # pops skipped by the chain criterion
        self.pairs_single = 0             # pops decided by one lookup (run)
        self.reduction_steps = 0          # reducer lookups that found one

    # -- reduction ----------------------------------------------------------

    def reduce(self, work: dict, keys: Optional[dict] = None) -> dict:
        """Divide work by the basis; returns the full remainder.

        The remainder lists its terms in descending order, so its lead
        comes first.  keys, when given, holds the term key of every term
        of work, and on return those of the remainder's terms too.  Tag
        terms have no reducer and pass to the remainder, so each element's
        tags move with it: value = tags . inputs holds throughout.

        Each term enters the heap once: work holds exactly the queued
        terms, a cancelled one at coefficient 0 until it is popped, and a
        step only creates terms below the popped one, so a popped term
        never returns.  Coefficients are reduced mod p and exponents
        tested for overflow when a term is popped.
        """
        if not work:
            return work
        if keys is None:
            keys = dict(zip(work, map(self.keyf, work)))
        p = self.p
        bits = self.bits
        guards = self.guards
        lts = self.lts
        ltkeys = self.ltkeys
        basis = self.basis
        index = self.index
        get = work.get
        steps = 0
        out: dict = {}
        # the heap holds negated term keys, so the largest term pops first
        heap = [(-keys[t], t) for t in work]
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            nk, t = pop(heap)
            if t & guards:
                _raise_overflow()
            c = work.pop(t) % p
            if not c:
                continue
            idx = index.get(t >> bits)
            k = idx.reducer(t) if idx else -1
            if k < 0:
                out[t] = c
                keys[t] = -nk
                continue
            steps += 1
            u = t - lts[k]                # pure monomial shift
            off = nk + ltkeys[k]          # heap key of tt + u is off - kg
            it = iter(basis[k])
            for tt, cg, kg in zip(it, it, it):
                tt += u
                v = get(tt)
                if v is None:
                    work[tt] = -c * cg
                    push(heap, (off - kg, tt))
                else:
                    work[tt] = v - c * cg
        self.reduction_steps += steps
        return out

    # -- basis growth ---------------------------------------------------------

    def add(self, vec: dict, keys: Optional[dict] = None) -> int:
        """Normalize monic, append, and index as a reducer.

        keys, when given, holds the term key of every term of vec, and vec
        lists its lead first, as a remainder of reduce does.  An element
        added without keys is raw: no reduction vouches that no live lead
        divides its lead (see GroebnerBasis).  Whether it lies on one
        position and has a single term is read off its module terms; a
        one-term vector is its lead, a single term on one position.
        """
        raw = keys is None
        if raw:
            keys = dict(zip(vec, map(self.keyf, vec)))
            lt = max(keys, key=keys.__getitem__)
        else:
            lt = next(iter(vec))
        lc = vec[lt]
        if lc != 1:
            inv = pow(lc, self.p - 2, self.p)
            p = self.p
            vec = {t: (c * inv) % p for t, c in vec.items()}
        idx = len(self.basis)
        if idx >= self.budget.max_basis:
            raise BudgetExceededError("buchberger basis",
                                      self.budget.max_basis, idx + 1)
        bits = self.bits
        pos = lt >> bits
        if len(vec) == 1:
            self.basis.append(())
            one_pos = single = True
        else:
            self.basis.append(tuple(x for t, c in vec.items() if t != lt
                                    for x in (t, c, keys[t])))
            top = self.top
            one_pos = all(t >> bits == pos for t in vec if t < top)
            single = sum(t < top for t in vec) == 1
        self.lts.append(lt)
        self.ltkeys.append(keys[lt])
        self.ltmonos.append(lt & self.mask)
        self.one_pos.append(one_pos)
        index = self.index.get(pos)
        if index is None:
            index = self.index[pos] = _LeadIndex(self.ring.nvars)
        index.add(idx, lt, single, raw)
        return idx

    def _minimal_pairs(self, t: int, partners: int) -> list:
        """(lcm, partners) per minimal lcm of t's lead with a partner's
        (partners a bitset): the pair rule of the run and the syzygy pass.
        The lcm is mono_lcm's, inlined."""
        ltmonos = self.ltmonos
        mono_t = ltmonos[t]
        g = self.guards
        groups: dict = {}
        for i in _members(partners):
            m = ltmonos[i]
            ge = ((m | g) - mono_t) & g
            keep = ge - (ge >> 15)
            groups.setdefault((m & keep) | (mono_t & ~keep), []).append(i)
        if len(groups) == 1:
            return list(groups.items())
        return [(v, groups[v]) for v in _minimal(sorted(groups), g)]

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update: queue pairs for the new element t.

        Realizes the coprime-lead criterion and the chain criterion on
        the new pairs at insertion time: dominated new pairs are dropped,
        one representative survives per lcm (none when some
        representative has coprime leads), and superseded basis
        elements, the live multiples of the new lead in the lead index,
        retire from pair formation and reduction (their leads are
        multiples of the new one, so reducer coverage is preserved).
        Queued pairs are not scanned: the new lead's chain criterion on
        them is applied when run pops them.
        """
        ltmonos = self.ltmonos
        mono_t = ltmonos[t]
        pos = self.lts[t] >> self.bits
        index = self.index[pos]
        bit = 1 << t
        # candidate pairs against the live same-position elements; the
        # S-vector of two single terms is zero but for tags
        partners = index.multi if index.single & bit else \
            index.single | index.multi
        partners &= ~bit
        if partners:
            # one representative per minimal lcm; none when the product
            # criterion fires
            one_pos = self.one_pos
            one_t = one_pos[t]
            monokey = self.monokeyf
            pairs = self.pairs
            for lcm_v, idxs in self._minimal_pairs(t, partners):
                if one_t and any(one_pos[i] and lcm_v == ltmonos[i] + mono_t
                                 for i in idxs):
                    continue
                heapq.heappush(pairs, (monokey(lcm_v), idxs[0], t, pos,
                                       lcm_v))
        # retire superseded elements from pair formation and reduction
        gone = index.multiples(mono_t) & ~bit
        if gone:
            index.single &= ~gone
            index.multi &= ~gone

    def spair(self, i: int, j: int, lcm: Optional[int] = None,
              klcm: Optional[int] = None) -> tuple:
        """(vector, keys) of the S-pair of elements i and j.

        vector is u_i g_i - u_j g_j scaled to cancel the (monic) leads and
        keys the term key of each of its terms: u_i g_i leads with
        (pos, lcm), so a shifted tail term's key is its stored key plus
        klcm - key(lead of g_i), klcm = key(pos | lcm), which run passes
        from the pair's heap key.  Tag terms are tail terms, so the vector
        carries the same difference of the representations.
        """
        ltmonos = self.ltmonos
        if lcm is None:
            lcm = self.ring.mono_lcm(ltmonos[i], ltmonos[j])
        p = self.p
        guards = self.guards
        ui = lcm - ltmonos[i]
        uj = lcm - ltmonos[j]
        if klcm is None:
            klcm = self.keyf(self.lts[i] + ui)
        vec: dict = {}
        keys: dict = {}
        for e, u, sign in ((i, ui, 1), (j, uj, -1)):
            off = klcm - self.ltkeys[e]
            it = iter(self.basis[e])
            for t, c, k in zip(it, it, it):
                tt = t + u
                if tt & guards:
                    _raise_overflow()
                nc = (vec.get(tt, 0) + sign * c) % p
                if nc:
                    vec[tt] = nc
                    keys[tt] = k + off
                else:
                    vec.pop(tt, None)
        return vec, keys

    # -- the main loop ----------------------------------------------------------

    def _chained(self, i: int, j: int, pos: int, lcm: int) -> bool:
        """Whether a live element t > j at pos has a lead dividing lcm
        with lcm(i, t) and lcm(j, t) both other than lcm.

        Live elements suffice: a retired witness t was retired by a later
        element u whose lead divides t's, so lcm(i, u) and lcm(j, u)
        divide lcm(i, t) and lcm(j, t) and u is a witness too.
        """
        later = self.index[pos].divisors(lcm, j + 1)
        if not later:
            return False
        ltmonos = self.ltmonos
        mono_lcm = self.ring.mono_lcm
        mi, mj = ltmonos[i], ltmonos[j]
        for k in _members(later):
            mt = ltmonos[j + 1 + k]
            if mono_lcm(mi, mt) != lcm and mono_lcm(mj, mt) != lcm:
                return True
        return False

    def run(self):
        """Pop pairs, smallest lcm first, and add the remainders with a
        lead at a module position (one led by a tag is a relation).

        A popped pair (i, j), i < j, is skipped when _chained finds a
        witness.  The elements t > j are exactly those added while the
        pair was queued, so this skips the pairs that the Gebauer-Moeller
        update would have deleted from the queue as each t arrived, and
        the run pops the same pairs.

        When one element of the pair is a single term with no tail (no
        tags either) and the other has exactly one tail term, a module
        term, the S-vector is that tail term shifted to the lcm, t = tail
        + lcm - lead, tested for overflow as spair tests it, and one
        reducer lookup decides the pair without spair or reduce:
        - a live single-term divisor: a zero remainder, one reduction step;
        - no divisor: t is the new element, keyed by the stored tail key
          plus key(pos | lcm) - key(lead);
        - only multi-term divisors: the one-term vector goes to reduce.
        reduce would pop t, take the same reducer and, for a single-term
        one, leave nothing at a module position (its tags, if any, lead a
        relation), so the pops, chained pops, steps, elements and leads
        are what spair and reduce give.  pairs_single counts the pops of
        the first two cases: all but 2 of 1620 on the determinantal run
        for Q + m^[27], against 14 of 810 on the sheared quartic at q =
        125.  t may lie at a position with no lead yet, hence index.get.

        No pop calls a key function: the heap key is monokey(lcm), and
        keys add, so key(pos | lcm) is key(pos | 1) - monokey(1) plus the
        heap key, 1 the unit monomial; the difference is taken once per
        position when run starts.
        """
        pairs = self.pairs
        basis = self.basis
        index = self.index
        ltmonos = self.ltmonos
        ltkeys = self.ltkeys
        top = self.top
        bits = self.bits
        guards = self.guards
        pop = heapq.heappop
        one = self.monokeyf(0)
        poskey = [self.keyf(pos << bits) - one for pos in range(self.rank)]
        while pairs:
            mkey, i, j, pos, lcm = pop(pairs)
            if self._chained(i, j, pos, lcm):
                self.pairs_chained += 1
                continue
            self.pairs_popped += 1
            if self.pairs_popped > self.budget.max_pairs:
                raise BudgetExceededError("buchberger pairs",
                                          self.budget.max_pairs,
                                          self.pairs_popped)
            klcm = poskey[pos] + mkey     # key(pos | lcm)
            bi, bj = basis[i], basis[j]
            # e: the element of one tail term, a module one, paired with a
            # single term that has no tail
            e = (j if not bi and len(bj) == 3 and bj[0] < top else
                 i if not bj and len(bi) == 3 and bi[0] < top else -1)
            if e < 0:
                svec, keys = self.spair(i, j, lcm, klcm)
            else:
                tail, c, key = basis[e]
                t = tail + lcm - ltmonos[e]
                if t & guards:
                    _raise_overflow()
                idx = index.get(t >> bits)
                k = idx.reducer(t) if idx else -1
                if k >= 0 and idx.single >> k & 1:
                    self.pairs_single += 1
                    self.reduction_steps += 1
                    continue
                keys = {t: key + klcm - ltkeys[e]}
                if k < 0:
                    self.pairs_single += 1
                    self._update_pairs(self.add({t: 1}, keys))
                    continue
                svec = {t: (c if e == i else -c) % self.p}
            r = self.reduce(svec, keys)
            if r and next(iter(r)) < top:
                self._update_pairs(self.add(r, keys))


def _normalize_gens(gens, ring: Optional[PolyRing], rank: Optional[int]):
    vecs = [as_vector(g) for g in gens]
    if vecs:
        ring = vecs[0].ring
        rank = vecs[0].rank
        for v in vecs[1:]:
            if not v.ring.compatible(ring) or v.rank != rank:
                raise RingMismatchError("generators must share ring and rank")
    else:
        if ring is None:
            raise ValueError("empty generator list needs an explicit ring")
        rank = rank or 1
    return vecs, ring, rank


def buchberger(gens: Iterable, order: Optional[MonomialOrder] = None, *,
               ring: Optional[PolyRing] = None, rank: Optional[int] = None,
               budget: Optional[Budget] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by gens.

    gens may be Polynomials (ideal case) or FreeModuleElements of a common
    rank.  Pair selection is normal strategy (smallest lcm in the order,
    minimal lcm degree first for the graded orders) with ties broken by
    the generator index pair; the coprime-lead and chain criteria prune
    pairs.  The result is autoreduced, monic and sorted, hence canonical.
    """
    vecs, ring, rank = _normalize_gens(gens, ring, rank)
    order = order or ring.order
    eng = _Engine(ring, rank, order, budget or DEFAULT_BUDGET)
    for v in vecs:
        if v._d:
            eng._update_pairs(eng.add(dict(v._d)))
    eng.run()
    return GroebnerBasis(eng)


def normal_form(f, gb: GroebnerBasis):
    """Remainder of f modulo gb; no term is divisible by a leading term."""
    vec = as_vector(f)
    if vec.rank != gb.rank or not vec.ring.compatible(gb.ring):
        raise RingMismatchError("element does not match the basis")
    out = gb._engine.reduce(dict(vec._d))
    if isinstance(f, Polynomial):
        return Polynomial(f.ring, out)
    return FreeModuleElement(gb.ring, gb.rank, out)


# -- colength: counting standard monomials -------------------------------------


def monomial_ideal_colength(generators: Iterable[Sequence[int]], nvars: int):
    """Colength of a monomial ideal given by exponent tuples, or INFINITE."""
    ring = PolyRing(2, [f"x{i}" for i in range(nvars)])
    return Staircase(ring, 1, [ring.pack(g) for g in generators]).colength()


def colength(gb: GroebnerBasis):
    """F_p-dimension of P^rank / submodule, or INFINITE.

    Counts (position, monomial) pairs outside the staircase of leading
    terms; finite exactly when every position has a pure power of every
    variable among its leading terms.
    """
    return gb.staircase().colength()


# -- Krull dimension --------------------------------------------------------------


def krull_dimension(gb: GroebnerBasis) -> int:
    """dim P^rank / A by the independent-set method on the leading terms.

    Works for ideals and submodules alike: a module has the dimension of
    its leading-term module, the maximum over positions.  For the unit
    ideal this returns 0; callers needing the empty variety distinguished
    check contains_one().
    """
    return gb.staircase().dimension()


# -- syzygies ---------------------------------------------------------------------


def syzygies(gens: Sequence, *, budget: Optional[Budget] = None) -> list:
    """Generators of {(a_1..a_m) : sum a_i g_i = 0} in P^m.

    One run on the inputs g_i + e_(rank+i) in P^(rank+m), whose tag
    positions lie below the module ones, so each element's tags are its
    representation.  Each element j, retired ones included, then pairs
    with the earlier elements at its position by the run's rule, one per
    minimal lcm, with no product criterion; those S-pairs reduce to tags
    alone, which, shifted down to P^m, generate the syzygy module by
    Schreyer's theorem: their leads (lcm / lead_j) e_j, ties going to the
    later element, generate those of all pairs.  The output is the reduced
    Groebner basis of that module, so it is canonical as well as complete.
    """
    budget = budget or DEFAULT_BUDGET
    if not gens:
        return []
    vecs, ring, rank = _normalize_gens(gens, None, None)
    m = len(vecs)
    bits = ring.mono_bits
    raw: List[dict] = []
    eng = _Engine(ring, rank, ring.order, budget)
    top = eng.top
    for i, v in enumerate(vecs):
        if v._d:
            vec = dict(v._d)
            vec[top + (i << bits)] = 1
            eng._update_pairs(eng.add(vec))
        else:
            raw.append({i << bits: 1})     # a zero generator is annihilated by 1
    eng.run()
    lts = eng.lts
    for j, lt in enumerate(lts):
        earlier = sum(1 << i for i in range(j) if lts[i] >> bits == lt >> bits)
        for lcm, idxs in eng._minimal_pairs(j, earlier):
            rem = eng.reduce(*eng.spair(min(idxs), j, lcm))
            if rem:
                if next(iter(rem)) < top:  # pragma: no cover - contradicts GB
                    raise AssertionError("S-pair failed to reduce to zero")
                raw.append({t - top: c for t, c in rem.items()})
    if not raw:
        return []
    elems = [FreeModuleElement(ring, m, d) for d in raw]
    return list(buchberger(elems, ring=ring, rank=m, budget=budget).elements)
