"""Buchberger engine for ideals and submodules of free modules over F_p.

Computes reduced Groebner bases (unique for a given submodule and order),
normal forms, colengths counted through the staircase of leading terms,
syzygy modules via representation tracking through the Buchberger run,
Krull dimension by the independent-set method, and ranks/dimensions of
matrices and cokernels through minors.

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
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from .poly import (ExponentOverflowError, FreeModuleElement, MonomialOrder,
                   PolyRing, Polynomial, RingMismatchError, as_vector)


@dataclass(frozen=True)
class Budget:
    """Hard limits on combinatorial blowup; exceeding them raises."""
    max_pairs: int = 2_000_000
    max_basis: int = 50_000
    max_minors: int = 500_000


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


def _count_standard(gens: tuple, guards: int, memo: dict) -> int:
    """Standard monomials of a minimal Artinian packed staircase.

    Slabs between consecutive exponents of the last variable (the lowest
    field; gens[0] <= 0xFFFF is its pure power) times their slice counts.
    Memo keys need no level: a k-variable staircase holds a pure power
    >= 2**(16 * (k - 1)), and every value at fewer variables is below it.
    """
    if guards == 0x8000:
        return gens[0]
    hit = memo.get(gens)
    if hit is not None:
        return hit
    bound = gens[0]
    cuts = sorted({g & 0xFFFF for g in gens if g & 0xFFFF < bound} | {0})
    cuts.append(bound)
    lower = guards >> 16
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        sub = _minimal([g >> 16 for g in gens if g & 0xFFFF <= lo], lower)
        total += (hi - lo) * _count_standard(sub, lower, memo)
    memo[gens] = total
    return total


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

    def covers(self, pos: int, exponents: Sequence[int]) -> bool:
        """Whether (pos, monomial) lies in the leading-term submodule."""
        g = self.ring.guards
        mg = self.ring.pack(exponents) | g
        for lt in self._by_pos.get(pos, ()):
            if (mg - lt) & g == g:
                return True
        return False

    def minimal_generators(self) -> list:
        """(position, exponent tuple) for each minimal leading term."""
        out = []
        for pos in sorted(self._by_pos):
            for m in self._by_pos[pos]:
                out.append((pos, self.ring.unpack(m)))
        return out

    def colength(self):
        """Count of (position, monomial) pairs outside, or INFINITE."""
        fields = range(0, self.ring.mono_bits, 16)
        memo: dict = {}
        total = 0
        for pos in range(self.rank):
            gens = self._by_pos.get(pos, ())
            if gens and gens[0] == 0:
                continue                  # the unit: nothing lies outside
            if not all(any(g >> sh <= 0xFFFF and not g & ((1 << sh) - 1)
                           for g in gens) for sh in fields):
                return INFINITE           # some variable has no pure power
            total += _count_standard(gens, self.ring.guards, memo)
        return total


class GroebnerBasis:
    """Autoreduced (reduced) Groebner basis with cached leading terms."""

    __slots__ = ("ring", "rank", "order", "elements", "_lts", "_staircase",
                 "_reducer_cache")

    def __init__(self, ring: PolyRing, rank: int, order: MonomialOrder,
                 elements: Sequence[FreeModuleElement],
                 lead_terms: Sequence[int]):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.elements = tuple(elements)
        self._lts = tuple(lead_terms)
        self._staircase: Optional[Staircase] = None
        self._reducer_cache = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def staircase(self) -> Staircase:
        if self._staircase is None:
            self._staircase = Staircase(self.ring, self.rank, self._lts)
        return self._staircase

    def lead_terms(self) -> list:
        """(position, exponent tuple) of every basis element's lead."""
        bits = self.ring.mono_bits
        mask = self.ring.mono_mask
        return [(t >> bits, self.ring.unpack(t & mask)) for t in self._lts]

    def _reducer(self) -> "_Engine":
        if self._reducer_cache is None:
            eng = _Engine(self.ring, self.rank, self.order, DEFAULT_BUDGET)
            for g in self.elements:
                eng.add(dict(g._d))
            self._reducer_cache = eng
        return self._reducer_cache

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
        eng = self._reducer()
        for i in range(len(self.elements)):
            for j in range(i):
                if (self._lts[i] >> bits) != (self._lts[j] >> bits):
                    continue
                if eng.reduce(eng.spair(j, i)):
                    return False
        return True

    def __repr__(self):
        kind = "ideal" if self.rank == 1 else f"submodule of P^{self.rank}"
        return (f"GroebnerBasis({kind}, {len(self.elements)} elements, "
                f"order={self.order.name})")


class _Engine:
    """Shared machinery for Buchberger runs and normal-form reduction."""

    def __init__(self, ring: PolyRing, rank: int, order: MonomialOrder,
                 budget: Budget, track: bool = False):
        self.ring = ring
        self.rank = rank
        self.order = order
        self.budget = budget
        self.p = ring.p
        self.bits = ring.mono_bits
        self.mask = ring.mono_mask
        self.guards = ring.guards
        self.keyf = ring.term_key_fn(order, rank)
        self.monokeyf = ring.mono_key_fn(order)
        self.basis: List[dict] = []
        self.lts: List[int] = []          # packed lead terms (pos | mono)
        self.ltmonos: List[int] = []
        self.one_pos: List[bool] = []     # supported on a single position
        # live (not superseded) elements per position, in insertion order;
        # find_reducer tries the single-term ones first, which takes fewer
        # reduction steps than trying all of them in insertion order
        self.mono_by_pos: dict = {}       # pos -> [idx of single-term elements]
        self.gen_by_pos: dict = {}        # pos -> [idx of the rest]
        self.track = track
        self.reps: List[dict] = []
        self.pairs: list = []             # heap of (lcm key, i, j, pos, lcm)
        self.pending: dict = {}           # (i, j) -> (pos, lcm), still queued
        self.pairs_popped = 0

    # -- reduction ----------------------------------------------------------

    def find_reducer(self, t: int) -> int:
        pos = t >> self.bits
        g = self.guards
        tg = t | g
        lts = self.lts
        for k in self.mono_by_pos.get(pos, ()):
            if (tg - lts[k]) & g == g:
                return k
        for k in self.gen_by_pos.get(pos, ()):
            if (tg - lts[k]) & g == g:
                return k
        return -1

    def reduce(self, work: dict, rep: Optional[dict] = None) -> dict:
        """Divide work by the basis; returns the full remainder.

        When rep is given it is mutated so that the representation
        invariant (value = rep . generators) holds throughout.
        """
        if not work:
            return work
        p = self.p
        guards = self.guards
        keyf = self.keyf
        find = self.find_reducer
        out: dict = {}
        heap = [(-keyf(t), t) for t in work]
        heapq.heapify(heap)
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            t = pop(heap)[1]
            c = work.pop(t, 0)
            if not c:
                continue
            k = find(t)
            if k < 0:
                out[t] = c
                continue
            u = t - self.lts[k]           # pure monomial shift
            lt = self.lts[k]
            for tg, cg in self.basis[k].items():
                if tg == lt:
                    continue
                tt = tg + u
                if tt & guards:
                    _raise_overflow()
                nc = (work.get(tt, 0) - c * cg) % p
                if nc:
                    if tt not in work:
                        push(heap, (-keyf(tt), tt))
                    work[tt] = nc
                else:
                    work.pop(tt, None)
            if rep is not None:
                for tr, cr in self.reps[k].items():
                    tt = tr + u
                    if tt & guards:
                        _raise_overflow()
                    nc = (rep.get(tt, 0) - c * cr) % p
                    if nc:
                        rep[tt] = nc
                    else:
                        rep.pop(tt, None)
        return out

    # -- basis growth ---------------------------------------------------------

    def add(self, vec: dict, rep: Optional[dict] = None) -> int:
        """Normalize monic, append, and index as a reducer."""
        lt = max(vec, key=self.keyf)
        lc = vec[lt]
        if lc != 1:
            inv = pow(lc, self.p - 2, self.p)
            p = self.p
            vec = {t: (c * inv) % p for t, c in vec.items()}
            if rep is not None:
                rep = {t: (c * inv) % p for t, c in rep.items()}
        idx = len(self.basis)
        if idx >= self.budget.max_basis:
            raise BudgetExceededError("buchberger basis",
                                      self.budget.max_basis, idx + 1)
        pos = lt >> self.bits
        self.basis.append(vec)
        self.lts.append(lt)
        self.ltmonos.append(lt & self.mask)
        positions = {t >> self.bits for t in vec}
        self.one_pos.append(len(positions) == 1)
        if self.track:
            self.reps.append(rep if rep is not None else {})
        bucket = self.mono_by_pos if len(vec) == 1 else self.gen_by_pos
        bucket.setdefault(pos, []).append(idx)
        return idx

    def _update_pairs(self, t: int):
        """Gebauer-Moeller update: queue pairs for the new element t.

        Realizes the coprime-lead and chain criteria at insertion time:
        dominated new pairs are dropped, one representative survives per
        lcm (none when some representative has coprime leads), old pairs
        strictly covered by the new lead are pruned, and superseded basis
        elements retire from pair formation and reduction (their leads
        are multiples of the new one, so reducer coverage is preserved).
        """
        ring = self.ring
        divides = ring.mono_divides
        mono_t = self.ltmonos[t]
        pos = self.lts[t] >> self.bits
        monos = self.mono_by_pos.get(pos, [])
        gens = self.gen_by_pos.get(pos, [])
        active = monos + gens
        active.remove(t)
        # candidate pairs against the live same-position elements; the
        # S-vector of two single terms is literally zero
        partners = gens if len(self.basis[t]) == 1 else active
        groups: dict = {}
        for i in partners:
            groups.setdefault(ring.mono_lcm(self.ltmonos[i], mono_t),
                              []).append(i)
        # prune old pairs strictly covered by the new lead (chain criterion)
        stale = []
        for (i, j), (ppos, lcm_ij) in self.pending.items():
            if ppos != pos or not divides(mono_t, lcm_ij):
                continue
            if ring.mono_lcm(self.ltmonos[i], mono_t) != lcm_ij and \
                    ring.mono_lcm(self.ltmonos[j], mono_t) != lcm_ij:
                stale.append((i, j))
        for key in stale:
            del self.pending[key]
        # one representative per lcm that no other candidate lcm divides;
        # none when the product criterion fires
        monokey = self.monokeyf
        for lcm_v in _minimal(sorted(groups), self.guards):
            idxs = groups[lcm_v]
            if self.one_pos[t] and any(
                    self.one_pos[i] and lcm_v == self.ltmonos[i] + mono_t
                    for i in idxs):
                continue
            i = min(idxs)
            heapq.heappush(self.pairs, (monokey(lcm_v), i, t, pos, lcm_v))
            self.pending[(i, t)] = (pos, lcm_v)
        # retire superseded elements from pair formation and reduction
        for i in active:
            if divides(mono_t, self.ltmonos[i]):
                (monos if len(self.basis[i]) == 1 else gens).remove(i)

    def spair(self, i: int, j: int, lcm: Optional[int] = None,
              reps: bool = False) -> dict:
        """u_i g_i - u_j g_j scaled to cancel the (monic) leads.

        With reps set, the same shifted difference of the tracked
        representations of g_i and g_j instead.
        """
        if lcm is None:
            lcm = self.ring.mono_lcm(self.ltmonos[i], self.ltmonos[j])
        rows = self.reps if reps else self.basis
        p = self.p
        guards = self.guards
        ui = lcm - self.ltmonos[i]
        uj = lcm - self.ltmonos[j]
        vec: dict = {}
        for t, c in rows[i].items():
            tt = t + ui
            if tt & guards:
                _raise_overflow()
            vec[tt] = c
        for t, c in rows[j].items():
            tt = t + uj
            if tt & guards:
                _raise_overflow()
            nc = (vec.get(tt, 0) - c) % p
            if nc:
                vec[tt] = nc
            else:
                vec.pop(tt, None)
        return vec

    # -- the main loop ----------------------------------------------------------

    def run(self):
        while self.pairs:
            _, i, j, pos, lcm = heapq.heappop(self.pairs)
            if self.pending.pop((i, j), None) is None:
                continue              # pruned by a later update
            self.pairs_popped += 1
            if self.pairs_popped > self.budget.max_pairs:
                raise BudgetExceededError("buchberger pairs",
                                          self.budget.max_pairs,
                                          self.pairs_popped)
            svec = self.spair(i, j, lcm)
            rep = self.spair(i, j, lcm, reps=True) if self.track else None
            r = self.reduce(svec, rep=rep)
            if r:
                self._update_pairs(self.add(r, rep))

    # -- canonical output ---------------------------------------------------------

    def finalize(self) -> GroebnerBasis:
        """Minimalize and tail-reduce into the unique reduced basis."""
        first: dict = {}                  # lead -> its lowest basis index
        for k, lt in enumerate(self.lts):
            first.setdefault(lt, k)
        bits = self.bits
        stairs = Staircase(self.ring, self.rank, first)
        kept_lts = sorted((pos << bits | m
                           for pos, monos in stairs._by_pos.items()
                           for m in monos), key=self.keyf)
        kept = [first[lt] for lt in kept_lts]
        # the live elements form a Groebner basis, and normal forms modulo
        # a Groebner basis do not depend on which basis reduces them, so
        # reducing each kept tail once yields the reduced basis
        elements = []
        for k, lt in zip(kept, kept_lts):
            vec = dict(self.basis[k])
            c = vec.pop(lt)
            tail = self.reduce(vec)
            tail[lt] = c
            elements.append(FreeModuleElement(self.ring, self.rank, tail))
        return GroebnerBasis(self.ring, self.rank, self.order, elements,
                             kept_lts)


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
    return eng.finalize()


def normal_form(f, gb: GroebnerBasis):
    """Remainder of f modulo gb; no term is divisible by a leading term."""
    vec = as_vector(f)
    if vec.rank != gb.rank or not vec.ring.compatible(gb.ring):
        raise RingMismatchError("element does not match the basis")
    out = gb._reducer().reduce(dict(vec._d))
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
    """dim P/A by the independent-set method on the leading-term ideal.

    The dimension is the largest size of a variable subset S such that no
    leading monomial involves only variables from S.  For the unit ideal
    this returns 0; callers needing the empty variety distinguished check
    contains_one().
    """
    if gb.rank != 1:
        raise ValueError("krull_dimension expects an ideal basis (rank 1)")
    nv = gb.ring.nvars
    supports = set()
    for _, exps in gb.lead_terms():
        supports.add(frozenset(i for i, e in enumerate(exps) if e))
    if not supports:
        return nv
    if frozenset() in supports:
        return 0
    for size in range(nv, -1, -1):
        for S in combinations(range(nv), size):
            Sset = frozenset(S)
            if not any(supp <= Sset for supp in supports):
                return size
    return 0


# -- syzygies ---------------------------------------------------------------------


def syzygies(gens: Sequence, *, ring: Optional[PolyRing] = None,
             budget: Optional[Budget] = None) -> list:
    """Generators of {(a_1..a_m) : sum a_i g_i = 0} in P^m.

    Representation vectors are tracked through the Buchberger run; after
    the run every same-position pair of the final basis is reduced to zero
    and its tracked representation recorded, which by Schreyer's theorem
    generates the full syzygy module.  The output is the reduced Groebner
    basis of that module, so it is canonical as well as complete.
    """
    budget = budget or DEFAULT_BUDGET
    vecs = [as_vector(g) for g in gens]
    m = len(vecs)
    if m == 0:
        return []
    if ring is None:
        ring = vecs[0].ring
    rank = vecs[0].rank
    for v in vecs:
        if not v.ring.compatible(ring) or v.rank != rank:
            raise RingMismatchError("generators must share ring and rank")
    bits = ring.mono_bits
    raw: List[dict] = []
    eng = _Engine(ring, rank, ring.order, budget, track=True)
    for i, v in enumerate(vecs):
        if v._d:
            eng._update_pairs(eng.add(dict(v._d), {i << bits: 1}))
        else:
            raw.append({i << bits: 1})     # a zero generator is annihilated by 1
    eng.run()
    for j in range(len(eng.basis)):
        for i in range(j):
            if eng.lts[i] >> bits != eng.lts[j] >> bits:
                continue
            srep = eng.spair(i, j, reps=True)
            rem = eng.reduce(eng.spair(i, j), rep=srep)
            if rem:              # pragma: no cover - contradicts GB property
                raise AssertionError("S-pair failed to reduce to zero")
            if srep:
                raw.append(srep)
    if not raw:
        return []
    elems = [FreeModuleElement(ring, m, d) for d in raw]
    return list(buchberger(elems, ring=ring, rank=m, budget=budget).elements)


# -- matrix rank and cokernel dimension over P/Q -----------------------------------


def _minor_determinant(matrix, rows: tuple, cols: tuple, ring: PolyRing,
                       memo: dict, counter: list, budget: Budget) -> Polynomial:
    """Laplace expansion along the first row with memoized submatrices."""
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    counter[0] += 1
    if counter[0] > budget.max_minors:
        raise BudgetExceededError("minor expansion", budget.max_minors,
                                  counter[0])
    if len(rows) == 1:
        det = matrix[rows[0]][cols[0]]
    else:
        det = ring.zero()
        r0 = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            entry = matrix[r0][c]
            if entry.is_zero():
                continue
            sub = _minor_determinant(matrix, rest, cols[:idx] + cols[idx + 1:],
                                     ring, memo, counter, budget)
            term = entry * sub
            det = det + term if idx % 2 == 0 else det - term
    memo[key] = det
    return det


def _as_matrix(matrix) -> Tuple[list, PolyRing]:
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    ring = rows[0][0].ring
    for r in rows:
        if len(r) != width:
            raise ValueError("ragged matrix")
        for entry in r:
            if not entry.ring.compatible(ring):
                raise RingMismatchError("matrix entries from different rings")
    return rows, ring


def matrix_rank_over_domain(matrix,
                            quotient_gb: Optional[GroebnerBasis] = None, *,
                            budget: Optional[Budget] = None) -> int:
    """Rank of a matrix of ring elements over Frac(P/Q), Q assumed prime.

    The rank is the largest t with some t x t minor whose normal form
    modulo Q is nonzero.  Primality of Q is the caller's assertion; it is
    what makes "nonzero mod Q" mean "invertible in the fraction field".
    """
    budget = budget or DEFAULT_BUDGET
    rows, ring = _as_matrix(matrix)
    nr, nc = len(rows), len(rows[0])
    memo: dict = {}
    counter = [0]

    def nonzero(f: Polynomial) -> bool:
        if f.is_zero():
            return False
        if quotient_gb is None or not quotient_gb.elements:
            return True
        return not quotient_gb.contains(f)

    for t in range(min(nr, nc), 0, -1):
        for rsub in combinations(range(nr), t):
            for csub in combinations(range(nc), t):
                det = _minor_determinant(rows, rsub, csub, ring, memo,
                                         counter, budget)
                if nonzero(det):
                    return t
    return 0


def maximal_minors(matrix, *, budget: Optional[Budget] = None) -> list:
    """All s x s minors of an s x m matrix (s = number of rows)."""
    budget = budget or DEFAULT_BUDGET
    rows, ring = _as_matrix(matrix)
    s, m = len(rows), len(rows[0])
    if m < s:
        return []
    memo: dict = {}
    counter = [0]
    out = []
    allrows = tuple(range(s))
    for csub in combinations(range(m), s):
        det = _minor_determinant(rows, allrows, csub, ring, memo, counter,
                                 budget)
        if not det.is_zero():
            out.append(det)
    return out


def cokernel_dimension(columns: Sequence[FreeModuleElement],
                       ambient_rank: int,
                       quotient_gens: Sequence[Polynomial],
                       ring: PolyRing, *,
                       order: Optional[MonomialOrder] = None,
                       budget: Optional[Budget] = None) -> Tuple[int, bool]:
    """(dim, is_zero_module) for coker of the columns inside (P/Q)^rank.

    Uses Supp M = V(Fitt_0): the presentation matrix over P is the given
    columns augmented by the quotient generators times each basis vector,
    and the dimension is that of the maximal-minor ideal plus Q.  The zero
    module is reported as dimension 0 with the flag set.
    """
    budget = budget or DEFAULT_BUDGET
    if ambient_rank == 0:
        return 0, True
    matrix = [[col.component(i) for col in columns]
              for i in range(ambient_rank)]
    for qg in quotient_gens:
        for i in range(ambient_rank):
            for r in range(ambient_rank):
                matrix[r].append(qg if r == i else ring.zero())
    if not matrix[0]:
        fitt: list = []
    else:
        fitt = maximal_minors(matrix, budget=budget)
    gb = buchberger(list(fitt) + list(quotient_gens), order, ring=ring,
                    budget=budget)
    if gb.contains_one():
        return 0, True
    return krull_dimension(gb), False
