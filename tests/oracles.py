"""Independent oracles used to cross-check the library's answers.

Nothing here touches the Groebner engine: colengths come from dense
linear algebra over degree-truncated multiplication rows, monomial
staircases from direct lattice enumeration, module lengths from
explicit spanning sets inside a bounding box, remainders from
textbook division on exponent tuples, and e_n of the determinantal
ring's class modules from a lattice-point count.  These stay deliberately
naive so they remain trustworthy.

The random-instance generators always include a pure power of every
variable (so the quotients are Artinian and the truncation bounds are
known) and avoid constant terms (so the instances are not trivially the
unit ideal).
"""

from itertools import combinations, product
from math import comb
from typing import Dict, List, Sequence


def monomials_up_to_degree(nvars: int, d: int) -> List[tuple]:
    """All exponent tuples with total degree <= d, sorted."""
    if nvars == 0:
        return [()]
    out = []
    for e in range(d + 1):
        for rest in monomials_up_to_degree(nvars - 1, d - e):
            out.append((e,) + rest)
    return sorted(out)


def gauss_rank_mod_p(rows: List[Dict[int, int]], p: int) -> int:
    """Rank of a sparse 0-indexed row collection over F_p."""
    pivots: Dict[int, Dict[int, int]] = {}
    rank = 0
    for original in rows:
        row = {c: v % p for c, v in original.items() if v % p}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: (v * inv) % p for c, v in row.items()}
                rank += 1
                break
            factor = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        # empty row: linearly dependent, contributes nothing
    return rank


def dense_colength(gens, pure_power_bounds: Sequence[int]) -> int:
    """Colength of an ideal by truncated multiplication-row reduction.

    pure_power_bounds[i] = a_i with x_i^{a_i} in the ideal (the callers
    include those pure powers among the generators).  Every monomial of
    degree above D = sum(a_i - 1) then lies in the ideal, so the quotient
    is spanned by monomials of degree <= D and the colength is that count
    minus the rank of all products (monomial * generator) truncated to
    degree D.
    """
    ring = gens[0].ring
    nv = ring.nvars
    p = ring.p
    D = sum(b - 1 for b in pure_power_bounds)
    mons = monomials_up_to_degree(nv, D)
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        terms = g.terms()
        mind = min(sum(e) for e, _ in terms)
        for u in monomials_up_to_degree(nv, D - mind):
            row: Dict[int, int] = {}
            for exps, c in terms:
                prod = tuple(a + b for a, b in zip(u, exps))
                if sum(prod) <= D:
                    i = index[prod]
                    nc = (row.get(i, 0) + c) % p
                    if nc:
                        row[i] = nc
                    else:
                        row.pop(i, None)
            if row:
                rows.append(row)
    return len(mons) - gauss_rank_mod_p(rows, p)


def order_key(order: str, exps: Sequence[int]) -> tuple:
    """Sort key of an exponent tuple: larger key, larger monomial.

    lex compares exponents from the first variable on; grevlex compares
    total degree, then the last variable whose exponents differ, where
    the smaller exponent is the larger monomial.
    """
    if order == "lex":
        return tuple(exps)
    if order == "grevlex":
        return (sum(exps),) + tuple(-e for e in reversed(exps))
    raise ValueError(f"no oracle order {order!r}")


def division_remainder(f: Dict[tuple, int], divisors: Sequence[Dict],
                       order: str, p: int) -> Dict[tuple, int]:
    """Remainder of textbook multivariate division over F_p.

    f and the divisors map (position, exponent tuple) to coefficients.
    Terms compare position first, position 0 largest, then by the
    monomial order.  The largest term left is cancelled by the first
    divisor whose lead divides it, or else moved to the remainder.
    """
    def key(term):
        return (-term[0], order_key(order, term[1]))

    divs = []
    for g in divisors:
        lead = max(g, key=key)
        inv = pow(g[lead], p - 2, p)
        divs.append((lead, {t: c * inv % p for t, c in g.items()}))
    left = {t: c % p for t, c in f.items() if c % p}
    rem: Dict[tuple, int] = {}
    while left:
        pos, exps = top = max(left, key=key)
        c = left[top]
        for (lpos, lexps), g in divs:
            if lpos == pos and all(a <= b for a, b in zip(lexps, exps)):
                shift = [b - a for a, b in zip(lexps, exps)]
                for (gpos, gexps), gc in g.items():
                    t = (gpos, tuple(a + b for a, b in zip(gexps, shift)))
                    nc = (left.get(t, 0) - c * gc) % p
                    if nc:
                        left[t] = nc
                    else:
                        left.pop(t, None)
                break
        else:
            rem[top] = left.pop(top)
    return rem


def box_staircase_count(mono_gens: Sequence[Sequence[int]],
                        bounds: Sequence[int]) -> int:
    """Standard monomials of a monomial ideal by direct box enumeration.

    bounds[i] must be the exponent of a pure power x_i^{bounds[i]} in the
    ideal, so all standard monomials live in the box.
    """
    count = 0
    gens = [tuple(g) for g in mono_gens]
    for m in product(*(range(b) for b in bounds)):
        if not any(all(g[i] <= m[i] for i in range(len(m))) for g in gens):
            count += 1
    return count


def random_artinian_ideal(rng):
    """(ring, generators, pure power bounds) with colength <= 200."""
    from hilbertkunz import PolyRing
    p = rng.choice([2, 3, 5, 7])
    nv = rng.choice([2, 3])
    R = PolyRing(p, ["x", "y", "z"][:nv])
    if nv == 2:
        bounds = [rng.randint(2, 12) for _ in range(nv)]    # box <= 144
    else:
        bounds = [rng.randint(2, 5) for _ in range(nv)]     # box <= 125
    gens = [R.monomial(tuple(b if j == i else 0 for j in range(nv)))
            for i, b in enumerate(bounds)]
    for _ in range(rng.randint(0, 3)):
        items = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 4) for _ in range(nv))
            if sum(exps) == 0:
                exps = tuple(1 if j == 0 else e
                             for j, e in enumerate(exps))
            items.append((exps, rng.randint(1, p - 1)))
        f = R.from_terms(items)
        if f:
            gens.append(f)
    return R, gens, bounds


def random_monomial_ideal(rng, nvars=None):
    """(ring, exponent tuples, pure power bounds), Artinian by design.

    nvars (at most 4) fixes the number of variables; by default it is 2
    or 3.
    """
    from hilbertkunz import PolyRing
    nv = nvars or rng.choice([2, 3])
    R = PolyRing(rng.choice([2, 3, 5]), ["x", "y", "z", "w"][:nv])
    bounds = [rng.randint(2, 5) for _ in range(nv)]
    exps = [tuple(b if j == i else 0 for j in range(nv))
            for i, b in enumerate(bounds)]
    for _ in range(rng.randint(0, 4)):
        cand = tuple(rng.randint(0, 4) for _ in range(nv))
        if sum(cand) > 0:
            exps.append(cand)
    return R, exps, bounds


def module_dense_colength(vectors, rank: int,
                          bounds: Sequence[int]) -> int:
    """Length of P^rank / N by explicit spanning inside a box.

    Requires x_i^{bounds[i]} e_pos in N for every variable and position
    (the callers include those generators), so the quotient is spanned by
    the box monomials in each position.
    """
    ring = vectors[0].ring
    nv = ring.nvars
    p = ring.p
    box = [m for m in product(*(range(b) for b in bounds))]
    index = {}
    for pos in range(rank):
        for m in box:
            index[(pos, m)] = len(index)
    rows = []
    for vec in vectors:
        entries = vec.entries()
        for u in box:
            row: Dict[int, int] = {}
            for pos, exps, c in entries:
                prod = tuple(a + b for a, b in zip(u, exps))
                if all(e < b for e, b in zip(prod, bounds)):
                    i = index[(pos, prod)]
                    nc = (row.get(i, 0) + c) % p
                    if nc:
                        row[i] = nc
                    else:
                        row.pop(i, None)
            if row:
                rows.append(row)
    return len(index) - gauss_rank_mod_p(rows, p)


def minors_rank(matrix, quotient_basis, order: str = "grevlex") -> int:
    """Rank over Frac(P/Q) of a matrix of polynomials, Q prime.

    The rank is the largest t with a t x t minor outside Q.  Minors come
    from Laplace expansion, and quotient_basis must be a Groebner basis
    of Q in the order (one generator always is), so that a minor lies in
    Q exactly when its division remainder is zero.
    """
    rows, cols = len(matrix), len(matrix[0])
    p = matrix[0][0].ring.p

    def as_dict(f):
        return {(0, exps): c for exps, c in f.terms()}

    basis = [as_dict(g) for g in quotient_basis]

    def det(rs, cs):
        if len(rs) == 1:
            return matrix[rs[0]][cs[0]]
        out = matrix[0][0].ring.zero()
        for k, c in enumerate(cs):
            term = matrix[rs[0]][c] * det(rs[1:], cs[:k] + cs[k + 1:])
            out = out - term if k % 2 else out + term
        return out

    for t in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), t):
            for cs in combinations(range(cols), t):
                if division_remainder(as_dict(det(rs, cs)), basis, order, p):
                    return t
    return 0


def _bounded_compositions(total: int, parts: int, q: int) -> int:
    """Vectors in N^parts summing to total with every entry below q, by
    inclusion-exclusion over the entries forced to q or more."""
    if total < 0:
        return 0
    count = 0
    for j in range(min(parts, total // q) + 1):
        count += (-1) ** j * comb(parts, j) * comb(total - j * q + parts - 1,
                                                  parts - 1)
    return count


def segre_lattice_en(n: int, k: int) -> int:
    """e_n(M_k) over the determinantal ring (p = 3), with no Groebner run.

    The ring is the Segre ring k[s_i t_j] (i <= 2, j <= 3) with x1..x3 =
    s1*t1..t3 and x4..x6 = s2*t1..t3, and M_k is spanned by the monomials
    s^a t^b with |a| = |b| + k (M_0 is the ring).  Such a monomial lies in
    m^[q] M_k exactly when some a_i >= q and some b_j >= q, so e_n(M_k) is
    the sum over D of A_D B_(D-k) - (A_D - A<q_D)(B_(D-k) - B<q_(D-k)),
    where A and B count the exponent vectors in N^2 and N^3 of a degree
    and A<q and B<q those with every entry below q.  A term vanishes once
    D > 2(q - 1) and D - k > 3(q - 1), so D runs up to 3q + |k|.
    """
    q = 3 ** n
    total = 0
    for D in range(max(k, 0), 3 * q + abs(k) + 1):
        A, B = D + 1, comb(D - k + 2, 2)
        A_in = _bounded_compositions(D, 2, q)
        B_in = _bounded_compositions(D - k, 3, q)
        total += A * B - (A - A_in) * (B - B_in)
    return total
