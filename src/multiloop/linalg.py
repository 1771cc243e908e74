"""Exact linear algebra over the scalar tower.

A matrix is held as sparse rows {i: {j: entry}}: an absent entry is an
exact zero, and no exact zero is stored.  The one product kernel,
`mat_mul`, the one exp of a nilpotent, `exp_nilpotent` (M + E M with
E = exp(N) - I built once), and the one residual certifier,
`identity_residual`, work on sparse rows.  Dense lists of row lists are
left to elimination (`rref`, `kernel_basis`, `solve`, `span_coords`,
`smith_invariants`); `dense` converts at that boundary.  The one closure
of a generated subalgebra, `lie_closure`, keeps sparse echelon rows
(`echelon_insert`) under a given bracket.  The coefficient domain is
passed explicitly and decides what counts as zero: an entry zero
only up to a precision horizon, O(t^p), is kept, and how to divide by an
int (`dom.over`) and put a field entry in canonical form (`dom.canon`), so
integral data over Q stays on ints.
Elimination uses first-nonzero pivoting so results are deterministic for a
given input.
"""

from __future__ import annotations

import heapq
from math import gcd


def identity(dom, n):
    one, zero = dom.one(), dom.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def dense(dom, rows, n):
    """The n x n dense matrix of sparse rows, absent entries dom.zero()."""
    zero, empty = dom.zero(), {}
    return [[rows.get(i, empty).get(j, zero) for j in range(n)]
            for i in range(n)]


def mat_mul(dom, A, B):
    """The product A B of sparse rows over dom, as sparse rows.  Every
    stored entry takes part, so the horizon of an entry zero only up to its
    precision reaches the product; a sum that is an exact zero (dom.nonzero)
    is dropped, and so is an empty row."""
    out = {}
    for i, Ai in A.items():
        acc = {}
        for p, a in Ai.items():
            Bp = B.get(p)
            if Bp is not None:
                for j, b in Bp.items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
        row = {j: x for j, x in acc.items() if dom.nonzero(x)}
        if row:
            out[i] = row
    return out


def _add_into(dom, out, rows):
    """out += rows in place, both sparse; exact-zero sums are dropped."""
    for i, row in rows.items():
        target = out.setdefault(i, {})
        for j, x in row.items():
            x = target[j] + x if j in target else x
            if dom.nonzero(x):
                target[j] = x
            else:
                del target[j]
        if not target:
            del out[i]


def exp_nilpotent(dom, N, M):
    """exp(N) M = M + E M, as sparse rows, for sparse rows N and M: E is
    the sum of P_1 = N, P_i = (N P_(i-1)) / i (dom.over) up to the first
    vanishing term, built from the few entries of N and applied in one
    product.
    Raises ValueError when N is not nilpotent: N^k != 0, where k is the
    number of indices N touches."""
    k = len(N.keys() | {j for row in N.values() for j in row})
    over = dom.over
    E, P, i = {}, N, 1
    while P:
        if i >= k:
            raise ValueError("matrix is not nilpotent")
        _add_into(dom, E, P)
        i += 1
        P = {r: {j: over(x, i) for j, x in row.items()}
             for r, row in mat_mul(dom, N, P).items()}
    out = {r: dict(row) for r, row in M.items()}
    _add_into(dom, out, mat_mul(dom, E, M))
    return out


def rref(dom, A):
    """Reduced row echelon form over a field domain.

    Returns (R, pivots): R is the reduced matrix, whose first len(pivots)
    rows are nonzero, and pivots lists their pivot columns in order.  Its
    entries are in canonical form (dom.canon).
    """
    n = len(A)
    m = len(A[0]) if n else 0
    R = [list(row) for row in A]
    pivots = []
    r = 0
    for c in range(m):
        pr = None
        for i in range(r, n):
            if R[i][c]:
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = dom.inv(R[r][c])
        R[r] = [x * inv for x in R[r]]
        for i in range(n):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    canon = dom.canon
    return [[canon(x) for x in row] for row in R], pivots


def kernel_basis(dom, A):
    """Basis of the right null space of A over a field domain."""
    m = len(A[0]) if A else 0
    R, pivots = rref(dom, A)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        v = [dom.zero()] * m
        v[fc] = dom.one()
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def solve(dom, A, b):
    """One solution of A x = b over a field domain, or None."""
    n = len(A)
    m = len(A[0]) if n else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    R, pivots = rref(dom, aug)
    if m in pivots:
        return None
    x = [dom.zero()] * m
    for r, pc in enumerate(pivots):
        x[pc] = R[r][m]
    return x


def span_coords(dom, vs, n):
    """Coordinates in the basis vs of independent sparse vectors {t: v_t}
    of length n, by pivot solve.

    The k vectors are eliminated once, as rref([V | I_k]) = [E V | E]: the
    pivot columns P of E V hold I_k, so E is the inverse of V restricted to
    P, and w = sum_j c_j v_j has c_j = sum_p w_(P_p) E_pj.  Returns a
    function taking a sparse w to its coordinate list, or to None when
    sum_j c_j v_j differs from w on some coordinate, i.e. w is not in the
    span.  w may lie over a ring above dom (series, say): the check uses its
    ==, and a coordinate nothing contributes to stays dom's zero.  The
    coordinates are in canonical form (dom.canon).
    """
    k = len(vs)
    zero, one, canon = dom.zero(), dom.one(), dom.canon
    aug = [[v.get(t, zero) for t in range(n)]
           + [one if j == i else zero for j in range(k)]
           for i, v in enumerate(vs)]
    R, pivots = rref(dom, aug)
    if len(pivots) < k or (k and pivots[k - 1] >= n):
        raise ValueError("matrix is not injective")
    solve_rows = [(pc, [(j, e) for j, e in enumerate(R[r][n:]) if e])
                  for r, pc in enumerate(pivots[:k])]

    def coords(w):
        c = [zero] * k
        for pc, row in solve_rows:
            x = w.get(pc)
            if x:
                for j, e in row:
                    c[j] = c[j] + x * e
        back = {}
        for cj, v in zip(c, vs):
            if cj:
                for t, x in v.items():
                    back[t] = back[t] + cj * x if t in back else cj * x
        if any(back.get(t, zero) != x for t, x in w.items()) or \
                any(x and t not in w for t, x in back.items()):
            return None
        return [canon(x) for x in c]
    return coords


def echelon_insert(dom, basis, w):
    """Reduce the sparse vector w against the echelon basis {pivot: row} of
    sparse rows, each 1 at its pivot and 0 before it, pivot by pivot in
    increasing order (a row changes w only past its pivot).  A nonzero
    remainder is normalized, added to the basis and returned; None means w
    lies in the span."""
    w = {t: x for t, x in w.items() if x}
    todo = [t for t in w if t in basis]
    heapq.heapify(todo)
    while todo:
        c = heapq.heappop(todo)
        x = w.pop(c, None)
        if x is None:
            continue
        for t, b in basis[c].items():
            if t == c:
                continue
            y = w[t] - x * b if t in w else -x * b
            if y:
                if t not in w and t in basis:
                    heapq.heappush(todo, t)
                w[t] = y
            else:
                w.pop(t, None)
    if not w:
        return None
    pivot = min(w)
    inv = dom.inv(w[pivot])
    basis[pivot] = {t: x * inv for t, x in w.items()}
    return basis[pivot]


def lie_closure(dom, bracket, gens, dim, basis=None, frontier=None):
    """The echelon basis {pivot: row} of the subalgebra generated by the
    sparse vectors gens in an algebra of dimension dim, under the bilinear
    bracket(x, y) of sparse vectors; each row is 1 at its pivot and 0
    before it.  Given an echelon basis, whose rows gens already are, it is
    closed in place instead, only the rows in frontier being new to it.

    The subalgebra is closed incrementally (de Graaf, Lie Algebras: Theory
    and Algorithms, 1.6) in one echelon basis.  If S_k = S_(k-1) +
    span(new_k) then [gens, S_k] lies in S_k + [gens, new_k], so each round
    brackets the generators only with the rows the last round added, and
    the closure is reached when a round adds none.
    """
    if basis is None:
        basis = {}
        gens = frontier = [row for row in (echelon_insert(dom, basis, v)
                                           for v in gens) if row is not None]
    while frontier and len(basis) < dim:
        new = []
        for v in frontier:
            for u in gens:
                row = echelon_insert(dom, basis, bracket(u, v))
                if row is not None:
                    new.append(row)
        frontier = new
    return basis


def smith_invariants(A):
    """Diagonal invariant factors of an integer matrix (Smith normal form)."""
    M = [list(map(int, row)) for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    invariants = []
    r = 0
    while r < min(n, m):
        # find a nonzero entry in the remaining block
        piv = None
        for i in range(r, n):
            for j in range(r, m):
                if M[i][j]:
                    if piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        M[r], M[i0] = M[i0], M[r]
        for row in M:
            row[r], row[j0] = row[j0], row[r]
        done = False
        while not done:
            done = True
            for i in range(r + 1, n):
                if M[i][r]:
                    q = M[i][r] // M[r][r]
                    for j in range(m):
                        M[i][j] -= q * M[r][j]
                    if M[i][r]:
                        M[r], M[i] = M[i], M[r]
                        done = False
            for j in range(r + 1, m):
                if M[r][j]:
                    q = M[r][j] // M[r][r]
                    for i in range(n):
                        M[i][j] -= q * M[i][r]
                    if M[r][j]:
                        for row in M:
                            row[r], row[j] = row[j], row[r]
                        done = False
        invariants.append(abs(M[r][r]))
        r += 1
    # enforce divisibility chain
    for i in range(len(invariants) - 1):
        for j in range(i + 1, len(invariants)):
            a, b = invariants[i], invariants[j]
            g = gcd(a, b)
            invariants[i], invariants[j] = g, a * b // g if g else 0
    return invariants


def identity_residual(dom, M, N, columns):
    """Certify M against the identity: the one residual check.

    M is the sparse rows of a column block: the entries of a matrix in the
    given columns (and none in any other), compared with the same columns
    of the identity.

    Returns (achieved, where).  achieved is the t-adic order to which
    M - I is known to vanish: the least valuation of an entry with a
    coefficient and the least precision horizon of an entry (an exact
    nonzero entry over a ring without t has order 0); it is None when M - I
    is exactly zero.  where is the first entry (i, j), in row order, with a
    known nonzero coefficient of degree below N (of any degree when N is
    None), or None.  Exact zeros are skipped; entries zero only up to a
    horizon are not, so achieved never exceeds what the entries carry.
    """
    nonzero, t_order = dom.nonzero, dom.t_order
    one, zero = dom.one(), dom.zero()
    diagonal = set(columns)
    achieved = where = None
    empty = {}
    for i in sorted(M.keys() | diagonal):
        row = M.get(i, empty)
        for j in sorted(row.keys() | ({i} & diagonal)):
            x = row.get(j, zero)
            if i == j:
                x = x - one
            if not nonzero(x):
                continue
            val, horizon = t_order(x)
            for o in (val, horizon):
                if o is not None and (achieved is None or o < achieved):
                    achieved = o
            if where is None and val is not None and (N is None or val < N):
                where = (i, j)
    return achieved, where
