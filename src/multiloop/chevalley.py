"""Split simple Lie algebras over Z via Chevalley bases.

Structure constants are fixed by the extraspecial-pair convention: positive
roots are ordered by height then lexicographically; for each non-simple
positive root the minimal decomposition gets N = +(p+1), and every other
constant follows from antisymmetry, N(-a,-b) = -N(a,b), and the cyclic
identity N(a,b)/|c|^2 = N(b,c)/|a|^2 for a+b+c = 0.  Before an algebra is
returned, antisymmetry is verified on every basis pair and the Jacobi
identity on every basis triple, in integer arithmetic on the sparse table.

`sparse_bracket` is the one bracket over a sparse structure-constant table:
the graded tables, LT4, `GradedLieAlgebra.closure` (which LT5 and the
generating columns of `elemgroup` close on) and the automorphism check go
through it.
`ad_rows` is the one builder of the sparse rows of ad_x over such a table:
`exp_ad`, `killing_form` and the root elements of `elemgroup` use it.  It
reads the table grouped by first slot (`group_cells`, kept as
`cells_by_first` by each algebra), so it visits only the cells whose first
slot is in x.
An `AlgebraAutomorphism` is held as sparse rows too: it composes by
`linalg.mat_mul`, compares by dict equality, and is verified on the columns
of its rows.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .rootsys import RootSystem, build_root_system
from .scalars import QQ


class ChevalleyError(ValueError):
    pass


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


class ChevalleyAlgebra:
    """Integer structure constants of a split simple Lie algebra on the basis
    e_delta (delta running over all roots) followed by h_1 .. h_rank."""

    def __init__(self, rs: RootSystem):
        if not rs.is_reduced():
            raise ChevalleyError("Chevalley basis requires a reduced system")
        self.rs = rs
        self.rank = rs.rank
        pos = sorted((a for a in rs.roots if _height(rs, a) > 0),
                     key=lambda a: (_height(rs, a), a))
        self.positive = pos
        self.roots = pos + [_vneg(a) for a in pos]
        self.dim = len(self.roots) + rs.rank
        self.root_index = {a: i for i, a in enumerate(self.roots)}
        self._pos_order = {a: i for i, a in enumerate(pos)}
        self._len2 = {a: rs.inner(a, a) for a in self.roots}
        self._npos = {}
        self._compute_positive_constants()
        self.table = self._build_table()
        self._verify_jacobi()

    # -- structure constants --------------------------------------------------

    def _p(self, a, b):
        """Largest k with b - k a a root."""
        k = 0
        cur = _vsub(b, a)
        while cur in self.rs.root_set:
            k += 1
            cur = _vsub(cur, a)
        return k

    def _compute_positive_constants(self):
        by_height = {}
        for g in self.positive:
            by_height.setdefault(_height(self.rs, g), []).append(g)
        for h in sorted(by_height):
            if h < 2:
                continue
            for g in by_height[h]:
                pairs = []
                for a in self.positive:
                    b = _vsub(g, a)
                    if b in self.rs.root_set and _height(self.rs, b) > 0 \
                            and self._pos_order[a] < self._pos_order[b]:
                        pairs.append((a, b))
                pairs.sort(key=lambda p: self._pos_order[p[0]])
                eps, eta = pairs[0]
                self._npos[(eps, eta)] = self._p(eps, eta) + 1
                for a, b in pairs[1:]:
                    self._npos[(a, b)] = self._special_constant(a, b, eps)

    def _special_constant(self, a, b, eps):
        g = _vadd(a, b)
        t2 = 0
        bm = _vsub(b, eps)
        if bm in self.rs.root_set:
            t2 = self._n(b, _vneg(eps)) * self._n(bm, a)
        t3 = 0
        am = _vsub(a, eps)
        if am in self.rs.root_set:
            t3 = self._n(_vneg(eps), a) * self._n(am, b)
        val, rem = divmod(-(t2 + t3), self._n(g, _vneg(eps)))
        if rem:
            raise ChevalleyError("non-integral structure constant at %s+%s" % (a, b))
        return val

    def _n(self, a, b):
        """N(a, b) for arbitrary roots with a+b a root."""
        s = _vadd(a, b)
        assert s in self.rs.root_set
        ha, hb = _height(self.rs, a), _height(self.rs, b)
        if ha > 0 and hb > 0:
            if self._pos_order[a] < self._pos_order[b]:
                return self._npos[(a, b)]
            return -self._npos[(b, a)]
        if ha < 0 and hb < 0:
            return -self._n(_vneg(a), _vneg(b))
        # mixed signs; arrange a positive
        if ha < 0:
            return -self._n(b, a)
        if _height(self.rs, s) > 0:
            # N(a,b) = -(|s|^2/|a|^2) N(-b, s), a positive pair summing to a
            val, rem = divmod(-self._len2[s] * self._n(_vneg(b), s),
                              self._len2[a])
        else:
            # N(a,b) = -(|s|^2/|b|^2) N(a, -s), a positive pair summing to -b
            val, rem = divmod(-self._len2[s] * self._n(a, _vneg(s)),
                              self._len2[b])
        if rem:
            raise ChevalleyError("non-integral constant for %s,%s" % (a, b))
        return val

    def coroot_coeffs(self, a):
        """a^vee as an integer combination of the simple coroots."""
        out = []
        la = self._len2[a]
        for i, s in enumerate(self.rs.simple_roots):
            c, rem = divmod(a[i] * self._len2[s], la)
            if rem:
                raise ChevalleyError("non-integral coroot for %s" % (a,))
            out.append(c)
        return out

    def _build_table(self):
        """Sparse bracket table: (i, j) -> list of (k, integer)."""
        table = {}
        nroots = len(self.roots)

        def put(i, j, k, c):
            if c:
                table.setdefault((i, j), []).append((k, c))

        for i, a in enumerate(self.roots):
            for j, b in enumerate(self.roots):
                if i == j:
                    continue
                s = _vadd(a, b)
                if all(x == 0 for x in s):
                    for t, c in enumerate(self.coroot_coeffs(a)):
                        put(i, j, nroots + t, c)
                elif s in self.rs.root_set:
                    put(i, j, self.root_index[s], self._n(a, b))
        for t in range(self.rank):
            ht = nroots + t
            simple = self.rs.simple_roots[t]
            for j, b in enumerate(self.roots):
                c = self.rs.pairing(b, simple)
                put(ht, j, j, c)
                put(j, ht, j, -c)
        for key in table:
            table[key].sort()
        return table

    # -- bracket and verification ---------------------------------------------

    @cached_property
    def cells_by_first(self):
        """The table grouped by first slot (group_cells), for ad_rows."""
        return group_cells(self.table)

    def bracket_basis(self, i, j):
        return self.table.get((i, j), [])

    def _verify_jacobi(self):
        """Antisymmetry on every basis pair and the Jacobi identity on every
        basis triple i < j < k, in integers straight from the table."""
        table = self.table

        def add_right(out, x, k):
            """out += [x, e_k] = sum_l x_l [e_l, e_k] for x = {l: x_l}."""
            for l, a in x.items():
                for m, c in table.get((l, k), ()):
                    out[m] = out.get(m, 0) + a * c

        pair = {key: {} for key in table}
        for (i, j), out in pair.items():
            add_right(out, {i: 1}, j)
        none = {}
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                bij, bji = pair.get((i, j), none), pair.get((j, i), none)
                if any(bij.get(k, 0) + bji.get(k, 0) for k in bij.keys() | bji):
                    raise ChevalleyError("antisymmetry fails at (%d,%d)" % (i, j))
                for k in range(j + 1, d):
                    total = {}
                    add_right(total, bij, k)
                    add_right(total, pair.get((j, k), none), i)
                    add_right(total, pair.get((k, i), none), j)
                    if any(total.values()):
                        raise ChevalleyError(
                            "Jacobi fails at triple (%d,%d,%d)" % (i, j, k))

    # -- helpers ---------------------------------------------------------------

    def q_degree(self, i):
        """Weight of basis vector i under the full Cartan: pairing vector with
        the simple coroots (zero for Cartan elements)."""
        if i >= len(self.roots):
            return (0,) * self.rank
        a = self.roots[i]
        return tuple(self.rs.pairing(a, s) for s in self.rs.simple_roots)

    def serialize(self) -> str:
        lines = ["chevalley %s%d dim=%d" % (self.rs.type_label, self.rs.rank,
                                            self.dim)]
        labels = ["e(%s)" % ",".join(map(str, a)) for a in self.roots] + \
                 ["h%d" % (i + 1) for i in range(self.rank)]
        lines.append("basis " + " ".join(labels))
        for (i, j) in sorted(self.table):
            for k, c in self.table[(i, j)]:
                lines.append("c %d %d %d %d" % (i, j, k, c))
        return "\n".join(lines)


def _height(rs, a):
    return sum(a)


def sparse_vector(v):
    """The entries of a dense vector other than zero, as {t: v_t}."""
    return {t: x for t, x in enumerate(v) if x}


def sparse_bracket(table, x, y):
    """[x, y] for sparse vectors {t: x_t} on a sparse structure-constant
    table {(a, b): [(k, c)]}: each product x_a y_b is formed once and then
    multiplied by the constants of [e_a, e_b].  The result is sparse too,
    but holds a zero wherever terms cancel."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            terms = table.get((a, b))
            if terms:
                p = xa * yb
                for k, c in terms:
                    out[k] = out[k] + p * c if k in out else p * c
    return out


def group_cells(table):
    """The cells of a sparse structure-constant table {(i, j): [(k, c)]}
    grouped by first slot, {i: [(j, [(k, c)])]} in j order: what ad_rows
    reads."""
    out = {}
    for (i, j), terms in sorted(table.items()):
        out.setdefault(i, []).append((j, terms))
    return out


def ad_rows(cells, x):
    """The sparse rows {k: {j: sum_i x_i c}} of ad_x for a sparse vector
    x = {i: x_i}, from the cells of a structure-constant table grouped by
    first slot (group_cells); column j of ad_x is [x, e_j].  Only the
    cells whose first slot is in x are visited."""
    rows = {}
    for i, xi in x.items():
        for j, terms in cells.get(i, ()):
            for k, c in terms:
                row = rows.setdefault(k, {})
                row[j] = row[j] + xi * c if j in row else xi * c
    return rows


def build_chevalley_by_type(type_label: str, rank: int) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(build_root_system(type_label, rank))


# ---------------------------------------------------------------------------
# automorphisms

class AlgebraAutomorphism:
    """An invertible bracket-preserving matrix acting on the Chevalley basis
    (or on any graded basis of the same dimension), held as sparse rows
    {i: {j: x}} with no exact zero stored."""

    def __init__(self, alg, dom, rows, check=True):
        self.alg = alg
        self.dom = dom
        self.rows = rows
        if check:
            self.verify()

    def verify(self):
        """[M e_i, M e_j] = M [e_i, e_j] on every basis pair, in sparse
        columns."""
        alg = self.alg
        d = alg.dim
        zero = self.dom.zero()
        cols = [{} for _ in range(d)]
        for i, row in self.rows.items():
            for j, x in row.items():
                cols[j][i] = x
        for i in range(d):
            for j in range(d):
                expected = {}
                for k, c in alg.bracket_basis(i, j):
                    for t, x in cols[k].items():
                        expected[t] = expected[t] + x * c if t in expected \
                            else x * c
                actual = sparse_bracket(alg.table, cols[i], cols[j])
                if any(actual.get(t, zero) != expected.get(t, zero)
                       for t in actual.keys() | expected.keys()):
                    raise ChevalleyError(
                        "bracket not preserved on basis pair (%d,%d)" % (i, j))

    def apply(self, v):
        out = [self.dom.zero()] * self.alg.dim
        for i, row in self.rows.items():
            for j, a in row.items():
                if v[j]:
                    out[i] = out[i] + a * v[j]
        return out

    def compose(self, other) -> "AlgebraAutomorphism":
        rows = linalg.mat_mul(self.dom, self.rows, other.rows)
        return AlgebraAutomorphism(self.alg, self.dom, rows, check=False)

    def inverse(self) -> "AlgebraAutomorphism":
        dom, d = self.dom, self.alg.dim
        inv = linalg.matrix_inverse(dom, linalg.dense(dom, self.rows, d))
        return AlgebraAutomorphism(self.alg, dom, linalg.sparse(dom, inv),
                                   check=False)

    def order(self, bound=64):
        cur = self
        for k in range(1, bound + 1):
            if cur.is_identity():
                return k
            cur = cur.compose(self)
        return None

    def is_identity(self):
        one = self.dom.one()
        return self.rows == {i: {i: one} for i in range(self.alg.dim)}

    def commutes_with(self, other) -> bool:
        return self.compose(other).rows == other.compose(self).rows


def exp_ad(dom, alg, v, check=True) -> AlgebraAutomorphism:
    """exp(ad_v) as an exact finite sum; v must be ad-nilpotent."""
    ad = ad_rows(alg.cells_by_first,
                 {i: x for i, x in enumerate(v) if dom.nonzero(x)})
    one = dom.one()
    try:
        rows = linalg.exp_nilpotent(dom, ad,
                                    {i: {i: one} for i in range(alg.dim)})
    except ValueError:
        raise ChevalleyError("ad_v is not nilpotent")
    return AlgebraAutomorphism(alg, dom, rows, check=check)


def torus_automorphism(alg, dom, weights) -> AlgebraAutomorphism:
    """Diagonal automorphism scaling e_gamma by prod w_i^(gamma_i); the w_i
    are units assigned to the simple roots."""
    weights = list(weights)
    inv = [dom.inv(w) for w in weights]
    rows = {i: {i: character(dom, a, weights, inv)}
            for i, a in enumerate(alg.roots)}
    for i in range(len(alg.roots), alg.dim):
        rows[i] = {i: dom.one()}
    return AlgebraAutomorphism(alg, dom, rows, check=False)


def character(dom, deg, s, sinv):
    """prod_i s_i^deg_i over dom, for units s_i with inverses sinv_i."""
    c = dom.one()
    for a, x, xi in zip(deg, s, sinv):
        base = x if a > 0 else xi
        for _ in range(abs(a)):
            c = c * base
    return c


def diagram_automorphism(alg, perm) -> AlgebraAutomorphism:
    """Automorphism induced by a Dynkin diagram symmetry.

    perm maps simple-root indices to simple-root indices; sign choices are
    searched so the result has the same order as perm.
    """
    rs = alg.rs
    r = alg.rank
    perm = list(perm)
    A = rs.cartan_pairings()
    for i in range(r):
        for j in range(r):
            if A[perm[i]][perm[j]] != A[i][j]:
                raise ChevalleyError("permutation is not a diagram symmetry")
    target_order = _perm_order(perm)
    for signs in _sign_vectors(r):
        auto = _extend_diagram(alg, perm, signs)
        if auto is not None and auto.order(bound=target_order) == target_order:
            return auto
    raise ChevalleyError("no consistent sign assignment found")


def _sign_vectors(r):
    for mask in range(1 << r):
        yield [1 - 2 * ((mask >> i) & 1) for i in range(r)]


def _perm_order(perm):
    k = 1
    cur = perm
    ident = list(range(len(perm)))
    while cur != ident:
        cur = [perm[i] for i in cur]
        k += 1
    return k


def _extend_diagram(alg, perm, signs):
    rs = alg.rs
    r = alg.rank
    # signed image scalar for every positive root, by height recursion
    img = {}
    for i in range(r):
        a = tuple(1 if t == i else 0 for t in range(r))
        b = tuple(1 if t == perm[i] else 0 for t in range(r))
        img[a] = (b, signs[i])
    for g in alg.positive:
        if g in img:
            continue
        # extraspecial decomposition (first valid split in positive order)
        for a in alg.positive:
            bmat = _vsub(g, a)
            if bmat in img and a in img and bmat in rs.root_set \
                    and _height(rs, bmat) > 0:
                (pa, ca), (pb, cb) = img[a], img[bmat]
                s = _vadd(pa, pb)
                if s not in rs.root_set:
                    return None
                val = QQ.over(ca * cb * alg._n(pa, pb), alg._n(a, bmat))
                img[g] = (s, val)
                break
        else:
            return None
    rows = {}
    for g, (pg, c) in img.items():
        rows[alg.root_index[pg]] = {alg.root_index[g]: c}
        rows[alg.root_index[_vneg(pg)]] = {alg.root_index[_vneg(g)]:
                                           QQ.inv(c)}
    nroots = len(alg.roots)
    for i in range(r):
        rows[nroots + perm[i]] = {nroots + i: QQ.one()}
    try:
        return AlgebraAutomorphism(alg, QQ, rows, check=True)
    except ChevalleyError:
        return None


def chevalley_involution(alg) -> AlgebraAutomorphism:
    """The Chevalley involution e_a -> -e_(-a), h -> -h."""
    rows = {alg.root_index[_vneg(a)]: {i: -1} for i, a in enumerate(alg.roots)}
    for i in range(len(alg.roots), alg.dim):
        rows[i] = {i: -1}
    return AlgebraAutomorphism(alg, QQ, rows)


def killing_form(alg):
    """Killing form on basis pairs, over Q."""
    d = alg.dim
    ads = [ad_rows(alg.cells_by_first, {i: 1}) for i in range(d)]
    K = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            M = linalg.mat_mul(QQ, ads[i], ads[j])
            tr = sum(row.get(t, 0) for t, row in M.items())
            K[i][j] = K[j][i] = tr
    return K
