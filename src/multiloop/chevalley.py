"""Split simple Lie algebras over Z via Chevalley bases.

Structure constants are fixed by the extraspecial-pair convention: positive
roots are ordered by height (the sum of simple-root coordinates) then
lexicographically; for each non-simple positive root the minimal
decomposition gets N = +(p+1), and every other constant follows from
antisymmetry, N(-a,-b) = -N(a,b), and the cyclic identity
N(a,b)/|c|^2 = N(b,c)/|a|^2 for a+b+c = 0.  Before an algebra is returned,
the table is proved antisymmetric and Jacobi in integer arithmetic: ad_s is
a derivation for each s in `ChevalleyAlgebra.generators`, which generate g.

`sparse_bracket` is the one bracket over a sparse structure-constant table:
the graded tables, `GradedLieAlgebra.bracket` (of sparse vectors only),
LT4, the closures of `linalg.lie_closure` (which LT5, the generating
columns of `elemgroup` and the generation step above close on) and the
automorphism check go through it.
`ad_rows` is the one builder of the sparse rows of ad_x over such a table:
the root elements of `elemgroup` use it.  It reads the table grouped by
first slot (`group_cells`, kept as `cells_by_first` by each graded
algebra), so it visits only the cells whose first slot is in x.
An `AlgebraAutomorphism` is held as sparse rows too: it composes by
`linalg.mat_mul`, compares by dict equality, and is verified on the columns
of its rows.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul

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
        pos = sorted((a for a in rs.roots if _height(a) > 0),
                     key=lambda a: (_height(a), a))
        self.positive = pos
        self.roots = pos + [_vneg(a) for a in pos]
        self.dim = len(self.roots) + rs.rank
        self.root_index = {a: i for i, a in enumerate(self.roots)}
        self._pos_order = {a: i for i, a in enumerate(pos)}
        self._len2 = {a: rs.inner(a, a) for a in self.roots}
        self._nval = {}
        self._compute_positive_constants()
        self.table = self._build_table()
        self._verify_jacobi()

    # -- structure constants --------------------------------------------------

    def _compute_positive_constants(self):
        by_height = {}
        for g in self.positive:
            by_height.setdefault(_height(g), []).append(g)
        for h in sorted(by_height):
            if h < 2:
                continue
            for g in by_height[h]:
                pairs = []
                for a in self.positive:
                    b = _vsub(g, a)
                    if b in self.rs.root_set and _height(b) > 0 \
                            and self._pos_order[a] < self._pos_order[b]:
                        pairs.append((a, b))
                pairs.sort(key=lambda p: self._pos_order[p[0]])
                eps, eta = pairs[0]
                p, cur = 0, _vsub(eta, eps)     # N = p + 1, p the largest
                while cur in self.rs.root_set:  # with eta - p eps a root
                    p, cur = p + 1, _vsub(cur, eps)
                self._nval[(eps, eta)] = p + 1
                for a, b in pairs[1:]:
                    self._nval[(a, b)] = self._special_constant(a, b, eps)

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
        """N(a, b) for arbitrary roots with a+b a root, each pair computed
        once: _nval holds the positive pairs in order from the start."""
        val = self._nval.get((a, b))
        if val is not None:
            return val
        s = _vadd(a, b)
        assert s in self.rs.root_set
        ha, hb = _height(a), _height(b)
        if ha > 0 and hb > 0:
            val, rem = -self._nval[(b, a)], 0
        elif ha < 0 and hb < 0:
            val, rem = -self._n(_vneg(a), _vneg(b)), 0
        elif ha < 0:        # mixed signs; arrange a positive
            val, rem = -self._n(b, a), 0
        elif _height(s) > 0:
            # N(a,b) = -(|s|^2/|a|^2) N(-b, s), a positive pair summing to a
            val, rem = divmod(-self._len2[s] * self._n(_vneg(b), s),
                              self._len2[a])
        else:
            # N(a,b) = -(|s|^2/|b|^2) N(a, -s), a positive pair summing to -b
            val, rem = divmod(-self._len2[s] * self._n(a, _vneg(s)),
                              self._len2[b])
        if rem:
            raise ChevalleyError("non-integral constant for %s,%s" % (a, b))
        self._nval[(a, b)] = val
        return val

    def _build_table(self):
        """Sparse bracket table: (i, j) -> list of (k, integer), terms in k
        order; each coroot and each N(a, b) is computed once."""
        table = {}
        roots, index, len2 = self.roots, self.root_index, self._len2
        nroots, npos = len(roots), len(self.positive)
        for i, a in enumerate(roots):
            neg = (i + npos) % nroots           # the index of -a
            for j, b in enumerate(roots):
                k = index.get(tuple(map(add, a, b)))
                if k is not None:
                    table[(i, j)] = [(k, self._n(a, b))]
                elif j == neg:      # [e_a, e_-a] = a^vee on the coroots
                    terms = []
                    for t, simple in enumerate(self.rs.simple_roots):
                        c, rem = divmod(a[t] * len2[simple], len2[a])
                        if rem:
                            raise ChevalleyError(
                                "non-integral coroot for %s" % (a,))
                        if c:
                            terms.append((nroots + t, c))
                    table[(i, j)] = terms
        for t, row in enumerate(self.rs.cartan_pairings()):
            ht = nroots + t
            for j, b in enumerate(roots):
                c = sum(map(mul, b, row))
                if c:
                    table[(ht, j)] = [(j, c)]
                    table[(j, ht)] = [(j, -c)]
        return table

    # -- bracket and verification ---------------------------------------------

    @cached_property
    def generators(self):
        """The sorted indices of e_alpha_i and e_-(alpha_1 + ... + alpha_r),
        which generate g: the ad e_alpha_i lower the latter, of full support,
        to each e_-alpha_i.  _verify_jacobi certifies it by one closure."""
        r = self.rank
        simple = [tuple(int(k == i) for k in range(r)) for i in range(r)]
        return tuple(sorted(self.root_index[a] for a in simple + [(-1,) * r]))

    def _verify_jacobi(self):
        """Prove self.table antisymmetric and Jacobi: (1) antisymmetric cell
        by cell, with no [e_i, e_i] cell; (2) generated by `generators`
        (one closure); (3) with ad_s a derivation for each generator s,
        [s, [e_j, e_k]] = [[s, e_j], e_k] + [e_j, [s, e_k]] for j < k (both
        sides alternate in j, k), summed over the table cells.  The x with
        ad_x a derivation form a subalgebra, as ad_[x,y] = [ad_x, ad_y] is
        then a derivation (Jacobson, Lie Algebras, I.1); it holds the
        generators, so it is g.  When a step fails, _jacobi_scan decides,
        naming the first failure."""
        table = self.table
        for (i, j), terms in table.items():
            if i == j or table.get((j, i)) != [(k, -c) for k, c in terms]:
                return self._jacobi_scan()
        if len(linalg.lie_closure(
                QQ, lambda x, y: sparse_bracket(table, x, y),
                [{s: 1} for s in self.generators], self.dim)) < self.dim:
            return self._jacobi_scan()
        cells = group_cells(table)

        def put(acc, j, k, c, terms):
            for n, d in terms:
                acc[(j, k, n)] = acc.get((j, k, n), 0) + c * d

        for s in self.generators:
            ad, acc = dict(cells.get(s, ())), {}
            for (j, k), terms in table.items():     # [s, [e_j, e_k]]
                if j < k:
                    for m, c in terms:
                        put(acc, j, k, c, ad.get(m, ()))
            # - [[s, e_j], e_k] for j < k, - [e_k, [s, e_j]] for k < j
            for j, terms in ad.items():
                for m, c in terms:
                    for k, tk in cells.get(m, ()):
                        if j < k:
                            put(acc, j, k, -c, tk)
                        elif k < j:
                            put(acc, k, j, c, tk)
            if any(acc.values()):
                return self._jacobi_scan()

    def _jacobi_scan(self):
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


def _height(a):
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
                for k, c in alg.table.get((i, j), ()):
                    for t, x in cols[k].items():
                        expected[t] = expected[t] + x * c if t in expected \
                            else x * c
                actual = sparse_bracket(alg.table, cols[i], cols[j])
                if any(actual.get(t, zero) != expected.get(t, zero)
                       for t in actual.keys() | expected.keys()):
                    raise ChevalleyError(
                        "bracket not preserved on basis pair (%d,%d)" % (i, j))

    def compose(self, other) -> "AlgebraAutomorphism":
        rows = linalg.mat_mul(self.dom, self.rows, other.rows)
        return AlgebraAutomorphism(self.alg, self.dom, rows, check=False)

    def is_identity(self):
        one = self.dom.one()
        return self.rows == {i: {i: one} for i in range(self.alg.dim)}

    def commutes_with(self, other) -> bool:
        return self.compose(other).rows == other.compose(self).rows


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

    perm maps simple-root indices to simple-root indices.  The images
    e_(+-alpha_i) -> e_(+-alpha_perm(i)) and h_i -> h_perm(i) satisfy the
    Serre relations of the same Cartan matrix, so they extend to an
    automorphism (Humphreys, Introduction to Lie Algebras, 14.2), whose
    order is that of perm.  The image of every positive root vector follows
    from its extraspecial decomposition, by height; verify() certifies the
    result.
    """
    rs = alg.rs
    r = alg.rank
    perm = list(perm)
    A = rs.cartan_pairings()
    for i in range(r):
        for j in range(r):
            if A[perm[i]][perm[j]] != A[i][j]:
                raise ChevalleyError("permutation is not a diagram symmetry")
    # (image root, scalar) for every positive root, by height recursion
    img = {}
    for i in range(r):
        a = tuple(1 if t == i else 0 for t in range(r))
        b = tuple(1 if t == perm[i] else 0 for t in range(r))
        img[a] = (b, 1)
    for g in alg.positive:
        if g in img:
            continue
        # first split g = a + b in positive order with both images known
        a, b = next((a, _vsub(g, a)) for a in alg.positive
                    if a in img and _vsub(g, a) in img)
        (pa, ca), (pb, cb) = img[a], img[b]
        img[g] = (_vadd(pa, pb),
                  QQ.over(ca * cb * alg._n(pa, pb), alg._n(a, b)))
    rows = {}
    for g, (pg, c) in img.items():
        rows[alg.root_index[pg]] = {alg.root_index[g]: c}
        rows[alg.root_index[_vneg(pg)]] = {alg.root_index[_vneg(g)]:
                                           QQ.inv(c)}
    nroots = len(alg.roots)
    for i in range(r):
        rows[nroots + perm[i]] = {nroots + i: QQ.one()}
    return AlgebraAutomorphism(alg, QQ, rows)


def chevalley_involution(alg) -> AlgebraAutomorphism:
    """The Chevalley involution e_a -> -e_(-a), h -> -h."""
    rows = {alg.root_index[_vneg(a)]: {i: -1} for i, a in enumerate(alg.roots)}
    for i in range(len(alg.roots), alg.dim):
        rows[i] = {i: -1}
    return AlgebraAutomorphism(alg, QQ, rows)
