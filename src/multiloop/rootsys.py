"""Finite root systems, reduced and non-reduced, with Cartan data,
positivity, and heights.

Roots are stored as integer vectors of simple-root coordinates (for the
classified types) or as raw weight vectors (for relative systems read off
a torus grading).  The bilinear form is an integer Gram matrix, so inner
products are int dot products and pairings exact integer quotients.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from . import linalg
from .scalars import QQ


class RootSystemError(ValueError):
    pass


def cartan_matrix(type_label: str, rank: int):
    """Cartan matrix with entries A[i][j] = <alpha_j, alpha_i^vee>.

    A-D, F4 and G2 follow Bourbaki's numbering.  E6-E8 do not: nodes
    1..r-1 form a chain and node r is attached to node 3 (Bourbaki's
    alpha_2 is the branch).  Diagram permutations are read in this
    numbering, so it is kept.
    """
    t = type_label.upper()
    r = rank

    def chain(r):
        A = [[0] * r for _ in range(r)]
        for i in range(r):
            A[i][i] = 2
            if i + 1 < r:
                A[i][i + 1] = -1
                A[i + 1][i] = -1
        return A

    if t == "A" and r >= 1:
        return chain(r)
    if t == "B" and r >= 2:
        A = chain(r)
        A[r - 1][r - 2] = -2   # <alpha_{r-1}, alpha_r^vee>
        return A
    if t == "C" and r >= 2:
        A = chain(r)
        A[r - 2][r - 1] = -2
        return A
    if (t == "D" and r >= 3) or (t == "E" and r in (6, 7, 8)):
        # node r moves off the chain, to node r - 2 (D) or node 3 (E)
        A = chain(r)
        k = r - 3 if t == "D" else 2
        A[r - 1][r - 2] = A[r - 2][r - 1] = 0
        A[r - 1][k] = A[k][r - 1] = -1
        return A
    if t == "F" and r == 4:
        A = chain(4)
        A[1][2] = -2
        A[2][1] = -1
        return A
    if t == "G" and r == 2:
        return [[2, -3], [-1, 2]]
    raise RootSystemError("invalid root system type %s%d" % (type_label, rank))


def split_dimension(type_label: str, rank: int):
    """|Phi| + rank for the split simple algebra of a type cartan_matrix
    accepts, read off the type without building anything; None otherwise."""
    t, r = type_label.upper(), rank
    roots = {"A": r * (r + 1) if r >= 1 else None,
             "B": 2 * r * r if r >= 2 else None,
             "C": 2 * r * r if r >= 2 else None,
             "D": 2 * r * (r - 1) if r >= 3 else None,
             "E": {6: 72, 7: 126, 8: 240}.get(r),
             "F": 48 if r == 4 else None,
             "G": 12 if r == 2 else None}.get(t)
    return None if roots is None else roots + r


def _symmetrizer(A):
    """Ints d_i with d_i A[i][j] = d_j A[j][i] and least d_i 1; d_i is
    (a_i, a_i)/2 for the form in which the shortest root has squared
    length 2."""
    r = len(A)
    d = [None] * r
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(r):
            if d[i] is None:
                continue
            for j in range(r):
                if i != j and A[i][j] and d[j] is None:
                    d[j] = d[i] * Fraction(A[i][j], A[j][i])
                    changed = True
    if any(x is None for x in d):
        raise RootSystemError("disconnected Dynkin diagram")
    return [index(QQ.lift(x / min(d))) for x in d]


class RootSystem:
    """A finite set of roots in simple-root coordinates plus its bilinear
    form, an integer Gram matrix of the simple roots (a TypeError for any
    other entry)."""

    def __init__(self, type_label, rank, simple_roots, roots, gram):
        self.type_label = type_label
        self.rank = rank
        self.simple_roots = [tuple(s) for s in simple_roots]
        self.roots = sorted(tuple(x) for x in roots)
        self.root_set = set(self.roots)
        self.gram = [[index(x) for x in row] for row in gram]

    # -- bilinear data -------------------------------------------------------

    def inner(self, a, b) -> int:
        """(a, b) = a^T G b on simple-root coordinates."""
        return sum(ai * sum(map(mul, row, b))
                   for ai, row in zip(a, self.gram) if ai)

    def pairing(self, beta, alpha) -> int:
        """<beta, alpha^vee> = 2 (beta, alpha) / (alpha, alpha)."""
        val, rem = divmod(2 * self.inner(beta, alpha), self.inner(alpha, alpha))
        if rem:
            raise RootSystemError("non-integral pairing for %s, %s" % (beta, alpha))
        return val

    def cartan_pairings(self):
        return [[self.pairing(b, a) for b in self.simple_roots]
                for a in self.simple_roots]

    # -- queries -------------------------------------------------------------

    def __contains__(self, v):
        return tuple(v) in self.root_set

    def is_reduced(self) -> bool:
        return all(tuple(2 * x for x in a) not in self.root_set for a in self.roots)

    def serialize(self) -> str:
        body = " ".join("(%s)" % ",".join(map(str, a)) for a in self.roots)
        return "%s%d %s" % (self.type_label, self.rank, body)

    def __repr__(self):
        return "RootSystem(%s%d, %d roots)" % (self.type_label, self.rank,
                                               len(self.roots))


def _reflect(A, beta, i):
    """Simple reflection s_i in simple-root coordinates."""
    pairing = sum(beta[j] * A[i][j] for j in range(len(beta)))
    out = list(beta)
    out[i] -= pairing
    return tuple(out)


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Construct the full root system by reflection closure (classified
    types) or explicitly (BC)."""
    t = type_label.upper()
    if t == "BC":
        return _build_bc(rank)
    A = cartan_matrix(t, rank)
    d = _symmetrizer(A)
    gram = [[d[i] * A[i][j] for j in range(rank)] for i in range(rank)]
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(rank):
                img = _reflect(A, beta, i)
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return RootSystem(t, rank, simples, roots, gram)


def _build_bc(rank: int) -> RootSystem:
    """BC_r with simple roots a_i = e_i - e_(i+1), a_r = e_r, and the
    ambient form with e_i orthonormal (squared lengths 1, 2 and 4)."""
    if rank < 1:
        raise RootSystemError("invalid root system type BC%d" % rank)
    r = rank
    # e_i in simple-root coordinates: a_i + ... + a_r
    es = [tuple(int(j >= i) for j in range(r)) for i in range(r)]
    roots = set()
    for i, u in enumerate(es):
        roots.update(tuple(k * x for x in u) for k in (1, 2, -1, -2))
        for w in es[i + 1:]:
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                roots.add(tuple(si * a + sj * b for a, b in zip(u, w)))
    simples = [tuple(int(k == i) for k in range(r)) for i in range(r)]
    gram = [[2 * (i == j) - (abs(i - j) == 1) for j in range(r)]
            for i in range(r)]
    gram[r - 1][r - 1] = 1
    return RootSystem("BC", r, simples, roots, gram)


def proportionality(beta, alpha):
    """The c with beta = c * alpha componentwise, as a Fraction, or None."""
    c = None
    for b, a in zip(beta, alpha):
        if a == 0:
            if b != 0:
                return None
        else:
            r = Fraction(b, a)
            if c is None:
                c = r
            elif c != r:
                return None
    return c


def make_relative_system(weights) -> RootSystem:
    """Wrap a set of nonzero weight vectors (from a torus grading) as a root
    system labelled 'relative'; the standard dot product serves as Gram data.
    They are nonzero (grading.relative_roots drops the zero degree), so
    RelativeRootData's generic_functional makes each positive or negative."""
    weights = sorted(set(tuple(int(x) for x in w) for w in weights))
    if not weights:
        raise RootSystemError("empty weight set")
    dim = len(weights[0])
    gram = [[int(i == j) for j in range(dim)] for i in range(dim)]
    # simple-root coordinates coincide with the raw weight coordinates here
    simples = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return RootSystem("relative", dim, simples, weights, gram)


class RelativeRootData:
    """A root system with its generic positivity functional and heights."""

    def __init__(self, system: RootSystem):
        self.system = system
        self.functional = generic_functional(system.roots)
        self.positive = sorted(a for a in system.roots if self._dot(a) > 0)
        self.negative = sorted(a for a in system.roots if self._dot(a) < 0)
        self.simple = self._simple_roots()
        self._heights = self._compute_heights()

    def _dot(self, a):
        return sum(x * w for x, w in zip(a, self.functional))

    def _simple_roots(self):
        pos = set(self.positive)
        simple = []
        for a in self.positive:
            decomposable = any(
                tuple(x - y for x, y in zip(a, b)) in pos
                for b in self.positive if b != a and self._dot(b) < self._dot(a))
            if not decomposable:
                simple.append(a)
        return simple

    def _compute_heights(self):
        # coefficients of each positive root over the simple relative roots
        mat = [[s[i] for s in self.simple] for i in range(len(self.simple[0]))]
        heights = {}
        for a in self.positive:
            sol = linalg.solve(QQ, mat, list(a))
            if sol is None:
                raise RootSystemError(
                    "root %s is not a combination of simple roots" % (a,))
            h = sum(sol)
            if h.denominator != 1:
                raise RootSystemError("non-integral height for %s" % (a,))
            heights[a] = int(h)
            heights[tuple(-x for x in a)] = -int(h)
        return heights

    def height(self, root):
        return self._heights[tuple(root)]


def generic_functional(roots):
    """Lexicographically graded weights (M^(s-1), ..., M, 1) with M beyond
    every coordinate magnitude; induces a deterministic total preorder."""
    dim = len(next(iter(roots)))
    M = 1 + max(abs(x) for a in roots for x in a)
    return tuple(M ** (dim - 1 - i) for i in range(dim))
