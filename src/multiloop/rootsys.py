"""Finite root systems, reduced and non-reduced, with Cartan data, and the
relative root system of a torus grading.

A classified system (RootSystem) stores its roots as integer vectors of
simple-root coordinates, with an integer Gram matrix, so inner products are
int dot products and pairings exact integer quotients.  The relative
system (RelativeRootData) is the one object for the q-degrees of a graded
algebra: it takes them as raw weight vectors and owns their positivity,
simple roots, coordinates and heights, multiples, irreducible components
and label.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add, index, mul, sub

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

    def is_reduced(self) -> bool:
        return all(tuple(2 * x for x in a) not in self.root_set for a in self.roots)

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


class RelativeRootData:
    """The relative root system of a torus grading: its nonzero q-degrees,
    made positive or negative by generic_functional, the simple roots (the
    positive roots that are no sum of two positive ones) and every root's
    coordinates over them, which give its height."""

    def __init__(self, weights):
        self.roots = sorted(set(map(tuple, weights)))
        if not self.roots:
            raise RootSystemError("empty weight set")
        self.root_set = set(self.roots)
        functional = generic_functional(self.roots)
        value = {a: sum(map(mul, a, functional)) for a in self.roots}
        self.positive = [a for a in self.roots if value[a] > 0]
        pos = set(self.positive)
        self.simple = [a for a in self.positive if not any(
            value[b] < value[a] and tuple(map(sub, a, b)) in pos
            for b in self.positive)]
        self.coords = self._coordinates()

    def _coordinates(self):
        """{root: its coefficients over the simple roots}, one linalg.solve
        per positive root; the height, their sum, must be an integer."""
        rows = [{j: s[i] for j, s in enumerate(self.simple)}
                for i in range(len(self.simple[0]))]
        coords = {}
        for a in self.positive:
            sol = linalg.solve(QQ, rows, a, len(self.simple))
            if sol is None:
                raise RootSystemError(
                    "root %s is not a combination of simple roots" % (a,))
            if sum(sol).denominator != 1:
                raise RootSystemError("non-integral height for %s" % (a,))
            coords[a] = tuple(sol)
            coords[tuple(-x for x in a)] = tuple(-x for x in sol)
        return coords

    def height(self, root):
        return int(sum(self.coords[tuple(root)]))

    def multiples(self, alpha):
        """The roots i * alpha with 2 <= i <= 4."""
        return [m for m in (tuple(i * a for a in alpha) for i in range(2, 5))
                if m in self.root_set]

    @cached_property
    def components(self):
        """The irreducible components, [{"roots": sorted roots, "rank": r}]
        ordered by least root, r the number of simple roots they hold.

        Simple roots a_i, a_j are joined when a_i + a_j is a root: as
        a_i - a_j is never one, that is exactly when their pairing is
        nonzero, so these are the components of the Dynkin diagram.  A
        root joins the component its coordinate support lies in."""
        n = len(self.simple)
        comp = list(range(n))
        for i in range(n):
            for j in range(i):
                if tuple(map(add, self.simple[i], self.simple[j])) \
                        in self.root_set:
                    old = comp[i]
                    comp = [comp[j] if c == old else c for c in comp]
        groups = {}
        for a in self.roots:
            first = next(t for t, x in enumerate(self.coords[a]) if x)
            groups.setdefault(comp[first], []).append(a)
        return sorted(({"roots": rs, "rank": comp.count(c)}
                       for c, rs in groups.items()),
                      key=lambda c: c["roots"][0])

    @cached_property
    def label(self):
        """A coarse name read off the rank, the root count and reducedness
        (no root has multiples)."""
        key = (len(self.simple), len(self.roots),
               not any(map(self.multiples, self.roots)))
        names = {(1, 2, True): "A1", (1, 4, False): "BC1",
                 (2, 6, True): "A2", (2, 8, True): "B2", (2, 12, True): "G2",
                 (2, 12, False): "BC2"}
        return names.get(key, "rank%d-%droots-%s"
                         % (key[0], key[1], "red" if key[2] else "nonred"))


def generic_functional(roots):
    """Lexicographically graded weights (M^(s-1), ..., M, 1) with M beyond
    every coordinate magnitude; induces a deterministic total preorder."""
    dim = len(next(iter(roots)))
    M = 1 + max(abs(x) for a in roots for x in a)
    return tuple(M ** (dim - 1 - i) for i in range(dim))
