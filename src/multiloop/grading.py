"""Z^n-gradings from commuting finite-order automorphisms, multiloop
assembly, torus-action refinements, and relative root extraction.

Spec files (`fixtures/*.ml`) are read here: `parse_spec_file` gives a
MultiloopSpec and the cartan rows, and `graded_from_spec` builds the refined
graded algebra from them.  The CLI, the tests and the scripts all load specs
through this one pair.

Lambda-degrees are stored in the rescaled lattice (exponent i/m becomes the
integer i) and only one period of degrees is kept; pieces at degrees
differing by m Z^n are canonically identified.

A graded algebra keeps its ambient ChevalleyAlgebra, and its basis vectors
are coordinate vectors there.  Graded structure constants come from the one
sparse bracket over the ambient integer table (chevalley.sparse_bracket):
each piece is eliminated once to pivot coordinates (linalg.span_coords), a
bracket's coordinates are read off at those pivots, and every bracket is
still certified to lie in its piece by recombining the coordinates on every
ambient coordinate.  The table is built once, on first use.

A Cartan refinement is a relabelling: the cartan elements lie in
span(h_1..h_r), which acts diagonally on the Chevalley basis, so the
q-degree of a lattice basis vector is the weight read off its support.
The sparse graded table is also what lietorus.check_LT4 brackets on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .chevalley import (ChevalleyAlgebra, build_chevalley_by_type,
                        chevalley_involution, diagram_automorphism,
                        sparse_bracket, sparse_vector, torus_automorphism)
from .rootsys import RootSystem, RelativeRootData, make_relative_system
from .scalars import QQ, DomainCyclotomic, Cyclotomic


class GradingError(ValueError):
    pass


class SpecError(ValueError):
    """A malformed spec file."""


@dataclass
class MultiloopSpec:
    base: ChevalleyAlgebra
    sigma: list           # commuting AlgebraAutomorphism, each of order dividing m
    m: int

    @property
    def n(self):
        return len(self.sigma)


def eigen_domain(m: int):
    return QQ if m == 1 else DomainCyclotomic(m)


def verify_multiloop_spec(spec: MultiloopSpec):
    m = spec.m
    if m < 1:
        raise GradingError("order m must be positive")
    for j, s in enumerate(spec.sigma):
        cur = s.matrix
        for _ in range(m - 1):
            cur = linalg.mat_mul_dense(s.dom, cur, s.matrix)
        if not linalg.is_identity(s.dom, cur):
            raise GradingError("sigma_%d does not have order dividing %d" % (j + 1, m))
    for i in range(len(spec.sigma)):
        for j in range(i + 1, len(spec.sigma)):
            if not spec.sigma[i].commutes_with(spec.sigma[j]):
                raise GradingError(
                    "sigma_%d and sigma_%d do not commute" % (i + 1, j + 1))


def simultaneous_eigenspaces(spec: MultiloopSpec):
    """Joint eigenspace decomposition; returns (domain, {lambda mod m: basis})."""
    verify_multiloop_spec(spec)
    m, n = spec.m, spec.n
    dom = eigen_domain(m)
    d = spec.base.dim
    zeta = dom.one() if m == 1 else Cyclotomic.root(m, 1)
    powers = [dom.one()]
    for _ in range(m - 1):
        powers.append(powers[-1] * zeta)
    mats = [[[dom.lift(x) for x in row] for row in s.matrix] for s in spec.sigma]
    out = {}
    total = 0
    for idx in itertools.product(range(m), repeat=n):
        rows = []
        for j in range(n):
            for i in range(d):
                row = list(mats[j][i])
                row[i] = row[i] - powers[idx[j]]
                rows.append(row)
        if rows:
            basis = linalg.kernel_basis(dom, rows)
        else:
            basis = [[dom.one() if i == t else dom.zero() for t in range(d)]
                     for i in range(d)]
        if basis:
            out[idx] = basis
            total += len(basis)
    if total != d:
        raise GradingError(
            "joint eigenspaces span %d of %d dimensions" % (total, d))
    return dom, out


@dataclass(frozen=True)
class GradedBasisVector:
    qdeg: tuple    # weight under the chosen torus, () before refinement
    lam: tuple     # lattice degree, one period stored
    vector: tuple  # coordinates in the ambient algebra


class GradedLieAlgebra:
    """A Lie algebra with a lattice grading of rank nvars (periodic modulo
    `period`) and an optional root-lattice grading by q-degrees; `ambient`
    is the ChevalleyAlgebra whose coordinates the entry vectors are in, or
    None.

    A given table is checked against the grading unless check is false.
    Without one, the table is built from the ambient bracket and certified
    on first use, so an algebra that is only refined never builds its own.
    """

    def __init__(self, dom, nvars, period, entries, table=None, ambient=None,
                 check=True):
        self.dom = dom
        self.nvars = nvars
        self.period = period
        self.entries = list(entries)
        self.ambient = ambient
        self.dim = len(self.entries)
        self.qrank = len(self.entries[0].qdeg) if self.entries else 0
        if table is not None:
            self.table = table
            if check:
                self._verify_grading(table)

    @cached_property
    def table(self):
        table = _build_table(self.dom, self.entries, self.nvars, self.period,
                             self.ambient)
        self._verify_grading(table)
        return table

    def zero_lam(self):
        return (0,) * self.nvars

    def reduce_lam(self, lam):
        if self.nvars == 0:
            return ()
        return tuple(x % self.period for x in lam)

    def piece(self, qdeg=None, lam=None):
        out = []
        lam = None if lam is None else self.reduce_lam(lam)
        for i, e in enumerate(self.entries):
            if qdeg is not None and e.qdeg != tuple(qdeg):
                continue
            if lam is not None and e.lam != lam:
                continue
            out.append(i)
        return out

    def lam_keys(self):
        return sorted(set(e.lam for e in self.entries))

    def q_keys(self):
        return sorted(set(e.qdeg for e in self.entries))

    def dims_by_lam(self):
        out = {}
        for e in self.entries:
            out[e.lam] = out.get(e.lam, 0) + 1
        return out

    def bracket(self, x, y):
        """Bracket of dense graded-coordinate vectors."""
        out = [self.dom.zero()] * self.dim
        for k, z in sparse_bracket(self.table, sparse_vector(x),
                                   sparse_vector(y)).items():
            out[k] = z
        return out

    def _verify_grading(self, table):
        for (i, j), terms in table.items():
            ei, ej = self.entries[i], self.entries[j]
            lam = self.reduce_lam(tuple(a + b for a, b in zip(ei.lam, ej.lam)))
            q = tuple(a + b for a, b in zip(ei.qdeg, ej.qdeg))
            for k, c in terms:
                if not c:
                    continue
                ek = self.entries[k]
                if ek.lam != lam or ek.qdeg != q:
                    raise GradingError(
                        "bracket of pieces %s,%s escapes to %s" %
                        ((ei.qdeg, ei.lam), (ej.qdeg, ej.lam),
                         (ek.qdeg, ek.lam)))

    def serialize(self) -> str:
        lines = ["graded nvars=%d period=%d dim=%d" %
                 (self.nvars, self.period, self.dim)]
        for e in self.entries:
            lines.append("v q=(%s) lam=(%s)" %
                         (",".join(map(str, e.qdeg)),
                          ",".join(map(str, e.lam))))
        for (i, j) in sorted(self.table):
            for k, c in self.table[(i, j)]:
                lines.append("c %d %d %d %s" % (i, j, k, self.dom.show(c)))
        return "\n".join(lines)


def _build_table(dom, entries, nvars, period, alg):
    """Structure constants in graded coordinates, from the sparse ambient
    bracket and one pivot solve per lattice piece (linalg.span_coords).

    Every bracket is certified to lie in the span of its piece.  The table
    is filled in row-major order, and only pairs i < j are bracketed: for
    j <= i, [e_i, e_j] = -[e_j, e_i] is already known (and [e_i, e_i] = 0),
    since the ambient table is antisymmetric, as ChevalleyAlgebra checks on
    every pair.  The failing pairs are therefore symmetric, so the first
    one in row-major order has i < j and is the first one met here.
    """
    pieces = {}
    for i, e in enumerate(entries):
        pieces.setdefault(e.lam, []).append(i)
    vecs = [sparse_vector(e.vector) for e in entries]
    coords = {lam: (idxs, linalg.span_coords(dom, [vecs[i] for i in idxs],
                                             alg.dim))
              for lam, idxs in pieces.items()}
    table = {}
    for i, ei in enumerate(entries):
        for j, ej in enumerate(entries):
            if j <= i:
                terms = [(k, -c) for k, c in table.get((j, i), ())]
            else:
                w = sparse_bracket(alg.table, vecs[i], vecs[j])
                if not any(w.values()):
                    continue
                lam = tuple((a + b) % period for a, b in zip(ei.lam, ej.lam)) \
                    if nvars else ()
                if lam not in coords:
                    raise GradingError(
                        "bracket lands in an empty piece %s" % (lam,))
                idxs, solve = coords[lam]
                cs = solve(w)
                if cs is None:
                    raise GradingError(
                        "bracket escapes the graded span at %d,%d" % (i, j))
                terms = [(k, c) for k, c in zip(idxs, cs) if c]
            if terms:
                table[(i, j)] = terms
    return table


def build_multiloop(spec: MultiloopSpec) -> GradedLieAlgebra:
    dom, eig = simultaneous_eigenspaces(spec)
    entries = []
    for lam in sorted(eig):
        for v in eig[lam]:
            entries.append(GradedBasisVector((), tuple(lam), tuple(v)))
    return GradedLieAlgebra(dom, spec.n, spec.m, entries, ambient=spec.base)


def from_chevalley(alg: ChevalleyAlgebra, dom=QQ) -> GradedLieAlgebra:
    """The split algebra itself as a bi-graded object with trivial lattice
    grading and q-degrees read off the full Cartan subalgebra."""
    entries = []
    for i in range(alg.dim):
        v = tuple(dom.one() if t == i else dom.zero() for t in range(alg.dim))
        entries.append(GradedBasisVector(alg.q_degree(i), (), v))
    table = {}
    for (i, j), terms in alg.table.items():
        table[(i, j)] = [(k, dom.from_int(c)) for k, c in terms]
    return GradedLieAlgebra(dom, 0, 1, entries, table, alg)


def q_grading_from_cartan(g: GradedLieAlgebra, cartan) -> GradedLieAlgebra:
    """Refine the lattice grading by the integer weights of the given
    elements of span(h_1..h_r) lying in the degree-0 piece.

    Such elements act diagonally on the Chevalley basis and keep each
    lattice piece stable.  A piece's `kernel_basis` vector is 1 at its own
    free coordinate and 0 at the others, so its projection onto one weight,
    which stays in the piece, is the vector itself or zero: each basis
    vector keeps its coordinates and gets the weight on its support.
    """
    alg = g.ambient
    if alg is None:
        raise GradingError("algebra has no ambient model to refine")
    dom = g.dom
    nroots = len(alg.roots)
    rows = []
    for h in cartan:
        if any(h[:nroots]):
            raise GradingError("cartan element is not in span(h_1..h_r)")
        rows.append([QQ.lift(c) for c in h[nroots:]])
    in_zero = linalg.span_coords(
        dom, [sparse_vector(g.entries[i].vector)
              for i in g.piece(lam=g.zero_lam())], alg.dim)
    for h in cartan:
        if in_zero(sparse_vector(h)) is None:
            raise GradingError("cartan element is not in the degree-0 piece")
    ambient_weights = [tuple(sum(c * p for c, p in zip(row, alg.q_degree(t)))
                             for row in rows) for t in range(alg.dim)]
    weights = []
    for i, e in enumerate(g.entries):
        ws = {ambient_weights[t] for t, x in enumerate(e.vector) if x}
        if len(ws) != 1:
            raise GradingError("basis vector %d is not a weight vector of "
                               "the cartan elements" % i)
        weights.append(ws.pop())
    # a weight that is not an integer is reported on the block the
    # elements before it cut out of its lattice piece
    for lam in g.lam_keys():
        ws = [weights[i] for i in g.piece(lam=lam)]
        for j in range(len(rows)):
            bad = sorted(w[:j] for w in ws if w[j].denominator != 1)
            if bad:
                raise GradingError(
                    "cartan action is not diagonalizable with integer "
                    "eigenvalues on a piece of dimension %d"
                    % sum(1 for w in ws if w[:j] == bad[0]))
    entries = sorted((GradedBasisVector(tuple(int(x) for x in w), e.lam,
                                        e.vector)
                      for w, e in zip(weights, g.entries)),
                     key=lambda e: (e.lam, e.qdeg))
    return GradedLieAlgebra(dom, g.nvars, g.period, entries, ambient=alg)


@dataclass
class RelativeGrading:
    algebra: GradedLieAlgebra
    roots: list                      # sorted nonzero q-degrees with support
    system: object = None            # RootSystem over the roots, or None
    data: object = None              # RelativeRootData, or None

    @property
    def anisotropic(self):
        return not self.roots

    @cached_property
    def components(self):
        """The irreducible components of the relative root system, as
        irreducible_components gives them; computed once."""
        return irreducible_components(self.system)


def relative_roots(g: GradedLieAlgebra, functional=None) -> RelativeGrading:
    if g.qrank == 0:
        # refined by an empty cartan (or never refined): no nonzero weights
        return RelativeGrading(g, [])
    zero = (0,) * g.qrank
    roots = sorted(q for q in g.q_keys() if q != zero)
    if not roots:
        return RelativeGrading(g, [])
    system = make_relative_system(roots)
    data = RelativeRootData(system, functional)
    return RelativeGrading(g, roots, system, data)


def opposite_unipotent_pair(rg: RelativeGrading):
    if rg.anisotropic:
        raise GradingError("anisotropic: no proper parabolic")
    return list(rg.data.positive), list(rg.data.negative)


def irreducible_components(system: RootSystem):
    """Connected components of the non-orthogonality graph, with ranks."""
    roots = list(system.roots)
    parent = list(range(len(roots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if system.inner(roots[i], roots[j]):
                parent[find(i)] = find(j)
    comps = {}
    for i, a in enumerate(roots):
        comps.setdefault(find(i), []).append(a)
    out = []
    for group in comps.values():
        M = [[Fraction(x) for x in a] for a in group]
        _, pivots = linalg.rref(QQ, M)
        out.append({"roots": sorted(group), "rank": len(pivots)})
    out.sort(key=lambda c: c["roots"][0])
    return out


def twisted_form_dims_check(g: GradedLieAlgebra, base_dim: int) -> bool:
    """After base change along the degree-m cover the graded dimension
    sequence must match the untwisted loop algebra's: the piece dimensions
    over one period sum to dim L."""
    return sum(g.dims_by_lam().values()) == base_dim


# ---------------------------------------------------------------------------
# spec files

def parse_spec_file(text: str, conductor: int):
    """The multiloop spec and cartan rows of a spec file's text.

    Lines: "multiloop type=<T> rank=<r> n=<n> m=<m>", then one "sigma ..."
    per loop variable (torus w1..wr | diagram p1..pr | chevalley | identity),
    then optional "cartan h c1..cr" lines or "cartan full".  A cartan row
    holds coefficients on the simple coroots; "cartan full" stands for the
    identity rows and overrides every "cartan h" line.
    """
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("multiloop"):
        raise SpecError("spec line 1: expected 'multiloop ...'")
    head = {}
    for part in lines[0].split()[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise SpecError("spec line 1: bad header token %r" % part)
        head[key] = value
    try:
        tlabel = head["type"]
        rank = int(head["rank"])
        n = int(head["n"])
        m = int(head.get("m", conductor))
    except (KeyError, ValueError) as e:
        raise SpecError("spec line 1: %s" % e)
    alg = build_chevalley_by_type(tlabel, rank)
    sigmas = []
    cartan_rows = []
    cartan_full = False
    for lno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if parts[0] == "sigma":
            sigmas.append(_parse_sigma(alg, parts[1:], lno))
        elif parts[0] == "cartan":
            if parts[1:] == ["full"]:
                cartan_full = True
            elif parts[1:2] == ["h"]:
                cartan_rows.append([_spec_number(Fraction, x, lno,
                                                 "cartan coefficient")
                                    for x in parts[2:]])
            else:
                raise SpecError("spec line %d: bad cartan line" % lno)
        else:
            raise SpecError("spec line %d: unknown directive %r"
                            % (lno, parts[0]))
    if len(sigmas) != n:
        raise SpecError("spec declares n=%d but has %d sigma lines"
                        % (n, len(sigmas)))
    if cartan_full:
        cartan_rows = [[Fraction(int(j == i)) for j in range(rank)]
                       for i in range(rank)]
    return MultiloopSpec(alg, sigmas, m), cartan_rows


def _parse_sigma(alg, parts, lno):
    kind = parts[0] if parts else ""
    if kind == "identity":
        return torus_automorphism(alg, QQ, [Fraction(1)] * alg.rank)
    if kind == "torus":
        ws = [_spec_number(Fraction, x, lno, "torus weight")
              for x in parts[1:]]
        if len(ws) != alg.rank:
            raise SpecError("spec line %d: torus needs %d weights"
                            % (lno, alg.rank))
        if not all(ws):
            raise SpecError("spec line %d: torus weights must be nonzero"
                            % lno)
        return torus_automorphism(alg, QQ, ws)
    if kind == "diagram":
        perm = [_spec_number(int, x, lno, "permutation entry")
                for x in parts[1:]]
        if sorted(perm) != list(range(alg.rank)):
            raise SpecError("spec line %d: bad permutation" % lno)
        return diagram_automorphism(alg, perm)
    if kind == "chevalley":
        return chevalley_involution(alg)
    raise SpecError("spec line %d: unknown sigma kind %r" % (lno, kind))


def _spec_number(kind, token, lno, what):
    """token read as kind (int or Fraction), or a SpecError naming the line."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise SpecError("spec line %d: bad %s %r" % (lno, what, token)) \
            from None


def graded_from_spec(spec: MultiloopSpec, cartan_rows) -> GradedLieAlgebra:
    """The multiloop algebra of spec, refined by the cartan elements whose
    coefficients on the simple coroots are the given rows."""
    g = build_multiloop(spec)
    alg, dom = spec.base, g.dom
    nroots = len(alg.roots)
    cartan = []
    for row in cartan_rows:
        if len(row) != alg.rank:
            raise SpecError("cartan row needs %d coefficients" % alg.rank)
        h = [dom.zero()] * alg.dim
        for i, c in enumerate(row):
            h[nroots + i] = dom.lift(c)
        cartan.append(h)
    return q_grading_from_cartan(g, cartan)
