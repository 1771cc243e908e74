"""Z^n-gradings from commuting finite-order automorphisms, multiloop
assembly, torus-action refinements, and the relative grading: the nonzero
q-degrees, which rootsys.RelativeRootData makes the relative root system
(simple roots, heights, multiples, components and label).

Spec files (`fixtures/*.ml`) are read here: `parse_spec_file` gives a
MultiloopSpec and the cartan rows, and `graded_from_spec` builds the refined
graded algebra from them.  The CLI, the tests and the paper report load specs
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
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .chevalley import (ChevalleyAlgebra, build_chevalley_by_type,
                        chevalley_involution, diagram_automorphism,
                        group_cells, sparse_bracket, sparse_vector,
                        torus_automorphism)
from .rootsys import RootSystemError, RelativeRootData
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
    cartan_lines: tuple = ()   # spec-file lines of the cartan directives

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
        cur = s
        for _ in range(m - 1):
            cur = cur.compose(s)
        if not cur.is_identity():
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
    zero, powers = dom.zero(), [dom.one()]
    for _ in range(m - 1):
        powers.append(powers[-1] * zeta)
    sigmas = [{i: {j: dom.lift(x) for j, x in row.items()}
               for i, row in s.rows.items()} for s in spec.sigma]
    out = {}
    total = 0
    for idx in itertools.product(range(m), repeat=n):
        rows = []      # sigma_j - zeta^k I for k = idx[j], zeros kept
        for s, k in zip(sigmas, idx):
            for i in range(d):
                row = dict(s.get(i, ()))
                row[i] = row.get(i, zero) - powers[k]
                rows.append(row)
        basis = linalg.kernel_basis(dom, rows, d)
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

    @cached_property
    def qdeg_pieces(self):
        """{qdeg: the set of basis indices of that q-degree}, built once."""
        return {q: frozenset(self.piece(qdeg=q)) for q in self.q_keys()}

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
        """Bracket of sparse graded-coordinate vectors {t: x_t}, as a sparse
        vector without zeros."""
        return {k: z for k, z in sparse_bracket(self.table, x, y).items()
                if z}

    @cached_property
    def cells_by_first(self):
        """The table grouped by first slot (group_cells), for ad_rows."""
        return group_cells(self.table)

    @cached_property
    def relative_grading(self):
        """relative_roots of this algebra, built once."""
        return relative_roots(self)

    def closure(self, gens):
        """The echelon basis {pivot: row} of the subalgebra generated by the
        sparse vectors gens (linalg.lie_closure)."""
        return linalg.lie_closure(self.dom, self.bracket, gens, self.dim)

    def certify_generating(self, columns):
        """Raise GradingError unless the basis vectors at columns generate
        the algebra: their span is closed under brackets."""
        one = self.dom.one()
        size = len(self.closure([{i: one} for i in columns]))
        if size < self.dim:
            raise GradingError(
                "columns %s generate a subalgebra of dimension %d < %d"
                % (tuple(columns), size, self.dim))

    @cached_property
    def generating_columns(self):
        """Basis indices S whose vectors generate the algebra, certified by
        one closure.

        A product phi of exp(ad v) with phi(x) - x in t^a g[[t]], a >= 0,
        for every x in S has it for every basis vector, since
        phi[y, z] - [y, z] = [phi y - y, phi z] + [y, phi z - z]; residual
        words are certified on these columns (elemgroup).

        When the vectors at the ambient generators (ChevalleyAlgebra
        .generators: e_alpha_i and e_-(alpha_1 + ... + alpha_r)) are basis
        vectors, S is their indices.  Otherwise S is chosen greedily: each
        step adds the index whose vector most enlarges the generated
        subalgebra, the lower index on a tie."""
        S = self._split_generators()
        if S is None:
            S = self._greedy_generators()
        self.certify_generating(S)
        return S

    def _split_generators(self):
        """The sorted indices of the basis vectors that are multiples of
        the ambient generators, or None."""
        if self.ambient is None:
            return None
        at = {}
        for i, e in enumerate(self.entries):
            support = [t for t, x in enumerate(e.vector) if x]
            if len(support) == 1:
                at[support[0]] = i
        idx = [at.get(t) for t in self.ambient.generators]
        return None if None in idx else tuple(sorted(idx))

    def _greedy_generators(self):
        """Greedy generating indices, each candidate closed from the
        current subalgebra: adding x to a closed B, the new rows are x and
        [x, B], and the generators, x among them, then meet only new rows."""
        one = self.dom.one()
        S, gens, basis = [], [], {}
        while len(basis) < self.dim:
            best = None
            for i in range(self.dim):
                trial = dict(basis)
                x = linalg.echelon_insert(self.dom, trial, {i: one})
                if x is None:
                    # a vector in the subalgebra S generates enlarges nothing
                    continue
                seed = [x] + [row for row in (
                    linalg.echelon_insert(self.dom, trial, self.bracket(x, b))
                    for b in basis.values()) if row is not None]
                linalg.lie_closure(self.dom, self.bracket, gens + [x],
                                   self.dim, trial, seed)
                if best is None or len(trial) > len(best[1]):
                    best = (i, trial, x)
                    if len(trial) == self.dim:
                        break       # no later index can do better
            S.append(best[0])
            basis = best[1]
            gens.append(best[2])
        return tuple(sorted(S))

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
    since the ambient table is antisymmetric, as ChevalleyAlgebra proves
    cell by cell.  The failing pairs are therefore symmetric, so the first
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


def from_chevalley(alg: ChevalleyAlgebra) -> GradedLieAlgebra:
    """The split algebra itself over Q, as a bi-graded object with trivial
    lattice grading and q-degrees read off the full Cartan subalgebra."""
    entries = []
    for i in range(alg.dim):
        v = tuple(QQ.one() if t == i else QQ.zero() for t in range(alg.dim))
        entries.append(GradedBasisVector(alg.q_degree(i), (), v))
    table = {}
    for (i, j), terms in alg.table.items():
        table[(i, j)] = [(k, QQ.from_int(c)) for k, c in terms]
    return GradedLieAlgebra(QQ, 0, 1, entries, table, alg)


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
    data: object = None              # RelativeRootData, or None
    # elemgroup's unipotent peeling data, by root
    _peel_cache: dict = field(default_factory=dict, repr=False,
                              compare=False)

    @property
    def anisotropic(self):
        return not self.roots


def relative_roots(g: GradedLieAlgebra) -> RelativeGrading:
    """The nonzero q-degrees of g as a relative root system, positive under
    the generic functional (g.relative_grading keeps one per algebra)."""
    if g.qrank == 0:
        # refined by an empty cartan (or never refined): no nonzero weights
        return RelativeGrading(g, [])
    zero = (0,) * g.qrank
    roots = sorted(q for q in g.q_keys() if q != zero)
    if not roots:
        return RelativeGrading(g, [])
    return RelativeGrading(g, roots, RelativeRootData(roots))


# ---------------------------------------------------------------------------
# spec files

def parse_spec_file(text: str, conductor: int):
    """The multiloop spec and cartan rows of a spec file's text.

    Lines: "multiloop type=<T> rank=<r> n=<n> m=<m>", then one "sigma ..."
    per loop variable (torus w1..wr | diagram p1..pr | chevalley | identity),
    then optional "cartan h c1..cr" lines or "cartan full".  A cartan row
    holds r coefficients on the simple coroots, and a row of any other
    length is an error; "cartan full" stands for the identity rows and
    overrides every "cartan h" line.
    """
    lines = [(lno, ln.split("#", 1)[0].strip())
             for lno, ln in enumerate(text.splitlines(), start=1)]
    lines = [(lno, ln) for lno, ln in lines if ln]
    hno = lines[0][0] if lines else 1
    if not lines or not lines[0][1].startswith("multiloop"):
        raise SpecError("spec line %d: expected 'multiloop ...'" % hno)
    head = {}
    for part in lines[0][1].split()[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise SpecError("spec line %d: bad header token %r"
                            % (hno, part))
        if key in head or key not in ("type", "rank", "n", "m"):
            raise SpecError("spec line %d: %s header key %r" % (
                hno, "repeated" if key in head else "unknown", key))
        head[key] = value
    try:
        tlabel = head["type"]
        rank = int(head["rank"])
        n = int(head["n"])
        m = int(head.get("m", conductor))
    except (KeyError, ValueError) as e:
        raise SpecError("spec line %d: %s" % (hno, e))
    alg = build_chevalley_by_type(tlabel, rank)
    sigmas = []
    cartan_rows, cartan_lines = [], []
    cartan_full, short = False, None
    for lno, ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "sigma":
            sigmas.append(_parse_sigma(alg, parts[1:], lno))
        elif parts[0] == "cartan":
            cartan_lines.append(lno)
            if parts[1:] == ["full"]:
                cartan_full = True
            elif parts[1:2] == ["h"]:
                cartan_rows.append([_spec_number(QQ.parse, x, lno,
                                                 "cartan coefficient")
                                    for x in parts[2:]])
                if len(cartan_rows[-1]) != rank and short is None:
                    short = lno
            else:
                raise SpecError("spec line %d: bad cartan line" % lno)
        else:
            raise SpecError("spec line %d: unknown directive %r"
                            % (lno, parts[0]))
    if len(sigmas) != n:
        raise SpecError("spec declares n=%d but has %d sigma lines"
                        % (n, len(sigmas)))
    if short:
        raise SpecError("spec line %d: cartan row needs %d coefficients"
                        % (short, rank))
    if cartan_full:
        cartan_rows = [[int(j == i) for j in range(rank)]
                       for i in range(rank)]
    return MultiloopSpec(alg, sigmas, m, tuple(cartan_lines)), cartan_rows


def _parse_sigma(alg, parts, lno):
    kind = parts[0] if parts else ""
    if kind in ("identity", "chevalley") and parts[1:]:
        raise SpecError("spec line %d: sigma %s takes no arguments"
                        % (lno, kind))
    if kind == "identity":
        return torus_automorphism(alg, QQ, [1] * alg.rank)
    if kind == "torus":
        ws = [_spec_number(QQ.parse, x, lno, "torus weight")
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
    """token read by kind (int, or QQ.parse for a rational), or a SpecError
    naming the line."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise SpecError("spec line %d: bad %s %r" % (lno, what, token)) \
            from None


def graded_from_spec(spec: MultiloopSpec, cartan_rows) -> GradedLieAlgebra:
    """The multiloop algebra of spec, refined by the cartan elements whose
    coefficients on the simple coroots are the given rows.  The weights
    they cut out must form a relative root system; when they do not, the
    SpecError names the spec's cartan lines."""
    g = build_multiloop(spec)
    alg, dom = spec.base, g.dom
    nroots = len(alg.roots)
    cartan = []
    for row in cartan_rows:
        h = [dom.zero()] * alg.dim
        for i, c in enumerate(row):
            h[nroots + i] = dom.lift(c)
        cartan.append(h)
    refined = q_grading_from_cartan(g, cartan)
    try:
        refined.relative_grading
    except RootSystemError as e:
        raise no_root_system(spec, e) from None
    return refined


def no_root_system(spec: MultiloopSpec, err: RootSystemError) -> SpecError:
    """The SpecError for cartan rows whose weights form no relative root
    system, naming the spec's cartan lines and the RootSystemError."""
    lines = spec.cartan_lines
    where = "spec line%s %s: " % ("s" if len(lines) > 1 else "",
                                  ", ".join(map(str, lines))) \
        if lines else ""
    return SpecError("%sthe cartan rows give no relative root system: %s"
                     % (where, err))
