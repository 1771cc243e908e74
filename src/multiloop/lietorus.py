"""Decision procedure for the five Lie-torus axioms on a bi-graded algebra.

Checks run over one periodicity block of lattice degrees.  Every failure
carries a concrete counterexample; LT4 witnesses re-verify exactly.  LT4
brackets on the sparse graded table with chevalley.sparse_bracket and reads
each ad_h from chevalley.ad_rows; LT5 closes the generated subalgebra with
GradedLieAlgebra.closure.  The root set and its label come from the
relative root system (rootsys.RelativeRootData) of the grading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .chevalley import ad_rows, sparse_bracket
from .grading import GradedLieAlgebra
from .rootsys import RootSystemError, proportionality


@dataclass
class LieTorusReport:
    verdicts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    counterexamples: dict = field(default_factory=dict)
    delta_label: str = ""
    nullity: int = 0
    notes: list = field(default_factory=list)

    @property
    def overall(self):
        return all(self.verdicts.get(k, False)
                   for k in ("LT1", "LT2", "LT3", "LT4", "LT5"))

    def serialize(self) -> str:
        lines = ["lietorus type=%s nullity=%d" % (self.delta_label or "?",
                                                  self.nullity)]
        for k in ("LT1", "LT2", "LT3", "LT4", "LT5"):
            v = self.verdicts.get(k)
            lines.append("%s %s" % (k, "pass" if v else "fail"))
            if not v and k in self.counterexamples:
                lines.append("  counterexample %s" % (self.counterexamples[k],))
        for w in self.witnesses:
            lines.append("witness %s" % (w,))
        for n in self.notes:
            lines.append("note %s" % n)
        lines.append("overall %s" % ("pass" if self.overall else "fail"))
        return "\n".join(lines)


def _zero_q(g):
    return (0,) * g.qrank


def check_LT1(g: GradedLieAlgebra, delta_set) -> tuple:
    """Every nonzero piece sits at a q-degree in Delta or at zero."""
    zero = _zero_q(g)
    for e in g.entries:
        if e.qdeg != zero and e.qdeg not in delta_set:
            return False, ("piece", e.qdeg, e.lam)
    return True, None


def _indivisible(delta_set):
    out = []
    for a in sorted(delta_set):
        if all(x % 2 == 0 for x in a) and \
                tuple(x // 2 for x in a) in delta_set:
            continue
        out.append(a)
    return out


def check_LT2(g: GradedLieAlgebra, delta_set) -> tuple:
    """Indivisible nonzero roots must have a nonzero lattice-degree-0 piece."""
    if not delta_set:
        return False, "anisotropic"
    zero_lam = g.zero_lam()
    for a in _indivisible(delta_set):
        if not g.piece(qdeg=a, lam=zero_lam):
            return False, ("empty-zero-piece", a)
    return True, None


def check_LT3(g: GradedLieAlgebra) -> tuple:
    """Lattice degrees of nonzero pieces, plus the period lattice, must
    generate Z^n.  Returns Smith invariants of the cokernel on failure."""
    n = g.nvars
    if n == 0:
        return True, None
    rows = sorted(set(e.lam for e in g.entries))
    for i in range(n):
        rows.append(tuple(g.period if j == i else 0 for j in range(n)))
    inv = linalg.smith_invariants(rows)
    if len(inv) == n and all(x == 1 for x in inv):
        return True, None
    return False, ("cokernel-invariants", inv)


def pairing_from_strings(beta, alpha, root_set):
    """<beta, alpha^vee> from the alpha-string through beta inside the given
    root set, with the proportional cases handled directly; a
    RootSystemError when a proportional pair gives no integer."""
    c = proportionality(beta, alpha)
    if c is not None:
        val = 2 * c
        if val.denominator != 1:
            raise RootSystemError("non-integral pairing for %s, %s"
                                  % (beta, alpha))
        return int(val)
    r = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while cur in root_set:
        r += 1
        cur = tuple(b - a for b, a in zip(cur, alpha))
    q = 0
    cur = tuple(b + a for b, a in zip(beta, alpha))
    while cur in root_set:
        q += 1
        cur = tuple(b + a for b, a in zip(cur, alpha))
    return r - q


def check_LT4(g: GradedLieAlgebra, delta_set) -> tuple:
    """For each nonzero-root piece, locate the sl2 pair (e, f) and verify the
    eigenvalue identity on every basis vector.

    [e, f] and [h, e] are sparse brackets on the graded table
    (chevalley.sparse_bracket); ad_h is read once, by chevalley.ad_rows,
    and its columns are checked in basis order."""
    zero = _zero_q(g)
    dom = g.dom
    one = dom.one()
    support = set(e.qdeg for e in g.entries if e.qdeg != zero)
    witnesses = []
    for alpha in sorted(support):
        if alpha not in delta_set:
            continue
        neg = tuple(-x for x in alpha)
        expect = {zero: dom.zero()}      # eigenvalue by q-degree
        for lam in sorted(set(e.lam for e in g.entries if e.qdeg == alpha)):
            idxs = g.piece(qdeg=alpha, lam=lam)
            if len(idxs) > 1:
                return False, ("piece-dimension", alpha, lam, len(idxs)), []
            neg_lam = g.reduce_lam(tuple(-x for x in lam))
            fidx = g.piece(qdeg=neg, lam=neg_lam)
            if len(fidx) != 1:
                return False, ("no-opposite-piece", alpha, lam), []
            ei, fi = idxs[0], fidx[0]
            e = {ei: one}
            h = sparse_bracket(g.table, e, {fi: one})
            he = sparse_bracket(g.table, h, e)
            mu = he.get(ei)
            if any(x for t, x in he.items() if t != ei) or not mu:
                return False, ("no-sl2-scaling", alpha, lam), []
            c = dom.inv(mu) * 2
            ad = ad_rows(g.cells_by_first,
                         sparse_bracket(g.table, e, {fi: c}))
            # columns k of ad_h with a nonzero entry off the diagonal
            off = {k for r, row in ad.items() for k, x in row.items()
                   if x and k != r}
            for k, ent in enumerate(g.entries):
                beta = ent.qdeg
                if beta not in expect:
                    expect[beta] = dom.from_int(
                        pairing_from_strings(beta, alpha, support))
                if k in off or \
                        ad.get(k, {}).get(k, dom.zero()) != expect[beta]:
                    return False, ("identity-fails", alpha, lam, beta), []
            f = [dom.zero()] * g.dim
            f[fi] = c
            witnesses.append((alpha, lam, ei, tuple(dom.show(x) for x in f)))
    return True, None, witnesses


def check_LT5(g: GradedLieAlgebra) -> tuple:
    """The nonzero-root pieces must generate the whole algebra: their
    generated subalgebra is g.closure, which certifies generating sets for
    elemgroup too."""
    zero = _zero_q(g)
    one = g.dom.one()
    size = len(g.closure([{i: one} for i, e in enumerate(g.entries)
                          if e.qdeg != zero]))
    if size == g.dim:
        return True, None
    return False, ("generated-dimension", size, g.dim)


def lie_torus_check(g: GradedLieAlgebra) -> LieTorusReport:
    """Run all five axioms on the root set discovered from the q-grading
    support (GradedLieAlgebra.relative_grading)."""
    rep = LieTorusReport(nullity=g.nvars)
    rg = g.relative_grading
    delta_set = set(rg.roots)
    rep.delta_label = rg.data.label if rg.data else "empty"
    rep.notes.append("delta discovered from grading support")
    if rg.anisotropic:
        rep.notes.append("anisotropic")
    # the checks are looked up at call time, so that a wrapped check_LT*
    # is the one that runs
    for name, check, args in (("LT1", check_LT1, (g, delta_set)),
                              ("LT2", check_LT2, (g, delta_set)),
                              ("LT3", check_LT3, (g,)),
                              ("LT4", check_LT4, (g, delta_set)),
                              ("LT5", check_LT5, (g,))):
        verdict, witness, *found = check(*args)
        rep.verdicts[name] = verdict
        if not verdict:
            rep.counterexamples[name] = witness
        elif found:
            rep.witnesses.extend(found[0])
    return rep
