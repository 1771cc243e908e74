"""The four seeded job streams of the benchmark.

Each workload turns a seeded random generator into a stream of rounds.  A
round is a fixed mix of job kinds (so every round costs about the same);
the seed chooses the parameters inside each kind and the order of the jobs.
A workload object has four parts, all called by ``run.py``:

- ``setup(lib)`` builds the objects that every job reuses (timed as
  ``setup_s`` together with the library imports);
- ``rounds(lib, state, rng)`` yields the inputs of one round after another
  (untimed);
- ``execute(lib, state, job)`` is the job itself (timed, one latency);
- ``check(lib, state, job, out)`` is the oracle (untimed).  It returns the
  job's report text, which feeds the report digest, and a problem string
  or ``None``.

``finish(records)`` runs, once the timed phase is over, the oracles that
need a module the jobs must not see (``sympy``) and returns their problems.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Job:
    kind: str
    params: dict = field(default_factory=dict)


def _place(g, R, alpha, values):
    """Parameter vector supported on the alpha piece, in basis order."""
    v = [R.zero()] * g.dim
    for i, x in zip(g.piece(qdeg=alpha), values):
        v[i] = x
    return v


def _nonzero(rng, bound=9):
    """A nonzero integer in [-bound, bound].  Coefficients are nonzero and
    drawn from a range wide enough that chance cancellations are rare:
    with +-1..3 the cost of one word shape varied by +-15 % between draws."""
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _show_factors(R, factors):
    return "\n".join("X (%s) [%s]" % (",".join(map(str, gamma)),
                                      ";".join(R.show(x) for x in v if x))
                     for gamma, v in factors)


def _run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# factor_series

class FactorSeries:
    """Words of root elements over Q((t)) and Q[x^+-1]((t)) split by the
    series factorization engine at precision N = 8.

    The cost of a word depends mostly on its shape: how its roots relate,
    its pole orders and which letters carry a finite precision.  A round
    holds SHAPES_PER_STRATUM shapes per stratum, drawn once from a fixed
    seed; the run seed moves every word by a random root-system symmetry
    (which keeps the shape and its cost) and draws all its coefficients.
    """

    name = "factor_series"
    N = 8
    ALGEBRAS = {"A2": ("A", 2), "B2": ("B", 2), "G2": ("G", 2)}
    # (algebra, ring, letters).  G2 stops at 3 letters over Q and 2 over
    # Q[x^+-1], B2 and A2 at 3 over Q[x^+-1]: a 4-letter Laurent-coefficient
    # word on G2 measured up to 22 s, longer than a whole run, and longer
    # Laurent words on A2 and B2 reached 0.8-1.5 s each (see README.md).
    STRATA = ([("A2", "Q", k) for k in (1, 2, 3, 4)]
              + [("B2", "Q", k) for k in (1, 2, 3, 4)]
              + [("G2", "Q", k) for k in (1, 2, 3)]
              + [("A2", "L", k) for k in (1, 2, 3)]
              + [("B2", "L", k) for k in (1, 2, 3)]
              + [("G2", "L", k) for k in (1, 2)])
    SHAPES_PER_STRATUM = 2
    SHAPE_SEED = "factor_series shapes"
    FINITE_SHARE = 3          # one letter in three carries a finite precision
    PREC_RANGE = (12, 30)

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, lib):
        ch, gr, sc = lib.chevalley, lib.grading, lib.scalars
        rgs = {key: gr.relative_roots(gr.from_chevalley(
            ch.build_chevalley_by_type(*tr)))
            for key, tr in self.ALGEBRAS.items()}
        rings = {"Q": sc.DomainSeries(sc.QQ),
                 "L": sc.DomainSeries(sc.DomainLaurent(1, sc.QQ))}
        return {"rgs": rgs, "rings": rings}

    def _shapes(self, state):
        """[(algebra, ring, [(root, pole order, precision or None, coefficient
        exponents)])].  Over Q[x^+-1] each series coefficient is a Laurent
        polynomial with the listed exponents of x; over Q it is a number."""
        rng = random.Random(self.SHAPE_SEED)
        shapes = []
        for alg, ring, letters in self.STRATA:
            roots = state["rgs"][alg].roots
            for _ in range(self.SHAPES_PER_STRATUM):
                shape = []
                for _ in range(letters):
                    root = roots[rng.randrange(len(roots))]
                    low = rng.randint(-3, 0)
                    prec = rng.randint(*self.PREC_RANGE) \
                        if rng.randrange(self.FINITE_SHARE) == 0 else None
                    expos = [None] * 4 if ring == "Q" else [
                        sorted(rng.sample(range(-2, 3), rng.randint(1, 2)))
                        for _ in range(3)]
                    shape.append((root, low, prec, expos))
                shapes.append((alg, ring, shape))
        return shapes

    @staticmethod
    def _symmetry(rg, rng):
        """A random element of the Weyl group times +-1, as a map on roots.

        The reflection in beta sends gamma to gamma - <gamma, beta^vee> beta,
        with <gamma, beta^vee> = r - q read off the beta-string
        gamma - r beta, ..., gamma + q beta."""
        roots = set(rg.roots)

        def reflect(gamma, beta):
            if gamma == beta or gamma == tuple(-x for x in beta):
                return tuple(-x for x in gamma)
            steps = {}
            for sign in (-1, 1):
                k, cur = 0, gamma
                while True:
                    cur = tuple(c + sign * b for c, b in zip(cur, beta))
                    if cur not in roots:
                        break
                    k += 1
                steps[sign] = k
            p = steps[-1] - steps[1]
            return tuple(c - p * b for c, b in zip(gamma, beta))

        word = [rg.data.simple[rng.randrange(len(rg.data.simple))]
                for _ in range(rng.randint(0, 12))]
        sign = rng.choice((1, -1))

        def apply(gamma):
            for beta in word:
                gamma = reflect(gamma, beta)
            return tuple(sign * x for x in gamma)
        return apply

    def rounds(self, lib, state, rng):
        shapes = self._shapes(state)
        while True:
            yield self._round(lib, state, rng, shapes)

    def _round(self, lib, state, rng, shapes):
        jobs = []
        LaurentPoly = lib.scalars.LaurentPoly
        for alg, ring, shape in shapes:
            rg, R = state["rgs"][alg], state["rings"][ring]
            move = self._symmetry(rg, rng)
            letters = []
            for root, low, prec, expos in shape:
                alpha = move(root)
                coeffs = [Fraction(_nonzero(rng)) if e is None else
                          LaurentPoly(1, {(k,): Fraction(_nonzero(rng))
                                          for k in e})
                          for e in expos]
                s = lib.scalars.TruncSeries(R.base, low, prec, coeffs)
                letters.append((alpha, _place(rg.algebra, R, alpha, [s])))
            jobs.append(Job("factor", {
                "alg": alg, "ring": ring,
                "word": lib.elemgroup.RootElementWord(letters),
                "finite": any(letter[2] is not None for letter in shape)}))
        rng.shuffle(jobs)
        return jobs

    def execute(self, lib, state, job):
        p = job.params
        rg, R = state["rgs"][p["alg"]], state["rings"][p["ring"]]
        try:
            return lib.elemgroup.factor_loop_series(rg, R, p["word"], self.N)
        except lib.elemgroup.PrecisionExhausted as e:
            return e

    def check(self, lib, state, job, out):
        p = job.params
        rg, R = state["rgs"][p["alg"]], state["rings"][p["ring"]]
        head = "factor %s over %s" % (p["alg"], p["ring"])
        if isinstance(out, lib.elemgroup.PrecisionExhausted):
            problem = None if p["finite"] else \
                "a word of exact letters ran out of precision"
            return "%s\nexhausted: %s" % (head, out), problem
        g1, g2, cert = out
        report = "\n".join([head, lib.elemgroup.word_show(rg, R, g1),
                            lib.elemgroup.word_show(rg, R, g2),
                            cert.serialize()])
        if not (cert.precision >= self.N and cert.residual_identity):
            return report, ("certificate below t^%d or nonzero residual"
                            % self.N)
        for _, v in g1:
            if any(x and x.valuation() < 0 for x in v):
                return report, "g1 parameter with negative valuation"
        for _, v in g2:
            if not all(x.is_polynomial() for x in v):
                return report, "g2 parameter is not a Laurent polynomial"
        return report, None

    def finish(self, records):
        return []


# ---------------------------------------------------------------------------
# unipotent_exact

class UnipotentExact:
    """Exact unipotent round trips and commutator tables over Q and
    Q(zeta2)."""

    name = "unipotent_exact"
    GRADINGS = ("sl2_loop", "sl3_flip", "A2", "B2")
    ROUND_TRIPS = 2           # per grading and round
    COMMUTATORS = 2

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, lib):
        ch, gr, QQ = lib.chevalley, lib.grading, lib.scalars.QQ
        a1 = ch.build_chevalley_by_type("A", 1)
        a2 = ch.build_chevalley_by_type("A", 2)
        b2 = ch.build_chevalley_by_type("B", 2)

        def refine(g, cartan_idx):
            h = [g.dom.zero()] * g.dim
            for i in cartan_idx:
                h[i] = g.dom.one()
            return gr.q_grading_from_cartan(g, [h])

        ident = ch.torus_automorphism(a1, QQ, [Fraction(1)])
        loop = gr.build_multiloop(gr.MultiloopSpec(a1, [ident], 1))
        flip = ch.diagram_automorphism(a2, [1, 0])
        twisted = gr.build_multiloop(gr.MultiloopSpec(a2, [flip], 2))
        nroots = len(a2.roots)
        return {
            "sl2_loop": gr.relative_roots(refine(loop, [a1.dim - 1])),
            "sl3_flip": gr.relative_roots(refine(twisted,
                                                 [nroots, nroots + 1])),
            "A2": gr.relative_roots(gr.from_chevalley(a2)),
            "B2": gr.relative_roots(gr.from_chevalley(b2)),
        }

    @staticmethod
    def _opposite(alpha, beta):
        return any(all(m * a == -k * b for a, b in zip(alpha, beta))
                   for m in range(1, 5) for k in range(1, 5))

    def rounds(self, lib, state, rng):
        while True:
            yield self._round(state, rng)

    def _round(self, state, rng):
        jobs = []
        for name in self.GRADINGS:
            rg = state[name]
            g, R = rg.algebra, rg.algebra.dom
            for _ in range(self.ROUND_TRIPS):
                letters = [(gamma, _place(g, R, gamma,
                                          [R.from_int(_nonzero(rng))
                                           for _ in g.piece(qdeg=gamma)]))
                           for gamma in rg.data.positive]
                rng.shuffle(letters)
                jobs.append(Job("roundtrip", {"g": name, "letters": letters}))
            pairs = [(a, b) for a in rg.roots for b in rg.roots
                     if not self._opposite(a, b)]
            for _ in range(self.COMMUTATORS):
                alpha, beta = pairs[rng.randrange(len(pairs))]
                u, v = ([R.from_int(_nonzero(rng))
                         for _ in g.piece(qdeg=r)] for r in (alpha, beta))
                jobs.append(Job("commutator", {
                    "g": name, "alpha": alpha, "beta": beta,
                    "u": _place(g, R, alpha, u), "v": _place(g, R, beta, v)}))
        rng.shuffle(jobs)
        return jobs

    def execute(self, lib, state, job):
        p, eg = job.params, lib.elemgroup
        rg = state[p["g"]]
        R = rg.algebra.dom
        if job.kind == "roundtrip":
            u = eg.word_matrix(rg, R, eg.RootElementWord(p["letters"]))
            factors = eg.unipotent_factor(rg, R, u, rg.data.positive)
            rebuilt = eg.word_matrix(rg, R, eg.RootElementWord(factors))
            return u, factors, rebuilt
        return eg.commutator_table(rg, R, p["alpha"], p["beta"], p["u"],
                                   p["v"])

    def check(self, lib, state, job, out):
        p, eg = job.params, lib.elemgroup
        rg = state[p["g"]]
        R = rg.algebra.dom
        if job.kind == "roundtrip":
            u, factors, rebuilt = out
            report = "roundtrip %s\n%s" % (p["g"], _show_factors(R, factors))
            same = all(a == b for ra, rb in zip(u.matrix, rebuilt.matrix)
                       for a, b in zip(ra, rb))
            return report, None if same else "rebuilt matrix differs"
        report = "commutator %s (%s) (%s)\n%s" % (
            p["g"], ",".join(map(str, p["alpha"])),
            ",".join(map(str, p["beta"])), _show_factors(R, out))
        # [X_a(u), X_b(v)] from its definition against the returned product
        neg = lambda w: [-x for x in w]
        comm = eg.word_matrix(rg, R, eg.RootElementWord([
            (p["alpha"], p["u"]), (p["beta"], p["v"]),
            (p["alpha"], neg(p["u"])), (p["beta"], neg(p["v"]))]))
        prod = eg.word_matrix(rg, R, eg.RootElementWord(out))
        same = all(a == b for ra, rb in zip(comm.matrix, prod.matrix)
                   for a, b in zip(ra, rb))
        return report, None if same else "commutator product differs"

    def finish(self, records):
        return []


# ---------------------------------------------------------------------------
# structure_cli

def _sympy_dimension(tlabel, rank):
    """|Phi| + rank from sympy.liealgebras (installed offline)."""
    keep, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:        # write no bytecode outside the checkout
        from sympy.liealgebras.root_system import RootSystem
    finally:
        sys.dont_write_bytecode = keep
    return len(RootSystem("%s%d" % (tlabel, rank)).all_roots()) + rank


class StructureCli:
    """In-process `multiloop algebra build | grading | lietorus` requests."""

    name = "structure_cli"
    BUILDS = (("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4), ("G", 2))
    FAMILIES = ("loop_A1", "loop_A2", "loop_B2", "loop_G2", "loop2_A2",
                "flip_m2", "flip_m4", "torus_A1_m2", "torus_A2_m2",
                "torus_A1_m3", "torus_A2_m3", "quaternion")

    def __init__(self, workdir):
        self.workdir = workdir
        self.claims = []          # (type, rank, claimed dimension)

    def setup(self, lib):
        return {}

    @staticmethod
    def _cartan(rng, rank):
        """A cartan choice of the whole Cartan subalgebra: 'full', or the
        simple coroots permuted and signed.  All have the same cost."""
        if rng.randrange(3) == 0:
            return ["cartan full"]
        order = list(range(rank))
        rng.shuffle(order)
        rows = []
        for i in order:
            row = ["0"] * rank
            row[i] = rng.choice(["1", "-1"])
            rows.append("cartan h " + " ".join(row))
        return rows

    def _spec(self, rng, family):
        """(spec lines, algebra (type, rank), expected lietorus verdict).

        The verdict is (exit code, type label, failing axioms):
        untwisted loops and the m = 2 flip are Lie tori; the m = 4 flip has
        lattice degrees in 2Z only (LT3); a torus twist at m = 2 with a -1
        weight puts a simple root only in lattice degree 1 (LT2); torus
        weights are rational, so at m = 3 they are all 1 and every lattice
        degree is 0 (LT3); the quaternion grading is anisotropic (LT2) and
        has no root pieces to generate with (LT5).
        """
        if family.startswith(("loop_", "loop2_")):
            t, r = family[-2], int(family[-1])
            n = 2 if family.startswith("loop2") else 1
            lines = ["multiloop type=%s rank=%d n=%d m=1" % (t, r, n)]
            lines += ["sigma identity"] * n + self._cartan(rng, r)
            return lines, (t, r), (0, "%s%d" % (t, r), ())
        if family.startswith("flip_"):
            m = int(family[-1])
            c = rng.choice(["1", "-1"])
            lines = ["multiloop type=A rank=2 n=1 m=%d" % m,
                     "sigma diagram 1 0", "cartan h %s %s" % (c, c)]
            return lines, ("A", 2), ((0, "BC1", ()) if m == 2
                                     else (2, "BC1", ("LT3",)))
        if family.startswith("torus_"):
            t, r, m = family[6], int(family[7]), int(family[-1])
            if m == 2:
                weights = ["1"] * r
                while weights == ["1"] * r:
                    weights = [rng.choice(["1", "-1"]) for _ in range(r)]
                fails = ("LT2",)
            else:
                weights, fails = ["1"] * r, ("LT3",)
            lines = ["multiloop type=%s rank=%d n=1 m=%d" % (t, r, m),
                     "sigma torus " + " ".join(weights)]
            lines += self._cartan(rng, r)
            return lines, (t, r), (2, "%s%d" % (t, r), fails)
        sigmas = ["sigma torus -1", "sigma chevalley"]
        rng.shuffle(sigmas)
        return (["multiloop type=A rank=1 n=2 m=2"] + sigmas, ("A", 1),
                (2, "empty", ("LT2", "LT5")))

    def rounds(self, lib, state, rng):
        while True:
            yield self._round(rng)

    def _round(self, rng):
        jobs = [Job("build", {"type": t, "rank": r}) for t, r in self.BUILDS]
        for family in self.FAMILIES:
            for cmd in ("grading", "lietorus"):
                lines, alg, verdict = self._spec(rng, family)
                # file names repeat from round to round, so reports do too
                path = os.path.join(self.workdir, "%s-%s.ml" % (family, cmd))
                with open(path, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
                jobs.append(Job(cmd, {"family": family, "path": path,
                                      "alg": alg, "verdict": verdict}))
        rng.shuffle(jobs)
        return jobs

    def execute(self, lib, state, job):
        p = job.params
        if job.kind == "build":
            return _run_cli(lib, ["algebra", "build", p["type"],
                                  str(p["rank"])])
        return _run_cli(lib, [job.kind, p["path"]])

    def check(self, lib, state, job, out):
        code, text = out
        p = job.params
        report = text.replace(self.workdir, "<specs>")
        lines = text.splitlines()
        if job.kind == "build":
            dims = [ln for ln in lines if ln.startswith("dimension: ")]
            if code != 0 or len(dims) != 1:
                return report, "algebra build exit %d" % code
            self.claims.append((p["type"], p["rank"],
                                int(dims[0].split()[1])))
            return report, None
        if job.kind == "grading":
            if code != 0:
                return report, "grading exit %d" % code
            # "dimension-table: (0): 3", or the header alone and one
            # indented "(lam): dim" line per piece
            i = next(k for k, ln in enumerate(lines)
                     if ln.startswith("dimension-table:"))
            rows = [lines[i][len("dimension-table:"):]]
            rows += [ln for ln in lines[i + 1:] if ln.startswith("  (")]
            total = sum(int(r.rsplit(":", 1)[1]) for r in rows if r.strip())
            self.claims.append((p["alg"][0], p["alg"][1], total))
            return report, None
        want_code, want_label, want_fails = p["verdict"]
        labels = [ln.split()[1] for ln in lines
                  if ln.strip().startswith("lietorus type=")]
        fails = tuple(ln.split()[0] for ln in lines
                      if ln.startswith("  LT") and ln.endswith(" fail"))
        got = (code, labels[0][len("type="):] if labels else None, fails)
        if got != (want_code, want_label, want_fails):
            return report, "lietorus %s gave %s, expected %s" % (
                p["family"], got, p["verdict"])
        return report, None

    def finish(self, records):
        """Dimensions claimed by `algebra build` and by the grading tables
        against |Phi| + rank from sympy."""
        expected = {}
        problems = []
        for t, r, claimed in self.claims:
            if (t, r) not in expected:
                expected[(t, r)] = _sympy_dimension(t, r)
            if claimed != expected[(t, r)]:
                problems.append("%s%d dimension %d, sympy says %d"
                                % (t, r, claimed, expected[(t, r)]))
        return problems


# ---------------------------------------------------------------------------
# cocycle_levels

# Configurations (action, m, n, gamma0, coefficients, galois-inverts,
# discrepancy), grouped into slots whose members cost within about 10 % of
# each other (scaled times, median of 3: heavy 0.53-0.61 s, medium
# 0.093-0.106 s, light 0.020-0.024 s, tiny 0.0044-0.0056 s); one light
# and one tiny slot hold only infres and only diagonal requests, so that
# every round runs all three actions.  Each round takes COCYCLE_DRAWS[slot]
# from each slot.  All are within the default budgets.
COCYCLE_SLOTS = {
    "heavy": [
        ("enumerate", 3, 3, "Z2", "Z3", True, 0),
        ("diagonal", 4, 1, "S3", "Z2xZ2", False, 2),
        ("infres", 4, 1, "S3", "Z3", False, 0),
        ("diagonal", 4, 1, "S3", "S3", False, 2),
        ("diagonal", 4, 1, "S3", "Z4", False, 0),
        ("enumerate", 4, 2, "S3", "Z3", False, 0),
        ("infres", 2, 3, "Z2", "S3", False, 0),
        ("infres", 3, 2, "Z2", "Z3", True, 0),
        ("diagonal", 4, 1, "S3", "Z4", False, 4),
        ("enumerate", 2, 3, "S3", "S3", False, 0),
    ],
    "medium": [
        ("diagonal", 3, 2, "Z2", "Z3", True, 0),
        ("enumerate", 3, 3, "Z2", "Z2", True, 0),
        ("diagonal", 2, 2, "S3", "S3", False, 0),
        ("infres", 2, 3, "Z2", "Z2", False, 0),
        ("infres", 2, 1, "S3", "S3", False, 0),
        ("infres", 3, 1, "S3", "Z2", False, 0),
        ("enumerate", 3, 3, "Z2", "Z2", False, 0),
        ("diagonal", 2, 2, "S3", "Z2", False, 2),
        ("enumerate", 3, 2, "S3", "Z2", False, 0),
        ("infres", 4, 1, "Z2", "Z4", False, 0),
        ("enumerate", 2, 2, "S3", "S3", False, 0),
        ("diagonal", 3, 2, "Z2", "Z3", False, 3),
    ],
    "light": [
        ("diagonal", 2, 1, "S3", "S3", False, 2),
        ("enumerate", 2, 2, "S3", "Z2", False, 0),
        ("enumerate", 4, 2, "Z2", "Z3", False, 0),
        ("diagonal", 4, 1, "Z2", "Z2", True, 0),
        ("enumerate", 3, 2, "Z2", "Z3", True, 0),
        ("diagonal", 4, 1, "Z2", "Z4", True, 0),
        ("diagonal", 4, 1, "Z2", "Z2", False, 2),
        ("enumerate", 3, 2, "Z2", "S3", False, 0),
        ("diagonal", 3, 2, "trivial", "S3", False, 3),
        ("diagonal", 4, 1, "Z2", "Z4", False, 0),
        ("diagonal", 4, 1, "Z2", "Z3", True, 0),
        ("diagonal", 4, 1, "Z2", "Z2xZ2", True, 0),
    ],
    "light infres": [
        ("infres", 4, 1, "trivial", "Z2xZ2", False, 0),
        ("infres", 2, 3, "trivial", "Z4", False, 0),
        ("infres", 4, 1, "Z2", "Z3", True, 0),
        ("infres", 2, 2, "Z2", "Z4", False, 0),
        ("infres", 2, 2, "trivial", "Z2xZ2", False, 0),
        ("infres", 4, 1, "Z2", "Z3", False, 0),
        ("infres", 2, 1, "Z2", "Z2xZ2", False, 0),
        ("infres", 2, 1, "S3", "Z2", False, 0),
        ("infres", 2, 1, "Z2", "Z2xZ2", True, 0),
    ],
    "tiny": [
        ("enumerate", 4, 1, "Z2", "Z4", True, 0),
        ("infres", 4, 1, "trivial", "Z3", False, 0),
        ("infres", 2, 2, "trivial", "Z4", False, 0),
        ("enumerate", 3, 2, "trivial", "S3", False, 0),
        ("enumerate", 4, 1, "Z2", "Z2xZ2", True, 0),
        ("enumerate", 4, 2, "trivial", "Z2", False, 0),
        ("infres", 2, 3, "trivial", "Z3", False, 0),
        ("enumerate", 2, 2, "Z2", "Z4", True, 0),
        ("enumerate", 2, 3, "Z2", "Z3", False, 0),
        ("enumerate", 4, 1, "Z2", "Z2xZ2", False, 0),
        ("enumerate", 4, 1, "Z2", "S3", False, 0),
        ("enumerate", 3, 2, "Z2", "Z2", False, 0),
        ("infres", 4, 1, "trivial", "Z2", False, 0),
    ],
    "tiny diagonal": [
        ("diagonal", 4, 1, "trivial", "Z2", False, 2),
        ("diagonal", 3, 1, "Z2", "Z4", True, 0),
        ("diagonal", 4, 1, "trivial", "Z2xZ2", False, 0),
        ("diagonal", 4, 1, "trivial", "Z4", False, 2),
        ("diagonal", 4, 1, "trivial", "Z4", False, 4),
        ("diagonal", 3, 1, "Z2", "Z3", False, 0),
        ("diagonal", 4, 1, "trivial", "Z4", False, 0),
        ("diagonal", 3, 1, "Z2", "Z2xZ2", False, 0),
        ("diagonal", 3, 1, "Z2", "Z2", True, 0),
        ("diagonal", 3, 1, "Z2", "Z2xZ2", True, 0),
        ("diagonal", 2, 2, "Z2", "Z2", False, 0),
        ("diagonal", 2, 3, "trivial", "Z2", False, 0),
        ("diagonal", 4, 1, "trivial", "Z2xZ2", False, 2),
    ],
}
COCYCLE_DRAWS = {"heavy": 1, "medium": 2, "light": 2, "light infres": 1,
                 "tiny": 3, "tiny diagonal": 1}
# Over the default budget_gamma of 96: the cover group has order 128.
OVER_BUDGET = ("enumerate", 4, 3, "Z2", "Z2", False, 0)
# Cyclic factors of each coefficient group that the Hom count oracle knows.
ABELIAN = {"Z2": (2,), "Z3": (3,), "Z4": (4,), "Z2xZ2": (2, 2)}


def _cocycle_argv(cfg):
    action, m, n, gamma0, coeff, galois, disc = cfg
    argv = ["--conductor", str(m), "cocycle", action, "--n", str(n),
            "--gamma0", gamma0, "--coeff", coeff]
    if galois:
        argv.append("--galois-inverts")
    if disc:
        argv += ["--discrepancy", str(disc)]
    return argv


class CocycleLevels:
    """In-process `multiloop cocycle enumerate|infres|diagonal` requests."""

    name = "cocycle_levels"

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, lib):
        return {}

    def rounds(self, lib, state, rng):
        """Each slot is dealt from a deck of its configurations, shuffled by
        the seed and dealt out before it is reshuffled, so that a run uses
        every configuration of a slot about equally often."""
        decks = {slot: [] for slot in COCYCLE_SLOTS}
        while True:
            jobs = [Job("cocycle", {"cfg": OVER_BUDGET, "over": True})]
            for slot, draws in COCYCLE_DRAWS.items():
                for _ in range(draws):
                    if not decks[slot]:
                        pool = COCYCLE_SLOTS[slot]
                        decks[slot] = rng.sample(pool, len(pool))
                    jobs.append(Job("cocycle", {"cfg": decks[slot].pop(),
                                                "over": False}))
            rng.shuffle(jobs)
            yield jobs

    def execute(self, lib, state, job):
        return _run_cli(lib, _cocycle_argv(job.params["cfg"]))

    def check(self, lib, state, job, out):
        code, text = out
        action, m, n, gamma0, coeff, galois, disc = job.params["cfg"]
        report = "%s\nexit %d\n%s" % (" ".join(_cocycle_argv(
            job.params["cfg"])), code, text)
        if job.params["over"]:
            return report, None if code == 3 else \
                "over-budget request exit %d" % code
        if code != 0 or "verdict: pass" not in text.splitlines():
            return report, "exit %d without a pass verdict" % code
        if action == "enumerate" and gamma0 == "trivial" and coeff in ABELIAN:
            # trivial action: cocycles are the homomorphisms (Z/m)^n -> A
            homs = math.prod(math.gcd(k, m) for k in ABELIAN[coeff]) ** n
            if "cocycles: %d" % homs not in text.splitlines():
                return report, "cocycle count is not |Hom| = %d" % homs
        if action == "diagonal":
            if "power: %d" % (disc or 1) not in text.splitlines():
                return report, "diagonal power is not %d" % (disc or 1)
        return report, None

    def finish(self, records):
        return []


WORKLOADS = {w.name: w for w in (FactorSeries, UnipotentExact, StructureCli,
                                 CocycleLevels)}
