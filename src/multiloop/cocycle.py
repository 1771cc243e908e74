"""Finite cover groups (Z/m)^n semidirect a Galois part, nonabelian
1-cocycles, inflation-restriction, and the finite-level diagonal argument.

Everything is exhaustive: group axioms, cocycle identities, and exactness
statements are verified by enumeration within configured budgets.  Groups
are stored as integer Cayley tables and the checks run on element
positions, but none is shortened: associativity covers all |G|^3 triples,
the cocycle identity all |G|^2 pairs, and the action all |G|^2 * |A|
homomorphism conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class CocycleError(ValueError):
    pass


class BudgetExceeded(CocycleError):
    pass


DEFAULT_BUDGET_GAMMA = 96
DEFAULT_BUDGET_COEFF = 24


class FiniteGroup:
    """Explicit finite group on hashable labels with verified axioms.

    The product is an integer Cayley table: ``rows[i][j]`` is the position
    of ``elements[i] * elements[j]``; ``e`` is the identity's position and
    ``inv_index`` maps each position to its inverse's.
    """

    def __init__(self, elements, mult_fn, name="G", verify=True):
        self.elements = list(elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.name = name
        self.rows = []
        for a in self.elements:
            row = [self.index.get(mult_fn(a, b)) for b in self.elements]
            if None in row:
                raise CocycleError("%s is not closed under product" % name)
            self.rows.append(row)
        self.e = self._find_identity()
        self.identity = self.elements[self.e]
        self.inv_index = self._find_inverses()
        self.inverse = {g: self.elements[i]
                        for g, i in zip(self.elements, self.inv_index)}
        if verify:
            self._verify_associativity()

    def _find_identity(self):
        rows = self.rows
        for e in range(len(rows)):
            if rows[e] == list(range(len(rows))) and \
                    all(row[e] == g for g, row in enumerate(rows)):
                return e
        raise CocycleError("%s has no identity" % self.name)

    def _find_inverses(self):
        rows, e = self.rows, self.e
        inv = []
        for g, row in enumerate(rows):
            h = next((h for h, gh in enumerate(row)
                      if gh == e and rows[h][g] == e), None)
            if h is None:
                raise CocycleError("%s: no inverse for %s"
                                   % (self.name, self.elements[g]))
            inv.append(h)
        return inv

    def _verify_associativity(self):
        """(ab)c = a(bc) on every triple, one row of c at a time."""
        rows = self.rows
        for a, ra in enumerate(rows):
            for b, ab in enumerate(ra):
                if rows[ab] != list(map(ra.__getitem__, rows[b])):
                    c = next(c for c, bc in enumerate(rows[b])
                             if rows[ab][c] != ra[bc])
                    el = self.elements
                    raise CocycleError(
                        "%s: associativity fails at %s,%s,%s" %
                        (self.name, el[a], el[b], el[c]))

    def mul(self, a, b):
        return self.elements[self.rows[self.index[a]][self.index[b]]]

    def inv(self, a):
        return self.inverse[a]

    def __len__(self):
        return len(self.elements)

    def generators(self):
        """A greedy small generating sequence, as positions."""
        gens = []
        span = {self.e}
        for g in range(len(self.rows)):
            if g in span:
                continue
            gens.append(g)
            span = self._closure(gens)
            if len(span) == len(self.rows):
                break
        return gens

    def _closure(self, gens):
        span = {self.e}
        frontier = [self.e]
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = self.rows[a][s]
                    if b not in span:
                        span.add(b)
                        nxt.append(b)
            frontier = nxt
        return span

    def serialize(self):
        lines = ["group %s order=%d" % (self.name, len(self.elements))]
        for row in self.rows:
            lines.append("  " + " ".join(str(self.elements[c]) for c in row))
        return "\n".join(lines)


def cyclic_group(k, name=None) -> FiniteGroup:
    return FiniteGroup(range(k), lambda a, b: (a + b) % k,
                       name or "Z/%d" % k)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1, "1")


def symmetric_group_3() -> FiniteGroup:
    perms = list(itertools.permutations(range(3)))

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    return FiniteGroup(perms, mul, "S3")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    elems = [(g, h) for g in G.elements for h in H.elements]
    return FiniteGroup(elems,
                       lambda a, b: (G.mul(a[0], b[0]), H.mul(a[1], b[1])),
                       "%sx%s" % (G.name, H.name))


def cover_group(n: int, m: int, gamma0: FiniteGroup, units) -> FiniteGroup:
    """(Z/m)^n semidirect gamma0, with gamma0 acting coordinatewise through
    the unit units[gamma] of Z/m."""
    from math import gcd
    given = dict(units)
    units = {g: given.get(g, 1) % m if m > 1 else 0
             for g in gamma0.elements}
    if m > 1:
        for g in gamma0.elements:
            if gcd(units[g], m) != 1:
                raise CocycleError("action unit %d is not invertible mod %d"
                                   % (units[g], m))
        for a in gamma0.elements:
            for b in gamma0.elements:
                if units[gamma0.mul(a, b)] % m != (units[a] * units[b]) % m:
                    raise CocycleError("unit action is not a homomorphism")
    elems = [(t, g) for t in itertools.product(range(m), repeat=n)
             for g in gamma0.elements]

    def mul(x, y):
        t1, g1 = x
        t2, g2 = y
        u = units[g1]
        t = tuple([(a + u * b) % m for a, b in zip(t1, t2)])
        return (t, gamma0.mul(g1, g2))

    return FiniteGroup(elems, mul, "(Z/%d)^%d:%s" % (m, n, gamma0.name))


@dataclass
class CoefficientGroup:
    """A finite group with an action of a cover group by automorphisms.

    ``act`` is keyed by labels; ``perm[g][a]`` is the position of
    g . a for positions g of the cover and a of A.
    """
    A: FiniteGroup
    cover: FiniteGroup
    act: dict                      # cover element -> {a: image}
    perm: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A, G = self.A, self.cover
        self.perm = [[A.index[self.act[g][a]] for a in A.elements]
                     for g in G.elements]
        for g, p in zip(G.elements, self.perm):
            for a, row in enumerate(A.rows):
                if list(map(p.__getitem__, row)) != \
                        list(map(A.rows[p[a]].__getitem__, p)):
                    raise CocycleError(
                        "action of %s is not an automorphism" % (g,))
        if self.perm[G.e] != list(range(len(A))):
            raise CocycleError("identity does not act trivially")
        for g, row in enumerate(G.rows):
            pg = self.perm[g]
            for h, gh in enumerate(row):
                if self.perm[gh] != list(map(pg.__getitem__, self.perm[h])):
                    raise CocycleError(
                        "action is not a homomorphism at %s,%s"
                        % (G.elements[g], G.elements[h]))

    def apply(self, g, a):
        return self.act[g][a]


def trivial_action(cover: FiniteGroup, A: FiniteGroup) -> CoefficientGroup:
    ident = {a: a for a in A.elements}
    return CoefficientGroup(A, cover, {g: dict(ident)
                                       for g in cover.elements})


def galois_action(cover: FiniteGroup, A: FiniteGroup,
                  gamma0_act) -> CoefficientGroup:
    """Translations act trivially; the Galois part acts through gamma0_act,
    a map from gamma0 elements to permutations of A."""
    act = {}
    for (t, g) in cover.elements:
        act[(t, g)] = dict(gamma0_act[g])
    return CoefficientGroup(A, cover, act)


@dataclass
class Cocycle:
    coeff: CoefficientGroup
    values: dict                   # cover element -> A element
    pos: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # pos[g] is the A-position of z(g) for the cover position g, so
        # values is not changed after construction
        if self.pos is None:
            self.pos = [self.coeff.A.index[self.values[g]]
                        for g in self.coeff.cover.elements]

    def __call__(self, g):
        return self.values[g]

    def serialize(self):
        lines = ["cocycle"]
        for g in self.coeff.cover.elements:
            lines.append("  %s -> %s" % (g, self.values[g]))
        return "\n".join(lines)


def _from_positions(coeff: CoefficientGroup, pos) -> Cocycle:
    labels = map(coeff.A.elements.__getitem__, pos)
    return Cocycle(coeff, dict(zip(coeff.cover.elements, labels)), pos)


def is_cocycle(z: Cocycle):
    """Exhaustive check of z(gh) = z(g) (g . z(h)); returns (ok, witness)."""
    G = z.coeff.cover
    A = z.coeff.A
    v = z.pos
    for g, row in enumerate(G.rows):
        lhs = list(map(v.__getitem__, row))
        rhs = list(map(A.rows[v[g]].__getitem__,
                       map(z.coeff.perm[g].__getitem__, v)))
        if lhs != rhs:
            h = next(h for h, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return False, (G.elements[g], G.elements[h])
    return True, None


def trivial_cocycle(coeff: CoefficientGroup) -> Cocycle:
    e = coeff.A.identity
    return Cocycle(coeff, {g: e for g in coeff.cover.elements})


def twist_cocycle(z: Cocycle, a) -> Cocycle:
    """The cohomologous cocycle g -> a^{-1} z(g) (g . a)."""
    A = z.coeff.A
    i = A.index[a]
    left = A.rows[A.inv_index[i]]
    return _from_positions(z.coeff, [A.rows[left[v]][p[i]] for v, p
                                     in zip(z.pos, z.coeff.perm)])


def cohomologous(z1: Cocycle, z2: Cocycle):
    """A witness a with z2 = a^{-1} z1 (g . a), or None."""
    A = z1.coeff.A
    for a in A.elements:
        if twist_cocycle(z1, a).values == z2.values:
            return a
    return None


def h1_enumerate(coeff: CoefficientGroup,
                 budget_gamma=DEFAULT_BUDGET_GAMMA,
                 budget_coeff=DEFAULT_BUDGET_COEFF):
    """All cocycles, partitioned into cohomology classes.

    Returns (class representatives sorted, all cocycles).  Enumeration
    assigns values on a generating sequence and propagates along the Cayley
    graph, then verifies exhaustively.  Twisting is an action of A, so the
    twists of a cocycle are its whole class: each class is twisted once,
    and its key is the least label tuple among them.
    """
    G = coeff.cover
    A = coeff.A
    if len(G) > budget_gamma:
        raise BudgetExceeded("cover group order %d exceeds budget %d"
                             % (len(G), budget_gamma))
    if len(A) > budget_coeff:
        raise BudgetExceeded("coefficient group order %d exceeds budget %d"
                             % (len(A), budget_coeff))
    gens = G.generators()
    cocycles = []
    for assignment in itertools.product(range(len(A)), repeat=len(gens)):
        pos = _propagate(coeff, gens, assignment)
        if pos is None:
            continue
        z = _from_positions(coeff, pos)
        ok, _ = is_cocycle(z)
        if ok:
            cocycles.append(z)
    keys = {}
    classes = {}
    for z in cocycles:
        if tuple(z.pos) not in keys:
            orbit = [twist_cocycle(z, a) for a in A.elements]
            key = min(tuple(w.values.values()) for w in orbit)
            keys.update((tuple(w.pos), key) for w in orbit)
        classes.setdefault(keys[tuple(z.pos)], []).append(z)
    reps = [classes[k][0] for k in sorted(classes)]
    return reps, cocycles


def _propagate(coeff, gens, assignment):
    """Positions z(g) from the values at the generators (all positions),
    or None when the Cayley graph gives a vertex two values."""
    G = coeff.cover
    A = coeff.A
    vals = [None] * len(G)
    vals[G.e] = A.e
    frontier = [G.e]
    while frontier:
        nxt = []
        for g in frontier:
            row, zg, pg = G.rows[g], A.rows[vals[g]], coeff.perm[g]
            for s, x in zip(gens, assignment):
                gs = row[s]
                v = zg[pg[x]]
                if vals[gs] is None:
                    vals[gs] = v
                    nxt.append(gs)
                elif vals[gs] != v:
                    return None
        frontier = nxt
    if None in vals:
        return None
    return vals


# ---------------------------------------------------------------------------
# the (N x M) : Gamma0 setting of the diagonal argument

@dataclass
class DiagonalSetup:
    """Cover (Z/m)^(n+1) : Gamma0 whose last translation coordinate is the
    distinguished copy M; the quotient drops that coordinate."""
    n: int
    m: int
    gamma0: FiniteGroup
    units: dict
    cover: FiniteGroup = field(init=False)
    quotient: FiniteGroup = field(init=False)

    def __post_init__(self):
        self.cover = cover_group(self.n + 1, self.m, self.gamma0, self.units)
        self.quotient = cover_group(self.n, self.m, self.gamma0, self.units)

    def project(self, g):
        t, k = g
        return (t[:-1], k)

    def include(self, q):
        t, k = q
        return (t + (0,), k)

    def m_elements(self):
        return [((0,) * self.n + (j,), self.gamma0.identity)
                for j in range(self.m)]

    def power_map(self, g, d):
        t, k = g
        return (t[:-1] + ((t[-1] * d) % self.m,), k)


def m_acts_trivially(setup: DiagonalSetup, coeff: CoefficientGroup) -> bool:
    for g in setup.m_elements():
        for a in coeff.A.elements:
            if coeff.apply(g, a) != a:
                return False
    return True


def inflate(setup: DiagonalSetup, coeff_q: CoefficientGroup,
            coeff: CoefficientGroup, z_q: Cocycle) -> Cocycle:
    vals = {g: z_q.values[setup.project(g)] for g in coeff.cover.elements}
    return Cocycle(coeff, vals)


def restrict_to_subgroup(coeff: CoefficientGroup, sub_elements,
                         z: Cocycle):
    """Restriction as a cocycle on the subgroup (with the induced action)."""
    sub = FiniteGroup(sub_elements, coeff.cover.mul, "sub", verify=False)
    act = {g: dict(coeff.act[g]) for g in sub.elements}
    sub_coeff = CoefficientGroup(coeff.A, sub, act)
    vals = {g: z.values[g] for g in sub.elements}
    return Cocycle(sub_coeff, vals)


def quotient_coefficients(setup: DiagonalSetup,
                          coeff: CoefficientGroup) -> CoefficientGroup:
    if not m_acts_trivially(setup, coeff):
        raise CocycleError("M must act trivially on the coefficients")
    act = {q: dict(coeff.act[setup.include(q)])
           for q in setup.quotient.elements}
    return CoefficientGroup(coeff.A, setup.quotient, act)


def inf_res_sequence(setup: DiagonalSetup, coeff: CoefficientGroup,
                     budget_gamma=DEFAULT_BUDGET_GAMMA,
                     budget_coeff=DEFAULT_BUDGET_COEFF):
    """Exhaustively verify inflation-restriction exactness.

    Returns a report dict; raises on violated preconditions.
    """
    coeff_q = quotient_coefficients(setup, coeff)
    reps_q, _ = h1_enumerate(coeff_q, budget_gamma, budget_coeff)
    reps, _ = h1_enumerate(coeff, budget_gamma, budget_coeff)
    inflated = [inflate(setup, coeff_q, coeff, z) for z in reps_q]
    # injectivity of inflation on classes
    for i in range(len(inflated)):
        for j in range(i + 1, len(inflated)):
            if cohomologous(inflated[i], inflated[j]) is not None:
                raise CocycleError(
                    "inflation identifies distinct classes %d, %d" % (i, j))
    # image of inflation = kernel of restriction
    m_elems = setup.m_elements()
    kernel = []
    for z in reps:
        rz = restrict_to_subgroup(coeff, m_elems, z)
        triv = trivial_cocycle(rz.coeff)
        if cohomologous(rz, triv) is not None:
            kernel.append(z)
    image_count = 0
    for z in kernel:
        if any(cohomologous(z, w) is not None for w in inflated):
            image_count += 1
    exact = image_count == len(kernel) and len(inflated) <= len(reps)
    if len(kernel) != len(inflated):
        # inflation classes always restrict trivially, so a size mismatch
        # means exactness fails
        exact = False
    return {
        "quotient_classes": len(reps_q),
        "total_classes": len(reps),
        "kernel_of_restriction": len(kernel),
        "inflation_image": len(inflated),
        "exact": exact,
    }


def power_pullback(setup: DiagonalSetup, coeff: CoefficientGroup,
                   z: Cocycle, d: int) -> Cocycle:
    """Precompose the M coordinate with multiplication by d."""
    if not m_acts_trivially(setup, coeff):
        raise CocycleError("M must act trivially for the power pullback")
    vals = {g: z.values[setup.power_map(g, d)]
            for g in coeff.cover.elements}
    out = Cocycle(coeff, vals)
    ok, wit = is_cocycle(out)
    if not ok:
        raise CocycleError("power pullback broke the cocycle identity at %s"
                           % (wit,))
    return out


def twisted_coefficients(coeff: CoefficientGroup,
                         eta: Cocycle) -> CoefficientGroup:
    """Action twisted by eta: g * a = eta(g) (g.a) eta(g)^{-1}."""
    A = coeff.A
    act = {}
    for g in coeff.cover.elements:
        e = eta.values[g]
        ei = A.inv(e)
        act[g] = {a: A.mul(A.mul(e, coeff.apply(g, a)), ei)
                  for a in A.elements}
    return CoefficientGroup(A, coeff.cover, act)


def diagonal_argument(setup: DiagonalSetup, coeff: CoefficientGroup,
                      eta1: Cocycle, eta2: Cocycle):
    """Find the least d <= m such that the eta1-twisted difference class,
    pulled back by the d-th power map on M, is inflated from the quotient.

    Requires: M acts trivially on A; eta1 is independent of the M
    coordinate; eta1 and eta2 agree on the M = 0 copy of the quotient.
    Returns (d, theta) with theta the quotient cocycle i*(xi_d) whose
    inflation is cohomologous to xi_d.
    """
    if not m_acts_trivially(setup, coeff):
        raise CocycleError("M must act trivially on the coefficients")
    for g in coeff.cover.elements:
        if eta1.values[g] != eta1.values[(setup.include(setup.project(g)))]:
            raise CocycleError("eta1 must be independent of the M coordinate")
    sub = [setup.include(q) for q in setup.quotient.elements]
    r1 = restrict_to_subgroup(coeff, sub, eta1)
    r2 = restrict_to_subgroup(coeff, sub, eta2)
    if cohomologous(r1, r2) is None:
        raise CocycleError(
            "eta1 and eta2 do not agree on the diagonal copy")
    A = coeff.A
    tw = twisted_coefficients(coeff, eta1)
    xi_vals = {g: A.mul(eta2.values[g], A.inv(eta1.values[g]))
               for g in coeff.cover.elements}
    xi = Cocycle(tw, xi_vals)
    ok, wit = is_cocycle(xi)
    if not ok:
        raise CocycleError("twisted difference is not a cocycle at %s" % (wit,))
    tw_q = quotient_coefficients(setup, tw)
    m_elems = setup.m_elements()
    for d in range(1, setup.m + 1):
        xi_d = power_pullback(setup, tw, xi, d)
        rz = restrict_to_subgroup(tw, m_elems, xi_d)
        if cohomologous(rz, trivial_cocycle(rz.coeff)) is None:
            continue
        theta = Cocycle(tw_q, {q: xi_d.values[setup.include(q)]
                               for q in setup.quotient.elements})
        ok, _ = is_cocycle(theta)
        if not ok:
            continue
        if cohomologous(inflate(setup, tw_q, tw, theta), xi_d) is not None:
            return d, theta
    raise CocycleError("no power d <= %d trivializes the M restriction"
                       % setup.m)
