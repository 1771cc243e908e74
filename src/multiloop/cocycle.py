"""Finite cover groups (Z/m)^n semidirect a Galois part, nonabelian
1-cocycles, inflation-restriction, and the finite-level diagonal argument.

Everything is exhaustive: group axioms, cocycle identities, and exactness
statements are verified by enumeration within configured budgets, which
``check_budget`` tests on orders alone, before anything is built.  Groups
are integer Cayley tables and every check runs on element positions, but
none is shortened: associativity covers all |G|^3 triples and the action
all |G|^2 * |A| homomorphism conditions.  A cocycle that h1_enumerate
returns is proved by its propagation, which checks the cocycle identity
on every edge g -> gs of the Cayley graph of a generating sequence over
all of G: with z(e) = 1 and an action by automorphisms, induction on word
length gives it on all |G|^2 pairs.  Every cocycle built otherwise (the
CLI discrepancy, the power pullback, the twisted difference and theta of
the diagonal argument) passes ``is_cocycle``, which checks all |G|^2
pairs.

A cover's table is position arithmetic: (t, g) sits at index(t) * |Gamma0|
+ pos(g), with index(t) the base-m reading of t, first coordinate most
significant, and (t1, g1)(t2, g2) = (t1 + u(g1) t2, g1 g2) is read off an
addition table of (Z/m)^n, one scaling table per unit u and Gamma0's table.
The labels (t, g) serve display and serialization.  A subgroup (the
quotient of a DiagonalSetup as the M = 0 copy in its cover, the subgroups
of restrict_to_subgroup) is cut from a checked table: its closure is
checked, and it inherits associativity, its product being the ambient one.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd


class CocycleError(ValueError):
    pass


class BudgetExceeded(CocycleError):
    pass


DEFAULT_BUDGET_GAMMA = 96
DEFAULT_BUDGET_COEFF = 24


def check_budget(group_order, coeff_order, budget_gamma=DEFAULT_BUDGET_GAMMA,
                 budget_coeff=DEFAULT_BUDGET_COEFF):
    """Refuse an enumeration over a group of ``group_order`` elements with
    ``coeff_order`` coefficients when either is over budget, group first."""
    if group_order > budget_gamma:
        raise BudgetExceeded("cover group order %d exceeds budget %d"
                             % (group_order, budget_gamma))
    if coeff_order > budget_coeff:
        raise BudgetExceeded("coefficient group order %d exceeds budget %d"
                             % (coeff_order, budget_coeff))


class FiniteGroup:
    """Explicit finite group on hashable labels with verified axioms.

    The product is an integer Cayley table: ``rows[i][j]`` is the position
    of ``elements[i] * elements[j]``; ``e`` is the identity's position and
    ``inv_index`` maps each position to its inverse's.  The table is read
    from ``mult_fn`` on the labels or given as ``rows``.
    """

    def __init__(self, elements, mult_fn=None, name="G", verify=True,
                 rows=None):
        self.elements = list(elements)
        self.name = name
        n = len(self.elements)
        if rows is None:
            rows = [[self.index.get(mult_fn(a, b)) for b in self.elements]
                    for a in self.elements]
        if len(rows) != n or any(len(row) != n for row in rows) or \
                not set().union(*rows) <= set(range(n)):
            raise CocycleError("%s is not closed under product" % name)
        self.rows = rows
        self.e = self._find_identity()
        self.identity = self.elements[self.e]
        self.inv_index = self._find_inverses()
        if verify:
            self._verify_associativity()

    @cached_property
    def index(self):
        return {g: i for i, g in enumerate(self.elements)}

    def _find_identity(self):
        rows = self.rows
        for e in range(len(rows)):
            if rows[e] == list(range(len(rows))) and \
                    all(row[e] == g for g, row in enumerate(rows)):
                return e
        raise CocycleError("%s has no identity" % self.name)

    def _find_inverses(self):
        rows, e = self.rows, self.e
        inv = [next((h for h, gh in enumerate(row)
                     if gh == e and rows[h][g] == e), None)
               for g, row in enumerate(rows)]
        if None in inv:
            raise CocycleError("%s: no inverse for %s"
                               % (self.name, self.elements[inv.index(None)]))
        return inv

    def _verify_associativity(self):
        """(ab)c = a(bc) on every triple.  Up to 256 elements a position is
        a byte, and for each a all (ab)c are compared with all a(bc) at
        once, the whole table translated through the row of a; beyond,
        one b at a time."""
        rows = self.rows
        table = [bytes(row) for row in rows] if len(rows) <= 256 else None
        flat = b"".join(table or ())
        for a, ra in enumerate(rows):
            if table:
                ok = b"".join(map(table.__getitem__, ra)) == \
                    flat.translate(bytes(ra).ljust(256, b"\0"))
            else:
                ok = all(rows[ab] == list(map(ra.__getitem__, rows[b]))
                         for b, ab in enumerate(ra))
            if not ok:
                b, c = next((b, c) for b, ab in enumerate(ra)
                            for c, bc in enumerate(rows[b])
                            if rows[ab][c] != ra[bc])
                el = self.elements
                raise CocycleError("%s: associativity fails at %s,%s,%s"
                                   % (self.name, el[a], el[b], el[c]))

    def restrict(self, positions, name="sub", elements=None):
        """The subgroup on ``positions``, labelled by ``elements`` or its
        labels here; closure is checked and associativity inherited."""
        back = {p: i for i, p in enumerate(positions)}
        rows = [list(map(back.get, map(self.rows[p].__getitem__, positions)))
                for p in positions]
        if elements is None:
            elements = map(self.elements.__getitem__, positions)
        return FiniteGroup(elements, name=name, verify=False, rows=rows)

    def mul(self, a, b):
        return self.elements[self.rows[self.index[a]][self.index[b]]]

    def inv(self, a):
        return self.elements[self.inv_index[self.index[a]]]

    def __len__(self):
        return len(self.elements)

    def generators(self):
        """A greedy small generating sequence, as positions: each position
        outside the span of the earlier ones."""
        gens, span = [], {self.e}
        for g in range(len(self.rows)):
            if g not in span:
                gens.append(g)
                new = span
                while new:
                    new = {self.rows[a][s] for a in new for s in gens} - span
                    span |= new
        return gens

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
    the unit units[gamma] of Z/m, its table built by position arithmetic."""
    given = dict(units)
    unit = [given.get(g, 1) % m for g in gamma0.elements]
    if m > 1:
        for u in unit:
            if gcd(u, m) != 1:
                raise CocycleError("action unit %d is not invertible mod %d"
                                   % (u, m))
        if any(unit[ab] != unit[a] * unit[b] % m
               for a, row in enumerate(gamma0.rows)
               for b, ab in enumerate(row)):
            raise CocycleError("unit action is not a homomorphism")
    # add[i][j] = index(t_i + t_j), scale[u][j] = index(u t_j), grown one
    # least significant coordinate at a time
    shift = [[(a + b) % m for b in range(m)] for a in range(m)]
    add, scale = [[0]], {u: [0] for u in unit}
    for _ in range(n):
        add = [[s * m + c for s in row for c in shift[a]]
               for row in add for a in range(m)]
        scale = {u: [s * m + u * b % m for s in sc for b in range(m)]
                 for u, sc in scale.items()}
    k = len(gamma0)
    rows = [[add_t[s] * k + h for s in scale[unit[g]] for h in grow]
            for add_t in add for g, grow in enumerate(gamma0.rows)]
    elems = [(t, g) for t in itertools.product(range(m), repeat=n)
             for g in gamma0.elements]
    return FiniteGroup(elems, name="(Z/%d)^%d:%s" % (m, n, gamma0.name),
                       rows=rows)


class CoefficientGroup:
    """A finite group with an action of a cover group by automorphisms.

    ``perm[g][a]`` is the position of g . a for positions g of the cover and
    a of A, given directly or read from ``act``, a dict from cover labels to
    dicts of A labels.
    """

    def __init__(self, A: FiniteGroup, cover: FiniteGroup, act=None,
                 perm=None):
        self.A, self.cover = A, cover
        if perm is None:
            perm = [[A.index[act[g][a]] for a in A.elements]
                    for g in cover.elements]
        self.perm = perm
        # the conditions depend on permutations only: each distinct one is
        # checked and composed once, and ids[g] names the one of g
        distinct = {}
        ids = [distinct.setdefault(tuple(p), len(distinct)) for p in perm]
        for p, i in distinct.items():
            if any(list(map(p.__getitem__, row)) !=
                   list(map(A.rows[p[a]].__getitem__, p))
                   for a, row in enumerate(A.rows)):
                raise CocycleError("action of %s is not an automorphism"
                                   % (cover.elements[ids.index(i)],))
        if list(perm[cover.e]) != list(range(len(A))):
            raise CocycleError("identity does not act trivially")
        compose = [[distinct.get(tuple([p[x] for x in q])) for q in distinct]
                   for p in distinct]
        for g, row in enumerate(cover.rows):
            want = list(map(compose[ids[g]].__getitem__, ids))
            got = list(map(ids.__getitem__, row))
            if got != want:
                h = next(h for h, x in enumerate(got) if x != want[h])
                raise CocycleError("action is not a homomorphism at %s,%s"
                                   % (cover.elements[g], cover.elements[h]))

    def apply(self, g, a):
        A = self.A
        return A.elements[self.perm[self.cover.index[g]][A.index[a]]]


def trivial_action(cover: FiniteGroup, A: FiniteGroup) -> CoefficientGroup:
    return CoefficientGroup(A, cover, perm=[list(range(len(A)))] * len(cover))


def galois_action(cover: FiniteGroup, A: FiniteGroup,
                  gamma0_act) -> CoefficientGroup:
    """Translations act trivially; the Galois part acts through gamma0_act,
    a map from gamma0 elements to permutations of A."""
    perms = {g: [A.index[act[a]] for a in A.elements]
             for g, act in gamma0_act.items()}
    return CoefficientGroup(A, cover,
                            perm=[perms[g] for _, g in cover.elements])


class Cocycle:
    """A map z from the cover to A: ``pos[g]`` is the A-position of z(g) at
    the cover position g, given directly or read from ``values``, a dict of
    labels, which is otherwise made on demand.  Neither changes once made.
    """

    def __init__(self, coeff: CoefficientGroup, values=None, pos=None):
        self.coeff = coeff
        self.pos = pos if pos is not None else \
            [coeff.A.index[values[g]] for g in coeff.cover.elements]

    @cached_property
    def values(self):
        labels = map(self.coeff.A.elements.__getitem__, self.pos)
        return dict(zip(self.coeff.cover.elements, labels))

    def serialize(self):
        return "\n".join(["cocycle"] + ["  %s -> %s" % ga
                                        for ga in self.values.items()])


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
    return Cocycle(coeff, pos=[coeff.A.e] * len(coeff.cover))


def twist_cocycle(z: Cocycle, a) -> Cocycle:
    """The cohomologous cocycle g -> a^{-1} z(g) (g . a)."""
    A = z.coeff.A
    i = A.index[a]
    left = A.rows[A.inv_index[i]]
    return Cocycle(z.coeff, pos=[A.rows[left[v]][p[i]] for v, p
                                 in zip(z.pos, z.coeff.perm)])


def _class_orbit(z: Cocycle):
    """(class_key(z), the position tuples of all twists of z)."""
    A = z.coeff.A
    rank = [0] * len(A)
    for r, a in enumerate(sorted(range(len(A)), key=A.elements.__getitem__)):
        rank[a] = r
    orbit = [tuple(twist_cocycle(z, a).pos) for a in A.elements]
    return min(tuple([rank[x] for x in w]) for w in orbit), orbit


def class_key(z: Cocycle):
    """The key of the cohomology class of z: the least tuple of label ranks
    among its twists.  The twists of z are its whole class, so two maps
    over the same coefficients have equal keys exactly when they are
    cohomologous."""
    return _class_orbit(z)[0]


def cohomologous(z1: Cocycle, z2: Cocycle):
    """A witness a with z2 = a^{-1} z1 (g . a), or None; both cocycles list
    the same cover elements and take values in the same A."""
    for a in z1.coeff.A.elements:
        if twist_cocycle(z1, a).pos == z2.pos:
            return a
    return None


def h1_enumerate(coeff: CoefficientGroup,
                 budget_gamma=DEFAULT_BUDGET_GAMMA,
                 budget_coeff=DEFAULT_BUDGET_COEFF):
    """All cocycles, partitioned into cohomology classes.

    Returns (class representatives sorted by class_key, all cocycles).
    Values on a generating sequence are assigned depth first, in
    itertools.product order; a prefix survives if it propagates
    consistently over the span of its generators, as every restriction of
    a cocycle does.  A full assignment that propagates over all of G is a
    cocycle: propagation has checked z(gs) = z(g) (g . z(s)) on every
    Cayley edge, and with z(e) = 1 and an action by automorphisms that
    gives z(gh) = z(g) (g . z(h)) on all pairs, by induction on the length
    of h as a word in the generators.  Each class is twisted once, for its
    key and its members.
    """
    G = coeff.cover
    A = coeff.A
    check_budget(len(G), len(A), budget_gamma, budget_coeff)
    gens = G.generators()
    cocycles = []
    # the values of the empty prefix are used only when G is trivial
    stack = [((), [A.e] * len(G))]
    while stack:
        prefix, pos = stack.pop()
        if len(prefix) == len(gens):
            if None in pos:
                raise CocycleError("generators of %s do not span it"
                                   % G.name)
            cocycles.append(Cocycle(coeff, pos=pos))
            continue
        for x in reversed(range(len(A))):      # x = 0 is popped first
            longer = prefix + (x,)
            pos = _propagate(coeff, gens, longer)
            if pos is not None:
                stack.append((longer, pos))
    keys = {}
    classes = {}
    for z in cocycles:
        if tuple(z.pos) not in keys:
            key, orbit = _class_orbit(z)
            keys.update((w, key) for w in orbit)
        classes.setdefault(keys[tuple(z.pos)], []).append(z)
    reps = [classes[k][0] for k in sorted(classes)]
    return reps, cocycles


def _propagate(coeff, gens, assignment):
    """Positions z(g) over the subgroup spanned by the first
    len(assignment) generators, from their values (None elsewhere), or
    None when the Cayley graph gives a vertex two values."""
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
    return vals


# ---------------------------------------------------------------------------
# the (N x M) : Gamma0 setting of the diagonal argument

class DiagonalSetup:
    """Cover (Z/m)^(n+1) : Gamma0 whose last translation coordinate is the
    distinguished copy M; the quotient drops that coordinate.

    Only the cover is built; the quotient is its M = 0 copy, restricted.
    Position (i * m + j) * |Gamma0| + g is translation index i * m + j (j
    in M) with Galois position g; ``sub[q]`` is the cover position of the
    quotient position q, ``proj[x]`` the reverse, ``m_pos`` those of M.
    """

    def __init__(self, n: int, m: int, gamma0: FiniteGroup, units: dict):
        self.n, self.m, self.gamma0, self.units = n, m, gamma0, units
        self.cover = cover_group(n + 1, m, gamma0, units)
        k = len(gamma0)
        self.sub = [q // k * m * k + q % k
                    for q in range(len(self.cover) // m)]
        self.proj = [x // (m * k) * k + x % k for x in range(len(self.cover))]
        self.m_pos = [j * k + gamma0.e for j in range(m)]
        self.quotient = self.cover.restrict(
            self.sub, "(Z/%d)^%d:%s" % (m, n, gamma0.name),
            [self.project(self.cover.elements[x]) for x in self.sub])

    def project(self, g):
        t, k = g
        return (t[:-1], k)

    def include(self, q):
        t, k = q
        return (t + (0,), k)

    def power_positions(self, d):
        """Each cover position with its M coordinate multiplied by d."""
        m, k = self.m, len(self.gamma0)
        return [x + (x // k % m * d % m - x // k % m) * k
                for x in range(len(self.cover))]


def m_acts_trivially(setup: DiagonalSetup, coeff: CoefficientGroup) -> bool:
    ident = list(range(len(coeff.A)))
    return all(coeff.perm[x] == ident for x in setup.m_pos)


def inflate(setup: DiagonalSetup, coeff_q: CoefficientGroup,
            coeff: CoefficientGroup, z_q: Cocycle) -> Cocycle:
    return Cocycle(coeff, pos=list(map(z_q.pos.__getitem__, setup.proj)))


def _restricted_coefficients(coeff: CoefficientGroup, positions):
    """The coefficients over the subgroup at positions, with the induced
    action; its closure and action are checked."""
    perm = list(map(coeff.perm.__getitem__, positions))
    return CoefficientGroup(coeff.A, coeff.cover.restrict(positions),
                            perm=perm)


def _restrict(sub_coeff: CoefficientGroup, positions, z: Cocycle):
    return Cocycle(sub_coeff, pos=list(map(z.pos.__getitem__, positions)))


def _trivial_on(sub_coeff: CoefficientGroup, positions, z: Cocycle) -> bool:
    """Whether z restricts to a coboundary on the subgroup at positions,
    sub_coeff being the coefficients restricted there."""
    rz = _restrict(sub_coeff, positions, z)
    return cohomologous(rz, trivial_cocycle(sub_coeff)) is not None


def restrict_to_subgroup(coeff: CoefficientGroup, sub_elements,
                         z: Cocycle):
    """Restriction as a cocycle on the subgroup (with the induced action)."""
    positions = [coeff.cover.index[g] for g in sub_elements]
    return _restrict(_restricted_coefficients(coeff, positions), positions, z)


def quotient_coefficients(setup: DiagonalSetup,
                          coeff: CoefficientGroup) -> CoefficientGroup:
    if not m_acts_trivially(setup, coeff):
        raise CocycleError("M must act trivially on the coefficients")
    return CoefficientGroup(coeff.A, setup.quotient,
                            perm=list(map(coeff.perm.__getitem__, setup.sub)))


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
    # injectivity of inflation on classes: the first pair (i, j) in
    # lexicographic order with equal class keys
    seen = {}
    for j, key in enumerate(map(class_key, inflated)):
        seen.setdefault(key, []).append(j)
    clash = min((js[:2] for js in seen.values() if len(js) > 1),
                default=None)
    if clash:
        raise CocycleError(
            "inflation identifies distinct classes %d, %d" % tuple(clash))
    # image of inflation = kernel of restriction; inflation classes always
    # restrict trivially, so a size mismatch means exactness fails
    m_coeff = _restricted_coefficients(coeff, setup.m_pos)
    kernel = [z for z in reps if _trivial_on(m_coeff, setup.m_pos, z)]
    image_count = sum(class_key(z) in seen for z in kernel)
    exact = image_count == len(kernel) == len(inflated) <= len(reps)
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
    out = Cocycle(coeff, pos=list(map(z.pos.__getitem__,
                                      setup.power_positions(d))))
    ok, wit = is_cocycle(out)
    if not ok:
        raise CocycleError("power pullback broke the cocycle identity at %s"
                           % (wit,))
    return out


def twisted_coefficients(coeff: CoefficientGroup,
                         eta: Cocycle) -> CoefficientGroup:
    """Action twisted by eta: g * a = eta(g) (g.a) eta(g)^{-1}."""
    A = coeff.A
    return CoefficientGroup(A, coeff.cover, perm=[
        [A.rows[A.rows[e][x]][A.inv_index[e]] for x in p]
        for e, p in zip(eta.pos, coeff.perm)])


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
    e1 = eta1.pos
    if e1 != [e1[setup.sub[q]] for q in setup.proj]:
        raise CocycleError("eta1 must be independent of the M coordinate")
    sub_coeff = _restricted_coefficients(coeff, setup.sub)
    r1 = _restrict(sub_coeff, setup.sub, eta1)
    r2 = _restrict(sub_coeff, setup.sub, eta2)
    if cohomologous(r1, r2) is None:
        raise CocycleError(
            "eta1 and eta2 do not agree on the diagonal copy")
    A = coeff.A
    tw = twisted_coefficients(coeff, eta1)
    xi = Cocycle(tw, pos=[A.rows[b][A.inv_index[a]]
                          for a, b in zip(e1, eta2.pos)])
    ok, wit = is_cocycle(xi)
    if not ok:
        raise CocycleError("twisted difference is not a cocycle at %s" % (wit,))
    tw_q = quotient_coefficients(setup, tw)
    m_coeff = _restricted_coefficients(tw, setup.m_pos)
    for d in range(1, setup.m + 1):
        xi_d = power_pullback(setup, tw, xi, d)
        if not _trivial_on(m_coeff, setup.m_pos, xi_d):
            continue
        theta = Cocycle(tw_q, pos=list(map(xi_d.pos.__getitem__, setup.sub)))
        ok, _ = is_cocycle(theta)
        if not ok:
            continue
        if cohomologous(inflate(setup, tw_q, tw, theta), xi_d) is not None:
            return d, theta
    raise CocycleError("no power d <= %d trivializes the M restriction"
                       % setup.m)
