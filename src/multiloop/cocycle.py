"""Finite cover groups (Z/m)^n semidirect a Galois part, nonabelian
1-cocycles, inflation-restriction, and the finite-level diagonal argument.

Everything is proved completely: group axioms, cocycle identities, and
exactness statements are decided by enumeration within configured
budgets, which ``check_budget`` tests on orders alone, before anything is
built.  Groups are integer Cayley tables and every check runs on element
positions.  Associativity is proved by Light's test on the group's one
generating sequence S, (x s) y = x (s y) for every s in S and all x, y:
the elements that pass are closed under products, so they are all of G
(FiniteGroup._verify_associativity).  The action is checked on all
|G|^2 * |A| homomorphism conditions.  A cocycle that h1_enumerate returns
is proved by its propagation, which runs level by level over the edges of
FiniteGroup.cayley_levels: each value for a generator s_k runs only the
edges level k adds, and across the levels every edge g -> gs of the
Cayley graph of S over G is checked exactly once.  With z(e) = 1 and an
action by automorphisms, induction on word length gives the cocycle
identity on all |G|^2 pairs.  The twisted difference xi of the diagonal
argument passes ``is_cocycle``, which checks all |G|^2 pairs.  M acts
trivially, so xi is a homomorphism on M = Z/m, and the power d the
argument returns is the order of xi(m1), m1 the generator of M.

A cover's table is position arithmetic: (t, g) sits at index(t) * |Gamma0|
+ pos(g), with index(t) the base-m reading of t, first coordinate most
significant, and (t1, g1)(t2, g2) = (t1 + u(g1) t2, g1 g2) is read off an
addition table of (Z/m)^n, one scaling table per unit u and Gamma0's table.
The labels (t, g) serve display and serialization.  Each cover is built and
proved once per process: ``cover_group`` keeps one proved group per key,
keyed by value (n, m, Gamma0's name, elements and table, and the units
reduced mod m), checks the units on every call, and stores no group that
fails a check.  Its generators and Cayley levels are cached on it, so
they too are computed once per key.  Budgets are checked on orders before
any lookup.

The quotient of a DiagonalSetup is the n-cover, which ``cover_group``
keeps like any other, so it is proved once per key with its Cayley
levels.  It is the M = 0 copy of the (n + 1)-cover, and cocycles restrict
to it by ``restrict_to_quotient``.

Cohomology classes are compared by one key, ``Cocycle.key``.  A class
is restricted to M only where M acts trivially, which ``trivial_on_m``
checks; then every coboundary on M is 1, so the restriction is trivial
exactly when z is 1 on M (Serre, Galois Cohomology, I.5.8, gives the
exactness of inflation-restriction).
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
    from ``mult_fn`` on the labels or given as ``rows``.  Closure, the
    identity and the inverses are checked on the whole table, and
    associativity by Light's test on ``generators``, a complete proof.
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
        """Each row's e gives the inverse h of g, which must also have
        h g = e; the first element without one is named."""
        rows, e = self.rows, self.e
        inv = [row.index(e) if e in row else None for row in rows]
        for g, h in enumerate(inv):
            if h is None or rows[h][g] != e:
                raise CocycleError("%s: no inverse for %s"
                                   % (self.name, self.elements[g]))
        return inv

    def _verify_associativity(self):
        """Light's test on the generating sequence S: (x s) y = x (s y) for
        every s in S and all x, y.  The s that pass form a set that contains
        e and is closed under products: for passing a and b,
        (x (ab)) y = ((xa) b) y = (xa) (by) = x (a (by)) = x ((ab) y).  Every
        element is a product of S, so the set is G, and (ab)c = a(bc) holds
        on all triples.  Only on failure are the rows scanned in order, to
        name the first failing triple (a, b, c)."""
        rows = self.rows
        if all(rows[rx[s]] == list(map(rx.__getitem__, rows[s]))
               for s in self.generators for rx in rows):
            return
        for a, ra in enumerate(rows):
            for b, ab in enumerate(ra):
                if rows[ab] != list(map(ra.__getitem__, rows[b])):
                    c = next(c for c, bc in enumerate(rows[b])
                             if rows[ab][c] != ra[bc])
                    el = self.elements
                    raise CocycleError("%s: associativity fails at %s,%s,%s"
                                       % (self.name, el[a], el[b], el[c]))

    def mul(self, a, b):
        return self.elements[self.rows[self.index[a]][self.index[b]]]

    def inv(self, a):
        return self.elements[self.inv_index[self.index[a]]]

    def __len__(self):
        return len(self.elements)

    @cached_property
    def generators(self):
        """The group's one generating sequence, as positions: each position
        outside the span of the earlier ones, spanned from e by right
        multiplication, so every element is e s1 ... sk, multiplied left to
        right, for some s1, ..., sk in it.  s_k is the end of the first
        edge of level k of cayley_levels, e -> s_k."""
        return [level[0][2] for level in self.cayley_levels]

    @cached_property
    def cayley_levels(self):
        """The Cayley edges g -> g s_j of the generating sequence
        S = (s_0, s_1, ...), one level per generator, each edge in exactly
        one level.

        ``cayley_levels[k]`` lists edges (g, j, g s_j, first) in BFS order:
        the edges g -> g s_k from every g in H, the span of s_0, ...,
        s_(k-1), then the edges g -> g s_j, j <= k, from every element new
        at level k.  An edge is ``first`` when its end is reached by no
        earlier level and no earlier edge of its own; every other edge
        closes a cycle.  H is a subgroup and s_k is outside it, so the
        edges from H reach the coset H s_k, all of them first.  The levels
        up to k hold every edge from span(s_0, ..., s_k) with j <= k, and
        no level repeats an edge of an earlier one: over all levels, each
        of the |G| |S| edges appears once."""
        rows = self.rows
        gens, span, seen, levels = [], [self.e], {self.e}, []
        for s in range(len(rows)):
            if s in seen:
                continue
            k = len(gens)
            gens.append(s)
            edges = [(g, k, rows[g][s], True) for g in span]
            new = [gs for _, _, gs, _ in edges]
            seen.update(new)
            for g in new:              # grows while it is read
                row = rows[g]
                for j in range(k + 1):
                    gs = row[gens[j]]
                    first = gs not in seen
                    if first:
                        seen.add(gs)
                        new.append(gs)
                    edges.append((g, j, gs, first))
            span += new
            levels.append(edges)
        return levels


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


# the proved covers of this process, by the value of their key
_COVERS = {}


def cover_group(n: int, m: int, gamma0: FiniteGroup, units) -> FiniteGroup:
    """(Z/m)^n semidirect gamma0, with gamma0 acting coordinatewise through
    the unit units[gamma] of Z/m (1 where none is given), its table built by
    position arithmetic.

    The units are checked on every call: each key must be an element of
    gamma0, each unit invertible mod m, and the action a homomorphism.
    One proved cover is kept per key for the life of the process and
    returned to every later call with an equal key.  The key is a value,
    not an object: n, m, gamma0's name, elements and rows, and the units
    reduced mod m, so two fresh copies of one gamma0 share an entry, as do
    the units m - 1 and -1.  A cover that fails a check is never stored.
    Budgets are checked on orders alone, by the callers and h1_enumerate,
    before any lookup."""
    given = dict(units)
    for g in given:
        if g not in gamma0.index:
            raise CocycleError("action unit key %r is no element of %s"
                               % (g, gamma0.name))
    unit = tuple(given.get(g, 1) % m for g in gamma0.elements)
    if m > 1:
        for u in unit:
            if gcd(u, m) != 1:
                raise CocycleError("action unit %d is not invertible mod %d"
                                   % (u, m))
        if any(unit[ab] != unit[a] * unit[b] % m
               for a, row in enumerate(gamma0.rows)
               for b, ab in enumerate(row)):
            raise CocycleError("unit action is not a homomorphism")
    key = (n, m, gamma0.name, tuple(gamma0.elements),
           tuple(map(tuple, gamma0.rows)), unit)
    if key in _COVERS:
        return _COVERS[key]
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
    cover = _COVERS[key] = FiniteGroup(
        elems, name="(Z/%d)^%d:%s" % (m, n, gamma0.name), rows=rows)
    return cover


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
    labels, which is otherwise made on demand.  Neither changes once made,
    and neither does ``key``, the class key, which h1_enumerate sets on the
    cocycles it returns and is computed on demand for any other.
    """

    def __init__(self, coeff: CoefficientGroup, values=None, pos=None):
        self.coeff = coeff
        self.pos = pos if pos is not None else \
            [coeff.A.index[values[g]] for g in coeff.cover.elements]

    @cached_property
    def values(self):
        labels = map(self.coeff.A.elements.__getitem__, self.pos)
        return dict(zip(self.coeff.cover.elements, labels))

    @cached_property
    def key(self):
        """The key of the cohomology class of z: the least tuple of label
        ranks among its twists.  The twists of z are its whole class, so two
        maps over the same coefficients have equal keys exactly when they
        are cohomologous.  This is the one test of cohomology classes."""
        return _class_orbit(self)[0]


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
    """(z.key, the position tuples of all twists of z)."""
    A = z.coeff.A
    rank = [0] * len(A)
    for r, a in enumerate(sorted(range(len(A)), key=A.elements.__getitem__)):
        rank[a] = r
    orbit = [tuple(twist_cocycle(z, a).pos) for a in A.elements]
    return min(tuple([rank[x] for x in w]) for w in orbit), orbit


def h1_enumerate(coeff: CoefficientGroup,
                 budget_gamma=DEFAULT_BUDGET_GAMMA,
                 budget_coeff=DEFAULT_BUDGET_COEFF):
    """All cocycles, partitioned into cohomology classes.

    Returns (class representatives sorted by key, all cocycles).
    Values on G.generators are assigned depth first, in itertools.product
    order.  A prefix of k values carries z over span(s_0, ..., s_(k-1)),
    and a candidate value x for s_k extends it by the Cayley edges of
    level k (FiniteGroup.cayley_levels) alone: the edges of the earlier
    levels were checked when the prefix was.  A candidate survives if every
    closing edge of its level agrees, as every restriction of a cocycle
    does.  Across the levels each edge g -> gs of the Cayley graph of S
    over G is checked exactly once, so a full assignment that survives has
    z(gs) = z(g) (g . z(s)) on every Cayley edge, and with z(e) = 1 and an
    action by automorphisms that gives z(gh) = z(g) (g . z(h)) on all
    pairs, by induction on the length of h as a word in the generators.
    Each class is twisted once, for its key and its members, and every
    returned cocycle carries its key.
    """
    G = coeff.cover
    A = coeff.A
    check_budget(len(G), len(A), budget_gamma, budget_coeff)
    levels = G.cayley_levels
    cocycles = []
    # the empty prefix knows z(e) = 1 only, all of z when G is trivial
    start = [None] * len(G)
    start[G.e] = A.e
    stack = [((), start)]
    while stack:
        prefix, vals = stack.pop()
        if len(prefix) == len(levels):
            cocycles.append(Cocycle(coeff, pos=vals))
            continue
        edges = levels[len(prefix)]
        for x in reversed(range(len(A))):      # x = 0 is popped first
            longer = prefix + (x,)
            pos = _propagate(coeff, edges, longer, vals)
            if pos is not None:
                stack.append((longer, pos))
    keys = {}
    classes = {}
    for z in cocycles:
        if tuple(z.pos) not in keys:
            key, orbit = _class_orbit(z)
            keys.update((w, key) for w in orbit)
        z.key = keys[tuple(z.pos)]
        classes.setdefault(z.key, []).append(z)
    reps = [classes[k][0] for k in sorted(classes)]
    return reps, cocycles


def _propagate(coeff, edges, assignment, parent):
    """The positions of z over the span of the first len(assignment)
    generators (None elsewhere): parent, z over the span of one fewer,
    copied and extended by edges, the level of the last generator.  A
    first edge g -> g s_j sets z(g s_j) = z(g) (g . z(s_j)) and a closing
    edge checks it; None at the first closing edge that disagrees."""
    vals = parent[:]
    rows = coeff.A.rows
    perm = coeff.perm
    for g, j, gs, first in edges:
        v = rows[vals[g]][perm[g][assignment[j]]]
        if first:
            vals[gs] = v
        elif vals[gs] != v:
            return None
    return vals


# ---------------------------------------------------------------------------
# the (N x M) : Gamma0 setting of the diagonal argument

class DiagonalSetup:
    """Cover (Z/m)^(n+1) : Gamma0 whose last translation coordinate is the
    distinguished copy M, and the quotient (Z/m)^n : Gamma0, both from
    cover_group, which builds and proves each key once per process.
    Position (i * m + j) * |Gamma0| + g is translation index i * m + j (j
    in M) with Galois position g; ``sub[q]`` is the cover position of the
    quotient position q, in the M = 0 copy, ``proj[x]`` the reverse,
    ``m_pos`` those of M.
    """

    def __init__(self, n: int, m: int, gamma0: FiniteGroup, units: dict):
        self.m, self.gamma0 = m, gamma0
        self.cover = cover_group(n + 1, m, gamma0, units)
        self.quotient = cover_group(n, m, gamma0, units)
        k = len(gamma0)
        self.sub = [q // k * m * k + q % k
                    for q in range(len(self.cover) // m)]
        self.proj = [x // (m * k) * k + x % k for x in range(len(self.cover))]
        self.m_pos = [j * k + gamma0.e for j in range(m)]


def m_acts_trivially(setup: DiagonalSetup, coeff: CoefficientGroup) -> bool:
    ident = list(range(len(coeff.A)))
    return all(coeff.perm[x] == ident for x in setup.m_pos)


def trivial_on_m(setup: DiagonalSetup, z: Cocycle) -> bool:
    """Whether z restricts to the trivial class of H^1(M, A).  M must act
    trivially, and then every coboundary on M is 1: the class is trivial
    exactly when z is 1 on M."""
    if not m_acts_trivially(setup, z.coeff):
        raise CocycleError("M must act trivially on the coefficients")
    e = z.coeff.A.e
    return all(z.pos[x] == e for x in setup.m_pos)


def inflate(setup: DiagonalSetup, coeff: CoefficientGroup,
            z_q: Cocycle) -> Cocycle:
    return Cocycle(coeff, pos=list(map(z_q.pos.__getitem__, setup.proj)))


def quotient_coefficients(setup: DiagonalSetup,
                          coeff: CoefficientGroup) -> CoefficientGroup:
    if not m_acts_trivially(setup, coeff):
        raise CocycleError("M must act trivially on the coefficients")
    return CoefficientGroup(coeff.A, setup.quotient,
                            perm=list(map(coeff.perm.__getitem__, setup.sub)))


def restrict_to_quotient(setup: DiagonalSetup, coeff_q: CoefficientGroup,
                         z: Cocycle) -> Cocycle:
    """z restricted to the M = 0 copy of the quotient, over coeff_q, the
    quotient_coefficients of z's."""
    return Cocycle(coeff_q, pos=list(map(z.pos.__getitem__, setup.sub)))


def inf_res_sequence(setup: DiagonalSetup, coeff: CoefficientGroup,
                     budget_gamma=DEFAULT_BUDGET_GAMMA,
                     budget_coeff=DEFAULT_BUDGET_COEFF):
    """Exhaustively verify inflation-restriction exactness.

    Returns a report dict; raises on violated preconditions.
    """
    coeff_q = quotient_coefficients(setup, coeff)
    reps_q, _ = h1_enumerate(coeff_q, budget_gamma, budget_coeff)
    reps, cocycles = h1_enumerate(coeff, budget_gamma, budget_coeff)
    # an inflation is a cocycle of the cover: its key is looked up among
    # those the enumeration of the cover has set
    keys = {tuple(z.pos): z.key for z in cocycles}
    inflated = [keys[tuple(inflate(setup, coeff, z).pos)] for z in reps_q]
    # injectivity of inflation on classes: the first pair (i, j) in
    # lexicographic order with equal class keys
    seen = {}
    for j, key in enumerate(inflated):
        seen.setdefault(key, []).append(j)
    clash = min((js[:2] for js in seen.values() if len(js) > 1),
                default=None)
    if clash:
        raise CocycleError(
            "inflation identifies distinct classes %d, %d" % tuple(clash))
    # image of inflation = kernel of restriction; inflation classes always
    # restrict trivially, so a size mismatch means exactness fails
    kernel = [z for z in reps if trivial_on_m(setup, z)]
    image_count = sum(z.key in seen for z in kernel)
    exact = image_count == len(kernel) == len(inflated) <= len(reps)
    return {
        "quotient_classes": len(reps_q),
        "total_classes": len(reps),
        "kernel_of_restriction": len(kernel),
        "inflation_image": len(inflated),
        "exact": exact,
    }


def twisted_coefficients(coeff: CoefficientGroup,
                         eta: Cocycle) -> CoefficientGroup:
    """Action twisted by eta: g * a = eta(g) (g.a) eta(g)^{-1}."""
    A = coeff.A
    return CoefficientGroup(A, coeff.cover, perm=[
        [A.rows[A.rows[e][x]][A.inv_index[e]] for x in p]
        for e, p in zip(eta.pos, coeff.perm)])


def diagonal_argument(setup: DiagonalSetup, coeff: CoefficientGroup,
                      eta1: Cocycle, eta2: Cocycle):
    """The least d such that the eta1-twisted difference class, pulled back
    by the d-th power map p_d on M, is inflated from the quotient.

    Requires: M acts trivially on A; eta1 is independent of the M
    coordinate; eta1 and eta2 agree on the M = 0 copy of the quotient.
    Returns d.  The twisted difference xi is a cocycle (checked), and M
    acts trivially under the twisted action too, so xi is a homomorphism
    on M = Z/m, and xi_d = xi o p_d is 1 on M exactly when d is a multiple
    of the order of xi(m1): d is that order.
    """
    coeff_q = quotient_coefficients(setup, coeff)
    e1 = eta1.pos
    if e1 != [e1[setup.sub[q]] for q in setup.proj]:
        raise CocycleError("eta1 must be independent of the M coordinate")
    if restrict_to_quotient(setup, coeff_q, eta1).key != \
            restrict_to_quotient(setup, coeff_q, eta2).key:
        raise CocycleError(
            "eta1 and eta2 do not agree on the diagonal copy")
    A = coeff.A
    tw = twisted_coefficients(coeff, eta1)
    xi = Cocycle(tw, pos=[A.rows[b][A.inv_index[a]]
                          for a, b in zip(e1, eta2.pos)])
    ok, wit = is_cocycle(xi)
    if not ok:
        raise CocycleError("twisted difference is not a cocycle at %s" % (wit,))
    a = xi.pos[setup.m_pos[1 % setup.m]]
    d, x = 1, a
    while x != A.e:
        d, x = d + 1, A.rows[x][a]
    return d
