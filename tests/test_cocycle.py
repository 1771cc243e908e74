import itertools
import random

import pytest

from multiloop import cocycle
from multiloop.cocycle import (BudgetExceeded, Cocycle, CocycleError,
                               CoefficientGroup, DiagonalSetup, FiniteGroup,
                               check_budget, class_key, cohomologous,
                               cover_group,
                               cyclic_group, diagonal_argument, direct_product,
                               galois_action, h1_enumerate, inf_res_sequence,
                               inflate, is_cocycle, m_acts_trivially,
                               power_pullback, quotient_coefficients,
                               restrict_to_subgroup, symmetric_group_3,
                               trivial_action, trivial_cocycle, trivial_group,
                               twist_cocycle, twisted_coefficients)


def test_group_constructors():
    assert len(cyclic_group(6).elements) == 6
    assert len(trivial_group().elements) == 1
    s3 = symmetric_group_3()
    assert len(s3.elements) == 6
    prod = direct_product(cyclic_group(2), cyclic_group(3))
    assert len(prod.elements) == 6


def test_group_axioms_verified():
    # a magma that is not associative must be rejected
    elems = [0, 1, 2]

    def bad_mul(a, b):
        return (a - b) % 3

    with pytest.raises(CocycleError):
        FiniteGroup(elems, bad_mul, "bad")


def test_cover_group_order():
    cov = cover_group(2, 3, trivial_group(), {})
    assert len(cov.elements) == 9
    cov = cover_group(1, 2, cyclic_group(2), {0: 1, 1: 1})
    assert len(cov.elements) == 4


def test_cover_group_bad_units():
    with pytest.raises(CocycleError):
        cover_group(1, 4, cyclic_group(2), {0: 1, 1: 2})  # 2 not a unit mod 4


def test_coefficient_action_verified():
    cov = cover_group(1, 2, trivial_group(), {})
    A = cyclic_group(3)
    # a non-automorphism action must be rejected
    act = {g: {a: 0 for a in A.elements} for g in cov.elements}
    with pytest.raises(CocycleError):
        CoefficientGroup(A, cov, act)


def test_homomorphisms_are_cocycles():
    cov = cover_group(1, 4, trivial_group(), {})
    A = cyclic_group(4)
    coeff = trivial_action(cov, A)
    z = Cocycle(coeff, {g: g[0][0] % 4 for g in cov.elements})
    ok, _ = is_cocycle(z)
    assert ok


def test_non_cocycle_detected():
    cov = cover_group(1, 2, trivial_group(), {})
    A = cyclic_group(4)
    coeff = trivial_action(cov, A)
    vals = {g: 0 for g in cov.elements}
    vals[((1,), trivial_group().identity)] = 1   # 1 + 1 != 0 in Z4
    ok, witness = is_cocycle(Cocycle(coeff, vals))
    assert not ok and witness is not None


def test_h1_counts_trivial_action():
    # trivial action, abelian A: H^1 = Hom(G, A)
    cov = cover_group(1, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(2))
    reps, all_c = h1_enumerate(coeff)
    assert len(reps) == 2 and len(all_c) == 2
    coeff = trivial_action(cov, cyclic_group(3))
    reps, all_c = h1_enumerate(coeff)
    assert len(reps) == 1 and len(all_c) == 1
    cov = cover_group(2, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(2))
    reps, _ = h1_enumerate(coeff)
    assert len(reps) == 4


def test_h1_nonabelian_coefficients():
    cov = cover_group(1, 2, trivial_group(), {})
    s3 = symmetric_group_3()
    coeff = trivial_action(cov, s3)
    reps, all_c = h1_enumerate(coeff)
    # homomorphisms Z2 -> S3: identity plus three transpositions;
    # the transpositions are all conjugate
    assert len(all_c) == 4
    assert len(reps) == 2


def test_cohomologous_twist():
    cov = cover_group(1, 2, trivial_group(), {})
    s3 = symmetric_group_3()
    coeff = trivial_action(cov, s3)
    _, all_c = h1_enumerate(coeff)
    z = next(c for c in all_c
             if any(v != s3.identity for v in c.values.values()))
    for a in s3.elements:
        t = twist_cocycle(z, a)
        ok, _ = is_cocycle(t)
        assert ok
        assert cohomologous(z, t) is not None


def test_budget_exceeded():
    cov = cover_group(1, 2, trivial_group(), {})
    coeff = trivial_action(cov, cyclic_group(3))
    with pytest.raises(BudgetExceeded):
        h1_enumerate(coeff, budget_gamma=1)
    with pytest.raises(BudgetExceeded):
        h1_enumerate(coeff, budget_coeff=2)


def test_diagonal_setup_projection():
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    assert len(setup.cover.elements) == 4
    assert len(setup.quotient.elements) == 2
    for q in setup.quotient.elements:
        assert setup.project(setup.include(q)) == q
    assert len(setup.m_pos) == 2


def test_inf_res_exact():
    for setup, A in [
        (DiagonalSetup(1, 2, trivial_group(), {}), cyclic_group(2)),
        (DiagonalSetup(1, 3, trivial_group(), {}), cyclic_group(3)),
        (DiagonalSetup(1, 2, trivial_group(), {}), symmetric_group_3()),
    ]:
        coeff = trivial_action(setup.cover, A)
        report = inf_res_sequence(setup, coeff)
        assert report["exact"], report
        assert report["inflation_image"] == report["kernel_of_restriction"]


def test_power_pullback_composes():
    setup = DiagonalSetup(1, 3, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(3))
    _, all_c = h1_enumerate(coeff)
    for z in all_c:
        z2 = power_pullback(setup, coeff, z, 2)
        z6 = power_pullback(setup, coeff, z2, 3)
        z_direct = power_pullback(setup, coeff, z, 6)
        assert z6.values == z_direct.values
        z1 = power_pullback(setup, coeff, z, 1)
        assert z1.values == z.values


def _diagonal_eligible(setup, coeff, eta1):
    """Cocycles whose restriction to the diagonal copy matches eta1's."""
    _, all_c = h1_enumerate(coeff)
    sub = [setup.include(q) for q in setup.quotient.elements]
    r1 = restrict_to_subgroup(coeff, sub, eta1)
    return [z for z in all_c
            if cohomologous(r1, restrict_to_subgroup(coeff, sub, z))
            is not None]


def test_diagonal_argument_spec_examples():
    # untwisted Z2: the nontrivial class needs d = 2, trivial one d = 1
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(2))
    eta1 = trivial_cocycle(coeff)
    ds = set()
    for z in _diagonal_eligible(setup, coeff, eta1):
        d, theta = diagonal_argument(setup, coeff, eta1, z)
        ds.add(d)
        # theta is itself a quotient cocycle
        ok, _ = is_cocycle(theta)
        assert ok
    assert ds == {1, 2}

    setup = DiagonalSetup(1, 3, trivial_group(), {})
    coeff = trivial_action(setup.cover, cyclic_group(3))
    eta1 = trivial_cocycle(coeff)
    ds = {diagonal_argument(setup, coeff, eta1, z)[0]
          for z in _diagonal_eligible(setup, coeff, eta1)}
    assert ds == {1, 3}


def test_diagonal_argument_preconditions():
    setup = DiagonalSetup(1, 2, cyclic_group(2), {0: 1, 1: 1})
    A = cyclic_group(3)
    gact = {0: {a: a for a in A.elements},
            1: {a: (-a) % 3 for a in A.elements}}
    coeff = galois_action(setup.cover, A, gact)
    assert m_acts_trivially(setup, coeff)
    eta1 = trivial_cocycle(coeff)
    _, all_c = h1_enumerate(coeff)
    sub = [setup.include(q) for q in setup.quotient.elements]
    r1 = restrict_to_subgroup(coeff, sub, eta1)
    agreeing = 0
    for z in all_c:
        r2 = restrict_to_subgroup(coeff, sub, z)
        if cohomologous(r1, r2) is None:
            with pytest.raises(CocycleError):
                diagonal_argument(setup, coeff, eta1, z)
        else:
            d, _ = diagonal_argument(setup, coeff, eta1, z)
            assert 1 <= d <= 2
            agreeing += 1
    assert agreeing >= 1


def test_diagonal_argument_nontrivial_eta1():
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, symmetric_group_3())
    coeff_q = quotient_coefficients(setup, coeff)
    _, q_cocycles = h1_enumerate(coeff_q)
    eta1 = next(inflate(setup, coeff_q, coeff, z) for z in q_cocycles
                if any(v != coeff.A.identity for v in z.values.values()))
    ok, _ = is_cocycle(eta1)
    assert ok
    _, all_c = h1_enumerate(coeff)
    sub = [setup.include(q) for q in setup.quotient.elements]
    r1 = restrict_to_subgroup(coeff, sub, eta1)
    ran = 0
    for z in all_c:
        if cohomologous(r1, restrict_to_subgroup(coeff, sub, z)) is None:
            continue
        d, _ = diagonal_argument(setup, coeff, eta1, z)
        assert 1 <= d <= setup.m
        ran += 1
    assert ran >= 2


# ---------------------------------------------------------------------------
# Integer Cayley tables against the label-keyed algorithms they replaced,
# kept here as test-local oracles.

def _oracle_associativity(elements, mult_fn, name):
    table = {(a, b): mult_fn(a, b) for a in elements for b in elements}
    for a in elements:
        for b in elements:
            ab = table[(a, b)]
            for c in elements:
                if table[(ab, c)] != table[(a, table[(b, c)])]:
                    return "%s: associativity fails at %s,%s,%s" % (
                        name, a, b, c)
    return None


def _oracle_is_cocycle(coeff, values):
    G, A = coeff.cover, coeff.A
    for g in G.elements:
        for h in G.elements:
            if values[G.mul(g, h)] != A.mul(values[g],
                                            coeff.apply(g, values[h])):
                return False, (g, h)
    return True, None


def _oracle_generators(G):
    gens = []
    span = {G.identity}
    for g in G.elements:
        if g in span:
            continue
        gens.append(g)
        span, frontier = {G.identity}, {G.identity}
        while frontier:
            frontier = {G.mul(a, s) for a in frontier for s in gens} - span
            span |= frontier
        if len(span) == len(G.elements):
            break
    return gens


def _oracle_propagate(coeff, gens, assignment):
    G, A = coeff.cover, coeff.A
    vals = {G.identity: A.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for g in frontier:
            for s, x in zip(gens, assignment):
                gs = G.mul(g, s)
                v = A.mul(vals[g], coeff.apply(g, x))
                if gs not in vals:
                    vals[gs] = v
                    nxt.append(gs)
                elif vals[gs] != v:
                    return None
        frontier = nxt
    return vals if len(vals) == len(G.elements) else None


def _oracle_h1(coeff):
    """Cocycles by label propagation; each one's class key is the least
    label tuple over all of its twists."""
    G, A = coeff.cover, coeff.A
    gens = _oracle_generators(G)
    cocycles = []
    for assignment in itertools.product(A.elements, repeat=len(gens)):
        vals = _oracle_propagate(coeff, gens, assignment)
        if vals is not None and _oracle_is_cocycle(coeff, vals)[0]:
            cocycles.append(vals)
    classes = {}
    for vals in cocycles:
        key = min(tuple(A.mul(A.mul(A.inv(a), vals[g]), coeff.apply(g, a))
                        for g in G.elements) for a in A.elements)
        classes.setdefault(key, []).append(vals)
    return [classes[k][0] for k in sorted(classes)], cocycles


def _inverting(cover, gamma0, A):
    inv = {a: A.inv(a) for a in A.elements}
    ident = {a: a for a in A.elements}
    return galois_action(cover, A, {g: ident if g == gamma0.identity else inv
                                    for g in gamma0.elements})


def _oracle_configs():
    z2, s3 = cyclic_group(2), symmetric_group_3()
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    yield "Z2 on S3", trivial_action(cover_group(1, 2, trivial_group(), {}),
                                     s3)
    yield "Z4^2 on V4", trivial_action(
        cover_group(2, 4, trivial_group(), {}), v4)
    yield "Z3:Z2 inverts Z3", _inverting(
        cover_group(1, 3, z2, {1: 2}), z2, cyclic_group(3))
    yield "Z4^2:Z2 inverts Z4", _inverting(
        cover_group(2, 4, z2, {1: 3}), z2, cyclic_group(4))
    yield "Z2^2:Z2 inverts V4", _inverting(
        cover_group(2, 2, z2, {1: 1}), z2, v4)
    yield "order 48 on S3", trivial_action(
        cover_group(2, 4, cyclic_group(3), {}), s3)
    yield "Z2^3:S3 on Z2", trivial_action(cover_group(3, 2, s3, {}), z2)
    # S3 acted on by conjugation through a nontrivial cocycle
    coeff = trivial_action(cover_group(1, 4, trivial_group(), {}), s3)
    eta = next(z for z in h1_enumerate(coeff)[0]
               if set(z.values.values()) != {s3.identity})
    yield "Z4 on S3 by conjugation", twisted_coefficients(coeff, eta)


ORACLE_CONFIGS = [pytest.param(name, coeff, id=name)
                  for name, coeff in _oracle_configs()]


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_h1_enumerate_matches_label_oracle(name, coeff):
    reps, cocycles = h1_enumerate(coeff)
    want_reps, want_cocycles = _oracle_h1(coeff)
    assert [z.values for z in cocycles] == want_cocycles
    assert [z.values for z in reps] == want_reps
    if name == "order 48 on S3":
        assert len(coeff.cover) == 48 and len(reps) > 1


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_is_cocycle_witness_matches_label_oracle(name, coeff):
    rng = random.Random(name)
    G, A = coeff.cover, coeff.A
    _, cocycles = h1_enumerate(coeff)
    broken = 0
    for z in rng.sample(cocycles, min(4, len(cocycles))):
        for _ in range(3):
            vals = dict(z.values)
            g = rng.choice(G.elements)
            vals[g] = rng.choice([a for a in A.elements if a != vals[g]])
            got = is_cocycle(Cocycle(coeff, vals))
            assert got == _oracle_is_cocycle(coeff, vals)
            broken += not got[0]
    assert broken > 0


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS
    if len(p.values[1].A) ** len(p.values[1].cover) <= 4096])
def test_cocycles_match_brute_force_z1(name, coeff):
    # every map G -> A that is_cocycle accepts: an oracle independent of
    # the propagation by which h1_enumerate proves its cocycles
    G, A = coeff.cover, coeff.A
    want = [pos for pos in itertools.product(range(len(A)), repeat=len(G))
            if is_cocycle(Cocycle(coeff, pos=list(pos)))[0]]
    _, cocycles = h1_enumerate(coeff)
    assert sorted(tuple(z.pos) for z in cocycles) == want


@pytest.mark.parametrize("name, coeff", ORACLE_CONFIGS)
def test_enumerated_cocycles_pass_is_cocycle(name, coeff):
    _, cocycles = h1_enumerate(coeff)
    assert cocycles
    for z in cocycles:
        assert is_cocycle(z) == (True, None)


@pytest.mark.parametrize("name, coeff", [
    p for p in ORACLE_CONFIGS if len(h1_enumerate(p.values[1])[1]) <= 40])
def test_class_key_decides_cohomology(name, coeff):
    reps, cocycles = h1_enumerate(coeff)
    keys = [class_key(z) for z in cocycles]
    for (z1, k1), (z2, k2) in itertools.product(zip(cocycles, keys),
                                                repeat=2):
        assert (k1 == k2) == (cohomologous(z1, z2) is not None)
    assert sorted(set(keys)) == [class_key(z) for z in reps]


def _oracle_identified_pair(inflated):
    """The first pair of cohomologous inflations, in combinations order."""
    return next((i, j) for i, j in itertools.combinations(
        range(len(inflated)), 2)
        if cohomologous(inflated[i], inflated[j]) is not None)


@pytest.mark.parametrize("order", ["0 1 1' 0'", "1 0 0' 1'", "0 1 1'",
                                   "1 1' 0", "0 1 1", "1' 0 0'"])
def test_inflation_injectivity_names_the_first_pair(monkeypatch, order):
    # quotient representatives repeated (i': class i twisted by an a that
    # moves the transposition, equal in class but not in values); the error
    # names the pair that pairwise comparison in combinations order finds
    # first
    setup = DiagonalSetup(1, 2, trivial_group(), {})
    coeff = trivial_action(setup.cover, symmetric_group_3())
    coeff_q = quotient_coefficients(setup, coeff)
    reps_q, _ = h1_enumerate(coeff_q)
    assert len(reps_q) == 2
    swap = next(a for a in coeff.A.elements
                if twist_cocycle(reps_q[1], a).pos != reps_q[1].pos)
    twisted = [twist_cocycle(z, swap) for z in reps_q]
    fake = [twisted[int(w[0])] if w.endswith("'") else reps_q[int(w)]
            for w in order.split()]
    enumerate_ = cocycle.h1_enumerate

    def patched(c, *budgets):
        reps, all_c = enumerate_(c, *budgets)
        return (fake, all_c) if c.cover is setup.quotient else (reps, all_c)

    monkeypatch.setattr(cocycle, "h1_enumerate", patched)
    inflated = [inflate(setup, coeff_q, coeff, z) for z in fake]
    i, j = _oracle_identified_pair(inflated)
    with pytest.raises(CocycleError, match=r"^inflation identifies distinct "
                                           r"classes %d, %d$" % (i, j)):
        inf_res_sequence(setup, coeff)


def test_cayley_table_matches_product():
    units = {0: 1, 1: 2}

    def mul(x, y):
        (t1, g1), (t2, g2) = x, y
        return (tuple((a + units[g1] * b) % 3 for a, b in zip(t1, t2)),
                (g1 + g2) % 2)

    G = cover_group(2, 3, cyclic_group(2), units)
    lines = ["group %s order=18" % G.name]
    for a in G.elements:
        for b in G.elements:
            assert G.mul(a, b) == mul(a, b)
        assert G.mul(a, G.inv(a)) == G.identity == G.mul(G.inv(a), a)
        lines.append("  " + " ".join(str(mul(a, b)) for b in G.elements))
    assert G.serialize() == "\n".join(lines)


def _loop5(a, b):
    """A loop of order 5 (identity 0, Latin square) that is not a group."""
    return [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]][a][b]


def _magma3(a, b):
    """Identity 0, every element its own inverse, (1 1) 2 != 1 (1 2)."""
    return [[0, 1, 2], [1, 0, 1], [2, 1, 0]][a][b]


@pytest.mark.parametrize("mult_fn", [_loop5, _magma3])
def test_associativity_failure_matches_label_oracle(mult_fn):
    elements = range(5) if mult_fn is _loop5 else range(3)
    want = _oracle_associativity(list(elements), mult_fn, "bad")
    assert want is not None
    with pytest.raises(CocycleError) as err:
        FiniteGroup(elements, mult_fn, "bad")
    assert str(err.value) == want
    FiniteGroup(elements, mult_fn, "bad", verify=False)


def test_associativity_failure_names_first_triple():
    with pytest.raises(CocycleError, match=r"^bad: associativity fails at "
                                           r"1,1,2$"):
        FiniteGroup(range(3), _magma3, "bad")


def test_magma_without_identity():
    with pytest.raises(CocycleError, match=r"^bad has no identity$"):
        FiniteGroup([0, 1], lambda a, b: 0, "bad")


def test_element_without_inverse():
    # multiplication mod 2: 1 is the identity and 0 has no inverse
    with pytest.raises(CocycleError, match=r"^M: no inverse for 0$"):
        FiniteGroup([0, 1], lambda a, b: a * b, "M")


def test_magma_not_closed():
    with pytest.raises(CocycleError,
                       match=r"^Z/3\+ is not closed under product$"):
        FiniteGroup(range(3), lambda a, b: a + b, "Z/3+")


def test_identity_must_act_trivially():
    A = cyclic_group(3)
    negate = {a: (-a) % 3 for a in A.elements}
    cov = cyclic_group(2)
    with pytest.raises(CocycleError,
                       match=r"^identity does not act trivially$"):
        CoefficientGroup(A, cov, {g: negate for g in cov.elements})


def test_action_must_be_a_homomorphism():
    # each element acts by an automorphism of Z3, but 1 acts by negation
    # and 2 = -1 trivially, so 1 . (2 . a) != (1 + 2) . a
    A = cyclic_group(3)
    ident = {a: a for a in A.elements}
    negate = {a: (-a) % 3 for a in A.elements}
    cov = cyclic_group(3)
    with pytest.raises(CocycleError, match=r"^action is not a homomorphism "
                                           r"at 1,2$"):
        CoefficientGroup(A, cov, {0: ident, 1: negate, 2: ident})


def test_action_must_be_by_automorphisms():
    A = cyclic_group(3)
    cov = cyclic_group(2)
    double = {a: (2 * a) % 3 for a in A.elements}
    ident = {a: a for a in A.elements}
    CoefficientGroup(A, cov, {0: ident, 1: double})
    with pytest.raises(CocycleError, match=r"^action of 1 is not an "
                                           r"automorphism$"):
        CoefficientGroup(A, cov, {0: ident, 1: {0: 0, 1: 1, 2: 1}})


# ---------------------------------------------------------------------------
# Covers built by position arithmetic against the label-tuple product they
# replaced, kept here as a test-local oracle.

def _oracle_cover(n, m, gamma0, units):
    """Labels and product of (Z/m)^n : gamma0 as the label closure had
    them."""
    given = dict(units)
    units = {g: given.get(g, 1) % m if m > 1 else 0 for g in gamma0.elements}
    elems = [(t, g) for t in itertools.product(range(m), repeat=n)
             for g in gamma0.elements]

    def mul(x, y):
        t1, g1 = x
        t2, g2 = y
        u = units[g1]
        t = tuple([(a + u * b) % m for a, b in zip(t1, t2)])
        return (t, gamma0.mul(g1, g2))

    return elems, mul


def _sign_units(m):
    """S3 acting through its sign: odd permutations by -1 mod m."""
    s3 = symmetric_group_3()
    odd = {p for p in s3.elements
           if sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2}
    return s3, {p: m - 1 if p in odd else 1 for p in s3.elements}


def _cover_grid():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    for n, m in [(0, 3), (1, 1), (2, 1), (1, 2), (2, 3), (3, 2), (2, 4),
                 (1, 5)]:
        yield n, m, trivial_group(), {}
        yield n, m, z2, {}
        yield n, m, z2, {1: m - 1}
        yield n, m, z3, {}
        yield (n, m) + _sign_units(m)
    # Z3 acting on Z/7 by the cube root of unity 2
    yield 1, 7, z3, {1: 2, 2: 4}
    yield 2, 7, z3, {1: 2, 2: 4}


COVER_GRID = [pytest.param(n, m, g, u, id="n%d-m%d-%s-%s" % (
    n, m, g.name, "".join(str(u[k]) for k in sorted(u, key=str))))
    for n, m, g, u in _cover_grid()]


@pytest.mark.parametrize("n, m, gamma0, units", COVER_GRID)
def test_cover_rows_match_label_oracle(n, m, gamma0, units):
    elems, mul = _oracle_cover(n, m, gamma0, units)
    G = cover_group(n, m, gamma0, units)
    assert G.elements == elems
    assert G.name == "(Z/%d)^%d:%s" % (m, n, gamma0.name)
    index = {x: i for i, x in enumerate(elems)}
    assert G.rows == [[index[mul(a, b)] for b in elems] for a in elems]
    assert G.identity == ((0,) * n, gamma0.identity)


@pytest.mark.parametrize("n, m, gamma0, units", [
    p for p in COVER_GRID if len(p.values[2]) * p.values[1] ** (
        p.values[0] + 1) <= 256])
def test_diagonal_quotient_is_the_smaller_cover(n, m, gamma0, units):
    setup = DiagonalSetup(n, m, gamma0, units)
    small = cover_group(n, m, gamma0, units)
    assert setup.quotient.elements == small.elements
    assert setup.quotient.rows == small.rows
    assert setup.quotient.name == small.name
    cover = setup.cover
    assert [cover.elements[x] for x in setup.sub] == \
        [setup.include(q) for q in small.elements]
    assert [small.elements[q] for q in setup.proj] == \
        [setup.project(g) for g in cover.elements]
    for d in range(1, m + 1):
        assert [cover.elements[x] for x in setup.power_positions(d)] == \
            [(t[:-1] + (t[-1] * d % m,), k) for t, k in cover.elements]


def test_wrong_unit_in_one_row_is_rejected():
    # (Z/3) : Z2 with Z2 inverting; the row of ((1,), 1) is rebuilt with the
    # unit 1, so that one row no longer belongs to a group table
    G = cover_group(1, 3, cyclic_group(2), {1: 2})
    FiniteGroup(G.elements, name="ok", rows=[list(r) for r in G.rows])
    x = G.index[((1,), 1)]
    rows = [list(r) for r in G.rows]
    rows[x] = [G.index[(((1 + b) % 3,), (1 + g) % 2)]
               for (b,), g in G.elements]
    with pytest.raises(CocycleError, match="^bad: "):
        FiniteGroup(G.elements, name="bad", rows=rows)


@pytest.mark.parametrize("k", [200, 257])
def test_associativity_check_on_both_sides_of_256(k):
    # Z/k with 1 * 1 = 3: identity and inverses survive, and (1 1) 2 = 5
    # differs from 1 (1 2) = 4; past 256 elements the check no longer
    # packs positions into bytes
    rows = [[(a + b) % k for b in range(k)] for a in range(k)]
    FiniteGroup(range(k), name="Z", rows=[list(r) for r in rows])
    rows[1][1] = 3
    with pytest.raises(CocycleError,
                       match=r"^bad: associativity fails at 1,1,2$"):
        FiniteGroup(range(k), name="bad", rows=rows)


@pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 2]],
                                  [[0, 1], [1, -1]]],
                         ids=["short-row", "past-the-end", "negative"])
def test_given_rows_must_be_a_closed_table(rows):
    with pytest.raises(CocycleError, match=r"^T is not closed under product$"):
        FiniteGroup([0, 1], name="T", rows=rows)


def test_restriction_must_be_closed():
    G = cyclic_group(4)
    assert G.restrict([0, 2]).rows == [[0, 1], [1, 0]]
    with pytest.raises(CocycleError, match="not closed"):
        G.restrict([0, 1])


def test_check_budget_group_before_coefficients():
    check_budget(96, 24)
    with pytest.raises(BudgetExceeded, match=r"^cover group order 97 "
                                             r"exceeds budget 96$"):
        check_budget(97, 25)
    with pytest.raises(BudgetExceeded, match=r"^coefficient group order 25 "
                                             r"exceeds budget 24$"):
        check_budget(96, 25)
