import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgen import oracle, structure
from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import ClassLabel, enumerate_psl2, inventory
from invgen.oracle import (
    ORACLE_ELEMENT_CAP,
    OracleCapError,
    OracleSession,
    _inverse,
    _labeller,
    _line_action,
    _table,
    check_cap,
    min_index,
)
from invgen.structure import (
    BOREL,
    DIH_SPLIT,
    SUBFIELD_PSL,
    maximal_subgroup_classes,
    profile_census,
    psi2_structural,
)
from fusion import class_fusion, closure, labels_met, nonsquare, subfield, subgroup_matrices
from helpers import (
    SUBFIELD_PGL,
    canon,
    centraliser_reference,
    conjugate,
    drop_class,
    expected_fusion,
    generates,
    isolated,
    make,
    mobius_perm,
    normaliser_reference,
    pairs,
    psl2_class_of,
    psl2_inv,
    psl2_mul,
    psl2_order,
    psi2_per_class_pair,
    reference_subgroup_classes,
)

FAST_QS = [4, 5, 7, 8, 9]
QS_TO_31 = [q for q in range(4, 32) if prime_power_split(q)]


def admitted(q):
    try:
        check_cap(q)
    except OracleCapError:
        return False
    return True


# every q the oracle accepts: no q >= 256 is admitted (test_cap_enforced)
ORACLE_QS = [q for q in range(4, 256) if prime_power_split(q) and admitted(q)]


@pytest.fixture(scope="module")
def elements():
    """q -> (the field, the enumerated matrices, the map from a matrix to
    its permutation)."""
    cache = {}

    def get(q):
        if q not in cache:
            ctx = gf_for_q(q)
            cache[q] = ctx, list(enumerate_psl2(ctx)), _line_action(ctx)
        return cache[q]

    return get


# ---------------------------------------------------------------------------
# generation closure
# ---------------------------------------------------------------------------

def test_identity_pair_never_generates(sessions):
    sess = sessions(5)
    ident = (1, 0, 0, 1)
    assert not generates(sess, ident, ident)


def test_standard_a5_pair_generates(sessions):
    sess = sessions(5)
    ctx = sess.ctx
    x = next(m for m in enumerate_psl2(ctx) if psl2_order(ctx, m) == 3)
    y = make(ctx, 1, 1, 0, 1)  # unipotent of order 5
    assert generates(sess, x, y)


def test_common_borel_never_generates(sessions):
    sess = sessions(7)
    ctx = sess.ctx
    x = make(ctx, 1, 1, 0, 1)
    y = make(ctx, 3, 0, 0, 5)  # diagonal, so <x, y> is upper triangular
    assert not generates(sess, x, y)


# perm_of is oracle._line_action: the map from a matrix to its permutation.
# q = 4, 8, 16 have p = 2; 5, 7, 11, 13, 19 are prime; 9, 25 have f = 2; 27
# has odd f = 3
@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 19, 25, 27])
def test_perm_of_matches_pointwise_mobius(q, elements):
    ctx, mats, perm_of = elements(q)
    for m in mats:
        assert perm_of(m) == mobius_perm(ctx, m), m


# the session's per-trace label tables against the matrix classifier, on
# every element: q even (8, 16), f = 2 (9, 25, 49) and f = 3 (27)
@pytest.mark.parametrize("q", [8, 9, 16, 25, 27, 49])
def test_labeller_matches_class_of(q, elements):
    ctx, mats, _ = elements(q)
    label = _labeller(ctx)
    for m in mats:
        assert label(m) == psl2_class_of(ctx, m), m


@pytest.mark.parametrize("q", [5, 8, 9, 16])
def test_perm_of_product_is_composition(q, elements):
    ctx, mats, perm_of = elements(q)
    rng = random.Random(q)
    for _ in range(50):
        a, b = rng.choice(mats), rng.choice(mats)
        pa, pb = perm_of(a), perm_of(b)
        a_after_b = bytes(pa[i] for i in pb)  # matrices act on the left
        assert perm_of(psl2_mul(ctx, a, b)) == a_after_b
        assert pb.translate(_table(pa)) == a_after_b


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_perm_of_is_a_homomorphism(data, elements):
    ctx, mats, perm_of = elements(data.draw(st.sampled_from(QS_TO_31)))
    x = data.draw(st.sampled_from(mats))
    y = data.draw(st.sampled_from(mats))
    px, py = perm_of(x), perm_of(y)
    assert perm_of(psl2_mul(ctx, x, y)) == py.translate(_table(px))
    assert _inverse(px) == perm_of(psl2_inv(ctx, x))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_labels_are_invariant_under_conjugation(data, sessions):
    sess = sessions(data.draw(st.sampled_from(QS_TO_31)))
    labels = sess.inv.labels()
    x = data.draw(st.sampled_from(sess.by_label[data.draw(st.sampled_from(labels))]))
    g = data.draw(st.sampled_from(sess.by_label[data.draw(st.sampled_from(labels))]))
    conj = g.translate(_table(x)).translate(_table(_inverse(g)))  # g^-1 x g
    assert sess.label_of_perm[conj] == sess.label_of_perm[x]


def test_cap_enforced():
    # the element cap admits every prime power up to 97 and no larger one:
    # |PSL(2,q)| >= q(q^2 - 1)/2 grows with q, and passes the cap by q = 256,
    # so every admitted q has the q + 1 <= 256 points its bytes permutations need
    assert 256 * (256 ** 2 - 1) // 2 > ORACLE_ELEMENT_CAP
    assert ORACLE_QS == [q for q in range(4, 98) if prime_power_split(q)]
    assert all(q + 1 <= 256 for q in ORACLE_QS)


# ---------------------------------------------------------------------------
# power classes: C with every C^k, gcd(k, |x|) = 1, share one Psi2 row
# ---------------------------------------------------------------------------

POWER_QS = FAST_QS + [11, 13, 16, 19, 25, 27]


@pytest.mark.parametrize("q", POWER_QS)
def test_power_classes_partition_the_nonidentity_labels(q, sessions):
    sess = sessions(q)
    classes = sess.power_classes()
    labels = sess.inv.nonidentity_labels()
    assert sum(map(len, classes)) == len(labels)
    assert set().union(*classes) == set(labels)
    for members in classes:  # each in inventory order, first member first
        assert members == sorted(members, key=labels.index), (q, members)


@pytest.mark.parametrize("q", POWER_QS)
def test_power_class_members_share_size_and_order(q, sessions):
    sess = sessions(q)
    entry = {e.label: e for e in sess.inv}
    for members in sess.power_classes():
        x = sess.by_label[members[0]][0]
        order = len(sess._closure([x], sess.order))  # |<x>|, by closure
        for c in members:
            assert len(sess.by_label[c]) == entry[c].size == entry[members[0]].size, (q, c)
            assert entry[c].order == order, (q, c)


# x^k for k in GF(p)* is unipotent with its entry scaled by k, and every k
# in GF(p)* is a square in GF(q) exactly when f is even
@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27, 49])
def test_unipotent_classes_merge_exactly_when_f_is_odd(q, sessions):
    sess = sessions(q)
    unip = [members for members in sess.power_classes()
            if any(c.kind == "unip" for c in members)]
    f = prime_power_split(q)[1]
    assert [len(members) for members in unip] == ([2] if f % 2 else [1, 1]), q
    assert all(c.kind == "unip" for members in unip for c in members), q


@pytest.mark.parametrize("q", FAST_QS + [11, 13, 16, 19])
def test_psi2_matches_the_per_class_pair_reference(q, sessions):
    sess = sessions(q)
    table, ref = sess.psi2(), psi2_per_class_pair(sess)
    assert table.labels == ref.labels
    assert table.near == ref.near


@pytest.mark.parametrize("q", [8, 13, 19])
def test_psi2_decides_each_pair_of_power_classes_once(q, monkeypatch):
    sess = OracleSession(inventory(gf_for_q(q)))  # no normaliser cached yet
    calls = []
    decide = sess.pair_generates
    monkeypatch.setattr(sess, "pair_generates", lambda c, d: calls.append((c, d)) or decide(c, d))
    sess.psi2()
    n = len(sess.power_classes())
    assert len(calls) == len({frozenset(pair) for pair in calls}) == n * (n + 1) // 2
    # one normaliser per cyclic subgroup: no two x it was found for generate one
    cyclic = [frozenset(sess._closure([x], sess.order)) for x in sess._normalisers]
    assert len(set(cyclic)) == len(cyclic) <= n


def test_oracle_counts(sessions):
    assert len(sessions(5).psi2()) == 4
    assert len(sessions(7).psi2()) == 8


def test_isolated_vertices(sessions):
    assert isolated(sessions(7).psi2()) == {ClassLabel("split", 1)}
    assert {l.str_form() for l in isolated(sessions(9).psi2())} == {
        "inv", "unip:sq", "unip:nsq"}
    assert isolated(OracleSession(inventory(gf_for_q(11))).psi2()) == set()


def test_representative_choice_is_irrelevant(sessions):
    rng = random.Random(77)
    for q in (5, 7, 9, 11):
        sess = sessions(q)
        labels = sess.inv.nonidentity_labels()
        base = pairs(sess.psi2())
        for _ in range(10):
            c, d = rng.choice(labels), rng.choice(labels)
            verdict = sweep_from(sess, c, d, rng.randrange(1000))
            assert verdict == ((c, d) in base), (q, c, d)


def sweep_from(sess, c, d, index):
    """``pair_generates`` with x the index-th element of the smaller class
    (mod its size) in place of the first."""
    cs, ds = sess.by_label[c], sess.by_label[d]
    if len(ds) < len(cs):
        cs, ds = ds, cs
    x = cs[index % len(cs)]
    return all(sess.closure_generates([x, y]) for y, _ in sess.normaliser_orbits(x, ds))


def literal_full_sweep(sess, c, d):
    """The unreduced sweep: one x fixed in the smaller class, every y of the other."""
    cs, ds = sess.by_label[c], sess.by_label[d]
    if len(ds) < len(cs):
        cs, ds = ds, cs
    return all(sess.closure_generates([cs[0], y]) for y in ds)


# q = 11 has unipotent classes that are not real, so inversion leaves them
@pytest.mark.parametrize("q", FAST_QS + [11, 13])
def test_orbit_sweep_matches_full_sweep(q, sessions):
    sess = sessions(q)
    labels = sess.inv.nonidentity_labels()
    for c in labels:
        for d in labels:
            assert sess.pair_generates(c, d) == literal_full_sweep(sess, c, d), (q, c, d)


@pytest.mark.parametrize("q", [7, 8, 9, 11])
def test_normaliser_orbits_partition_each_class(q, sessions):
    sess = sessions(q)
    labels = sess.inv.nonidentity_labels()
    for c in labels:
        x = sess.by_label[c][0]
        norm = sess.normaliser(x)
        cent = centraliser_reference(sess, x)
        assert len(cent) * len(sess.by_label[c]) == sess.order, (q, c)
        assert set(norm) == normaliser_reference(sess, x), (q, c)
        assert cent <= set(norm), (q, c)
        for d in labels:
            ys = sess.by_label[d]
            real = sess.label_of_perm[_inverse(ys[0])] == d
            # the unipotent classes are not real exactly when q = 3 mod 4
            assert real == (d.kind != "unip" or q % 4 != 3), (q, d)
            orbits = [orbit for _, orbit in sess.normaliser_orbits(x, ys)]
            assert sum(len(o) for o in orbits) == len(ys), (q, c, d)
            assert set().union(*orbits) == set(ys), (q, c, d)
            for orbit in orbits:
                assert 2 * len(norm) % len(orbit) == 0, (q, c, d)
                for y in orbit:
                    assert {conjugate(y, g) for g in norm} <= orbit, (q, c, d)
                    assert (_inverse(y) in orbit) == real, (q, c, d)


# the first x of each class beyond the q of the partition test above, whose
# orbit checks would be slow here (q even at 16, f = 2 at 25, f = 3 at 27,
# the A5 at 19), and a later x at 8, 9 and 11, whose matrix the normaliser
# recovers from a permutation that is not the first of its class
@pytest.mark.parametrize("q,first", [(13, True), (16, True), (19, True), (25, True), (27, True),
                                     (8, False), (9, False), (11, False)])
def test_normaliser_matches_the_reference(q, first, sessions):
    sess = sessions(q)
    rng = random.Random(q)
    for c in sess.inv.nonidentity_labels():
        xs = sess.by_label[c]
        x = xs[0] if first else rng.choice(xs[1:])
        norm = sess.normaliser(x)
        assert len(norm) == len(set(norm)), (q, c)
        assert set(norm) == normaliser_reference(sess, x), (q, c)


@pytest.mark.parametrize("q", [4, 5, 8, 9, 11, 27])
def test_matrix_is_the_enumerated_one_up_to_sign(q, sessions, elements):
    sess = sessions(q)
    ctx, mats, perm_of = elements(q)
    for m in mats:
        assert canon(ctx, sess.matrix(perm_of(m))) == m, m


def test_session_names_a_class_missing_from_the_inventory():
    inv = drop_class(inventory(gf_for_q(7)), ClassLabel("split", 1))
    assert len(inv) == 5
    with pytest.raises(RuntimeError, match="split:t=1"):
        OracleSession(inv)


@pytest.mark.parametrize("q", FAST_QS)
def test_early_exit_changes_nothing(q, sessions, monkeypatch):
    sess = sessions(q)
    early = pairs(sess.psi2())
    monkeypatch.setattr(sess, "exit_bound", sess.order)  # every closure runs to the end
    assert early == pairs(sess.psi2())


# ---------------------------------------------------------------------------
# class fusion certifies the profile rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_class_fusion_matches_rules(q):
    inv = inventory(gf_for_q(q))
    assert class_fusion(inv) == expected_fusion(inv)


# the records only the reference list has: A4 at 5 and 13, both S4 classes
# at 7, subfield PGL(2,3) and PGL(2,5) with their twisted copies at 9 and 25
@pytest.mark.parametrize("q", [5, 7, 9, 13, 25])
def test_class_fusion_matches_the_reference_list(q):
    inv = inventory(gf_for_q(q))
    classes = reference_subgroup_classes(inv.ctx)
    assert len(classes) > len(maximal_subgroup_classes(inv.ctx.p, inv.ctx.f))
    assert class_fusion(inv, classes) == expected_fusion(inv, classes)


# ---------------------------------------------------------------------------
# the exit bound: |S| over the least index of a proper subgroup, from q alone
# ---------------------------------------------------------------------------

def test_exit_bound_is_the_largest_maximal_order():
    # a closure that outgrows the exit bound is taken for S, so the bound
    # must be the largest order of a maximal subgroup in Dickson's whole
    # list, at every q the oracle accepts
    for q in ORACLE_QS:
        ctx = gf_for_q(q)
        assert inventory(ctx).group_order() // min_index(q) == max(
            sc.order for sc in reference_subgroup_classes(ctx) if sc.maximal), q


# every q where the least index is not q + 1 (5, 7, 9, 11), and 4
@pytest.mark.parametrize("q", [4, 5, 7, 9, 11] + [
    pytest.param(q, marks=pytest.mark.extended)
    for q in (8, 13)])
def test_closure_generates_is_the_full_closure(q, sessions):
    # x runs over one element per class and y over S: verdicts are
    # invariant under simultaneous conjugation, so this is every pair
    sess = sessions(q)
    assert sess.exit_bound == sess.order // min_index(q)
    for x in (members[0] for members in sess.by_label.values()):
        for y in sess.label_of_perm:
            full = len(sess._closure([x, y], sess.order)) == sess.order
            assert sess.closure_generates([x, y]) == full, (x, y)


def test_the_borel_less_mutant_is_caught_at_q27(sessions, monkeypatch):
    # without the Borel, the largest listed order is a dihedral's, below the
    # Borel's 351: an oracle that took its exit bound from the list would
    # pass Borel closures for S, and agree with the wrong structural Psi2.
    # The list is patched in the oracle's namespace too, should it read one
    truth, real = sessions(27).psi2().near, structure.maximal_subgroup_classes

    def borel_less(p, f):
        return [sc for sc in real(p, f) if sc.kind != BOREL]

    monkeypatch.setattr(structure, "maximal_subgroup_classes", borel_less)
    monkeypatch.setattr(oracle, "maximal_subgroup_classes", borel_less, raising=False)
    inv = inventory(gf_for_q(27))
    patched = OracleSession(inv).psi2().near
    assert patched == truth
    assert patched != psi2_structural(profile_census(inv.q), inv).near


def test_q9_each_a5_class_meets_one_unipotent():
    fusion = class_fusion(inventory(gf_for_q(9)))
    assert [{lab for lab in fusion[f"exc_a5:v{v}"] if lab.kind == "unip"} for v in (1, 2)] == [
        {ClassLabel("unip", sq=True)}, {ClassLabel("unip", sq=False)}]


def test_q7_borel_fusion():
    labels = class_fusion(inventory(gf_for_q(7)))["borel"]
    assert {l.str_form() for l in labels} == {"unip:sq", "unip:nsq", "split:t=1"}


def generated(q, *kinds) -> tuple:
    """(the field, [(record, the group its builder's matrices generate)])
    over the records of ``kinds``, or all, in the reference list of q."""
    inv = inventory(gf_for_q(q))
    return inv.ctx, [(sc, closure(inv.ctx, subgroup_matrices(inv, sc), sc.order))
                     for sc in reference_subgroup_classes(inv.ctx)
                     if not kinds or sc.kind in kinds]


def test_subgroup_representative_orders():
    # the matrices a builder writes generate a group of its record's order
    for q in (5, 7, 8, 9, 13):
        for sc, group in generated(q)[1]:
            assert len(group) == sc.order, (q, sc)


def test_subfield_subgroups_q9():
    # PGL(2,3) is S4; its two classes meet the two unipotent classes
    ctx, found = generated(9, SUBFIELD_PGL)
    assert [len(group) for _, group in found] == [24, 24]
    v1, v2 = ({lab for lab in labels_met(ctx, group) if lab.kind == "unip"} for _, group in found)
    assert v1 == {ClassLabel("unip", sq=True)} and v2 == {ClassLabel("unip", sq=False)}


# ---------------------------------------------------------------------------
# the generated groups as stabilisers of point sets of the projective line
# (point 0 is infinity, 1 + v is v).  In S the Borel is the stabiliser of
# infinity, the split dihedral group that of {infinity, 0}, and the subfield
# group that of the subline {infinity} u GF(q0), its twisted copy that of
# {infinity} u nu*GF(q0): an element of PGL(2,q) that maps the subline into
# itself agrees on {infinity, 0, 1} with one of PGL(2,q0), which is
# transitive on ordered triples of the subline, and PGL(2,q) is sharply
# 3-transitive.  So a group of the record's order that maps the set into
# itself is its stabiliser
# ---------------------------------------------------------------------------

STABILISER_QS = [9, 16, 25, 27]


def stabilises(ctx, group, points) -> bool:
    return all({mobius_perm(ctx, m)[i] for i in points} == points for m in group)


@pytest.mark.parametrize("q", STABILISER_QS)
def test_borel_is_the_stabiliser_of_infinity(q):
    ctx, [(sc, group)] = generated(q, BOREL)
    assert len(group) == sc.order and stabilises(ctx, group, {0})


@pytest.mark.parametrize("q", STABILISER_QS)
def test_split_dihedral_is_the_stabiliser_of_infinity_and_zero(q):
    ctx, [(sc, group)] = generated(q, DIH_SPLIT)
    assert len(group) == sc.order and stabilises(ctx, group, {0, 1})


@pytest.mark.parametrize("q", STABILISER_QS)
def test_subfield_groups_are_subline_stabilisers(q):
    # PGL(2,3) and its twisted copy at 9; PGL(2,4) at 16; PGL(2,5) and its
    # twisted copy at 25; PSL(2,3) at 27
    ctx, found = generated(q, SUBFIELD_PSL, SUBFIELD_PGL)
    assert found
    for sc, group in found:
        scale = nonsquare(ctx) if sc.variant == 2 else 1
        points = {0} | {1 + ctx.mul(scale, v) for v in subfield(ctx, sc.q0)[0]}
        assert len(group) == sc.order and stabilises(ctx, group, points), sc
