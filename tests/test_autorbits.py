from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import ClassLabel, inventory
from invgen import autorbits, cli, structure
from invgen.autorbits import AutAction, aut_action, beta, beta_fast
from invgen.structure import Psi2Table, profile_census, psi2_structural, verify_2covering
from helpers import (
    covering_parts, named, named_generators, pairs, ref_elements, ref_orbits, ref_signature,
    signature_positions,
)

VALIDATION_QS = [4, 5, 7, 8, 9, 11, 13, 16, 25, 27]
PRIME_POWERS = [q for q in range(4, 1025) if prime_power_split(q)]
NONPRIME_POWERS = [q for q in range(4, 4097) if (pf := prime_power_split(q)) and pf[1] > 1]


# ---------------------------------------------------------------------------
# the induced label action
# ---------------------------------------------------------------------------

def test_action_q7():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    act = aut_action(inv)
    usq, unsq = ClassLabel("unip", sq=True), ClassLabel("unip", sq=False)
    assert act.diagonal == [0, 2, 1, 3, 4]  # the image of each position
    assert named(act.diagonal, inv.nonidentity_labels()) == {usq: unsq, unsq: usq}
    assert act.frobenius == [0, 1, 2, 3, 4]  # f = 1


def test_action_q9_frobenius_swaps_order5_classes():
    ctx = gf_for_q(9)
    inv = inventory(ctx)
    act = aut_action(inv)
    frobenius = named(act.frobenius, inv.nonidentity_labels())
    diagonal = named(act.diagonal, inv.nonidentity_labels())
    n5a, n5b = ClassLabel("nonsplit", 4), ClassLabel("nonsplit", 5)
    assert frobenius[n5a] == n5b and frobenius[n5b] == n5a
    assert ClassLabel("split", 3) not in frobenius  # fixed
    assert diagonal[ClassLabel("unip", sq=True)] == ClassLabel("unip", sq=False)


def test_action_q4_no_diagonal():
    ctx = gf_for_q(4)
    inv = inventory(ctx)
    act = aut_action(inv)
    assert act.diagonal is None
    frobenius = named(act.frobenius, inv.nonidentity_labels())
    n5 = [l for l in frobenius if l.kind == "nonsplit"]
    assert frobenius[n5[0]] == n5[1] and frobenius[n5[1]] == n5[0]


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_action_preserves_order_and_size(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    orders = {e.label: e.order for e in inv}
    sizes = {e.label: e.size for e in inv}
    act = aut_action(inv)
    for gen in named_generators(act, inv.nonidentity_labels()):
        for lab, image in gen.items():
            assert orders[lab] == orders[image]
            assert sizes[lab] == sizes[image]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_action_group_order_divides_out(q):
    """The induced group's order divides |Out(S)| = d*f, and in fact equals
    it: the d*f products diag^e * Frob^i that ``elements`` lists are
    distinct and are the group the BFS closure of the generators gives."""
    ctx = gf_for_q(q)
    action = aut_action(inventory(ctx))
    d = 2 if q % 2 == 1 else 1
    elements = {tuple(g) for g in action.elements()}
    assert len(elements) == len(action.elements()) == d * ctx.f
    assert elements == {tuple(g) for g in ref_elements(action)}


@pytest.mark.parametrize("q", NONPRIME_POWERS)
def test_frobenius_fixes_the_classes_its_signatures_say(q):
    # diag^e * Frob^i fixes a class iff it is a head class, or a torus
    # class of order j with p^gcd(i, f) = +-1 (mod j), and not (e and it is
    # unipotent); the maps aut_action builds from the field must move
    # exactly the other classes
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    action = aut_action(inv)
    sigs = [ref_signature(entry) for entry in inv]

    def fixes(e, i, sig):
        g = ctx.p ** gcd(i, ctx.f)
        kind, _, order = sig
        frob_fixes = kind not in ("split", "nonsplit") or g % order in (1, order - 1)
        return frob_fixes and not (e and kind == "unip")

    n = len(inv) - 1
    identity = list(range(n))
    image = identity  # Frobenius^i, position by position
    for i in range(ctx.f):
        for e in range(inv.d):
            diag = action.diagonal if e else identity
            moved = {k for k in range(n) if diag[image[k]] != k}
            lacking = {k for k in range(n) if not fixes(e, i, sigs[k + 1])}
            assert moved == lacking, (q, e, i)
            if not e:
                assert min(moved, default=n) >= len(inv.head) - 1  # torus classes only
        image = [action.frobenius[k] for k in image]
    assert image == identity  # Frobenius^f is the identity


@pytest.mark.parametrize("q", NONPRIME_POWERS)
def test_no_nontrivial_frobenius_power_fixes_a_psi2_pair(q):
    # the lemma behind beta_fast's closed form: an element diag^e * Frob^i
    # with i != 0 fixes no Psi2 pair.  Its fixed classes are read off its
    # image list and counted per census bucket.
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    census = profile_census(inv.q)
    bucket_of = [census.sig_bucket[sig] for sig in signature_positions(inv)[1:]]
    elements = aut_action(inv).elements()  # Frob^i is elements[i], then diag * Frob^i
    for n, g in enumerate(elements):
        if n % ctx.f == 0:  # i = 0: the identity and diag
            continue
        fixed = [0] * len(census.buckets)
        for k, image in enumerate(g):
            if image == k:
                fixed[bucket_of[k]] += 1
        assert sum(fixed[j] * fixed[k] for j, k in census.disjoint) == 0, (q, n)


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_psi2_is_aut_invariant(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    psi2_pairs = pairs(psi2_structural(profile_census(inv.q), inv))
    act = aut_action(inv)
    for gen in named_generators(act, inv.nonidentity_labels()):
        for a, b in psi2_pairs:
            assert (gen.get(a, a), gen.get(b, b)) in psi2_pairs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIME_POWERS))
def test_psi2_near_is_symmetric_and_aut_invariant(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(inv.q), inv)
    near = table.near
    transpose = [[] for _ in near]
    for i, js in enumerate(near):
        for j in js:
            transpose[j].append(i)
    assert [tuple(js) for js in transpose] == near  # j in near[i] iff i in near[j]
    for image in aut_action(inv).elements():
        moved = {}  # image of each distinct neighbour tuple
        for i, js in enumerate(near):
            if js not in moved:
                moved[js] = tuple(sorted(image[j] for j in js))
            assert near[image[i]] == moved[js], (q, table.labels[i])


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_q5():
    ctx = gf_for_q(5)
    part = beta(aut_action(inventory(ctx)), psi2_structural(profile_census(ctx.q), inventory(ctx)))
    assert part.beta == 2
    assert part.orbits == [
        [("nonsplit:t=1", "unip:nsq"), ("nonsplit:t=1", "unip:sq")],
        [("unip:nsq", "nonsplit:t=1"), ("unip:sq", "nonsplit:t=1")],
    ]


@pytest.mark.parametrize("q,expected", [(4, 2), (5, 2), (7, 4), (8, 8), (9, 2)])
def test_beta_values(q, expected):
    ctx = gf_for_q(q)
    part = beta(aut_action(inventory(ctx)), psi2_structural(profile_census(ctx.q), inventory(ctx)))
    assert part.beta == expected


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 19, 23, 29, 31, 49, 53, 64, 81])
def test_beta_even_and_bounded(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(inv.q), inv)
    part = beta(aut_action(inv), table)
    d = 2 if q % 2 == 1 else 1
    assert part.beta % 2 == 0
    assert len(table) / (d * ctx.f) <= part.beta <= len(table)


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_no_orbit_contains_a_pair_and_its_swap(q):
    ctx = gf_for_q(q)
    part = beta(aut_action(inventory(ctx)), psi2_structural(profile_census(ctx.q), inventory(ctx)))
    for orbit in part.orbits:
        members = set(orbit)
        for a, b in orbit:
            assert (b, a) not in members


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_orbit_sizes_divide_out_order(q):
    ctx = gf_for_q(q)
    d = 2 if q % 2 == 1 else 1
    part = beta(aut_action(inventory(ctx)), psi2_structural(profile_census(ctx.q), inventory(ctx)))
    for orbit in part.orbits:
        assert (d * ctx.f) % len(orbit) == 0


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 49, 64, 81, 121])
def test_burnside_agrees_with_union_find(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    part = beta(aut_action(inv), psi2_structural(profile_census(inv.q), inv))
    assert beta_fast(profile_census(inv.q)) == part.beta


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 49, 64, 81, 121])
def test_orbits_equal_union_find_closure(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(inv.q), inv)
    action = aut_action(inv)
    groups = {}
    for (a, b), rep in ref_orbits(action, table).items():
        groups.setdefault(rep, []).append((a.str_form(), b.str_form()))
    assert beta(action, table).orbits == sorted(map(sorted, groups.values()))


def test_beta_rejects_empty_table():
    ctx = gf_for_q(5)
    labels = inventory(ctx).nonidentity_labels()
    empty = Psi2Table(5, "structural", labels, [()] * len(labels))
    with pytest.raises(RuntimeError, match="Psi2 is empty"):
        beta(aut_action(inventory(ctx)), empty)


def broken_image_case():
    """q=7 with an action whose diagonal map swaps unip:sq and split:t=1;
    it sends (unip:sq, inv) to (split:t=1, inv), which is not in Psi2."""
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    labels = inv.nonidentity_labels()
    usq, s1 = labels.index(ClassLabel("unip", sq=True)), labels.index(ClassLabel("split", 1))
    identity = list(range(len(labels)))
    perm = identity[:]
    perm[usq], perm[s1] = s1, usq
    table = psi2_structural(profile_census(7), inv)
    return 7, AutAction(ctx, perm, identity), table, "left Psi2"


def swapped_pair_case():
    """q=5 with a two-label Psi2 {(unip:sq, unip:nsq), (unip:nsq, unip:sq)}
    and a diagonal map that swaps the two labels, so one orbit holds a pair
    and its swap."""
    ctx = gf_for_q(5)
    usq, unsq = ClassLabel("unip", sq=True), ClassLabel("unip", sq=False)
    table = Psi2Table(5, "structural", [usq, unsq], [(1,), (0,)])
    return 5, AutAction(ctx, [1, 0], [0, 1]), table, "contains its swap"


@pytest.mark.parametrize("case", [broken_image_case, swapped_pair_case])
def test_beta_checks_the_action(case):
    _, action, table, message = case()
    with pytest.raises(RuntimeError, match=message):
        beta(action, table)


@pytest.mark.parametrize("case", [broken_image_case, swapped_pair_case])
def test_beta_orbits_reports_a_broken_action_as_internal(case, capsys, monkeypatch):
    q, action, table, message = case()
    monkeypatch.setattr(autorbits, "aut_action", lambda inv: action)
    monkeypatch.setattr(structure, "psi2_structural", lambda census, inv: table)
    assert cli.main(["beta", "--q", str(q), "--orbits"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: ") and message in err


def test_orbits_respect_bipartition():
    # parts are Aut-invariant, so orbits stay within one direction
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    p1, p2 = covering_parts(inv, verify_2covering(profile_census(inv.q)))
    p1_names = {lab.str_form() for lab in p1}
    part = beta(aut_action(inv), psi2_structural(profile_census(inv.q), inv))
    seen = set()
    for orbit in part.orbits:
        directions = {a in p1_names for a, b in orbit}
        assert len(directions) == 1
        seen |= directions
    assert seen == {True, False}  # both directions occur
