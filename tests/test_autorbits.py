import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import ClassLabel, inventory
from invgen.autorbits import aut_action, beta, beta_fast
from invgen.structure import Psi2Table, profile_census, psi2_structural, verify_2covering

VALIDATION_QS = [4, 5, 7, 8, 9, 11, 13, 16, 25, 27]
PRIME_POWERS = [q for q in range(4, 1025) if prime_power_split(q)]


# ---------------------------------------------------------------------------
# the induced label action
# ---------------------------------------------------------------------------

def test_action_q7():
    ctx = gf_for_q(7)
    act = aut_action(ctx, inventory(ctx))
    usq, unsq = ClassLabel("unip", sq=True), ClassLabel("unip", sq=False)
    assert act.diagonal[usq] == unsq and act.diagonal[unsq] == usq
    assert all(act.diagonal[l] == l for l in act.diagonal if l.kind != "unip")
    assert all(act.frobenius[l] == l for l in act.frobenius)  # f = 1


def test_action_q9_frobenius_swaps_order5_classes():
    ctx = gf_for_q(9)
    act = aut_action(ctx, inventory(ctx))
    n5a, n5b = ClassLabel("nonsplit", 4), ClassLabel("nonsplit", 5)
    assert act.frobenius[n5a] == n5b and act.frobenius[n5b] == n5a
    assert act.frobenius[ClassLabel("split", 3)] == ClassLabel("split", 3)
    assert act.diagonal[ClassLabel("unip", sq=True)] == ClassLabel("unip", sq=False)


def test_action_q4_no_diagonal():
    ctx = gf_for_q(4)
    act = aut_action(ctx, inventory(ctx))
    assert act.diagonal is None
    n5 = [l for l in act.frobenius if l.kind == "nonsplit"]
    assert act.frobenius[n5[0]] == n5[1] and act.frobenius[n5[1]] == n5[0]


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_action_preserves_order_and_size(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    sizes = {e.label: e.size for e in inv}
    act = aut_action(ctx, inv)
    for gen in act.generators():
        for lab, image in gen.items():
            assert inv.order_of[lab] == inv.order_of[image]
            assert sizes[lab] == sizes[image]


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_action_group_order_divides_out(q):
    ctx = gf_for_q(q)
    d = 2 if q % 2 == 1 else 1
    n = len(aut_action(ctx, inventory(ctx)).elements())
    assert (d * ctx.f) % n == 0


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_psi2_is_aut_invariant(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    pairs = psi2_structural(profile_census(ctx, inv)).pairs()
    act = aut_action(ctx, inv)
    for gen in act.generators():
        for a, b in pairs:
            assert (gen[a], gen[b]) in pairs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIME_POWERS))
def test_psi2_near_is_symmetric_and_aut_invariant(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(ctx, inv))
    near = table.near
    transpose = [[] for _ in near]
    for i, js in enumerate(near):
        for j in js:
            transpose[j].append(i)
    assert [tuple(js) for js in transpose] == near  # j in near[i] iff i in near[j]
    pos = {lab: i for i, lab in enumerate(table.labels)}
    for g in aut_action(ctx, inv).elements():
        image = [pos[g[lab]] for lab in table.labels]
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
    part = beta(aut_action(ctx, inventory(ctx)), psi2_structural(profile_census(ctx, inventory(ctx))))
    assert part.beta == 2
    orbit_sets = {frozenset((a.str_form(), b.str_form()) for a, b in orbit)
                  for orbit in part.orbits}
    assert orbit_sets == {
        frozenset({("nonsplit:t=1", "unip:sq"), ("nonsplit:t=1", "unip:nsq")}),
        frozenset({("unip:sq", "nonsplit:t=1"), ("unip:nsq", "nonsplit:t=1")}),
    }


@pytest.mark.parametrize("q,expected", [(4, 2), (5, 2), (7, 4), (8, 8), (9, 2)])
def test_beta_values(q, expected):
    ctx = gf_for_q(q)
    part = beta(aut_action(ctx, inventory(ctx)), psi2_structural(profile_census(ctx, inventory(ctx))))
    assert part.beta == expected


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 19, 23, 29, 31, 49, 53, 64, 81])
def test_beta_even_and_bounded(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(ctx, inv))
    part = beta(aut_action(ctx, inv), table)
    d = 2 if q % 2 == 1 else 1
    assert part.beta % 2 == 0
    assert len(table) / (d * ctx.f) <= part.beta <= len(table)


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_no_orbit_contains_a_pair_and_its_swap(q):
    ctx = gf_for_q(q)
    part = beta(aut_action(ctx, inventory(ctx)), psi2_structural(profile_census(ctx, inventory(ctx))))
    for orbit in part.orbits:
        members = set(orbit)
        for a, b in orbit:
            assert (b, a) not in members


@pytest.mark.parametrize("q", VALIDATION_QS)
def test_orbit_sizes_divide_out_order(q):
    ctx = gf_for_q(q)
    d = 2 if q % 2 == 1 else 1
    part = beta(aut_action(ctx, inventory(ctx)), psi2_structural(profile_census(ctx, inventory(ctx))))
    for orbit in part.orbits:
        assert (d * ctx.f) % len(orbit) == 0


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 49, 64, 81, 121])
def test_burnside_agrees_with_union_find(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    part = beta(aut_action(ctx, inv), psi2_structural(profile_census(ctx, inv)))
    assert beta_fast(aut_action(ctx, inv), profile_census(ctx, inv)) == part.beta


@pytest.mark.parametrize("q", VALIDATION_QS + [17, 49, 64, 81, 121])
def test_orbits_equal_union_find_closure(q):
    # reference: merge each pair with its image under every generator
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(ctx, inv))
    pairs = table.pairs()
    action = aut_action(ctx, inv)
    parent = {pair: pair for pair in pairs}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in action.generators():
        for a, b in pairs:
            parent[find((a, b))] = find((gen[a], gen[b]))
    groups = {}
    for pair in pairs:
        groups.setdefault(find(pair), set()).add(pair)
    part = beta(action, table)
    assert sorted(map(sorted, groups.values())) == sorted(map(sorted, part.orbits))
    assert all(part.orbit_of[pair] == i
               for i, orbit in enumerate(part.orbits) for pair in orbit)


def test_beta_rejects_empty_table():
    ctx = gf_for_q(5)
    labels = inventory(ctx).nonidentity_labels()
    empty = Psi2Table(5, "structural", labels, [()] * len(labels))
    with pytest.raises(ValueError):
        beta(aut_action(ctx, inventory(ctx)), empty)


def test_orbit_partition_json_has_orbit_ids():
    ctx = gf_for_q(5)
    part = beta(aut_action(ctx, inventory(ctx)), psi2_structural(profile_census(ctx, inventory(ctx))))
    js = part.to_json()
    assert js["beta"] == 2
    assert set(js["orbit_of"].values()) == {0, 1}
    assert len(js["orbit_of"]) == 4


def test_orbits_respect_bipartition():
    # parts are Aut-invariant, so orbits stay within one direction
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    p1, p2 = verify_2covering(ctx, inv).parts()
    part = beta(aut_action(ctx, inv), psi2_structural(profile_census(ctx, inv)))
    for orbit in part.orbits:
        directions = {(a in p1) for a, b in orbit}
        assert len(directions) == 1
