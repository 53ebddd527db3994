import json
from math import gcd
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from invgen import psl2, structure
from invgen.autorbits import beta_fast
from invgen.cli import verify_qs
from invgen.gf import gf_for_q, prime_power_split
from invgen.iggraph import lambda_summary
from invgen.oracle import OracleSession
from invgen.psl2 import ClassLabel, _power_orders, inventory, signature_counts
from invgen.structure import (
    BOREL,
    DIH_NONSPLIT,
    DIH_SPLIT,
    EXC_A5,
    EXC_S4,
    SUBFIELD_PSL,
    Psi2Table,
    SubgroupClass,
    build_profiles,
    json_document,
    json_pair_list,
    json_pair_rows,
    maximal_subgroup_classes,
    profile_census,
    psi2_structural,
    verify_2covering,
)
from helpers import (
    EXC_A4,
    covering_sets,
    in_subfield,
    isolated,
    label_census,
    label_profiles,
    pairs,
    reference_census,
    reference_label_profiles,
    reference_meets,
    reference_subgroup_classes,
    subfield_order_test_mismatches,
    rows,
)

MANDATORY_QS = [4, 5, 7, 8, 9, 11, 13]
ALL_QS = [q for q in range(4, 1025) if prime_power_split(q)]


def by_kind(classes):
    out = {}
    for sc in classes:
        out.setdefault(sc.kind, []).append(sc)
    return out


# ---------------------------------------------------------------------------
# Dickson list
# ---------------------------------------------------------------------------

def test_subgroups_q7():
    kinds = by_kind(maximal_subgroup_classes(7, 1))
    assert kinds[BOREL] == [SubgroupClass(BOREL)]
    assert kinds[DIH_SPLIT] == [SubgroupClass(DIH_SPLIT)]  # not maximal, listed
    assert kinds[DIH_NONSPLIT] == [SubgroupClass(DIH_NONSPLIT)]  # not maximal, listed
    assert kinds[EXC_S4] == [SubgroupClass(EXC_S4)]  # one record for both classes
    assert EXC_A4 not in kinds and EXC_A5 not in kinds


def test_subgroup_class_is_hashable_and_immutable():
    assert SubgroupClass._fields == ("kind", "variant", "q0")
    classes = maximal_subgroup_classes(3, 3)
    again = maximal_subgroup_classes(3, 3)
    assert len(set(classes) | set(again)) == len(classes)
    sc = SubgroupClass(SUBFIELD_PSL, q0=3)
    assert sc in set(classes) and hash(sc) == hash(classes[classes.index(sc)])
    assert str(sc) == sc.id == "subfield_psl:q0=3"
    assert str(SubgroupClass(EXC_A5, variant=2)) == "exc_a5:v2"
    with pytest.raises(AttributeError):
        sc.q0 = 9


def reference_orders(ctx) -> dict:
    """Kind -> the order of its records in the reference list."""
    return {sc.kind: sc.order for sc in reference_subgroup_classes(ctx)}


def test_subgroups_q9():
    ctx = gf_for_q(9)
    kinds = by_kind(maximal_subgroup_classes(ctx.p, ctx.f))
    assert kinds[EXC_A5] == [SubgroupClass(EXC_A5, variant=v) for v in (1, 2)]
    assert set(kinds) == {BOREL, DIH_SPLIT, DIH_NONSPLIT, EXC_A5}  # no PGL(2,3)
    orders = reference_orders(ctx)
    assert [orders[k] for k in (BOREL, DIH_SPLIT, DIH_NONSPLIT, EXC_A5)] == [36, 8, 10, 60]


def test_subgroups_q8():
    ctx = gf_for_q(8)
    kinds = by_kind(maximal_subgroup_classes(ctx.p, ctx.f))
    assert kinds == {k: [SubgroupClass(k)] for k in (BOREL, DIH_SPLIT, DIH_NONSPLIT)}
    orders = reference_orders(ctx)
    assert [orders[k] for k in (BOREL, DIH_SPLIT, DIH_NONSPLIT)] == [56, 14, 18]


def test_subgroups_congruence_cases():
    for q in (5, 13):  # 5 and 13 mod 40: A4 is maximal, but its class set is a dihedral's
        ctx = gf_for_q(q)
        assert EXC_A4 not in by_kind(maximal_subgroup_classes(ctx.p, ctx.f))
        assert reference_orders(ctx)[EXC_A4] == 12
    kinds11 = by_kind(maximal_subgroup_classes(11, 1))
    assert len(kinds11[EXC_A5]) == 2 and EXC_S4 not in kinds11
    kinds31 = by_kind(maximal_subgroup_classes(31, 1))
    assert len(kinds31[EXC_A5]) == 2 and len(kinds31[EXC_S4]) == 1
    kinds25 = by_kind(maximal_subgroup_classes(5, 2))
    assert set(kinds25) == {BOREL, DIH_SPLIT, DIH_NONSPLIT}  # no PGL(2,5); p = 5 has no A5
    kinds27 = by_kind(maximal_subgroup_classes(3, 3))
    assert kinds27[SUBFIELD_PSL] == [SubgroupClass(SUBFIELD_PSL, q0=3)]
    kinds64 = by_kind(maximal_subgroup_classes(2, 6))
    assert kinds64[SUBFIELD_PSL] == [SubgroupClass(SUBFIELD_PSL, q0=4)]  # no PGL(2,8)
    kinds16 = by_kind(maximal_subgroup_classes(2, 4))
    assert set(kinds16) == {BOREL, DIH_SPLIT, DIH_NONSPLIT}  # no PGL(2,4)


@pytest.mark.parametrize("q", ALL_QS)
def test_dropped_records_lie_inside_a_listed_class_set(q):
    # every record of the reference list that the list leaves out meets
    # only classes that some one listed record meets too, so it adds no
    # Psi2 pair
    ctx = gf_for_q(q)
    sigs = list(signature_counts(ctx.p, ctx.f))[1:]
    listed = maximal_subgroup_classes(ctx.p, ctx.f)

    def meets(sc):
        return {sig for sig in sigs if reference_meets(q, sig, sc)}

    for sc in reference_subgroup_classes(ctx):
        if sc.id not in {other.id for other in listed}:
            assert any(meets(sc) <= meets(other) for other in listed), (q, sc.id)


@pytest.mark.parametrize("q", ALL_QS, scope="module")
def test_psi2_equals_the_reference_list_psi2(q, record):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    assert psi2_structural(profile_census(q), inv).near == (
        psi2_structural(reference_census(ctx, record.census), inv).near)


def assert_reference_list_counts(inv, census, record):
    """|Psi2|, beta, the covering sides and the summary of ``census`` equal
    those of the reference list's census on the signatures of the
    ``label_census`` record."""
    ref = reference_census(inv.ctx, record.census)
    cover, ref_cover = verify_2covering(census), verify_2covering(ref)
    assert (census.psi2_count, beta_fast(census), cover.sides) == (
        ref.psi2_count, beta_fast(ref), ref_cover.sides), census.q
    assert lambda_summary(census, cover, inv) == lambda_summary(ref, ref_cover, inv), census.q


@pytest.mark.parametrize("q", MANDATORY_QS + [16, 25, 27, 31, 64, 81])
def test_subgroup_orders_divide_group_order(q):
    inv = inventory(gf_for_q(q))
    for sc in reference_subgroup_classes(inv.ctx):
        assert inv.group_order() % sc.order == 0, sc


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

NONPRIME_POWERS = [q for q in range(4, 4097) if (pf := prime_power_split(q)) and pf[1] > 1]


@pytest.mark.parametrize("q", NONPRIME_POWERS)
def test_subfield_order_test_is_trace_membership(q):
    # the order test of label_meets against t^2 in GF(q0), and for a
    # subfield PSL record also t in GF(q0), at every torus class
    ctx = gf_for_q(q)
    assert subfield_order_test_mismatches(ctx, inventory(ctx)) == []


def test_profiles_q7_exact():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    profs = {lab.str_form(): sorted(ids) for lab, ids in
             label_profiles(inv, maximal_subgroup_classes(ctx.p, ctx.f)).items()}
    assert profs["inv"] == ["dih_nonsplit", "dih_split", "exc_s4"]
    assert profs["split:t=1"] == ["borel", "dih_split", "exc_s4"]
    assert profs["nonsplit:t=3"] == ["dih_nonsplit", "exc_s4"]
    assert profs["unip:sq"] == ["borel"]
    assert profs["unip:nsq"] == ["borel"]


def test_profiles_q9_variant_split():
    ctx = gf_for_q(9)
    inv = inventory(ctx)
    profs = {lab.str_form(): ids for lab, ids in
             label_profiles(inv, maximal_subgroup_classes(ctx.p, ctx.f)).items()}
    for n5 in ("nonsplit:t=4", "nonsplit:t=5"):
        assert {"dih_nonsplit", "exc_a5:v1", "exc_a5:v2"} <= profs[n5]
    assert "exc_a5:v1" in profs["unip:sq"] and "exc_a5:v2" not in profs["unip:sq"]
    assert "exc_a5:v2" in profs["unip:nsq"] and "exc_a5:v1" not in profs["unip:nsq"]
    # the reference list's PGL(2,3) classes split the unipotents the same
    # way, and lie in the Borel's class set
    ref = {lab.str_form(): ids for lab, ids in reference_label_profiles(inv).items()}
    assert "subfield_pgl:q0=3:v1" in ref["unip:sq"]
    assert "subfield_pgl:q0=3:v2" in ref["unip:nsq"]
    assert all(BOREL in ids for ids in ref.values() if any("pgl" in i for i in ids))


def test_profiles_q25_subfield_traces():
    # the reference list's PGL(2,5) meets a split class iff t^2 lies in
    # GF(5), and every class it meets, the Borel meets
    ctx = gf_for_q(25)
    inv = inventory(ctx)
    profs = reference_label_profiles(inv)
    for entry in inv:
        if entry.label.kind == "id":
            continue
        has_pgl = any(i.startswith("subfield_pgl") for i in profs[entry.label])
        assert not has_pgl or BOREL in profs[entry.label]
        if entry.label.kind == "split":
            t2 = ctx.mul(entry.label.trace, entry.label.trace)
            assert has_pgl == in_subfield(ctx, t2, 1)
    # orders 3, 4, 6 live in PGL(2,5); the order-12 classes do not
    split_orders_with_pgl = sorted(
        e.order for e in inv if e.label.kind == "split"
        and any(i.startswith("subfield_pgl") for i in profs[e.label])
    )
    assert split_orders_with_pgl == [3, 4, 6]


@pytest.mark.parametrize("q", MANDATORY_QS + [16, 25, 27, 49, 64, 81])
def test_profile_invariants(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    profs = label_profiles(inv, maximal_subgroup_classes(ctx.p, ctx.f))
    for entry in inv:
        if entry.label.kind == "id":
            continue
        assert profs[entry.label], f"{entry.label} meets no listed class"
        if entry.label.kind == "unip":
            assert BOREL in profs[entry.label]
        if entry.label.kind == "split":
            assert BOREL in profs[entry.label]
            assert not any(i.startswith(DIH_NONSPLIT) for i in profs[entry.label])
        if entry.label.kind == "nonsplit":
            assert DIH_NONSPLIT in profs[entry.label]
            assert BOREL not in profs[entry.label]


# ---------------------------------------------------------------------------
# structural Psi2
# ---------------------------------------------------------------------------

def test_psi2_q5_exact():
    ctx = gf_for_q(5)
    table = psi2_structural(profile_census(ctx.q), inventory(ctx))
    n3 = ClassLabel("nonsplit", 1)
    usq = ClassLabel("unip", sq=True)
    unsq = ClassLabel("unip", sq=False)
    assert pairs(table) == {(n3, usq), (n3, unsq), (usq, n3), (unsq, n3)}


def test_psi2_q7():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(inv.q), inv)
    assert len(table) == 8
    assert isolated(table) == {ClassLabel("split", 1)}


def test_psi2_q9():
    ctx = gf_for_q(9)
    inv = inventory(ctx)
    table = psi2_structural(profile_census(inv.q), inv)
    s4 = ClassLabel("split", 3)
    psi2_pairs = {(a.str_form(), b.str_form()) for a, b in pairs(table)}
    assert psi2_pairs == {
        ("split:t=3", "nonsplit:t=4"), ("split:t=3", "nonsplit:t=5"),
        ("nonsplit:t=4", "split:t=3"), ("nonsplit:t=5", "split:t=3"),
    }
    assert s4 not in isolated(table)


@pytest.mark.parametrize("q", MANDATORY_QS + [16, 17, 19, 23, 25, 27, 29, 31, 49])
def test_psi2_symmetry_and_no_identity(q):
    ctx = gf_for_q(q)
    psi2_pairs = pairs(psi2_structural(profile_census(ctx.q), inventory(ctx)))
    for a, b in psi2_pairs:
        assert (b, a) in psi2_pairs
        assert a.kind != "id" and b.kind != "id"
        assert a != b


def test_psi2_serialization():
    ctx = gf_for_q(5)
    table = psi2_structural(profile_census(ctx.q), inventory(ctx))
    js = json.loads("".join(table.json_chunks({"probability": 0.16})))
    assert js["q"] == 5 and js["method"] == "structural" and js["count"] == 4
    assert js["pairs"] == sorted(js["pairs"]) and js["probability"] == 0.16
    csv = "".join(table.text_blocks(","))
    assert len(csv.splitlines()) == 4
    assert all(line.count(",") == 1 for line in csv.splitlines())


def assert_blocks_match_rows(table):
    for sep in (",", "  "):
        blocks = list(table.text_blocks(sep))
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == "".join(f"{a}{sep}{b}\n" for a, b in rows(table))
    for extra in ({}, {"probability": 0.25, "match": True}):
        payload = {"q": table.q, "method": table.method, "count": len(table),
                   "pairs": [list(row) for row in rows(table)], **extra}
        assert "".join(table.json_chunks(extra)) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 49, 64, 81, 121])
def test_text_blocks_match_rows_structural(q):
    ctx = gf_for_q(q)
    assert_blocks_match_rows(psi2_structural(profile_census(ctx.q), inventory(ctx)))


@pytest.mark.parametrize("q", MANDATORY_QS)
def test_text_blocks_match_rows_oracle(q):
    assert_blocks_match_rows(OracleSession(inventory(gf_for_q(q))).psi2())


def test_json_chunks_of_an_empty_table():
    labels = inventory(gf_for_q(5)).nonidentity_labels()
    table = Psi2Table(5, "oracle", labels, [()] * len(labels))
    assert_blocks_match_rows(table)
    assert list(table.text_blocks(",")) == []


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(indent=2)
# ---------------------------------------------------------------------------

NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789:=(),", min_size=1,
                max_size=10)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
BOUND_REPORTS = st.fixed_dictionaries({
    "q": st.integers(4, 1 << 20), "psi2_count": st.integers(0), "beta_lower": st.integers(2),
    "beta_exact": st.none() | st.integers(2),
    "component_bound": st.integers(1).map(str), "log2_bound": st.floats(0, 1e6)})
ITEMS = st.one_of(NAMES, st.lists(NAMES, max_size=3), st.lists(NAMES, min_size=2, max_size=2),
                  BOUND_REPORTS)


def at_depth_2(item) -> str:
    return json.dumps(item, indent=2).replace("\n", "\n    ")


class Streamed(NamedTuple):
    """A list member given to the writer as an iterator of chunks; ``cuts[i]``
    ends a chunk after item i."""
    items: list
    cuts: list[bool]

    def chunks(self):
        chunk = []
        for item, cut in zip(self.items, self.cuts):
            chunk.append(at_depth_2(item))
            if cut:
                yield ",\n    ".join(chunk)
                chunk = []
        if chunk:
            yield ",\n    ".join(chunk)


@st.composite
def streamed(draw):
    items = draw(st.lists(ITEMS, max_size=6))
    return Streamed(items, draw(st.lists(st.booleans(), min_size=len(items),
                                         max_size=len(items))))


@given(st.dictionaries(st.text(max_size=8),
                       st.one_of(SCALARS, BOUND_REPORTS, st.lists(NAMES, max_size=4),
                                 streamed()),
                       max_size=6))
@example({})
@example({"q": 7, "empty": Streamed([], []), "one": Streamed(["inv"], [False]),
          "several": Streamed([["a", "b"], ["c", "d"], "e"], [False, True, False]),
          "report": {"q": 7, "beta_exact": None, "component_bound": "3"}, "names": ["a"]})
def test_json_document_is_json_dumps(members):
    given_members = {key: iter(value.chunks()) if isinstance(value, Streamed) else value
                     for key, value in members.items()}
    materialised = {key: value.items if isinstance(value, Streamed) else value
                    for key, value in members.items()}
    assert "".join(json_document(given_members)) == json.dumps(materialised, indent=2) + "\n"


@given(NAMES, st.lists(NAMES, min_size=1, max_size=5))
def test_pair_rows_and_pair_lists_are_items_at_depth_2(first, seconds):
    pairs = [(first, s) for s in seconds]
    assert json_pair_rows(first, seconds) == ",\n    ".join(map(at_depth_2, pairs))
    assert json_pair_list(pairs) == at_depth_2(pairs)


def test_psi2_table_len_is_the_pair_count():
    labels = inventory(gf_for_q(5)).nonidentity_labels()
    table = Psi2Table(5, "structural", labels, [(1, 2), (), (0,), (0, 1, 2)])
    assert len(table) == sum(map(len, table.near)) == len(rows(table))
    census = profile_census(13)
    assert len(psi2_structural(census, inventory(gf_for_q(13)))) == census.psi2_count


def test_text_blocks_sort_names_per_tuple_and_skip_empty():
    labels = [ClassLabel("split", 3), ClassLabel("nonsplit", 4), ClassLabel("inv"),
              ClassLabel("unip", sq=True), ClassLabel("split", 1)]
    shared = (1, 3)
    equal = tuple([0, 4]), tuple([0, 4])
    assert equal[0] == equal[1] and equal[0] is not equal[1]
    table = Psi2Table(7, "structural", labels, [shared, equal[0], (), equal[1], shared])
    assert_blocks_match_rows(table)
    assert list(table.text_blocks(",")) == [
        "nonsplit:t=4,split:t=1\nnonsplit:t=4,split:t=3\n",
        "split:t=1,nonsplit:t=4\nsplit:t=1,unip:sq\n",
        "split:t=3,nonsplit:t=4\nsplit:t=3,unip:sq\n",
        "unip:sq,split:t=1\nunip:sq,split:t=3\n",
    ]
    assert len(rows(table)) == len(table) == 8


# ---------------------------------------------------------------------------
# 2-covering
# ---------------------------------------------------------------------------

def test_covering_q7_empty_both():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    cov = verify_2covering(profile_census(inv.q))
    _, only_dihedral, both = covering_sets(inv, cov)
    assert cov.ok and both == set()
    assert {l.str_form() for l in only_dihedral} == {"inv", "nonsplit:t=3"}


def test_covering_q13_both_is_involution():
    ctx = gf_for_q(13)
    inv = inventory(ctx)
    cov = verify_2covering(profile_census(inv.q))
    assert cov.ok and {l.str_form() for l in covering_sets(inv, cov)[2]} == {"inv"}


def test_covering_q8_both_is_unipotent():
    ctx = gf_for_q(8)
    inv = inventory(ctx)
    cov = verify_2covering(profile_census(inv.q))
    assert cov.ok and {l.str_form() for l in covering_sets(inv, cov)[2]} == {"unip"}


def test_covering_holds_widely():
    for q in range(4, 200):
        if prime_power_split(q):
            ctx = gf_for_q(q)
            assert verify_2covering(profile_census(ctx.q)).ok, q


# ---------------------------------------------------------------------------
# census fast path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", MANDATORY_QS + [16, 25, 27, 31, 49, 64, 81])
def test_census_count_matches_explicit(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    assert profile_census(inv.q).psi2_count == len(psi2_structural(profile_census(inv.q), inv))


@pytest.mark.parametrize("q", MANDATORY_QS + [16, 25, 27, 49, 64, 81, 121, 128, 243, 256])
def test_psi2_equals_label_pair_sweep(q):
    # reference: test every unordered label pair for profile disjointness
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    profs = label_profiles(inv, maximal_subgroup_classes(ctx.p, ctx.f))
    labels = inv.nonidentity_labels()
    expected = set()
    for i, c in enumerate(labels):
        for d in labels[i:]:
            if profs[c].isdisjoint(profs[d]):
                expected |= {(c, d), (d, c)}
    assert pairs(psi2_structural(profile_census(inv.q), inv)) == expected


@pytest.mark.parametrize("q", [7, 9, 13, 64, 729, 1021])
def test_verify_runs_each_rule_once(q, monkeypatch):
    # one label_meets call per signature and listed record, the
    # covering included; the inventory's classes are placed in buckets
    # only at q = 7, where a torus class is isolated and named
    calls, placed = [], []
    meets, make, members = structure.label_meets, psl2.inventory, structure.ProfileCensus.members
    monkeypatch.setattr(structure, "label_meets", lambda *a: calls.append(a) or meets(*a))
    monkeypatch.setattr(structure.ProfileCensus, "members",
                        lambda census, inv: placed.append(inv) or members(census, inv))
    invs = []
    monkeypatch.setattr(psl2, "inventory", lambda ctx: invs.append(make(ctx)) or invs[-1])
    ctx = gf_for_q(q)
    checks, details = next(verify_qs([(ctx, False)]))
    assert all(checks.values()) and details == {}
    inv, = invs
    assert len(calls) == len(signature_counts(ctx.p, ctx.f)) * len(
        maximal_subgroup_classes(ctx.p, ctx.f))
    assert placed == ([inv] if q == 7 else [])


# ---------------------------------------------------------------------------
# the census from q's arithmetic against the label-level record
# ---------------------------------------------------------------------------

RECORD_QS = ALL_QS + [2048, 2187, 4093, 4096]

# Each test below compares one part of the census from q's arithmetic with
# the label-level record (conftest's ``record``, built once per q for the
# module); together they compare the whole record at every q of RECORD_QS.


@pytest.mark.parametrize("q", RECORD_QS, scope="module")
def test_census_from_arithmetic_is_the_fold_census(q, record):
    # the whole tuple; dict equality ignores the order of the signatures
    census = profile_census(q)
    assert census == record.census
    assert list(census.signatures.items()) == list(record.census.signatures.items())


@pytest.mark.parametrize("q", RECORD_QS, scope="module")
def test_signature_route_matches_label_reference(q, record):
    # the inventory's class entries, and beta counted by signature
    assert inventory(gf_for_q(q)).entries == record.entries
    assert beta_fast(profile_census(q)) == record.beta


@pytest.mark.parametrize("q", RECORD_QS, scope="module")
def test_census_matches_class_index_reference(q, record):
    # the classes of each bucket, as positions among the nonidentity labels
    assert profile_census(q).members(inventory(gf_for_q(q))) == record.members


@pytest.mark.parametrize("q", RECORD_QS, scope="module")
def test_census_on_masks_matches_the_frozenset_reference(q, record):
    # the covering sides and the summary, both read off the profile masks
    census = profile_census(q)
    cover = verify_2covering(census)
    assert cover == record.cover
    assert lambda_summary(census, cover, inventory(gf_for_q(q))) == record.summary


@pytest.mark.parametrize("q", RECORD_QS, scope="module")
def test_build_profiles_match_per_label_reference(q, record):
    # each rule on the record's signatures and list against the profile
    # every class of the signature has label by label
    census = record.census
    assert build_profiles(q, list(census.signatures), census.universe) == census.profiles


RECORD_CHECKS = [
    test_census_from_arithmetic_is_the_fold_census,
    test_signature_route_matches_label_reference,
    test_census_matches_class_index_reference,
    test_census_on_masks_matches_the_frozenset_reference,
    test_build_profiles_match_per_label_reference,
]


@pytest.mark.extended
def test_census_from_arithmetic_is_the_fold_census_extended():
    # every prime power up to 4096, odd f = 11 and the largest f within the
    # verify cap, one record each: the checks above past RECORD_QS, and
    # everywhere the counts of the reference list on its signatures
    for q in [q for q in range(4, 4097) if prime_power_split(q)] + [3 ** 11, 2 ** 18]:
        ctx = gf_for_q(q)
        record = label_census(ctx)
        if q not in RECORD_QS:
            for check in RECORD_CHECKS:
                check(q, record)
        assert_reference_list_counts(inventory(ctx), profile_census(q), record)


@given(st.integers(1, 5000), st.sampled_from([1, 2]), st.integers(0, 5000))
def test_power_orders_sieve_is_the_gcd_order(n, d, count):
    sl_orders = [n // gcd(k, n) for k in range(1, count + 1)]
    assert _power_orders(n, d, count) == [m // d if m % d == 0 else m for m in sl_orders]
