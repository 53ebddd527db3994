"""Single-rule mutants of the structural rules, and the oracle q that catch them.

Each mutant changes one rule of ``structure.label_meets`` or one record of
``structure.maximal_subgroup_classes``.  With a caught mutant patched in,
structural Psi2 differs from the oracle's table at some q of the tier-1
oracle set or at 17, or from the Psi2 that the literal class sets of
``tests/fusion.py`` imply, so every branch of the rules has an
independent check.  The two halves of the subfield order test first show
at q = 64, which runs under ``INVGEN_EXTENDED=1``.  Subfield PSL at degree
5 first changes Psi2 at q = 243, where the oracle would enumerate 7
million elements; the literal class sets, which enumerate none, catch it
there, and at 1024 under ``INVGEN_EXTENDED=1``.  Neither check reads a
rule: the oracle's ``exit_bound`` comes from q alone, and the class sets
come from matrices, so no patch here reaches them.

The equivalent mutants change Psi2 at no q.  Each is checked to change no
table at any prime power q <= 1024:

  * ``psl_t_test``, the subfield PSL rule on t instead of t^2 (q0 = +-1
    modulo the SL order of the eigenvalue): by the argument in
    ``label_meets``, t^2 in GF(q0) with t not would put GF(q0^2) in GF(q);
  * ``swap_exc_unipotents``, the variants of the unipotent rule swapped:
    this swaps the class sets of the two A5 records;
  * ``exc_unipotents_both_variants``: an A5 meets unipotents only at q = 9,
    where both unipotent classes are isolated already;
  * ``a4_every_odd_prime``, A4 added at every odd prime with the rule of
    the reference list, ``a5_at_3_mod_10`` and ``psl_at_q0_2``: each
    class set holds the involutions and the one class of order 3 (5 does
    not divide |S| in the second), which the dihedral of the torus of
    order 3 meets too.  The first is why the list has no A4;
  * ``dih_split_no_unip``: the split dihedral meets unipotents only for q
    even, and then the Borel meets them and every split class;
  * ``s4_no_inv`` and ``a5_no_inv``: the involutions share a dihedral
    with every torus class, and the Borel with the unipotent classes
    unless q = 3 mod 4, where neither S4 nor A5 meets a unipotent class.
"""

import pytest

from invgen import structure
from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import inventory
from invgen.structure import (
    BOREL, DIH_NONSPLIT, DIH_SPLIT, EXC_A5, EXC_S4, SUBFIELD_PSL, SubgroupClass,
    profile_census, psi2_structural,
)
from fusion import class_fusion, implied_psi2
from helpers import EXC_A4, reference_meets, reference_subgroup_classes

# the q of test_c02_oracle_equivalence_mandatory and _wider, and 17, the
# first q = 1 mod 8 with an S4
ORACLE_QS = [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 31]
ALL_QS = [q for q in range(4, 1025) if prime_power_split(q)]


def meets(rule):
    """A mutant of ``label_meets``: ``rule(q, sig, sc)`` gives the
    verdict, or None to keep the real one."""
    def patch(monkeypatch):
        real = structure.label_meets

        def mutant(q, sig, sc):
            verdict = rule(q, sig, sc)
            return real(q, sig, sc) if verdict is None else verdict
        monkeypatch.setattr(structure, "label_meets", mutant)
    return patch


def records(edit):
    """A mutant of ``maximal_subgroup_classes``: ``edit(p, f, classes)``
    gives the list."""
    def patch(monkeypatch):
        real = structure.maximal_subgroup_classes
        monkeypatch.setattr(structure, "maximal_subgroup_classes",
                            lambda p, f: edit(p, f, real(p, f)))
    return patch


def never(sub_kind, kind):
    """The records of ``sub_kind`` meet no class of ``kind``."""
    return meets(lambda q, sig, sc: False if sc.kind == sub_kind and sig[0] == kind else None)


def torus_orders(sub_kind, orders):
    """The records of ``sub_kind`` meet the torus classes of ``orders`` only."""
    return meets(lambda q, sig, sc: sig[2] in orders
                 if sc.kind == sub_kind and sig[0] in ("split", "nonsplit") else None)


def both(*patches):
    """The mutants of all ``patches`` at once."""
    def patch(monkeypatch):
        for one in patches:
            one(monkeypatch)
    return patch


def drop(keep):
    return records(lambda p, f, classes: [sc for sc in classes if keep(p, f, sc)])


def add(when, *extra):
    return records(lambda p, f, classes: classes + list(extra) if when(p, f) else classes)


def subfield_test(verdict):
    """The subfield PSL rule on torus classes, from (q0, order)."""
    return meets(lambda q, sig, sc: verdict(sc.q0, sig[2])
                 if sc.kind == SUBFIELD_PSL and sig[0] in ("split", "nonsplit") else None)


def sl_order(q, order):
    """The order of the eigenvalue z of a torus class of PSL-order j: 2j
    when q is odd and j even, else j."""
    return 2 * order if q % 2 and order % 2 == 0 else order


CAUGHT = {
    "borel_no_split": never(BOREL, "split"),
    "borel_no_unip": never(BOREL, "unip"),
    "borel_inv_flipped": meets(lambda q, sig, sc: q % 4 == 3
                               if sc.kind == BOREL and sig[0] == "inv" else None),
    "dih_split_no_split": never(DIH_SPLIT, "split"),
    "dih_split_no_inv": never(DIH_SPLIT, "inv"),
    "dih_nonsplit_no_nonsplit": never(DIH_NONSPLIT, "nonsplit"),
    "dih_nonsplit_no_inv": never(DIH_NONSPLIT, "inv"),
    "dih_nonsplit_no_unip": never(DIH_NONSPLIT, "unip"),
    "psl_no_unip": never(SUBFIELD_PSL, "unip"),
    "psl_no_inv": never(SUBFIELD_PSL, "inv"),
    "s4_no_order_3": torus_orders(EXC_S4, (4,)),
    "s4_no_order_4": torus_orders(EXC_S4, (3,)),
    "a5_no_unip": never(EXC_A5, "unip"),
    "a5_no_order_3": torus_orders(EXC_A5, (5,)),
    "a5_no_order_5": torus_orders(EXC_A5, (3,)),
    "drop_borel": drop(lambda p, f, sc: sc.kind != BOREL),
    "drop_dih_split": drop(lambda p, f, sc: sc.kind != DIH_SPLIT),
    "drop_dih_nonsplit": drop(lambda p, f, sc: sc.kind != DIH_NONSPLIT),
    "drop_psl": drop(lambda p, f, sc: sc.kind != SUBFIELD_PSL),
    "drop_s4": drop(lambda p, f, sc: sc.kind != EXC_S4),
    "s4_at_7_mod_8_only": drop(lambda p, f, sc: sc.kind != EXC_S4 or p ** f % 8 == 7),
    "drop_a5": drop(lambda p, f, sc: sc.kind != EXC_A5),
    "drop_a5_v1": drop(lambda p, f, sc: sc != SubgroupClass(EXC_A5, variant=1)),
    "drop_a5_at_f_2": drop(lambda p, f, sc: sc.kind != EXC_A5 or f == 1),
}

# the two halves of the order test q0 = +-1 (mod j): the first q with a
# subfield record whose q0 is 1 mod one torus order and -1 mod another is
# 64, where PSL(2,4) meets the orders 3 and 5
ORDER_TEST_HALVES = {
    "psl_plus_one_only": subfield_test(lambda q0, order: q0 % order == 1),
    "psl_minus_one_only": subfield_test(lambda q0, order: q0 % order == order - 1),
}

# subfield PSL(2,q0) dropped where q = q0^5: first at 243 = 3^5, past the
# oracle's reach, where 4 ordered pairs of the classes SL(2,3) meets join Psi2
DEGREE_5_DROP = drop(lambda p, f, sc: sc.kind != SUBFIELD_PSL or sc.q0 ** 5 != p ** f)

EQUIVALENT = {
    "psl_t_test": meets(lambda q, sig, sc: sc.q0 % sl_order(q, sig[2])
                        in (1, sl_order(q, sig[2]) - 1)
                        if sc.kind == SUBFIELD_PSL and sig[0] in ("split", "nonsplit")
                        else None),
    "swap_exc_unipotents": meets(lambda q, sig, sc: sig[1] is (sc.variant == 2)
                                 if sc.kind == EXC_A5 and sig[0] == "unip"
                                 and sig[2] in (2, 3, 5) else None),
    "exc_unipotents_both_variants": meets(lambda q, sig, sc: sig[2] in (2, 3, 5)
                                          if sc.kind == EXC_A5 and sig[0] == "unip"
                                          else None),
    "a4_every_odd_prime": both(add(lambda p, f: f == 1 and p > 2, SubgroupClass(EXC_A4)),
                               meets(lambda q, sig, sc: reference_meets(q, sig, sc)
                                     if sc.kind == EXC_A4 else None)),
    "a5_at_3_mod_10": add(lambda p, f: f == 1 and p % 10 in (3, 7),
                          SubgroupClass(EXC_A5, variant=1),
                          SubgroupClass(EXC_A5, variant=2)),
    "psl_at_q0_2": add(lambda p, f: p == 2 and f % 2 == 1 and f > 1,
                       SubgroupClass(SUBFIELD_PSL, q0=2)),
    "dih_split_no_unip": never(DIH_SPLIT, "unip"),
    "s4_no_inv": never(EXC_S4, "inv"),
    "a5_no_inv": never(EXC_A5, "inv"),
}


def structural_near(q: int):
    return psi2_structural(profile_census(q), inventory(gf_for_q(q))).near


@pytest.fixture(scope="module")
def oracle_near(sessions):
    """q -> the oracle's Psi2 neighbour tuples over the tier-1 oracle set."""
    return {q: sessions(q).psi2().near for q in ORACLE_QS}


def caught_at(qs, expected, patch, monkeypatch) -> list:
    patch(monkeypatch)
    return [q for q in qs if structural_near(q) != expected[q]]


def test_the_unpatched_rules_match_the_oracle(oracle_near):
    assert all(structural_near(q) == near for q, near in oracle_near.items())


@pytest.mark.parametrize("name", CAUGHT)
def test_the_oracle_catches_the_mutant(name, oracle_near, monkeypatch):
    assert caught_at(ORACLE_QS, oracle_near, CAUGHT[name], monkeypatch)


@pytest.mark.extended
@pytest.mark.parametrize("name", ORDER_TEST_HALVES)
def test_the_oracle_catches_an_order_test_half_at_64_extended(name, sessions, monkeypatch):
    expected = {64: sessions(64).psi2().near}
    assert caught_at([64], expected, ORDER_TEST_HALVES[name], monkeypatch) == [64]


@pytest.mark.parametrize("name", ORDER_TEST_HALVES)
def test_an_order_test_half_changes_nothing_below_64(name, oracle_near, monkeypatch):
    assert caught_at(ORACLE_QS, oracle_near, ORDER_TEST_HALVES[name], monkeypatch) == []


def literal_near(q: int):
    """The Psi2 that the literal class sets of the reference list imply."""
    inv = inventory(gf_for_q(q))
    return implied_psi2(inv, class_fusion(inv, reference_subgroup_classes(inv.ctx)))


@pytest.mark.parametrize("q", [243, pytest.param(1024, marks=pytest.mark.extended)])
def test_the_literal_class_sets_catch_the_degree_5_drop(q, monkeypatch):
    assert caught_at([q], {q: literal_near(q)}, DEGREE_5_DROP, monkeypatch) == [q]


@pytest.mark.parametrize("name", EQUIVALENT)
def test_an_equivalent_mutant_changes_no_psi2(name, monkeypatch):
    expected = {q: structural_near(q) for q in ALL_QS}
    assert caught_at(ALL_QS, expected, EQUIVALENT[name], monkeypatch) == []
