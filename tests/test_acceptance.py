"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured runtime; the stated budget
is asserted (they are generous on desk hardware).  The oracle's Psi2 is
checked against the structural one at q <= 13 and, in
``test_c02_oracle_equivalence_wider``, at 16, 19, 25, 27 and 31, which
covers the set `invgen verify --extended` runs.  The literal class sets of
``tests/fusion.py`` are checked against ``label_meets`` at every q of the
sweep, and the Psi2 they imply against the structural one.  Extended mode
(INVGEN_EXTENDED=1) also runs the oracle's Psi2 at q = 49, 64 and 81, the
literal class sets at every q up to 4096 and at 3^11 and 2^18, the
subfield order test against trace membership at those two q, and the beta
report at the bound cap (q = 4096).  Beta against the label-level record
past the sweep, at every q up to 4096 and at 3^11 and 2^18, is checked in
``tests/test_structure.py``
(``test_census_from_arithmetic_is_the_fold_census_extended``).

Criterion 10, self-consistency, is checked by unit tests: the symmetry of
Psi2 by ``test_structure.py::test_psi2_symmetry_and_no_identity``, its
Aut-invariance by ``test_autorbits.py::test_psi2_is_aut_invariant``,
x^S meeting <x> in {x, x^-1} by
``test_psl2.py::test_class_meets_cyclic_subgroup_in_inverse_pair`` and the
involution count by ``test_psl2.py::test_involution_count``.
"""

import hashlib
from math import comb

import pytest

from invgen.autorbits import aut_action, beta, beta_fast
from invgen.cli import main
from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import inventory
from invgen.iggraph import (
    component_bound,
    components,
    lambda_power,
    lambda_summary,
    n_lower_bound_report,
)
from invgen.oracle import OracleSession
from invgen.structure import profile_census, psi2_structural, verify_2covering
from fusion import class_fusion, implied_psi2
from helpers import (
    Budget,
    covering_parts,
    expected_fusion,
    isolated,
    pairs,
    part_pattern,
    reference_subgroup_classes,
    subfield_order_test_mismatches,
)

ALL_QS = [q for q in range(4, 1025) if prime_power_split(q)]
MANDATORY_ORACLE_QS = [4, 5, 7, 8, 9, 11, 13]
# characteristic 2 with subfield PSL(2,4) (16); A5 at q = 19; subfield
# PGL(2,5) (25); subfield PSL(2,3) at odd f (27); the largest q that
# `verify --extended` runs (31)
WIDER_ORACLE_QS = [16, 19, 25, 27, 31]
# Psi2 past the wider set, at the Dickson branches no smaller Psi2 run
# reaches: A5 at f = 2 and subfield PGL(2,7) at 49, subfield PSL(2,4) and
# PGL(2,8) at 64, subfield PGL(2,9) at f = 4 at 81
EXTENDED_PSI2_QS = [49, 64, 81]
# the literal class sets of tests/fusion.py past the sweep: every prime
# power up to 4096, odd f = 11 and the largest f within the verify cap
EXTENDED_FUSION_QS = [q for q in range(1025, 4097) if prime_power_split(q)] + [3 ** 11, 2 ** 18]
# the subfield rules' order test against literal trace membership past the
# tier-1 range q <= 4096: odd f = 11 (subfield PSL(2,3)) and f = 18
# (subfield PSL(2,64) and PGL(2,512))
EXTENDED_ORDER_TEST_QS = [3 ** 11, 2 ** 18]


def census_of(q: int):
    return profile_census(q)


def summary_of(q: int):
    census = census_of(q)
    # an inventory names the one isolated torus class, at q = 7
    inv = inventory(gf_for_q(q)) if q == 7 else None
    return lambda_summary(census, verify_2covering(census), inv)


def test_c01_class_count_formula():
    with Budget("criterion 1: class-count formula on [4,1024]", 10):
        for q in ALL_QS:
            d = 2 if q % 2 == 1 else 1
            assert len(inventory(gf_for_q(q))) == (q + 4 * d - 3) // d, q


def test_c02_oracle_equivalence_mandatory():
    with Budget("criterion 2: oracle == structural on {4,5,7,8,9,11,13}", 120):
        for q in MANDATORY_ORACLE_QS:
            sess = OracleSession(inventory(gf_for_q(q)))
            structural = psi2_structural(profile_census(q), sess.inv)
            assert pairs(sess.psi2()) == pairs(structural), q


def test_c02_oracle_equivalence_wider():
    with Budget("criterion 2 wider: oracle == structural on {16,19,25,27,31}", 60):
        for q in WIDER_ORACLE_QS:
            sess = OracleSession(inventory(gf_for_q(q)))
            structural = psi2_structural(profile_census(q), sess.inv)
            assert pairs(sess.psi2()) == pairs(structural), q


@pytest.mark.extended
def test_c02_oracle_equivalence_q49_q64_q81():
    with Budget("criterion 2 extended: oracle == structural at q=49, 64, 81", 60):
        for q in EXTENDED_PSI2_QS:
            sess = OracleSession(inventory(gf_for_q(q)))
            structural = psi2_structural(profile_census(q), sess.inv)
            assert pairs(sess.psi2()) == pairs(structural), q


def literal_class_sets(q: int):
    """(inventory, class_fusion over the reference list) at q, the class
    sets checked equal to those ``reference_meets`` gives."""
    inv = inventory(gf_for_q(q))
    reference = reference_subgroup_classes(inv.ctx)
    fusion = class_fusion(inv, reference)
    assert fusion == expected_fusion(inv, reference), q
    return inv, fusion


def test_c02_class_fusion():
    with Budget("criterion 2: literal class sets == label_meets, and their Psi2 == "
                "structural, on [4,1024]", 10):
        for q in ALL_QS:
            inv, fusion = literal_class_sets(q)
            assert implied_psi2(inv, fusion) == psi2_structural(profile_census(q), inv).near, q


@pytest.mark.extended
def test_c02_class_fusion_extended():
    with Budget("criterion 2 extended: literal class sets == label_meets on "
                "(1024,4096], 3^11 and 2^18", 60):
        for q in EXTENDED_FUSION_QS:
            literal_class_sets(q)


@pytest.mark.extended
def test_c02_subfield_order_test_extended():
    with Budget("criterion 2 extended: subfield order test at q = 3^11, 2^18", 60):
        for q in EXTENDED_ORDER_TEST_QS:
            ctx = gf_for_q(q)
            assert subfield_order_test_mismatches(ctx, inventory(ctx)) == [], q


def test_c03_isolated_vertex_census():
    with Budget("criterion 3: isolated-vertex census", 60):
        def isolated_names(q):
            if q <= 13:
                return {l.str_form() for l in isolated(OracleSession(inventory(gf_for_q(q))).psi2())}
            return set(summary_of(q).isolated)

        assert isolated_names(7) == {"split:t=1"}  # the order-3 class
        assert isolated_names(9) == {"inv", "unip:sq", "unip:nsq"}
        for q in (13, 17, 25, 29):
            assert isolated_names(q) == {"inv"}, q
        for q in (8, 16):
            assert isolated_names(q) == {"unip"}, q  # involutions are the order-2 class
        for q in (11, 19, 23):
            assert isolated_names(q) == set(), q


def test_c04_bipartite_connected_diameter():
    with Budget("criterion 4: bipartite/connected/diameter<=3 on [4,1024]", 60):
        for q in ALL_QS:
            s = summary_of(q)
            assert s.bipartite and s.parts_match_covering, q
            assert s.component_count == 1, q
            assert s.diameter <= 3, q


def test_c05_probability_convergence():
    with Budget("criterion 5: | |Psi2|/k^2 - 1/2 | <= 10/q on [64,1024]", 60):
        for q in ALL_QS:
            if q < 64:
                continue
            census = census_of(q)
            k = sum(census.signatures.values())  # the classes, the identity's too
            assert abs(census.psi2_count / (k * k) - 0.5) <= 10 / q, q


def test_c06_psi2_asymptotic():
    with Budget("criterion 6: |Psi2|*2d^2/q^2 in [0.8,1.2] on [64,1024]", 60):
        for q in ALL_QS:
            if q < 64:
                continue
            d = 2 if q % 2 == 1 else 1
            ratio = census_of(q).psi2_count * 2 * d * d / (q * q)
            assert 0.8 <= ratio <= 1.2, (q, ratio)


def test_c07_beta_pipeline():
    with Budget("criterion 7: beta values and parity/bounds on [4,1024]", 60):
        # oracle-certified Psi2 for the three named values
        for q, expected in ((5, 2), (7, 4), (9, 2)):
            sess = OracleSession(inventory(gf_for_q(q)))
            part = beta(aut_action(sess.inv), sess.psi2())
            assert part.beta == expected, q
        for q in ALL_QS:
            d = 2 if q % 2 == 1 else 1
            census = profile_census(q)
            b = beta_fast(census)
            count = census.psi2_count
            assert b % 2 == 0, q
            assert count / (d * prime_power_split(q)[1]) <= b <= count, q


@pytest.mark.extended
def test_c07_beta_at_the_bound_cap_extended(capsys):
    # q = 4096 has beta = BOUND_BETA_CAP: its report is still built, byte
    # for byte as at commit b4db116, before the cap existed
    with Budget("criterion 7 extended: beta --q 4096 at the bound cap", 5):
        assert main(["beta", "--q", "4096", "--format", "json"]) == 0
        out = capsys.readouterr().out  # before the Budget prints its line
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "58b44d7318a2e00e4b4a4821b2054365f4b80bb9a929becd736a6d088aba4244")


def test_c08_power_graph_ground_truth():
    with Budget("criterion 8: plus graph of PSL(2,5)^2", 10):
        ctx = gf_for_q(5)
        inv = inventory(ctx)
        psi2 = psi2_structural(profile_census(inv.q), inv)
        action = aut_action(inv)
        assert beta(action, psi2).beta == 2
        g = lambda_power(ctx, 2, psi2, action, plus=True)
        assert len(g.vertices) == 4
        comps = components(g)
        assert len(comps) == 1
        assert len(comps) >= component_bound(2) == 1
        p1, _ = covering_parts(inv, verify_2covering(profile_census(inv.q)))
        for v in g.vertices:
            assert len(part_pattern(v, p1)) == 1, v  # one coordinate per part


@pytest.mark.extended
def test_c08_power_graph_q19_t4_extended():
    # the plus graph of PSL(2,19)^4 took 4.7-4.9 s to build while its
    # analysis searched from every twin class over the vertices' masks
    # (2-core Xeon VM); on the twin quotient it must take half that
    ctx = gf_for_q(19)
    inv = inventory(ctx)
    psi2 = psi2_structural(profile_census(19), inv)
    action = aut_action(inv)
    with Budget("criterion 8 extended: plus graph of PSL(2,19)^4", 2.4):
        g = lambda_power(ctx, 4, psi2, action, plus=True)
    assert (len(g.vertices), g.edge_count(), len(components(g))) == (13959, 2211300, 8)


def test_c09_bound_report_q25():
    with Budget("criterion 9: exact bound report at q=25", 10):
        rep = n_lower_bound_report(profile_census(25))
        assert rep["psi2_count"] == 84
        assert rep["beta_lower"] == 20  # floor(84 / (d*f)) = 21, rounded down to even
        bound = int(rep["component_bound"])
        assert bound == comb(20, 10) // 2 == 92378
        low = int(rep["log2_bound"])
        assert 2 ** low <= bound <= 2 ** (low + 1)
