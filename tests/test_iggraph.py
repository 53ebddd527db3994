import decimal
import json
import sys
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgen import autorbits, iggraph
from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import ClassLabel, inventory
from invgen.autorbits import AutAction, aut_action, beta_fast
from invgen.iggraph import (
    POWER_WORK_CAP,
    GraphCapError,
    _big_int_str,
    _bits,
    _half_binomial_factors,
    _parts_match_covering,
    IGGraph,
    component_bound,
    components,
    diameter,
    expected_isolated,
    graph_to_json,
    int_log2,
    is_bipartite,
    lambda_graph,
    lambda_power,
    lambda_summary,
    n_lower_bound_report,
    to_dot,
)
from invgen.structure import CoveringResult, profile_census, psi2_structural, verify_2covering
import helpers
from helpers import (
    adjacency, component_count, covering_parts, graph_from_near, isolated, pairs, part_pattern,
    quotient_parts_match, ref_bits, ref_components, ref_diameter, ref_dot, ref_graph_json,
    ref_is_bipartite, ref_power_candidates,
)


# ---------------------------------------------------------------------------
# graphs to test: synthetic ones from label-keyed neighbour sets, and the
# structural graphs of PSL(2,q) and its powers
# ---------------------------------------------------------------------------

def from_adjacency(vertices, adj):
    """An IGGraph on ``vertices`` from label-keyed neighbour sets."""
    pos = {v: i for i, v in enumerate(vertices)}
    nbrs = [sum(1 << pos[w] for w in adj[v]) for v in vertices]
    return IGGraph(0, 1, "synthetic", list(vertices), nbrs)


def synthetic(edges, extra_vertices=()):
    vertices = sorted({v for e in edges for v in e} | set(extra_vertices))
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return from_adjacency(vertices, adj)


def structural(q):
    """Context, inventory and structural Psi2 of PSL(2,q)."""
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    return ctx, inv, psi2_structural(profile_census(inv.q), inv)


def graph_of(q, plus):
    ctx, inv, psi2 = structural(q)
    return lambda_graph(psi2, plus=plus)


def power_of(q, t, **kwargs):
    ctx, inv, psi2 = structural(q)
    return lambda_power(ctx, t, psi2, aut_action(inv), inv, **kwargs)


# ---------------------------------------------------------------------------
# lambda graphs
# ---------------------------------------------------------------------------

def test_lambda_q7_plus():
    g = graph_of(7, plus=True)
    assert len(g.vertices) == 4 and g.edge_count() == 4
    assert len(components(g)) == 1
    ok, parts = is_bipartite(g)
    assert ok
    sides = {frozenset(v.str_form() for v in part) for part in parts}
    assert sides == {frozenset({"inv", "nonsplit:t=3"}),
                     frozenset({"unip:sq", "unip:nsq"})}
    assert diameter(g) == 2


def test_lambda_q7_with_isolated():
    g = graph_of(7, plus=False)
    assert len(g.vertices) == 5
    assert ClassLabel("split", 1) in g.vertices
    assert not adjacency(g)[ClassLabel("split", 1)]


def test_lambda_q9_is_a_path():
    g = graph_of(9, plus=True)
    s4 = ClassLabel("split", 3)
    assert sorted(g.vertex_name(v) for v in g.vertices) == [
        "nonsplit:t=4", "nonsplit:t=5", "split:t=3"]
    assert len(adjacency(g)[s4]) == 2
    assert diameter(g) == 2


def test_lambda_power_q5():
    g = power_of(5, 2, plus=True)
    assert len(g.vertices) == 4
    assert len(components(g)) == 1
    n3 = ClassLabel("nonsplit", 1)
    usq = ClassLabel("unip", sq=True)
    assert (usq, n3) in adjacency(g)[(n3, usq)]  # columns land in different orbits


def test_lambda_power_q5_identityless_and_isolated():
    g = power_of(5, 2, plus=False)
    assert len(g.vertices) == 16  # 4 nonidentity labels squared
    n3 = ClassLabel("nonsplit", 1)
    assert not adjacency(g)[(n3, n3)]  # a repeated column cannot generate


# long masks, dense and sparse
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=1 << 2000),
                 st.sets(st.integers(min_value=0, max_value=5000), max_size=40).map(
                     lambda bits: sum(1 << i for i in bits))))
def test_bits_are_the_set_bits(mask):
    assert _bits(mask) == ref_bits(mask)


def test_lambda_power_cap(monkeypatch):
    monkeypatch.setattr(iggraph, "POWER_WORK_CAP", 10)
    with pytest.raises(GraphCapError):
        power_of(5, 2)


def refuse_elements(self):
    raise AssertionError("Aut(S) elements built before the cap check")


class Reached(Exception):
    """Raised in place of ``AutAction.elements``: the cap check was passed."""


def reached(self):
    raise Reached


@pytest.mark.parametrize("plus,cap,refused", [
    (True, 255, True), (True, 256, False), (False, 624, True), (False, 625, False)])
def test_lambda_power_cap_bounds_adjacency_bits(plus, cap, refused, monkeypatch):
    # q = 7 indexes 4^2 = 16 tuples with plus (split:t=1 has no partner) and
    # 5^2 = 25 without; the cap is on the square of that count, and a
    # refusal comes before any Aut(S) element is built
    ctx, inv, psi2 = structural(7)
    action = aut_action(inv)
    monkeypatch.setattr(iggraph, "POWER_WORK_CAP", cap)
    if refused:
        monkeypatch.setattr(AutAction, "elements", refuse_elements)
        with pytest.raises(GraphCapError, match="adjacency bits"):
            lambda_power(ctx, 2, psi2, action, inv, plus=plus)
    else:
        g = lambda_power(ctx, 2, psi2, action, inv, plus=plus)
        assert len(g.vertices) == (14 if plus else 25)


@pytest.mark.parametrize("q,plus,refused", [
    (8, False, True), (8, True, False), (11, False, False), (11, True, False),
    (13, False, True), (13, True, False)])
def test_lambda_power_default_cap_at_t5(q, plus, refused, monkeypatch):
    # 8^5 = 32,768 tuples are 2^30 bits, over the default cap of 2^29; with
    # plus q = 8 and 13 index 7^5 = 16,807 tuples, as q = 11 does either way
    monkeypatch.setattr(AutAction, "elements", refuse_elements if refused else reached)
    with pytest.raises(GraphCapError if refused else Reached):
        power_of(q, 5, plus=plus)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
@pytest.mark.parametrize("plus", [False, True])
def test_lambda_power_equals_candidate_loop(q, plus):
    ctx, inv, psi2 = structural(q)
    action = aut_action(inv)
    for t in range(1, min(beta_fast(profile_census(inv.q)), 3) + 1):
        g = lambda_power(ctx, t, psi2, action, inv, plus=plus)
        ref = ref_power_candidates(ctx, t, psi2, action, inv, plus=plus)
        assert g.vertices == ref.vertices and g.nbrs == ref.nbrs, t


def candidate_loop_cases():
    """Every (q, t, plus) with q <= 32 and 1 <= t <= beta within
    POWER_WORK_CAP whose reference tries at most 50,000 candidates."""
    cases = []
    for q in range(4, 33):
        if not prime_power_split(q):
            continue
        ctx, inv, psi2 = structural(q)
        for t in range(1, beta_fast(profile_census(inv.q)) + 1):
            if len(psi2) ** t > 50_000:
                break
            for plus in (False, True):
                indexed = sum(1 for js in psi2.near if js or not plus) ** t
                if indexed * indexed <= POWER_WORK_CAP:
                    cases.append((q, t, plus))
    return cases


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(candidate_loop_cases()))
def test_lambda_power_matches_candidate_loop_within_the_cap(case):
    q, t, plus = case
    ctx, inv, psi2 = structural(q)
    action = aut_action(inv)
    g = lambda_power(ctx, t, psi2, action, inv, plus=plus)
    ref = ref_power_candidates(ctx, t, psi2, action, inv, plus=plus)
    assert g.vertices == ref.vertices and g.nbrs == ref.nbrs


def each_pair_its_own_orbit(action, psi2):
    """A broken ``pair_orbits``: every Psi2 pair named as an orbit of its own."""
    return {(i, j): (i, j) for i, js in enumerate(psi2.near) for j in js}


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_power_reference_is_independent_of_pair_orbits(q, monkeypatch):
    # the reference finds its orbits by union-find, so a broken pair_orbits,
    # put wherever the reference could read it, moves lambda_power away from it
    ctx, inv, psi2 = structural(q)
    action = aut_action(inv)
    for module in (autorbits, helpers):
        monkeypatch.setattr(module, "pair_orbits", each_pair_its_own_orbit, raising=False)
    g = lambda_power(ctx, 2, psi2, action, inv, plus=True)
    ref = ref_power_candidates(ctx, 2, psi2, action, inv, plus=True)
    assert (g.vertices, g.nbrs) != (ref.vertices, ref.nbrs)


def test_lambda_power_rejects_t_above_beta():
    with pytest.raises(ValueError):
        power_of(5, 3)  # beta(PSL(2,5)) = 2


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25])
@pytest.mark.parametrize("plus", [False, True])
def test_lambda_graph_edges_are_psi2_pairs(q, plus):
    ctx, inv, psi2 = structural(q)
    g = lambda_graph(psi2, plus=plus)
    labels = inv.nonidentity_labels()
    psi2_pairs = pairs(psi2)
    touched = {a for a, _ in psi2_pairs}
    assert g.vertices == ([v for v in labels if v in touched] if plus else labels)
    adj = adjacency(g)
    assert {(v, w) for v in g.vertices for w in adj[v]} == psi2_pairs


@pytest.mark.parametrize("nbrs,match", [
    ([0b10, 0b00], "not symmetric"),
    ([0b01, 0b00], "loops"),
    ([0b110, 0b001], "past the last vertex"),
    ([0b10], "one neighbour mask per vertex"),
])
def test_iggraph_rejects_bad_masks(nbrs, match):
    with pytest.raises(RuntimeError, match=match):
        IGGraph(0, 1, "synthetic", ["a", "b"], nbrs)


@pytest.mark.parametrize("nbrs,match", [
    ([0b010, 0b101, 0b000], "not symmetric"),
    ([0b010, 0b011, 0b000], "loops"),
    ([-1, 0b000, 0b000], "past the last vertex"),
    ([0b010, 0b001, 0b000, 0b000], "one neighbour mask per vertex"),
    ([0b100, 0b100, 0b001], "not symmetric"),  # twins a, b; c lists only a
])
def test_iggraph_checks_each_invariant_on_construction(nbrs, match):
    with pytest.raises(RuntimeError, match=match):
        IGGraph(0, 1, "synthetic", ["a", "b", "c"], nbrs)


def test_iggraph_keeps_its_fields():
    g = IGGraph(7, 2, "structural", ["a", "b", "c"], [0b010, 0b101, 0b010])
    assert (g.q, g.t, g.method, g.vertices, g.nbrs) == (
        7, 2, "structural", ["a", "b", "c"], [0b010, 0b101, 0b010])
    assert g.edge_count() == 2


# ---------------------------------------------------------------------------
# analyses on synthetic graphs
# ---------------------------------------------------------------------------

def test_single_edge():
    g = synthetic([("a", "b")])
    assert len(components(g)) == 1
    assert is_bipartite(g)[0]
    assert diameter(g) == 1


def test_triangle_solver_selftest():
    g = synthetic([("a", "b"), ("b", "c"), ("a", "c")])
    assert not is_bipartite(g)[0]


def test_edgeless():
    g = synthetic([], extra_vertices=["a", "b"])
    assert g.edge_count() == 0
    assert diameter(g) == 0
    assert len(components(g)) == 2


@st.composite
def random_graphs(draw):
    """Small graphs with random edges, plus an optional odd cycle, isolated
    vertices and twins (new vertices given the neighbourhood of an existing
    one), their vertices listed in a random order."""
    n = draw(st.integers(0, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    cycle = draw(st.sampled_from([0, 3, 5, 7]))
    edges += [(n + i, n + (i + 1) % cycle) for i in range(cycle)]
    total = n + cycle + draw(st.integers(0, 3))
    adj = {v: set() for v in range(total)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for _ in range(draw(st.integers(0, 2)) if total else 0):
        source = draw(st.integers(0, total - 1))
        for twin in range(len(adj), len(adj) + draw(st.integers(1, 3))):
            adj[twin] = set(adj[source])
            for w in adj[twin]:
                adj[w].add(twin)
    order = draw(st.permutations(range(len(adj))))
    return from_adjacency(order, adj)


# isolated vertices 0, 3, 6, 8 between the members of two twin classes, as
# in the graphs without plus: K_{2,3} on {1, 4} and {2, 5, 7}
INTERLEAVED = synthetic([(u, v) for u in (1, 4) for v in (2, 5, 7)], extra_vertices=[0, 3, 6, 8])
# a triangle 0, 1, 2 and a twin 3 of 0: not bipartite, with a class {0, 3}
TWIN_TRIANGLE = synthetic([(0, 1), (1, 2), (0, 2), (3, 1), (3, 2)])
# the leaves of a star are one class whose only neighbours are one class,
# the centre 2: the quotient is one edge, and the diameter of 2 is the lift's
STAR = synthetic([(2, leaf) for leaf in (0, 1, 3)])


@settings(max_examples=300, deadline=None)
@given(random_graphs())
@example(INTERLEAVED)
@example(TWIN_TRIANGLE)
@example(STAR)
def test_analyses_match_references(g):
    assert components(g) == ref_components(g)
    assert is_bipartite(g) == ref_is_bipartite(g)
    assert diameter(g) == ref_diameter(g)


@settings(max_examples=300, deadline=None)
@given(random_graphs())
@example(INTERLEAVED)
@example(STAR)
def test_twin_classes(g):
    # one class per distinct nonzero neighbour mask and one per isolated
    # vertex, numbered by first vertex
    heads = [i for i, mask in enumerate(g.nbrs) if not mask or g.nbrs.index(mask) == i]
    assert g.classes == heads
    assert g.twin == [heads.index(g.nbrs.index(mask) if mask else i)
                      for i, mask in enumerate(g.nbrs)]


def test_five_cycle():
    g = synthetic([(i, (i + 1) % 5) for i in range(5)])
    assert not is_bipartite(g)[0]
    assert diameter(g) == 2


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_clique_chromatic_covering_chain(q):
    # the 2-covering colours the plus graph, so with an edge its clique and
    # chromatic numbers are both gamma = 2
    g = graph_of(q, plus=True)
    assert g.edge_count() >= 1
    assert is_bipartite(g)[0]
    ctx = gf_for_q(q)
    assert verify_2covering(profile_census(ctx.q)).ok


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_component_bound_values():
    for b in range(2, 4001, 2):
        half = comb(b, b // 2) // 2  # the reference
        assert component_bound(b) == half, b
        assert _big_int_str(_half_binomial_factors(b)) == str(decimal.Decimal(half)), b
    with pytest.raises(RuntimeError):
        component_bound(5)
    with pytest.raises(RuntimeError):
        component_bound(0)


def power_cases():
    """Every (q, t, beta) with q <= 27 and 2 <= t <= beta whose plus graph
    is within POWER_WORK_CAP: the tuples over the labels with a partner,
    squared; the five slowest run only when extended."""
    slow = {(8, 5), (11, 5), (13, 5), (17, 4), (19, 4)}
    cases = []
    for q in range(4, 28):
        if not prime_power_split(q):
            continue
        ctx, inv, psi2 = structural(q)
        b = beta_fast(profile_census(inv.q))
        live = sum(1 for js in psi2.near if js)
        for t in range(2, b + 1):
            if live ** (2 * t) <= POWER_WORK_CAP:
                marks = [pytest.mark.extended] if (q, t) in slow else []
                cases.append(pytest.param(q, t, b, marks=marks, id=f"q{q}-t{t}"))
    return cases


@pytest.mark.parametrize("q,t,beta_value", power_cases())
def test_components_equal_pattern_pairs(q, t, beta_value):
    # the paper's bound, measured: every edge moves each coordinate to the
    # other side of the 2-covering, so each component realises one pattern
    # pair {P, P^c}, and every realised pair is one component
    ctx, inv, psi2 = structural(q)
    g = lambda_power(ctx, t, psi2, aut_action(inv), inv, plus=True)
    p1, _ = covering_parts(inv, verify_2covering(profile_census(inv.q)))
    every = frozenset(range(t))
    patterns = {frozenset({part_pattern(v, p1), every - part_pattern(v, p1)})
                for v in g.vertices}
    count = len(components(g))
    assert count == len(patterns)
    assert count == component_count(beta_value, t)
    if t == beta_value:
        assert count >= component_bound(beta_value)
        assert component_count(beta_value, beta_value) == component_bound(beta_value)


def test_report_q5():
    ctx = gf_for_q(5)
    inv = inventory(ctx)
    rep = n_lower_bound_report(profile_census(inv.q))
    assert rep["psi2_count"] == 4 and rep["beta_lower"] == 2
    assert int(rep["component_bound"]) == 1 and rep["log2_bound"] == 0.0


def test_report_q7():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    rep = n_lower_bound_report(profile_census(inv.q))
    assert rep["beta_lower"] == 4 and int(rep["component_bound"]) == 3


def test_report_q25():
    ctx = gf_for_q(25)
    inv = inventory(ctx)
    rep = n_lower_bound_report(profile_census(inv.q))
    assert rep["psi2_count"] == 84
    assert rep["beta_lower"] == 20  # 84 / (2*2) = 21 rounded down to even
    bound = int(rep["component_bound"])
    assert bound == comb(20, 10) // 2
    assert 2 ** int(rep["log2_bound"]) <= bound <= 2 ** (int(rep["log2_bound"]) + 1)


def test_big_int_str_leaves_digit_limit():
    # beta = 14504 at q = 512: 4364 digits, above the default int-to-str
    # limit.  The thread's decimal context is set to one that would round
    # the bound and trap the rounding, so the text is right only if every
    # product is made in the report's own context
    census = profile_census(512)
    limit = sys.get_int_max_str_digits()
    with decimal.localcontext(decimal.Context(prec=5, traps=[decimal.Inexact])) as thread:
        rep = n_lower_bound_report(census)
        assert decimal.getcontext() is thread
        assert thread.prec == 5 and thread.traps[decimal.Inexact]
        assert not any(thread.flags.values())
    assert sys.get_int_max_str_digits() == limit
    assert rep["beta_lower"] == 14504 and len(rep["component_bound"]) == 4364 > limit
    assert rep["component_bound"] == str(decimal.Decimal(comb(14504, 7252) // 2))


def sweep_cases():
    """Every q of ``verify --q-range 4..1024``; those whose beta is above
    30,000 (comb takes over 10 ms there) run only when extended."""
    cases = []
    for q in range(4, 1025):
        if prime_power_split(q):
            slow = beta_fast(profile_census(q)) > 30_000
            marks = [pytest.mark.extended] if slow else []
            cases.append(pytest.param(q, marks=marks, id=f"q{q}"))
    return cases


@pytest.mark.parametrize("q", sweep_cases())
def test_reports_equal_comb_on_the_sweep(q):
    # the floor beta and the exact beta that ``beta --q`` reports
    census = profile_census(q)
    b = beta_fast(census)
    for rep in (n_lower_bound_report(census), n_lower_bound_report(census, beta_exact=b)):
        use = rep["beta_lower"]
        half = comb(use, use // 2) // 2  # the reference
        assert component_bound(use) == half
        assert rep["component_bound"] == str(decimal.Decimal(half))
        assert rep["log2_bound"] == int_log2(half)


def test_int_log2_big():
    n = (1 << 200) + 12345
    assert abs(int_log2(n) - 200.0) < 1e-9
    with pytest.raises(RuntimeError, match="non-positive"):
        int_log2(0)


def test_report_with_exact_beta():
    ctx = gf_for_q(7)
    inv = inventory(ctx)
    rep = n_lower_bound_report(profile_census(inv.q), beta_exact=4)
    assert rep["beta_exact"] == 4 and int(rep["component_bound"]) == 3


# ---------------------------------------------------------------------------
# summary fast path agrees with the explicit graph
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49])
def test_summary_matches_explicit_graph(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    census = profile_census(inv.q)
    table = psi2_structural(census, inv)
    g = lambda_graph(table, plus=True)
    s = lambda_summary(census, verify_2covering(census), inv)
    assert census.psi2_count == len(table)
    assert s.component_count == len(components(g))
    assert s.bipartite == is_bipartite(g)[0]
    assert s.diameter == diameter(g)
    assert set(s.isolated) == {l.str_form() for l in isolated(table)}
    assert set(s.isolated) == expected_isolated(inv)


def test_summary_requires_the_inventory():
    # it names the isolated torus classes of q = 7 from the inventory, so
    # no q may call it without one
    census = profile_census(13)
    with pytest.raises(TypeError):
        lambda_summary(census, verify_2covering(census))


@st.composite
def bucket_quotients(draw):
    """Neighbour masks of a few buckets, the bucket of each signature (every
    bucket has one; signature 0 is the identity's) and each signature's
    covering side, mostly the side drawn for its bucket."""
    n = draw(st.integers(1, 6))
    nbrs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    sig_bucket = [-1, *range(n), *draw(st.lists(st.integers(0, n - 1), max_size=6))]
    usual = [draw(st.integers(0, 3)) for _ in range(n)]
    sides = [3] + [draw(st.one_of(st.just(usual[b]), st.integers(0, 3))) for b in sig_bucket[1:]]
    return nbrs, sig_bucket, sides


@settings(max_examples=300, deadline=None)
@given(bucket_quotients())
def test_parts_match_covering_matches_the_quotient_reference(case):
    nbrs, sig_bucket, sides = case
    census = SimpleNamespace(sig_bucket=sig_bucket, buckets=[None] * len(nbrs))
    cover = CoveringResult(all(sides[1:]), sides)
    quotient = graph_from_near(0, 1, "synthetic", list(range(len(nbrs))), list(map(_bits, nbrs)),
                               True)
    assert (_parts_match_covering(cover, census, nbrs)
            == quotient_parts_match(cover, census, quotient))


# ---------------------------------------------------------------------------
# power-vertex balance (exact at t = beta, and only there)
# ---------------------------------------------------------------------------

def balance_counts(ctx, t):
    inv = inventory(ctx)
    p1, _ = covering_parts(inv, verify_2covering(profile_census(inv.q)))
    psi2 = psi2_structural(profile_census(inv.q), inv)
    g = lambda_power(ctx, t, psi2, aut_action(inv), inv, plus=True)
    return [len(part_pattern(v, p1)) for v in g.vertices]


def test_balance_at_beta_q5():
    assert all(n == 1 for n in balance_counts(gf_for_q(5), 2))


def test_balance_at_beta_q7():
    assert all(n == 2 for n in balance_counts(gf_for_q(7), 4))


def test_balance_fails_below_beta_q7():
    # (unip, unip) tuples are non-isolated in the square graph yet have no
    # coordinate on the dihedral side, so the balance statement is specific
    # to t = beta; keep the counterexample pinned
    counts = balance_counts(gf_for_q(7), 2)
    assert 0 in counts and 2 in counts


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_dot_export():
    g = graph_of(7, plus=True)
    dot = "".join(to_dot(g))
    assert dot.startswith("graph lambda {")
    assert dot.count(" -- ") == 4
    assert '"inv"' in dot and 'part=' in dot
    assert "".join(to_dot(g)) == dot  # deterministic


def test_json_export():
    g = graph_of(9, plus=False)
    js = json.loads("".join(graph_to_json(g)))
    assert js["q"] == 9 and js["t"] == 1
    assert len(js["vertices"]) == 6
    assert len(js["edges"]) == 2
    assert len(js["components"]) == 4  # the path plus three isolated vertices
    assert sorted(js["parts"][0] + js["parts"][1]) == js["vertices"]  # bipartite


def json_text(g):
    return json.dumps(ref_graph_json(g), indent=2) + "\n"


def labelled(g):
    """``g`` with vertex k renamed to the label split:t=k, so the exporters
    can name it; the names sort as strings, not as numbers."""
    return IGGraph(g.q, g.t, g.method, [ClassLabel("split", v) for v in g.vertices], g.nbrs)


def test_json_writer_on_the_empty_graph():
    g = IGGraph(5, 1, "structural", [], [])
    assert "".join(graph_to_json(g)) == json_text(g)
    assert json.loads(json_text(g))["parts"] == [[], []]
    assert "".join(to_dot(g)) == "graph lambda {\n}\n" == ref_dot(g)


def test_json_writer_on_an_edgeless_graph():
    g = labelled(synthetic([], extra_vertices=[3, 10, 7]))
    ok, parts = is_bipartite(g)
    assert ok and parts[1] == []
    assert "".join(graph_to_json(g)) == json_text(g)
    assert "".join(to_dot(g)) == ref_dot(g)


@pytest.mark.parametrize("q,t,plus", [
    (4, 1, False), (7, 1, True), (9, 1, False), (16, 1, True), (5, 2, True),
    (7, 2, False), (8, 2, True), (7, 3, False), (13, 2, True),
])
def test_json_writer_matches_reference(q, t, plus):
    g = graph_of(q, plus) if t == 1 else power_of(q, t, plus=plus)
    assert is_bipartite(g)[0]
    assert "".join(graph_to_json(g)) == json_text(g)
    assert "".join(to_dot(g)) == ref_dot(g)


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_writers_match_references_on_random_graphs(g):
    g = labelled(g)
    assert "".join(graph_to_json(g)) == json_text(g)
    assert "".join(to_dot(g)) == ref_dot(g)


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_exporters_write_the_parts_exactly_when_bipartite(g):
    # the exporters read the parts off the analysis: JSON has them exactly
    # when is_bipartite says the graph is bipartite, and DOT then tags every
    # vertex with its is_bipartite part (1 or 2), and no vertex otherwise
    g = labelled(g)
    ok, parts = is_bipartite(g)
    js = json.loads("".join(graph_to_json(g)))
    assert ("parts" in js) == ok
    tags = dict(line.strip()[1:-3].split('" [part="')
                for line in "".join(to_dot(g)).splitlines() if line.endswith('"];'))
    names = [sorted(g.vertex_name(v) for v in part) for part in parts]
    assert len(tags) == (len(g.vertices) if ok else 0)
    assert [sorted(n for n, k in tags.items() if k == side) for side in "12"] == names
    if ok:
        assert js["parts"] == names
