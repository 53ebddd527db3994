import random
from collections import Counter
from math import gcd

import pytest

from invgen.gf import gf_for_q, prime_power_split
from invgen.psl2 import (
    ClassLabel, _fold_traces, _nonsplit_walk, _power_orders, _split_traces, _trace_keys,
    enumerate_psl2, inventory, signature_counts, trace_key,
)
from helpers import (
    IDENTITY, canon, dickson, make, nonsplit_generator_trace, psl2_class_of, psl2_inv,
    psl2_mul, psl2_order, ref_signature, ref_split_traces, ref_table_walk, split_key_array,
)

ORACLE_QS = [4, 5, 7, 8, 9, 11, 13]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------

def test_make_rejects_bad_determinant():
    ctx = gf_for_q(5)
    with pytest.raises(ValueError):
        make(ctx, 1, 0, 0, 2)


def test_group_laws_q5():
    ctx = gf_for_q(5)
    elems = list(enumerate_psl2(ctx))
    rng = random.Random(5)
    for x in elems:
        assert psl2_mul(ctx, x, psl2_inv(ctx, x)) == IDENTITY
        assert psl2_mul(ctx, x, IDENTITY) == x
    for _ in range(300):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert psl2_mul(ctx, psl2_mul(ctx, x, y), z) == psl2_mul(ctx, x, psl2_mul(ctx, y, z))


def test_canonical_form_identifies_negatives():
    ctx = gf_for_q(5)
    for m in enumerate_psl2(ctx):
        neg = tuple(ctx.neg(x) for x in m)
        assert canon(ctx, neg) == m


def test_order_examples():
    ctx5 = gf_for_q(5)
    assert psl2_order(ctx5, IDENTITY) == 1
    assert psl2_order(ctx5, make(ctx5, 1, 1, 0, 1)) == 5
    ctx7 = gf_for_q(7)
    # order 4 in SL(2,7), the square is -I, so order 2 in PSL
    assert psl2_order(ctx7, make(ctx7, 0, 1, 6, 0)) == 2


@pytest.mark.parametrize("q", ORACLE_QS)
def test_orders_divide_p_or_torus_orders(q):
    ctx = gf_for_q(q)
    d = 2 if q % 2 == 1 else 1
    for m in enumerate_psl2(ctx):
        n = psl2_order(ctx, m)
        assert n == 1 or ctx.p % n == 0 or (q - 1) // d % n == 0 or (q + 1) // d % n == 0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_unipotent_square_class_q7():
    ctx = gf_for_q(7)
    u1 = psl2_class_of(ctx, make(ctx, 1, 1, 0, 1))
    u2 = psl2_class_of(ctx, make(ctx, 1, 2, 0, 1))  # 2 = 3^2 mod 7
    u3 = psl2_class_of(ctx, make(ctx, 1, 3, 0, 1))  # 3 is a non-square mod 7
    assert u1 == u2 == ClassLabel("unip", sq=True)
    assert u3 == ClassLabel("unip", sq=False)


def test_order3_is_nonsplit_q5():
    ctx = gf_for_q(5)
    elem = next(m for m in enumerate_psl2(ctx) if psl2_order(ctx, m) == 3)
    assert psl2_class_of(ctx, elem).kind == "nonsplit"


@pytest.mark.parametrize("q", ORACLE_QS + [25, 31])
def test_class_of_constant_on_classes(q):
    ctx = gf_for_q(q)
    elems = list(enumerate_psl2(ctx))
    rng = random.Random(q)
    for _ in range(200):
        x = rng.choice(elems)
        g = rng.choice(elems)
        conj = psl2_mul(ctx, psl2_mul(ctx, g, x), psl2_inv(ctx, g))
        assert psl2_class_of(ctx, conj) == psl2_class_of(ctx, x)


def test_class_of_order_consistent():
    for q in ORACLE_QS:
        ctx = gf_for_q(q)
        inv = inventory(ctx)
        for m in enumerate_psl2(ctx):
            lab = psl2_class_of(ctx, m)
            assert inv.entries[inv.labels().index(lab)].order == psl2_order(ctx, m)


# ---------------------------------------------------------------------------
# inventory
# ---------------------------------------------------------------------------

def test_inventory_q7():
    inv = inventory(gf_for_q(7))
    assert len(inv) == 6  # (7 + 8 - 3) / 2
    kinds = Counter(e.label.kind for e in inv)
    assert kinds == Counter({"unip": 2, "id": 1, "inv": 1, "split": 1, "nonsplit": 1})
    assert inv.entries[inv.labels().index(ClassLabel("split", 1))].order == 3
    assert {e.order for e in inv} == {1, 2, 3, 4, 7}


def test_inventory_q9():
    inv = inventory(gf_for_q(9))
    assert len(inv) == 7
    orders = sorted(e.order for e in inv)
    assert orders == [1, 2, 3, 3, 4, 5, 5]
    split = [e for e in inv if e.label.kind == "split"]
    nonsplit = [e for e in inv if e.label.kind == "nonsplit"]
    assert [e.order for e in split] == [4]
    assert [e.order for e in nonsplit] == [5, 5]


def test_inventory_q4_is_a5():
    # d = 1 gives (4 + 4 - 3) / 1 = 5 classes: 1, 2, 3, 5a, 5b
    inv = inventory(gf_for_q(4))
    assert len(inv) == 5
    assert sorted(e.order for e in inv) == [1, 2, 3, 5, 5]


@pytest.mark.parametrize("q,size", [(5, 60), (7, 168), (9, 360)])
def test_enumeration_counts(q, size):
    ctx = gf_for_q(q)
    elems = list(enumerate_psl2(ctx))
    assert len(elems) == size
    assert len(set(elems)) == size


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 32, 49])
def test_enumeration_yields_canonical_elements_once(q):
    ctx = gf_for_q(q)
    elems = list(enumerate_psl2(ctx))
    assert len(elems) == len(set(elems)) == inventory(ctx).group_order()
    for m in elems:
        a, b, c, d = m
        assert ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) == 1, m
        assert canon(ctx, m) == m, m


@pytest.mark.parametrize("q", ORACLE_QS + [16, 17, 19, 23, 25, 27, 29, 31])
def test_class_sizes_sum_to_group_order(q):
    inv = inventory(gf_for_q(q))
    assert sum(e.size for e in inv) == inv.group_order()


@pytest.mark.parametrize("q", ORACLE_QS)
def test_enumerated_sizes_match_formulas(q):
    ctx = gf_for_q(q)
    inv = inventory(ctx)
    counts = Counter(psl2_class_of(ctx, m) for m in enumerate_psl2(ctx))
    assert counts == Counter({e.label: e.size for e in inv})


@pytest.mark.parametrize("q", ORACLE_QS + [16, 17, 19, 23, 25, 27, 29, 31])
def test_phi_over_2_labels_per_order(q):
    inv = inventory(gf_for_q(q))
    d = 2 if q % 2 == 1 else 1
    expected = {(kind, None, ell): euler_phi(ell) // 2
                for kind, n in (("split", (q - 1) // d), ("nonsplit", (q + 1) // d))
                for ell in range(3, n + 1) if n % ell == 0}
    assert Counter((e.label.kind, None, e.order) for e in inv
                   if e.label.kind in ("split", "nonsplit")) == expected
    counts = signature_counts(*prime_power_split(q))
    assert {sig: n for sig, n in counts.items() if sig[0] in ("split", "nonsplit")} == expected
    # the head comes first, one class of each signature, the unipotents of order p
    p = prime_power_split(q)[0]
    head = ([("id", None, 1), ("inv", None, 2), ("unip", True, p), ("unip", False, p)]
            if d == 2 else [("id", None, 1), ("unip", None, 2)])
    assert list(counts)[:len(head)] == head and all(counts[sig] == 1 for sig in head)


@pytest.mark.parametrize("q", [q for q in range(4, 1025) if prime_power_split(q)]
                         + [2048, 2187, 4093, 4096])
def test_torus_class_counts_are_the_inventory_counts(q):
    # every signature and its class count, from arithmetic and from the
    # inventory's class entries
    assert signature_counts(*prime_power_split(q)) == (
        Counter(map(ref_signature, inventory(gf_for_q(q)))))


@pytest.mark.parametrize("q", [q for q in range(5, 32, 2) if prime_power_split(q)])
def test_involution_count(q):
    ctx = gf_for_q(q)
    eps = 1 if q % 4 == 1 else -1
    count = sum(m != IDENTITY and psl2_mul(ctx, m, m) == IDENTITY for m in enumerate_psl2(ctx))
    assert count == q * (q + eps) // 2


@pytest.mark.parametrize("q", ORACLE_QS)
def test_class_meets_cyclic_subgroup_in_inverse_pair(q):
    """x^S intersected with <x> is exactly {x, x^-1} for semisimple orders >= 3.

    The hypothesis is l >= 3 dividing (q +- 1)/d; for unipotent classes of
    order p >= 3 the intersection is the square-exponent powers instead.
    """
    ctx = gf_for_q(q)
    by_label: dict = {}
    for m in enumerate_psl2(ctx):
        by_label.setdefault(psl2_class_of(ctx, m), []).append(m)
    inv = inventory(ctx)
    for entry in inv:
        if entry.order < 3 or entry.label.kind not in ("split", "nonsplit"):
            continue
        x = by_label[entry.label][0]
        cyc = []
        acc = x
        while acc != IDENTITY:
            cyc.append(acc)
            acc = psl2_mul(ctx, acc, x)
        same_class = {m for m in cyc if psl2_class_of(ctx, m) == entry.label}
        assert same_class == {x, psl2_inv(ctx, x)}, (q, entry.label)


def nonsplit_walk(ctx):
    """``_nonsplit_walk`` with the split key array of the field's inventory."""
    return _nonsplit_walk(ctx, split_key_array(inventory(ctx)), _trace_keys(ctx).__getitem__)


def test_nonsplit_walk_certifies_the_reference_generator():
    # at the 21 q = 1 mod 4 up to 1024 where a trace of SL-order (q+1)/2
    # comes first, only the D_((q+1)/2) = -2 rule rejects it; the classes
    # it gives are the same, so the inventory tests would not see it
    for q in (q for q in range(4, 1025) if prime_power_split(q)):
        ctx = gf_for_q(q)
        walk = nonsplit_walk(ctx)
        t0 = nonsplit_generator_trace(ctx)
        assert (walk[0], len(walk)) == (t0, q // 2), q
        assert walk[-1] == dickson(ctx, t0, q // 2), q


def check_walks_against_references(q):
    """The walk, the split traces and their keys against the walk through
    ``ctx.mul``/``ctx.sub`` with ``is_split_trace``, the sums through
    ``ctx.add`` and ``trace_key``.  The class orders are the label-level
    record's (``test_signature_route_matches_label_reference``)."""
    ctx = gf_for_q(q)
    key_of = _trace_keys(ctx).__getitem__
    walk = nonsplit_walk(ctx)
    assert walk == ref_table_walk(ctx)
    split = ref_split_traces(ctx)
    traces = list(_split_traces(ctx))
    assert [t % ctx.p if ctx.f == 1 else t for t in traces] == split
    assert list(map(key_of, traces)) == [trace_key(ctx, t) for t in split]
    assert list(map(key_of, walk)) == [trace_key(ctx, t) for t in walk]


@pytest.mark.parametrize("q", [q for q in range(4, 1025) if prime_power_split(q)])
def test_walks_and_traces_match_the_method_references(q):
    check_walks_against_references(q)


@pytest.mark.extended
@pytest.mark.parametrize("q", [q for q in range(1025, 4097)
                               if (pf := prime_power_split(q)) and pf[1] > 1])
def test_extension_walks_and_traces_match_the_method_references_extended(q):
    check_walks_against_references(q)


# prime, odd f > 1 and characteristic-2 fields
FOLD_QS = [4, 5, 7, 8, 9, 13, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 243, 343, 1021]


@pytest.mark.parametrize("q", FOLD_QS)
def test_trace_keys_are_the_least_of_t_and_minus_t(q):
    # a prime field also keys the unreduced sums t < 2p of _split_traces
    ctx = gf_for_q(q)
    span = 2 * q if ctx.f == 1 else q
    assert list(_trace_keys(ctx)) == [trace_key(ctx, t % q) for t in range(span)]


def ref_torus_classes(ctx, kind):
    """{trace key: PSL-order} over every power x^k, 0 < k < n, of a generator
    x of the SL torus of order n, dropping orders below 3, as sorted pairs."""
    q = ctx.q
    d = 2 if q % 2 else 1
    if kind == "split":
        n = q - 1
        traces = [ctx.add(ctx.pow(ctx.generator, k), ctx.pow(ctx.generator, -k))
                  for k in range(1, n)]
    else:
        n = q + 1
        t0 = nonsplit_generator_trace(ctx)
        traces = [dickson(ctx, t0, k) for k in range(1, n)]
    order_of = {}
    for k, t in enumerate(traces, 1):
        m = n // gcd(k, n)
        order = m // d if m % d == 0 else m
        if order > 2:
            assert order_of.setdefault(trace_key(ctx, t), order) == order, (q, kind, k)
    return sorted(order_of.items())


@pytest.mark.parametrize("q", FOLD_QS[:-1])
def test_half_walk_fold_matches_the_whole_torus(q):
    ctx = gf_for_q(q)
    for torus in inventory(ctx).tori:
        assert list(zip(torus.keys, torus.orders)) == ref_torus_classes(ctx, torus.kind)


def split_walk(q):
    """The keys and orders ``inventory`` folds for the split torus at q odd,
    and the mirror (q-1)/2."""
    ctx = gf_for_q(q)
    exp, half = ctx.exp_table(), (q - 1) // 2
    keys = [trace_key(ctx, ctx.add(exp[k], exp[-k])) for k in range(1, half + 1)]
    return keys, _power_orders(q - 1, 2, half), half


@pytest.mark.parametrize("q", [13, 25, 29])
def test_fold_refuses_a_broken_mirror(q):
    keys, orders, mirror = split_walk(q)
    slots = [0] * q
    torus = _fold_traces("split", keys, orders, 1, mirror, slots, [0] * q)
    assert torus.keys == sorted(set(keys[:-1]) - {0})
    assert [k for k, j in enumerate(slots) if j] == torus.keys
    assert list(filter(None, slots)) == torus.orders
    for k in range(1, (mirror + 1) // 2):  # k < mirror/2: the powers the classes are read from
        for i in (k - 1, mirror - k - 1):  # break x^k, then its mirror x^(mirror-k)
            bad_keys = keys.copy()
            bad_keys[i] = keys[i] + 1
            with pytest.raises(RuntimeError, match="inconsistent split trace fold"):
                _fold_traces("split", bad_keys, orders, 1, mirror, [0] * q, [0] * q)
            bad_orders = orders.copy()
            bad_orders[i] = orders[i] + 1
            with pytest.raises(RuntimeError, match="inconsistent split trace fold"):
                _fold_traces("split", keys, bad_orders, 1, mirror, [0] * q, [0] * q)


def test_fold_refuses_a_repeated_key():
    keys, orders = [3, 5, 3], [7, 7, 7]
    with pytest.raises(RuntimeError, match="inconsistent nonsplit trace fold"):
        _fold_traces("nonsplit", keys, orders, 1, None, [0] * 8, [0] * 8)  # q even: no mirror
    with pytest.raises(RuntimeError, match="inconsistent nonsplit trace fold"):
        _fold_traces("nonsplit", keys + keys[::-1], orders * 2, 1, 7, [0] * 8, [0] * 8)


@pytest.mark.parametrize("q", [8, 13])
def test_fold_refuses_a_key_of_the_other_torus(q):
    # the nonsplit keys must miss every slot the split fold wrote: here the
    # first nonsplit power is given the key of a split class
    ctx = gf_for_q(q)
    split, nonsplit = inventory(ctx).tori
    d = 2 if q % 2 else 1
    keys = [trace_key(ctx, t) for t in nonsplit_walk(ctx)]
    orders = _power_orders(q + 1, d, len(keys))
    mirror = (q + 1) // 2 if d == 2 else None
    split_slots = [0] * q
    _fold_traces("split", split.keys, split.orders, 1, None, split_slots, [0] * q)
    torus = _fold_traces("nonsplit", keys, orders, 1, mirror, [0] * q, split_slots)
    assert torus == nonsplit._replace(size=1)
    clash = keys.copy()
    clash[0] = split.keys[0]  # x^1, and for q odd its mirror x^(mirror-1)
    if d == 2:
        clash[mirror - 2] = split.keys[0]
    with pytest.raises(RuntimeError, match="inconsistent nonsplit trace fold"):
        _fold_traces("nonsplit", clash, orders, 1, mirror, [0] * q, split_slots)


def test_inventory_rejects_small_q():
    with pytest.raises(RuntimeError):
        inventory(gf_for_q(3))


def test_json_label_forms():
    inv = inventory(gf_for_q(7))
    rows = inv.to_json()
    assert rows[0] == {"label": "id", "order": 1, "size": 1}
    labels = [r["label"] for r in rows]
    assert labels == ["id", "inv", "unip:sq", "unip:nsq", "split:t=1", "nonsplit:t=3"]
