"""Reference helpers that only the tests need."""

import time
from collections import Counter
from bisect import bisect_left
from functools import lru_cache
from itertools import product
from math import comb, gcd
from operator import mul
from typing import NamedTuple

from invgen.gf import GFContext, _pack, _poly_mod, _unpack, factorize, is_prime
from invgen.autorbits import pair_orbits
from invgen.iggraph import _bits, IGGraph, is_bipartite, LambdaSummary
from invgen.oracle import _inverse, _line_action, _table, is_split_trace
from invgen.psl2 import (
    ClassEntry, ClassInventory, ClassLabel, TorusClasses, signature_counts,
    trace_key,
)
from invgen.structure import (
    BOREL, BOREL_SIDE, DIH_NONSPLIT, DIH_SPLIT, DIHEDRAL_SIDE, EXC_A5, EXC_S4,
    SUBFIELD_PSL, ProfileCensus, Psi2Table, SubgroupClass, build_profiles, label_meets,
    maximal_subgroup_classes,
)


class Budget:
    """Times a block; it must take under ``seconds``.  Prints a PASS or
    FAIL line with the time taken."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its budget: {elapsed:.1f}s"
            )
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


# ---------------------------------------------------------------------------
# field elements as coefficient vectors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cached_field(p, f) -> GFContext:
    """GF(p^f), built once per test session for the property tests that
    draw the same few fields hundreds of times."""
    return GFContext(p, f)


def coeffs(ctx, a) -> tuple:
    """Coefficient vector (c0, ..., c_{f-1}) of a."""
    return tuple(_unpack(a, ctx.p, ctx.f))


def from_coeffs(ctx, cs) -> int:
    cs = list(cs)
    if len(cs) != ctx.f or any(not 0 <= c < ctx.p for c in cs):
        raise ValueError("coefficient vector must have length f with entries in [0, p)")
    return _pack(cs, ctx.p)


def ref_add(ctx, a, b) -> int:
    """a + b digit by digit in base p: the reference for the table reads of
    ``GFContext.add``."""
    p = ctx.p
    s, mult = 0, 1
    while a or b:
        a, ra = divmod(a, p)
        b, rb = divmod(b, p)
        s += (ra + rb) % p * mult
        mult *= p
    return s


def ref_neg(ctx, a) -> int:
    """-a digit by digit in base p: the reference for ``GFContext.neg``."""
    p = ctx.p
    s, mult = 0, 1
    while a:
        a, ra = divmod(a, p)
        s += -ra % p * mult
        mult *= p
    return s


def _poly_mul(a: list, b: list, p: int) -> list:
    """The product of two coefficient lists over GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_product(ctx, a, b) -> int:
    """a*b as polynomials reduced mod the modulus, without the tables."""
    p = ctx.p
    prod = _poly_mul(_unpack(a, p, ctx.f), _unpack(b, p, ctx.f), p)
    return _pack(_poly_mod(prod, ctx.modulus, p), p)


def poly_power(ctx, a, e) -> int:
    """a^e for e >= 0 by square-and-multiply over ``poly_product``."""
    result = 1
    while e:
        if e & 1:
            result = poly_product(ctx, result, a)
        a = poly_product(ctx, a, a)
        e >>= 1
    return result


def ref_generator(ctx) -> int:
    """The least a with a^((q-1)/r) != 1 for every prime r | q-1, each
    power by its own square-and-multiply: the reference for the generator
    search that shares its squarings."""
    n, p = ctx.q - 1, ctx.p
    if n == 1:
        return 1
    cofactors = [n // r for r in factorize(n)]
    for a in range(2, ctx.q):
        if a < p:
            if all(pow(a, e, p) != 1 for e in cofactors):
                return a
        elif all(poly_power(ctx, a, e) != 1 for e in cofactors):
            return a
    raise RuntimeError("no multiplicative generator found")


def ref_horner_powers(ctx, g) -> list:
    """(g^0, ..., g^(q-2)) for f > 1, every power by Horner's rule over the
    digits of g applied to the last one: the reference for the walk that
    scales its first norm block."""
    p, f, q = ctx.p, ctx.f, ctx.q
    exp = [1] * (q - 1)
    digits = _unpack(g, p, f)
    deg = max(i for i, c in enumerate(digits) if c)  # >= 1: g is not in GF(p)
    lead, lower = digits[deg], digits[deg - 1::-1]
    red = [-c % p for c in ctx.modulus[:f]]  # x^f = sum of red[j] x^j
    weights = [p ** j for j in range(f)]
    v = [1] + [0] * (f - 1)
    for k in range(1, q - 1):
        acc = v if lead == 1 else [lead * c % p for c in v]
        for gi in lower:  # shift acc up one degree, fold its top digit back
            top = acc[-1]
            acc = [(c + top * r + gi * w) % p for c, r, w in zip([0, *acc], red, v)]
        v = acc
        exp[k] = sum(map(mul, v, weights))
    return exp


def in_subfield(ctx, a, e) -> bool:
    """True iff a lies in the subfield GF(p^e) of ``ctx``; requires e | f."""
    if e < 1 or ctx.f % e != 0:
        raise RuntimeError(f"e={e} does not divide f={ctx.f}")
    if a == 0 or e == ctx.f:
        return True
    return ctx._log[a] % ((ctx.q - 1) // (ctx.p ** e - 1)) == 0


# ---------------------------------------------------------------------------
# PSL(2,q) as matrices: the reference arithmetic for the oracle's permutations
# ---------------------------------------------------------------------------

IDENTITY = (1, 0, 0, 1)


def canon(ctx, m):
    """Canonical representative of {M, -M}: the first nonzero entry is the
    smaller int of itself and its negative."""
    if ctx.p == 2:
        return m
    for x in m:
        if x != 0:
            if x > ctx.neg(x):
                return tuple(ctx.neg(y) for y in m)
            return m
    raise RuntimeError("zero matrix")


def make(ctx, a, b, c, d):
    """The element with matrix (a, b; c, d), which must have determinant 1."""
    for x in (a, b, c, d):
        if not 0 <= x < ctx.q:
            raise ValueError(f"element {x} out of range for q={ctx.q}")
    det = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
    if det != 1:
        raise ValueError(f"determinant must be 1, got {det}")
    return canon(ctx, (a, b, c, d))


def psl2_mul(ctx, x, y):
    a, b, c, d = x
    e, f, g, h = y
    mul, add = ctx.mul, ctx.add
    return canon(ctx, (
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
    ))


def psl2_inv(ctx, x):
    a, b, c, d = x
    return canon(ctx, (d, ctx.neg(b), ctx.neg(c), a))


def psl2_class_of(ctx, m) -> ClassLabel:
    """The class label of the matrix m, from its trace and, for a unipotent
    of q odd, the square class of the upper-right entry of its unitriangular
    normal form.  The reference for ``oracle._labeller``."""
    if ctx.q < 4:
        raise ValueError("class labels are defined for q >= 4")
    if m == IDENTITY:
        return ClassLabel("id")
    t = ctx.add(m[0], m[3])
    if ctx.p == 2:
        if t == 0:
            return ClassLabel("unip")
        kind = "split" if is_split_trace(ctx, t) else "nonsplit"
        return ClassLabel(kind, trace_key(ctx, t))
    four = ctx.scalar(4)
    two = ctx.scalar(2)
    if ctx.mul(t, t) == four:
        # order p; normalize to trace +2 and read off the unitriangular parameter
        if t != two:
            m = tuple(ctx.neg(x) for x in m)
        a, b, c, d = m
        param = b if c == 0 else ctx.neg(c)
        return ClassLabel("unip", sq=ctx.is_square(param))
    if t == 0:
        return ClassLabel("inv")
    kind = "split" if is_split_trace(ctx, t) else "nonsplit"
    return ClassLabel(kind, trace_key(ctx, t))


def drop_class(inv, label) -> ClassInventory:
    """A copy of the inventory without the torus class ``label``."""
    tori = []
    for t in inv.tori:
        kept = [(k, o) for k, o in zip(t.keys, t.orders) if ClassLabel(t.kind, k) != label]
        tori.append(TorusClasses(t.kind, [k for k, _ in kept], [o for _, o in kept], t.size))
    return ClassInventory(inv.ctx, inv.head, tori)


def psl2_order(ctx, x) -> int:
    """Least n >= 1 with x^n = 1, by repeated multiplication; an order
    reference independent of the class inventory."""
    acc = x
    n = 1
    bound = max(ctx.p, ctx.q + 1)
    while acc != IDENTITY:
        acc = psl2_mul(ctx, acc, x)
        n += 1
        if n > bound:
            raise RuntimeError("order iteration exceeded the group exponent bound")
    return n


def isolated(table) -> set:
    """Labels with no Psi2 neighbour: the isolated vertices of the graph of S."""
    return {lab for lab, js in zip(table.labels, table.near) if not js}


def signature_positions(inv) -> list:
    """For every class of ``inv``, in class order, the position of its
    signature in ``signature_counts`` order, the order of the signatures
    of ``profile_census`` and ``inventory_census``."""
    position = {sig: k for k, sig in enumerate(signature_counts(inv.ctx.p, inv.ctx.f))}
    return [position[ref_signature(e)] for e in inv]


def covering_sets(inv, cover) -> tuple:
    """The nonidentity labels of ``inv`` that meet only the Borel side,
    only the nonsplit dihedral side, and both, by the per-signature sides
    of a ``verify_2covering`` result."""
    out = {BOREL_SIDE: set(), DIHEDRAL_SIDE: set(), BOREL_SIDE | DIHEDRAL_SIDE: set(), 0: set()}
    for lab, sig in zip(inv.labels()[1:], signature_positions(inv)[1:]):
        out[cover.sides[sig]].add(lab)
    return out[BOREL_SIDE], out[DIHEDRAL_SIDE], out[BOREL_SIDE | DIHEDRAL_SIDE]


def covering_parts(inv, cover) -> tuple:
    """Bipartition parts (P1, P2) = (dihedral side, Borel side) of a
    ``verify_2covering`` result."""
    only_borel, only_dihedral, _ = covering_sets(inv, cover)
    return only_dihedral, only_borel


def named(perm, labels) -> dict:
    """An ``AutAction`` image list as the map of the labels it moves."""
    return {labels[i]: labels[j] for i, j in enumerate(perm) if i != j}


def generators(action) -> list:
    """The generators of an ``AutAction``: Frobenius, then the diagonal map
    when q is odd."""
    return [gen for gen in (action.frobenius, action.diagonal) if gen is not None]


def named_generators(action, labels) -> list:
    """The generators of an ``AutAction`` as maps of the labels they move."""
    return [named(gen, labels) for gen in generators(action)]


def ref_elements(action) -> list:
    """The group the generators of ``action`` generate, closed by BFS from
    the identity, each element as the list of the images of the positions.
    The reference for ``AutAction.elements``, which lists the products
    diag^e * Frob^i directly."""
    identity = list(range(len(action.frobenius)))
    seen = {tuple(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for perm in frontier:
            for gen in generators(action):
                comp = [gen[im] for im in perm]
                if tuple(comp) not in seen:
                    seen[tuple(comp)] = comp
                    nxt.append(comp)
        frontier = nxt
    return list(seen.values())


def pairs(table) -> set:
    """The Psi2 pairs of a table as a set of label pairs."""
    labels = table.labels
    return {(labels[i], labels[j]) for i, js in enumerate(table.near) for j in js}


def rows(table) -> list:
    """The Psi2 pairs of a table as (name, name) tuples in sorted order,
    the order of the text and JSON output."""
    names = [lab.str_form() for lab in table.labels]
    return sorted((names[i], names[j]) for i, js in enumerate(table.near) for j in js)


def ref_orbits(action, table) -> dict:
    """Each Psi2 label pair mapped to a representative of its Aut(S)-orbit,
    by union-find: every pair is merged with its image under each generator
    of ``action``.  An orbit reference independent of ``autorbits``'
    least-image naming."""
    parent = {pair: pair for pair in pairs(table)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in named_generators(action, table.labels):
        for a, b in parent:
            parent[find((a, b))] = find((gen.get(a, a), gen.get(b, b)))
    return {pair: find(pair) for pair in parent}


def ref_signature(entry) -> tuple:
    """The class signature of one inventory entry, from that entry alone."""
    return entry.label.kind, entry.label.sq, entry.order


def subfield_degree(ctx, q0) -> int:
    """The e with q0 = p^e."""
    e = 1
    while ctx.p ** e < q0:
        e += 1
    assert ctx.p ** e == q0, (ctx.q, q0)
    return e


def ref_subfield_meets(ctx, label, sc, squared: bool) -> bool:
    """Whether the trace key t of the torus class ``label`` (``squared``:
    its square t^2) lies in GF(q0) of the subfield record ``sc``, by the
    discrete log: the literal membership that the order test of
    ``label_meets`` replaces.  PSL(2,q0) meets the class iff t lies in
    GF(q0), PGL(2,q0) iff t^2 does."""
    t = label.trace
    return in_subfield(ctx, ctx.mul(t, t) if squared else t, subfield_degree(ctx, sc.q0))


def subfield_order_test_mismatches(ctx, inv) -> list:
    """The (label, subgroup id) pairs, over every torus class and subfield
    record of the reference list, where the order test (``label_meets``, or
    ``reference_meets`` for subfield PGL) differs from t^2 in GF(q0) or, for
    a subfield PSL record, from t in GF(q0)."""
    records = [sc for sc in reference_subgroup_classes(ctx)
               if sc.kind in (SUBFIELD_PSL, SUBFIELD_PGL)]
    out = []
    for entry in inv.entries[len(inv.head):]:
        sig = ref_signature(entry)
        for sc in records:
            meets = reference_meets(ctx.q, sig, sc)
            if meets != ref_subfield_meets(ctx, entry.label, sc, True) or (
                    sc.kind == SUBFIELD_PSL
                    and meets != ref_subfield_meets(ctx, entry.label, sc, False)):
                out.append((entry.label, sc.id))
    return out


def by_label(inv, per_signature) -> dict:
    """Nonidentity label -> the value of its signature in a per-signature
    list in ``signature_counts`` order, such as ``build_profiles`` returns."""
    return {lab: per_signature[sig]
            for lab, sig in zip(inv.labels()[1:], signature_positions(inv)[1:])}


def ids(universe, mask) -> frozenset:
    """The ids of the members of ``universe`` at the set bits of a profile mask."""
    return frozenset(sc.id for i, sc in enumerate(universe) if mask >> i & 1)


def mask(universe, names) -> int:
    """The profile mask over ``universe`` of a set of subgroup ids."""
    return sum(1 << i for i, sc in enumerate(universe) if sc.id in names)


def label_profiles(inv, classes) -> dict:
    """Nonidentity label -> the ``build_profiles`` profile of its signature,
    as subgroup ids."""
    sigs = signature_counts(inv.ctx.p, inv.ctx.f)
    return by_label(inv, [ids(classes, m) for m in build_profiles(inv.q, sigs, classes)])


def ref_profiles(ctx, entries, classes) -> dict:
    """Nonidentity label -> profile over ``classes``: ``build_profiles``
    one label at a time, every rule evaluated for every nonidentity label,
    on a signature built for that label alone, except that a torus class
    meets a subfield record by literal membership of its trace
    (``ref_subfield_meets``)."""
    out = {}
    for entry in entries:
        label = entry.label
        if label.kind == "id":
            continue
        sig = ref_signature(entry)
        out[label] = frozenset(
            sc.id for sc in classes
            if (ref_subfield_meets(ctx, label, sc, False)
                if label.trace >= 0 and sc.kind == SUBFIELD_PSL
                else label_meets(ctx.q, sig, sc)))
    return out


def mobius_perm(ctx, m) -> bytes:
    """The action of m = (a, b, c, d) on the projective line, point by point:
    v -> (av + b)/(cv + d), with point 0 for infinity and 1+v for v.  The
    reference for ``oracle._line_action``."""
    a, b, c, d = m
    img = [0] * (ctx.q + 1)
    img[0] = 0 if c == 0 else 1 + ctx.mul(a, ctx.inv(c))
    for v in range(ctx.q):
        den = ctx.add(ctx.mul(c, v), d)
        if den == 0:
            img[1 + v] = 0
        else:
            num = ctx.add(ctx.mul(a, v), b)
            img[1 + v] = 1 + ctx.mul(num, ctx.inv(den))
    return bytes(img)


def generates(sess, x, y) -> bool:
    """Whether the matrices x and y generate S, by the session's closure."""
    perm = _line_action(sess.ctx)
    return sess.closure_generates([perm(x), perm(y)])


def psi2_per_class_pair(sess) -> Psi2Table:
    """The oracle Psi2 with one ``pair_generates`` call per pair of classes,
    no power classes shared: the reference for ``OracleSession.psi2``."""
    labels = sess.inv.nonidentity_labels()
    near: list[list[int]] = [[] for _ in labels]
    for i, c in enumerate(labels):
        for j in range(i, len(labels)):
            if sess.pair_generates(c, labels[j]):
                near[i].append(j)
                if j != i:
                    near[j].append(i)
    # row i gets the j < i from earlier rows, then its own j >= i: ascending
    return Psi2Table(sess.ctx.q, "oracle", labels, [tuple(js) for js in near])


def conjugate(x, g) -> bytes:
    """g^-1 x g, the permutations composed as maps: apply g, x, then g^-1."""
    return g.translate(_table(x)).translate(_table(_inverse(g)))


def normaliser_reference(sess, x) -> set:
    """N_S(<x>) from its definition: the g with g^-1 x g in the closure of
    {x}, which is <x>.  The reference for ``OracleSession.normaliser``."""
    cyclic = sess._closure([x], sess.order)
    return {g for g in sess.label_of_perm if conjugate(x, g) in cyclic}


def centraliser_reference(sess, x) -> set:
    """C_S(x): the g with g^-1 x g = x."""
    return {g for g in sess.label_of_perm if conjugate(x, g) == x}


def part_pattern(vertex: tuple, part1: set) -> frozenset:
    """Coordinates of a power-graph vertex whose label lies in part 1."""
    return frozenset(i for i, lab in enumerate(vertex) if lab in part1)


def expected_fusion(inv, classes=None) -> dict:
    """``label_meets`` inverted into per-subgroup-class label sets, over
    ``maximal_subgroup_classes`` or the given list; a record of the
    reference list goes through ``reference_meets``."""
    ctx = inv.ctx
    sig_of = by_label(inv, list(signature_counts(ctx.p, ctx.f)))
    out = {}
    for sc in classes or maximal_subgroup_classes(ctx.p, ctx.f):
        met = {sig for sig in set(sig_of.values()) if reference_meets(ctx.q, sig, sc)}
        out[sc.id] = {lab for lab, sig in sig_of.items() if sig in met}
    return out


# ---------------------------------------------------------------------------
# the label-level route: inventory entries, signatures, profiles, census,
# covering, summary and beta, one class label at a time.  The reference for
# the array and per-signature route in src/.
# ---------------------------------------------------------------------------

def dickson(ctx, t, k) -> int:
    """Trace of the k-th power: D_k with D_0 = 2, D_1 = t, D_{k+1} = t*D_k - D_{k-1}.

    Computed by Lucas-sequence fast doubling.
    """
    two = ctx.scalar(2)
    if k == 0:
        return two
    # maintain (D_m, D_{m+1}) over the bits of k
    dm, dm1 = two, t
    for bit in bin(k)[2:]:
        if bit == "0":
            dm, dm1 = (
                ctx.sub(ctx.mul(dm, dm), two),
                ctx.sub(ctx.mul(dm, dm1), t),
            )
        else:
            dm, dm1 = (
                ctx.sub(ctx.mul(dm, dm1), t),
                ctx.sub(ctx.mul(dm1, dm1), two),
            )
    return dm


def nonsplit_generator_trace(ctx) -> int:
    """Trace of a generator of the nonsplit torus (cyclic of order q+1): the
    least nonsplit t with t^2 != 4 whose D_(n/r) != 2 for every prime r of
    n = q + 1.  The reference for the generator ``psl2._nonsplit_walk``
    certifies by its own walk."""
    n = ctx.q + 1
    primes = list(factorize(n))
    two = ctx.scalar(2)
    four = ctx.scalar(4)
    for t in range(ctx.q):
        if ctx.mul(t, t) == four:
            continue
        if is_split_trace(ctx, t):
            continue
        if all(dickson(ctx, t, n // r) != two for r in primes):
            return t
    raise RuntimeError(f"no nonsplit torus generator trace found for q={ctx.q}")


def ref_entries(ctx) -> list:
    """The class list of PSL(2,q), one ClassEntry per class, with the torus
    classes folded from their traces by a gcd per power."""
    q = ctx.q
    d = 2 if q % 2 == 1 else 1
    entries = [ClassEntry(ClassLabel("id"), 1, 1)]
    if d == 2:
        eps = 1 if q % 4 == 1 else -1
        entries.append(ClassEntry(ClassLabel("inv"), 2, q * (q + eps) // 2))
        entries.append(ClassEntry(ClassLabel("unip", sq=True), ctx.p, (q * q - 1) // 2))
        entries.append(ClassEntry(ClassLabel("unip", sq=False), ctx.p, (q * q - 1) // 2))
    else:
        entries.append(ClassEntry(ClassLabel("unip"), 2, q * q - 1))
    exp = ctx.exp_table()
    split = [ctx.add(exp[k], exp[-k]) for k in range(1, (q - 1) // 2 + 1)]
    t0 = nonsplit_generator_trace(ctx)
    nonsplit, dk_prev, dk = [], ctx.scalar(2), t0
    for _ in range((q + 1) // 2):
        nonsplit.append(dk)
        dk_prev, dk = dk, ctx.sub(ctx.mul(t0, dk), dk_prev)
    for kind, n, traces, size in (("split", q - 1, split, q * (q + 1)),
                                  ("nonsplit", q + 1, nonsplit, q * (q - 1))):
        order_of = {}
        for k, t in enumerate(traces, 1):
            m = n // gcd(k, n)
            order = m // d if m % d == 0 else m
            if order >= 3:
                key = min(t, ctx.neg(t))
                if order_of.setdefault(key, order) != order:
                    raise RuntimeError(f"inconsistent {kind} trace fold")
        entries += [ClassEntry(ClassLabel(kind, key), order_of[key], size)
                    for key in sorted(order_of)]
    return entries


def ref_census(ctx, entries) -> tuple:
    """(labels, buckets, members, bucket_of): the nonidentity labels, the
    distinct profiles in the order of their masks, the labels of each, and
    the bucket of each label."""
    classes = maximal_subgroup_classes(ctx.p, ctx.f)
    profs = ref_profiles(ctx, entries, classes)
    grouped = {}
    for label, prof in profs.items():
        grouped.setdefault(prof, []).append(label)
    buckets = sorted(grouped, key=lambda prof: mask(classes, prof))
    bucket_of = {label: i for i, b in enumerate(buckets) for label in grouped[b]}
    return list(profs), buckets, [grouped[b] for b in buckets], bucket_of


def ref_covering(ctx, entries) -> tuple:
    """(ok, only_borel, only_dihedral, both) as label sets."""
    classes = maximal_subgroup_classes(ctx.p, ctx.f)
    borel = next(sc for sc in classes if sc.kind == BOREL)
    dihedral = next(sc for sc in classes if sc.kind == DIH_NONSPLIT)
    only_b, only_d, both = set(), set(), set()
    ok = True
    for entry in entries:
        if entry.label.kind == "id":
            continue
        sig = ref_signature(entry)
        in_b, in_d = label_meets(ctx.q, sig, borel), label_meets(ctx.q, sig, dihedral)
        if in_b and in_d:
            both.add(entry.label)
        elif in_b:
            only_b.add(entry.label)
        elif in_d:
            only_d.add(entry.label)
        else:
            ok = False
    return ok, only_b, only_d, both


def _ref_disjoint(buckets) -> list:
    """The ordered pairs of buckets, frozensets or masks, that share nothing."""
    return [(i, j) for i, pi in enumerate(buckets)
            for j, pj in enumerate(buckets) if not pi & pj]


def ref_psi2_count(buckets, members) -> int:
    """|Psi2| as the bucket products of ``ref_census`` over its disjoint pairs."""
    return sum(len(members[i]) * len(members[j]) for i, j in _ref_disjoint(buckets))


def ref_summary(ctx, entries) -> LambdaSummary:
    """``lambda_summary`` on the label-level census and covering."""
    _, buckets, members, _ = ref_census(ctx, entries)
    _, only_b, only_d, _ = ref_covering(ctx, entries)
    sizes = [len(m) for m in members]
    near = [[] for _ in sizes]
    for i, j in _ref_disjoint(buckets):
        if i != j:
            near[i].append(j)
    quotient = graph_from_near(ctx.q, 1, "structural", list(range(len(sizes))), near, plus=True)
    live = quotient.vertices
    bipartite, _ = mask_is_bipartite(quotient)
    diam = mask_diameter(quotient)
    if any(sizes[i] >= 2 for i in live):
        diam = max(diam, 2)
    side = {**{lab: 0 for lab in only_b}, **{lab: 1 for lab in only_d}}
    bucket_side = []
    match = bipartite
    for mem in members:
        tags = {side.get(lab) for lab in mem}
        if len(tags) != 1:
            match = False
            break
        bucket_side.append(tags.pop())
    if match:
        for i, js in enumerate(near):
            if js and (bucket_side[i] is None
                       or any(bucket_side[j] == bucket_side[i] for j in js)):
                match = False
    return LambdaSummary(
        component_count=len(mask_components(quotient)),
        bipartite=bipartite,
        parts_match_covering=match,
        diameter=diam,
        isolated=sorted(lab.str_form() for i, js in enumerate(near) if not js
                        for lab in members[i]),
    )


def ref_beta_fast(ctx, entries, action) -> int:
    """Burnside's count over the label-level census, with every element of
    the BFS closure of ``action`` named as a map of labels."""
    labels, buckets, members, bucket_of = ref_census(ctx, entries)
    disjoint = _ref_disjoint(buckets)
    elements = [named(g, labels) for g in ref_elements(action)]
    total = 0
    for perm in elements:
        fixed = [len(m) for m in members]
        for lab in perm:
            fixed[bucket_of[lab]] -= 1
        total += sum(fixed[i] * fixed[j] for i, j in disjoint)
    count, rem = divmod(total, len(elements))
    assert rem == 0
    return count


# ---------------------------------------------------------------------------
# the census from the inventory's fold: the signatures and the number of
# classes with each counted from the torus orders, the route the census
# took before it read q's arithmetic.  The reference for ``profile_census``
# and ``psl2.signature_counts``.
# ---------------------------------------------------------------------------

def fold_signatures(inv) -> dict:
    """The class signatures of ``inv``, each with its number of classes,
    counted from the fold: the head classes one each, then each torus's
    orders ascending, the order of ``signature_counts``."""
    out = {ref_signature(e): 1 for e in inv.head}
    for kind, _, orders, _ in inv.tori:
        out.update(((kind, None, j), n) for j, n in sorted(Counter(orders).items()))
    return out


def inventory_census(inv) -> ProfileCensus:
    """The ``ProfileCensus`` over ``fold_signatures``, built as
    ``profile_census`` builds its own over ``signature_counts``."""
    ctx = inv.ctx
    sigs = fold_signatures(inv)
    classes = maximal_subgroup_classes(ctx.p, ctx.f)
    profs = [sum(1 << i for i, sc in enumerate(classes) if label_meets(ctx.q, sig, sc))
             for sig in sigs]
    buckets = sorted(set(profs[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1, *map(index.__getitem__, profs[1:])]
    sizes = [0] * len(buckets)
    for b, count in zip(sig_bucket[1:], list(sigs.values())[1:]):
        sizes[b] += count
    disjoint = _ref_disjoint(buckets)
    return ProfileCensus(ctx.q, inv.d * ctx.f, sigs, buckets, sizes, sig_bucket, disjoint,
                         profs, sum(sizes[i] * sizes[j] for i, j in disjoint), classes)


# ---------------------------------------------------------------------------
# the census by a per-class signature index: the index is built by one dict
# lookup per class, the bucket sizes by a Counter over it, and the covering
# runs the Borel and nonsplit-dihedral rules a second time.  The reference
# for the census from per-signature class counts.
# ---------------------------------------------------------------------------

def ref_class_signatures(inv) -> tuple:
    """(signatures, of_class): the distinct signatures, the head's first and
    then each torus's orders ascending, and the position of the signature
    of every class."""
    position = {}
    of_class = [position.setdefault(ref_signature(e), len(position)) for e in inv.head]
    for kind, _, orders, _ in inv.tori:
        for j in sorted(set(orders)):
            position[kind, None, j] = len(position)
        of_class += [position[kind, None, j] for j in orders]
    return list(position), of_class


def ref_index_census(ctx, inv) -> tuple:
    """(census, members, sides): the ``ProfileCensus`` with sizes counted
    over the per-class index, the positions of the classes of each bucket
    read off that index, and the covering side of each signature."""
    sigs, of_class = ref_class_signatures(inv)
    classes = maximal_subgroup_classes(ctx.p, ctx.f)
    profs = [sum(1 << i for i, sc in enumerate(classes) if label_meets(ctx.q, sig, sc))
             for sig in sigs]
    buckets = sorted(set(profs[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1] + [index[prof] for prof in profs[1:]]
    sizes = [0] * len(buckets)
    counts = Counter(of_class)
    for sig, count in counts.items():
        if sig:
            sizes[sig_bucket[sig]] += count
    members = [[i for i, sig in enumerate(of_class[1:]) if sig_bucket[sig] == b]
               for b in range(len(buckets))]
    borel = next(sc for sc in classes if sc.kind == BOREL)
    dihedral = next(sc for sc in classes if sc.kind == DIH_NONSPLIT)
    sides = [BOREL_SIDE * label_meets(ctx.q, sig, borel)
             | DIHEDRAL_SIDE * label_meets(ctx.q, sig, dihedral) for sig in sigs]
    disjoint = _ref_disjoint(buckets)
    census = ProfileCensus(ctx.q, inv.d * ctx.f, {sig: counts[k] for k, sig in enumerate(sigs)},
                           buckets, sizes, sig_bucket, disjoint, profs,
                           sum(sizes[i] * sizes[j] for i, j in disjoint), classes)
    return census, members, sides


# ---------------------------------------------------------------------------
# the graph analyses as three BFS routines over the neighbour masks, and the
# bucket summary through an IGGraph on the plus quotient: the reference for
# the one BFS routine that serves them all
# ---------------------------------------------------------------------------

def ref_bits(mask) -> list:
    """The set bits of a mask, ascending, the lowest cleared one at a time:
    the reference for ``iggraph._bits``, which reads the binary digits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _layers(nbrs, source) -> list:
    """BFS layers from ``source`` as bitmasks."""
    frontier = seen = 1 << source
    layers = []
    while frontier:
        layers.append(frontier)
        reach = 0
        for i in _bits(frontier):
            reach |= nbrs[i]
        frontier = reach & ~seen
        seen |= frontier
    return layers


def mask_components(g) -> list:
    """Vertex lists of the components, each in vertex order, ordered by
    their first vertex."""
    seen = 0
    out = []
    for i in range(len(g.vertices)):
        if seen >> i & 1:
            continue
        comp = 0
        for layer in _layers(g.nbrs, i):
            comp |= layer
        seen |= comp
        out.append([g.vertices[j] for j in _bits(comp)])
    return out


def mask_is_bipartite(g) -> tuple:
    """Bipartite verdict and parts; each component's part 0 holds the even
    BFS layers from its first vertex."""
    seen = odd = 0
    for i in range(len(g.vertices)):
        if seen >> i & 1:
            continue
        for depth, layer in enumerate(_layers(g.nbrs, i)):
            if any(g.nbrs[j] & layer for j in _bits(layer)):
                return False, ([], [])
            seen |= layer
            if depth % 2:
                odd |= layer
    part0 = [v for i, v in enumerate(g.vertices) if not odd >> i & 1]
    part1 = [v for i, v in enumerate(g.vertices) if odd >> i & 1]
    return True, (part0, part1)


def mask_diameter(g) -> int:
    """Largest eccentricity within a component, from one BFS per twin class."""
    sources = {mask: i for i, mask in enumerate(g.nbrs) if mask}
    return max((len(_layers(g.nbrs, i)) - 1 for i in sources.values()), default=0)


def ref_quotient_summary(census, cover, inv) -> LambdaSummary:
    """``lambda_summary`` through an IGGraph on the live buckets and the
    three mask routines; ``inv`` names the isolated classes."""
    sizes = census.sizes
    near = [[] for _ in sizes]
    for i, j in census.disjoint:
        if i != j:
            near[i].append(j)
    quotient = graph_from_near(census.q, 1, "structural", list(range(len(sizes))), near,
                               plus=True)
    live = quotient.vertices
    dead = {i for i, js in enumerate(near) if not js}
    members = census.members(inv)
    isolated = [str(inv.entries[i + 1].label) for b in dead for i in members[b]]
    bipartite, _ = mask_is_bipartite(quotient)
    diam = mask_diameter(quotient)
    if any(sizes[i] >= 2 for i in live):
        diam = max(diam, 2)
    return LambdaSummary(
        component_count=len(mask_components(quotient)),
        bipartite=bipartite,
        parts_match_covering=bipartite and quotient_parts_match(cover, census, quotient),
        diameter=diam,
        isolated=sorted(isolated),
    )


def quotient_parts_match(cover, census, quotient) -> bool:
    one_side = (BOREL_SIDE, DIHEDRAL_SIDE)
    tags = [set() for _ in census.buckets]
    for bucket, side in zip(census.sig_bucket, cover.sides):
        if bucket >= 0:
            tags[bucket].add(side if side in one_side else None)
    if any(len(t) != 1 for t in tags):
        return False
    bucket_side = [t.pop() for t in tags]
    for i, mask in zip(quotient.vertices, quotient.nbrs):
        if bucket_side[i] is None:
            return False
        if any(bucket_side[quotient.vertices[k]] == bucket_side[i] for k in _bits(mask)):
            return False
    return True


def graph_from_near(q, t, method, vertices, near, plus) -> IGGraph:
    """The graph on ``vertices`` whose entry i of ``near`` lists the indices
    of the neighbours of vertex i; plus keeps only the vertices with a
    neighbour, re-indexed in their original order."""
    keep = [i for i, js in enumerate(near) if js] if plus else range(len(vertices))
    new = {i: k for k, i in enumerate(keep)}
    nbrs = []
    for i in keep:
        mask = 0
        for j in near[i]:
            mask |= 1 << new[j]
        nbrs.append(mask)
    return IGGraph(q, t, method, [vertices[i] for i in keep], nbrs)


def ref_power_candidates(ctx, t, psi2, action, inv, plus=False) -> IGGraph:
    """The power graph by the product criterion, candidate by candidate:
    the neighbours of a tuple v are drawn from the product of the Psi2
    neighbour lists of its coordinates, |Psi2|^t candidates in all, and a
    candidate is kept when its t columns lie in t distinct orbits of
    ``pair_orbits``.  The reference for ``lambda_power``'s mask kernel."""
    labels = inv.nonidentity_labels()
    orbit = pair_orbits(action, psi2)
    # product() yields index tuples in lexicographic order, which is also the
    # order of the label tuples below, so w > v means w comes later: the
    # first coordinate of w runs from v[0] up, and w > v decides the ties
    index = {v: i for i, v in enumerate(product(range(len(labels)), repeat=t))}
    near = [[] for _ in index]
    for v, i in index.items():
        first = psi2.near[v[0]]
        for w in product(first[bisect_left(first, v[0]):], *(psi2.near[a] for a in v[1:])):
            if w > v and len({orbit[col] for col in zip(v, w)}) == t:
                j = index[w]
                near[i].append(j)
                near[j].append(i)
    return graph_from_near(ctx.q, t, psi2.method, list(product(labels, repeat=t)), near, plus)


def component_count(beta, t) -> int:
    """Components of the plus graph of S^t, t <= beta, in closed form: the
    realised part-pattern pairs {P, P^c}, where a pattern with |P| = k is
    realised iff k <= beta/2 and t - k <= beta/2."""
    h = beta // 2
    return sum(comb(t, k) for k in range(max(0, t - h), min(t, h) + 1)) // 2


# ---------------------------------------------------------------------------
# the graph JSON payload, built whole
# ---------------------------------------------------------------------------

def ref_graph_json(g) -> dict:
    """The payload ``graph_to_json`` writes, as a dict: its text must be
    ``json.dumps(ref_graph_json(g), indent=2) + "\n"``.  The parts are
    ``is_bipartite``'s, present exactly when the graph is bipartite."""
    names = [g.vertex_name(v) for v in g.vertices]
    name_of = dict(zip(g.vertices, names))
    out = {
        "q": g.q,
        "t": g.t,
        "method": g.method,
        "vertices": sorted(names),
        "edges": sorted(
            [names[i], names[j]]
            for i, mask in enumerate(g.nbrs) for j in _bits(mask) if names[i] < names[j]
        ),
        "components": sorted(sorted(name_of[v] for v in comp) for comp in mask_components(g)),
    }
    bipartite, parts = is_bipartite(g)
    if bipartite:
        out["parts"] = [sorted(name_of[v] for v in parts[0]),
                        sorted(name_of[v] for v in parts[1])]
    return out


def ref_dot(g) -> str:
    """The DOT text ``to_dot`` writes, built whole: each edge once, from its
    earlier end in vertex order, and ``is_bipartite``'s part of each vertex
    when the graph is bipartite."""
    names = [g.vertex_name(v) for v in g.vertices]
    lines = ["graph lambda {"]
    bipartite, parts = is_bipartite(g)
    part1 = set(parts[0])
    for v, name in zip(g.vertices, names):
        attrs = f' [part="{1 if v in part1 else 2}"]' if bipartite else ""
        lines.append(f'  "{name}"{attrs};')
    for i, mask in enumerate(g.nbrs):
        for j in _bits(mask):
            if i < j:
                lines.append(f'  "{names[i]}" -- "{names[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the field tables and walks through the context's methods, and the census
# on frozensets of subgroup ids: the references for the searches on ints,
# the walks that read the tables inline and the census on profile masks
# ---------------------------------------------------------------------------

def ref_modulus(p, f) -> list:
    """The lexicographically least monic irreducible of degree f over GF(p),
    every candidate tried by trial division against every monic
    polynomial of degree 1..f/2."""
    for tail in product(range(p), repeat=f):
        m = list(tail) + [1]
        if f == 1 or m[0] and all(any(_poly_mod(m, list(d) + [1], p))
                                  for k in range(1, f // 2 + 1)
                                  for d in product(range(p), repeat=k)):
            return m
    raise RuntimeError("no irreducible found")


class PrimeTables:
    """GF(p) arithmetic read from exp and log tables over the context's
    generator: the reference for the int arithmetic of a prime field."""

    def __init__(self, ctx):
        self.p, self.exp = ctx.p, ctx.exp_table()
        self.log = [0] * ctx.p
        for k, a in enumerate(self.exp):
            self.log[a] = k

    def mul(self, a, b):
        return 0 if a == 0 or b == 0 else self.exp[(self.log[a] + self.log[b]) % (self.p - 1)]

    def inv(self, a):
        return self.exp[-self.log[a] % (self.p - 1)]

    def pow(self, a, e):
        return self.exp[self.log[a] * e % (self.p - 1)]

    def is_square(self, a):
        return self.p == 2 or a == 0 or self.log[a] % 2 == 0


def ref_split_traces(ctx) -> list:
    """The split traces g^k + g^-k, k = 1..(q-1)/2, by ``ctx.add``."""
    exp, half = ctx.exp_table(), (ctx.q - 1) // 2
    return [ctx.add(exp[k], exp[-k]) for k in range(1, half + 1)]


def ref_table_walk(ctx) -> list:
    """The nonsplit walk of ``psl2._nonsplit_walk`` with the candidates
    tested by ``is_split_trace`` and every step through ``ctx.mul`` and
    ``ctx.sub``."""
    q = ctx.q
    two = ctx.scalar(2)
    minus_two = ctx.neg(two)
    for t in range(q):
        if t in (two, minus_two) or is_split_trace(ctx, t):
            continue
        walk = [t]
        dk_prev, dk = two, t
        for _ in range((q - 1) // 2):
            dk_prev, dk = dk, ctx.sub(ctx.mul(t, dk), dk_prev)
            if dk in (two, minus_two):
                break
            walk.append(dk)
        if len(walk) == q // 2 and (q % 2 == 0 or dk == minus_two):
            return walk
    raise RuntimeError(f"no nonsplit torus generator trace found for q={q}")


def split_key_array(inv) -> list:
    """The split torus's key array: the order of each split class at its key."""
    width = inv.q if inv.d == 1 else (inv.q + inv.q // inv.ctx.p) // 2
    slots = [0] * width
    split = inv.tori[0]
    for key, order in zip(split.keys, split.orders):
        slots[key] = order
    return slots


def ref_frozenset_census(inv) -> tuple:
    """(buckets, sizes, sig_bucket, disjoint, profiles, psi2_count) with each
    profile the frozenset of the ids of the subgroup classes it meets, and
    the buckets sorted by their sorted ids, over ``fold_signatures``."""
    sigs = fold_signatures(inv)
    universe = [(sc, sc.id) for sc in maximal_subgroup_classes(inv.ctx.p, inv.ctx.f)]
    profs = [frozenset([i for sc, i in universe if label_meets(inv.q, sig, sc)])
             for sig in sigs]
    buckets = sorted(set(profs[1:]), key=sorted)
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1] + [index[prof] for prof in profs[1:]]
    sizes = [0] * len(buckets)
    for b, count in zip(sig_bucket[1:], list(sigs.values())[1:]):
        sizes[b] += count
    disjoint = _ref_disjoint(buckets)
    return (buckets, sizes, sig_bucket, disjoint, profs,
            sum(sizes[i] * sizes[j] for i, j in disjoint))


# ---------------------------------------------------------------------------
# Dickson's whole list with orders, exact maximality flags, subfield PGL, A4
# and both S4 classes: the reference for the inclusion-maximal list that
# ``maximal_subgroup_classes`` returns, which must give the same Psi2
# ---------------------------------------------------------------------------

SUBFIELD_PGL = "subfield_pgl"
EXC_A4 = "exc_a4"


class ReferenceClass(NamedTuple):
    """A record of ``reference_subgroup_classes``: a ``SubgroupClass`` with
    its order and maximality flag.  Variant 1 of a subfield PGL is the copy
    whose unipotents have square parameter, variant 2 the nonsquare one."""

    kind: str
    order: int
    maximal: bool
    variant: int | None = None
    q0: int | None = None

    id = SubgroupClass.id
    __str__ = SubgroupClass.__str__


def reference_subgroup_classes(ctx) -> list:
    """Dickson's list for PSL(2,q) with exact maximality flags.  The two
    dihedral records are always present; the nonsplit one doubles as the
    covering subgroup for the 2-covering check."""
    p, f, q = ctx.p, ctx.f, ctx.q
    d = 2 if q % 2 == 1 else 1
    out = [
        ReferenceClass(BOREL, q * (q - 1) // d, True),
        ReferenceClass(DIH_SPLIT, 2 * (q - 1) // d, q % 2 == 0 or q >= 13),
        ReferenceClass(DIH_NONSPLIT, 2 * (q + 1) // d, q % 2 == 0 or q not in (7, 9)),
    ]
    for r in (r for r in range(3, f + 1, 2) if f % r == 0 and is_prime(r)):
        q0 = p ** (f // r)
        if q0 == 2:
            continue
        d0 = 2 if q0 % 2 == 1 else 1
        out.append(ReferenceClass(SUBFIELD_PSL, q0 * (q0 * q0 - 1) // d0, True, q0=q0))
    if f % 2 == 0:
        q0 = p ** (f // 2)
        if q0 != 2:
            order = q0 * (q0 * q0 - 1)
            if q % 2 == 1:
                out.append(ReferenceClass(SUBFIELD_PGL, order, True, variant=1, q0=q0))
                out.append(ReferenceClass(SUBFIELD_PGL, order, True, variant=2, q0=q0))
            else:
                out.append(ReferenceClass(SUBFIELD_PGL, order, True, q0=q0))
    if f == 1 and q % 40 in (3, 5, 13, 27, 37):
        out.append(ReferenceClass(EXC_A4, 12, True))
    if f == 1 and q % 8 in (1, 7):
        out.append(ReferenceClass(EXC_S4, 24, True, variant=1))
        out.append(ReferenceClass(EXC_S4, 24, True, variant=2))
    if (f == 1 and q % 10 in (1, 9)) or (f == 2 and p % 10 in (3, 7)):
        out.append(ReferenceClass(EXC_A5, 60, True, variant=1))
        out.append(ReferenceClass(EXC_A5, 60, True, variant=2))
    return out


def reference_meets(q, sig, sc) -> bool:
    """``label_meets``, with the rules for the records it does not know.
    A4 (f = 1, p >= 5) meets the classes of order at most 3.  Subfield
    PGL(2,q0) meets the involutions, a torus class iff t^2 lies in GF(q0)
    (the order test, by the argument in ``label_meets``), and for q odd
    the unipotent class of its variant only, since GF(q0)* consists of
    squares of GF(q0^2), so the standard copy meets the square class and
    its twisted conjugate the other."""
    kind, sq, order = sig
    if sc.kind == EXC_A4:
        return order <= 3
    if sc.kind != SUBFIELD_PGL:
        return label_meets(q, sig, sc)
    if kind == "unip" and q % 2 == 1:
        return sq is (sc.variant == 1)
    return kind in ("id", "unip", "inv") or sc.q0 % order in (1, order - 1)


def reference_census(inv) -> ProfileCensus:
    """The census over the reference list and ``fold_signatures``: profiles
    over the maximal records and the nonsplit dihedral, bucketed by their
    maximal part."""
    ctx = inv.ctx
    sigs = fold_signatures(inv)
    classes = reference_subgroup_classes(ctx)
    universe = [sc for sc in classes if sc.maximal or sc.kind == DIH_NONSPLIT]
    profiles = [sum(1 << i for i, sc in enumerate(universe) if reference_meets(ctx.q, sig, sc))
                for sig in sigs]
    maximal = sum(1 << i for i, sc in enumerate(universe) if sc.maximal)
    profs = [prof & maximal for prof in profiles]
    buckets = sorted(set(profs[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1, *map(index.__getitem__, profs[1:])]
    sizes = [0] * len(buckets)
    for b, count in zip(sig_bucket[1:], list(sigs.values())[1:]):
        sizes[b] += count
    disjoint = _ref_disjoint(buckets)
    return ProfileCensus(ctx.q, inv.d * ctx.f, sigs, buckets, sizes, sig_bucket, disjoint,
                         profiles, sum(sizes[i] * sizes[j] for i, j in disjoint), universe)


def reference_label_profiles(inv) -> dict:
    """Nonidentity label -> the ids of the reference-list records that meet
    its class, by ``reference_meets``."""
    ctx = inv.ctx
    classes = reference_subgroup_classes(ctx)
    return by_label(inv, [frozenset(sc.id for sc in classes if reference_meets(ctx.q, sig, sc))
                          for sig in signature_counts(ctx.p, ctx.f)])
