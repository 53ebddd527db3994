"""Reference helpers that only the tests need."""

import time
from collections import Counter, deque
from bisect import bisect_left
from functools import lru_cache
from itertools import product
from math import comb, gcd
from typing import NamedTuple

from invgen.gf import GFContext, _pack, _poly_mod, _unpack, factorize, is_prime
from invgen.autorbits import aut_action
from invgen.iggraph import _bits, IGGraph, is_bipartite, LambdaSummary
from invgen.oracle import _inverse, _line_action, _table, is_split_trace
from invgen.psl2 import (
    ClassEntry, ClassInventory, ClassLabel, TorusClasses, inventory, signature_counts,
    trace_key,
)
from invgen.structure import (
    BOREL, BOREL_SIDE, DIH_NONSPLIT, DIH_SPLIT, DIHEDRAL_SIDE, EXC_A5, EXC_S4,
    SUBFIELD_PSL, CoveringResult, ProfileCensus, Psi2Table, SubgroupClass, build_profiles,
    label_meets, maximal_subgroup_classes,
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


# the power tables of fields up to this size are kept for the session: the
# property tests draw from a few such fields hundreds of times, and no table
# of a field past it (the extended large fields) is held
POWERS_KEPT_Q = 1 << 14
_POWERS: dict = {}


def ref_powers(ctx) -> list:
    """(g^0, ..., g^(q-2)) for the generator g, each power the polynomial
    product of the last with g: the reference for the power walk."""
    key = (ctx.p, ctx.f)
    if key in _POWERS:
        return _POWERS[key]
    out = [1]
    for _ in range(ctx.q - 2):
        out.append(poly_product(ctx, out[-1], ctx.generator))
    if ctx.q <= POWERS_KEPT_Q:
        _POWERS[key] = out
    return out


def generator_powers(ctx) -> tuple:
    """(g^0, ..., g^(q-2)) for the generator g: the exp table of an
    extension field, and for a prime field, which keeps no table, the
    powers on ints mod p."""
    if ctx.f > 1:
        return ctx.exp_table()
    out = [1] * (ctx.q - 1)
    for k in range(1, ctx.q - 1):
        out[k] = out[k - 1] * ctx.generator % ctx.p
    return tuple(out)


def ref_absolute_trace(ctx, a) -> int:
    """The sum of a^(p^i), i < f, by f Frobenius powers: the reference for
    ``GFContext.absolute_trace``, which reads the trace off a's coefficients."""
    s = 0
    for _ in range(ctx.f):
        s = ctx.add(s, a)
        a = ctx.frobenius(a)
    return s  # lies in the prime subfield, so the packed value is < p


def in_subfield(ctx, a, e) -> bool:
    """True iff a lies in the subfield GF(p^e) of ``ctx``; requires e | f."""
    if e < 1 or ctx.f % e != 0:
        raise RuntimeError(f"e={e} does not divide f={ctx.f}")
    return ctx.pow(a, ctx.p ** e) == a  # GF(p^e) is the fixed field of a -> a^(p^e)


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
    of ``profile_census`` and of the ``label_census`` record."""
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


def label_profiles(inv, classes) -> dict:
    """Nonidentity label -> the ``build_profiles`` profile of its signature,
    as subgroup ids."""
    sigs = signature_counts(inv.ctx.p, inv.ctx.f)
    return by_label(inv, [ids(classes, m) for m in build_profiles(inv.q, sigs, classes)])


def ref_profiles(ctx, entries, classes) -> dict:
    """Nonidentity label -> profile mask over ``classes``: ``build_profiles``
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
        out[label] = sum(
            1 << i for i, sc in enumerate(classes)
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
# the label-level record: the class entries, profiles, census, covering,
# summary and beta of PSL(2,q), one class label at a time and built once per
# q.  The reference for the census that src/ builds from q's arithmetic, for
# the inventory, and for every figure read off the census.
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
    exp = generator_powers(ctx)
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


def _ref_disjoint(buckets) -> list:
    """The ordered pairs of bucket positions whose profile masks share no bit."""
    return [(i, j) for i, pi in enumerate(buckets)
            for j, pj in enumerate(buckets) if not pi & pj]


class LabelCensus(NamedTuple):
    """The label-level record of PSL(2,q): the class entries, the census
    with its buckets filled label by label, the members of each bucket as
    positions among the nonidentity labels, and the covering, summary and
    beta read off them."""

    entries: list[ClassEntry]
    census: ProfileCensus
    members: list[list[int]]
    cover: CoveringResult
    summary: LambdaSummary
    beta: int


def label_census(ctx) -> LabelCensus:
    """The record of ``ctx``'s PSL(2,q), from ``ref_entries`` and
    ``ref_profiles``.  Its signatures, each with its class count, are the
    head's in class order, then each torus's orders ascending; the classes
    of one signature must share a profile, and the identity meets every
    listed class.  The summary runs ``graph_from_near`` and the label-keyed
    BFS routines on the plus quotient, and beta is Burnside's count over the
    BFS closure of ``aut_action``, whose order is the census's out_order."""
    q, entries = ctx.q, ref_entries(ctx)
    classes = maximal_subgroup_classes(ctx.p, ctx.f)
    label_mask = ref_profiles(ctx, entries, classes)
    profile = {ref_signature(entries[0]): (1 << len(classes)) - 1}
    for e in entries[1:]:
        assert profile.setdefault(ref_signature(e), label_mask[e.label]) == (
            label_mask[e.label]), (q, e.label)
    rank = {kind: i for i, kind in enumerate(dict.fromkeys(e.label.kind for e in entries))}
    counts = sorted(Counter(map(ref_signature, entries)).items(),
                    key=lambda item: (rank[item[0][0]], item[0][2]))
    profiles = [profile[sig] for sig, _ in counts]
    buckets = sorted(set(profiles[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    bucket_of = [index[label_mask[e.label]] for e in entries[1:]]
    members = [[] for _ in buckets]
    for i, b in enumerate(bucket_of):
        members[b].append(i)
    sizes = [len(m) for m in members]
    disjoint = _ref_disjoint(buckets)
    elements = ref_elements(aut_action(inventory(ctx)))
    census = ProfileCensus(q, len(elements), dict(counts), buckets, sizes,
                           [-1, *map(index.__getitem__, profiles[1:])], disjoint, profiles,
                           sum(sizes[i] * sizes[j] for i, j in disjoint), classes)
    borel, dihedral = (1 << classes.index(SubgroupClass(kind)) for kind in (BOREL, DIH_NONSPLIT))
    sides = [BOREL_SIDE * (prof & borel > 0) | DIHEDRAL_SIDE * (prof & dihedral > 0)
             for prof in profiles]
    cover = CoveringResult(all(sides[1:]), sides)
    near = [[j for i2, j in disjoint if i2 == i != j] for i in range(len(buckets))]
    quotient = graph_from_near(q, 1, "structural", list(range(len(buckets))), near, plus=True)
    bipartite, _ = ref_is_bipartite(quotient)
    diameter = ref_diameter(quotient)
    if any(sizes[i] >= 2 for i in quotient.vertices):  # twins lie two apart
        diameter = max(diameter, 2)
    summary = LambdaSummary(
        component_count=len(ref_components(quotient)),
        bipartite=bipartite,
        parts_match_covering=bipartite and quotient_parts_match(cover, census, quotient),
        diameter=diameter,
        isolated=sorted(str(entries[i + 1].label) for b, js in enumerate(near) if not js
                        for i in members[b]),
    )
    total = 0
    for g in elements:
        fixed = sizes[:]
        for k, image in enumerate(g):
            if image != k:
                fixed[bucket_of[k]] -= 1
        total += sum(fixed[i] * fixed[j] for i, j in disjoint)
    beta, rem = divmod(total, len(elements))
    assert rem == 0, q
    return LabelCensus(entries, census, members, cover, summary, beta)


# ---------------------------------------------------------------------------
# the graph analyses as three breadth-first searches over label-keyed
# neighbour sets, and the quotient's parts against the covering sides: the
# references for the one BFS routine that serves them all and for
# ``_parts_match_covering``
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


def adjacency(g) -> dict:
    """The graph's neighbour masks as label-keyed neighbour sets."""
    return {v: {w for j, w in enumerate(g.vertices) if mask >> j & 1}
            for v, mask in zip(g.vertices, g.nbrs)}


def ref_components(g) -> list:
    """Vertex lists of the components, each in vertex order, ordered by
    their first vertex."""
    adj = adjacency(g)
    seen = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            for w in adj[queue.popleft()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        out.append([v for v in g.vertices if v in comp])
    return out


def ref_is_bipartite(g) -> tuple:
    """Bipartite verdict and parts, by 2-colouring each component from its
    first vertex."""
    adj = adjacency(g)
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, ([], [])
    return True, ([v for v in g.vertices if color[v] == 0],
                  [v for v in g.vertices if color[v] == 1])


def ref_diameter(g) -> int:
    """Largest eccentricity within a component, by a BFS from every vertex."""
    adj = adjacency(g)

    def ecc(start):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return max(dist.values())

    return max(map(ecc, g.vertices), default=0)


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
    candidate is kept when its t columns lie in t distinct orbits, found by
    the union-find of ``ref_orbits``.  The reference for ``lambda_power``'s
    mask kernel and for the orbit names it reads."""
    labels = inv.nonidentity_labels()
    named = ref_orbits(action, psi2)
    pos = {lab: i for i, lab in enumerate(psi2.labels)}
    orbit = {(pos[a], pos[b]): rep for (a, b), rep in named.items()}
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
        "components": sorted(sorted(name_of[v] for v in comp) for comp in ref_components(g)),
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
# the field tables and walks through the context's methods: the references
# for the searches on ints and for the inventory's walks
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
        self.p, self.exp = ctx.p, generator_powers(ctx)
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
    """The split traces g^k + g^-k, k < (q-1)/2, of ``ctx.generator``, with
    no exp table: g^k by repeated ``ctx.mul``, g^-k by ``ctx.inv`` and the
    sums by ``ctx.add``."""
    out, x = [], 1
    for _ in range((ctx.q - 2) // 2):
        x = ctx.mul(x, ctx.generator)
        out.append(ctx.add(x, ctx.inv(x)))
    return out


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


def reference_census(ctx, census) -> ProfileCensus:
    """The census over the reference list, on the signatures, class counts
    and out_order of ``census``, a ``label_census`` record's: profiles over
    the maximal records and the nonsplit dihedral, bucketed by their maximal
    part."""
    sigs = census.signatures
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
    return ProfileCensus(ctx.q, census.out_order, sigs, buckets, sizes, sig_bucket, disjoint,
                         profiles, sum(sizes[i] * sizes[j] for i, j in disjoint), universe)


def reference_label_profiles(inv) -> dict:
    """Nonidentity label -> the ids of the reference-list records that meet
    its class, by ``reference_meets``."""
    ctx = inv.ctx
    classes = reference_subgroup_classes(ctx)
    return by_label(inv, [frozenset(sc.id for sc in classes if reference_meets(ctx.q, sig, sc))
                          for sig in signature_counts(ctx.p, ctx.f)])
