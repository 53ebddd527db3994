"""Elements and conjugacy classes of S = PSL(2,q).

Matrices appear only in enumeration: ``enumerate_psl2`` yields every
element once as a 4-tuple (a, b, c, d) of field elements with ad - bc = 1
(the oracle names its conjugacy class from its trace).  The tuple is the
canonical representative of the matrix pair {M, -M}: its first nonzero
entry is the smaller (as an int) of itself and its negative.  For q even
M = -M and every determinant-1 tuple is canonical.  Group
arithmetic is done elsewhere, on the permutations the oracle makes of
these matrices (``invgen.oracle``).

Conjugacy classes are symbolic labels:

  id                      the identity class
  inv                     the involution class (q odd)
  unip:sq / unip:nsq      the two order-p classes (q odd), split by the
                          square class of the upper-right entry of the
                          unitriangular normal form
  unip                    the single order-2 class (q even)
  split:t=K               semisimple with eigenvalues in GF(q), order >= 3
  nonsplit:t=K            semisimple with eigenvalues in GF(q^2) only

where K is the canonical trace key: the smaller int of the trace pair
{t, -t}.  Every class of order l >= 3 is determined by its trace pair.

A ``ClassInventory`` is held as arrays: its ``head`` (the identity, the
involution class and the unipotent classes, at most four entries) and, for
each torus kind, the ascending trace keys of its classes with the element
order of each (``TorusClasses``).  The classes are numbered in that order:
the head, then the split keys, then the nonsplit keys; entry 0 is the
identity.  The ``ClassEntry`` and ``ClassLabel`` objects of the torus
classes are built only when classes are named, on first use.  The class
signatures the rules of ``structure`` read, (kind, square class, order),
and their class counts come from q alone (``signature_counts``).  Both
tori get their traces from one Dickson walk, which certifies that its
trace belongs to a generator of the torus (``_torus_walk``): the split
torus along g + 1/g, g the generator of GF(q)*, and the nonsplit torus
along the first candidate trace that passes.  Each torus is folded into a
key array, its keys missing every key of the other (``_fold_traces``);
the split torus is folded first, and the nonsplit walk passes over the
candidate traces whose key holds a split class.  The walks step on ints
mod p in a prime field and through ``GFContext`` (``mul``, ``sub``) in an
extension field, so ``gf`` is the one module that knows how the field
stores its elements.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property
from itertools import compress, repeat
from typing import NamedTuple

from invgen.gf import GFContext, factorize

Mat = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

class ClassLabel(NamedTuple):
    kind: str  # "id" | "inv" | "unip" | "split" | "nonsplit"
    trace: int = -1  # canonical trace key for split/nonsplit, else -1
    sq: bool | None = None  # square-class flag for unipotents, q odd only

    def str_form(self) -> str:
        if self.kind in ("split", "nonsplit"):
            return f"{self.kind}:t={self.trace}"
        if self.kind == "unip" and self.sq is not None:
            return "unip:sq" if self.sq else "unip:nsq"
        return self.kind

    def __str__(self) -> str:
        return self.str_form()


class ClassEntry(NamedTuple):
    label: ClassLabel
    order: int
    size: int


# What the structural rules may know of a class, its signature, is the
# plain tuple (kind, square-class flag of a unipotent for q odd, element
# order).  Classes with one signature meet the same subgroup classes.
ClassSignature = tuple[str, "bool | None", int]


class TorusClasses(NamedTuple):
    """The classes of one torus kind: their trace keys, ascending, the
    element order of each, and the size every one of them has."""

    kind: str  # "split" | "nonsplit"
    keys: list[int]
    orders: list[int]
    size: int


class ClassInventory:
    """Complete class list of PSL(2,q), with sizes from centralizer formulas."""

    def __init__(self, ctx: GFContext, head: list[ClassEntry], tori: list[TorusClasses]):
        self.ctx = ctx
        self.q = ctx.q
        self.d = 2 if ctx.q % 2 == 1 else 1
        self.head = head  # the identity first, then the involution and unipotent classes
        self.tori = tori  # split, then nonsplit

    @cached_property
    def entries(self) -> list[ClassEntry]:
        """Every class as a ClassEntry, in class order; built on first use."""
        out = list(self.head)
        for kind, keys, orders, size in self.tori:
            out += map(ClassEntry, map(ClassLabel, repeat(kind), keys), orders, repeat(size))
        return out

    def __len__(self) -> int:
        return len(self.head) + sum(len(torus.keys) for torus in self.tori)

    def __iter__(self) -> Iterator[ClassEntry]:
        return iter(self.entries)

    def labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries]

    def nonidentity_labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries[1:]]

    def group_order(self) -> int:
        q = self.q
        return q * (q * q - 1) // self.d

    def to_json(self) -> list[dict]:
        return [
            {"label": e.label.str_form(), "order": e.order, "size": e.size}
            for e in self.entries
        ]


# ---------------------------------------------------------------------------
# matrices: enumeration and labelling
# ---------------------------------------------------------------------------

def trace_key(ctx: GFContext, t: int) -> int:
    return min(t, ctx.neg(t))


def enumerate_psl2(ctx: GFContext):
    """Yield each element of PSL(2,q) exactly once, in canonical form.

    Runs over the standard SL(2,q) parametrization with its first nonzero
    entry (a, or b when a = 0) restricted to the values v <= -v, so the
    canonical member of each pair {M, -M} is the one reached.  In a prime
    field d = (1 + bc)/a is worked out on ints mod p.
    """
    q = ctx.q
    mul, inv, add, neg = ctx.mul, ctx.inv, ctx.add, ctx.neg
    leads = [v for v in range(1, q) if v <= neg(v)]
    for a in leads:
        ia = inv(a)
        for b in range(q):
            if ctx.f == 1:
                iab = ia * b
                for c in range(q):
                    yield a, b, c, (ia + iab * c) % q
            else:
                for c in range(q):
                    yield a, b, c, mul(ia, add(1, mul(b, c)))
    # a = 0: need bc = -1
    for b in leads:
        c = neg(inv(b))
        for d in range(q):
            yield 0, b, c, d


# ---------------------------------------------------------------------------
# trace/order bookkeeping for semisimple classes
# ---------------------------------------------------------------------------

def _torus_walk(ctx: GFContext, t: int, n: int) -> list[int] | None:
    """The traces D_1, ..., D_((n-1)//2) of the powers x^k, k < n/2, of an
    element x of trace t in a cyclic torus of SL(2,q) of order n, or None
    when x does not generate that torus.  They follow the Dickson recursion
    D_(k+1) = t*D_k - D_(k-1) with D_0 = 2 and D_1 = t.

    The walk certifies its own generator.  x^k = +-1 exactly when
    D_k = +-2, so x generates the torus iff D_k != +-2 for 1 <= k < n/2
    and, for q odd, D_(n/2) = -2 (the one involution of the SL torus is
    -1): the order of x then divides n but not n/2, and exceeds n/2.  For
    q even, n is odd and the first rule is enough.  Without the second
    rule, a nonsplit t of SL-order (q+1)/2 would pass when that is odd
    (q = 1 mod 4); it gives the same classes but another walk.  Each walk
    stops at its first +-2.  A prime field steps on ints mod p: the walks
    of both tori of its 170 fields in 4..1024 take 10.6-13.2 ms so, against
    31-33 ms through the field methods.  An extension field steps through
    ``ctx.mul`` and ``ctx.sub``: the walks of its 26 fields take 4.3-5.0 ms,
    against 3.0-4.0 ms when the split traces were sums over the exp table
    (in-process, best of 9, three rounds, 2-core Xeon VM).
    """
    p = ctx.p
    two, minus_two = 2 % p, -2 % p
    stops = (two, minus_two)
    walk, dk_prev, dk = [], two, t
    if ctx.f == 1:
        for _ in range((n - 1) // 2):
            if dk in stops:
                return None
            walk.append(dk)
            dk_prev, dk = dk, (t * dk - dk_prev) % p
    else:
        mul, sub = ctx.mul, ctx.sub
        for _ in range((n - 1) // 2):
            if dk in stops:
                return None
            walk.append(dk)
            dk_prev, dk = dk, sub(mul(t, dk), dk_prev)
    return walk if n % 2 or dk == minus_two else None


def _nonsplit_walk(ctx: GFContext, split: list[int], key_of) -> list[int]:
    """The ``_torus_walk`` of the first candidate trace that generates the
    nonsplit torus, of order q + 1.  Candidates t are taken in increasing
    order among the traces whose key holds no class in ``split``, the split
    torus's key array (``_fold_traces``): the nonsplit traces, and +-2 and,
    for q = 1 mod 4, 0, whose walks stop at D_1 and D_2 = -2."""
    for t in range(ctx.q):
        if not split[key_of(t)] and (walk := _torus_walk(ctx, t, ctx.q + 1)) is not None:
            return walk
    raise RuntimeError(f"no nonsplit torus generator trace found for q={ctx.q}")


def _trace_keys(ctx: GFContext) -> list[int] | range:
    """``trace_key`` of every field element, as a sequence indexed by element.

    For p = 2, neg is the identity, so every element is its own key.  For p
    odd each key is the smaller of t and -t, read off the context's
    negation table, with no call per element."""
    q = ctx.q
    if ctx.p == 2:
        return range(q)
    # prime field: keys 0, 1, ..., (p-1)/2, then (p-1)/2, ..., 1; the key
    # lists of the 170 prime fields of 4..1024 take 0.9-1.3 ms, against
    # 17-18 ms as per-element min(t, -t) lists (in-process, best of 9, three
    # rounds, 2-core Xeon VM)
    if ctx.f == 1:
        return list(range((q + 1) // 2)) + list(range(q // 2, 0, -1))
    return list(map(min, range(q), ctx.neg_table()))


def _divisors(n: int) -> list[int]:
    """The divisors of n, ascending."""
    out = [1]
    for r, e in factorize(n).items():
        out = [d * r ** i for d in out for i in range(e + 1)]
    return sorted(out)


def signature_counts(p: int, f: int) -> dict[ClassSignature, int]:
    """The class signatures of PSL(2,q), q = p^f, in class order, each with
    its number of classes, from arithmetic alone: one class per head
    signature, then each torus's orders ascending.  A torus of PSL-order
    n = (q -+ 1)/d is cyclic, so for each divisor j of n it has phi(j)
    elements of order j; for j >= 3 they fall into phi(j)/2 classes, as x
    is conjugate to x^-1 and to no other element of its torus (the trace
    pair names the class).  Orders 1 and 2 are head classes."""
    q = p ** f
    d = 2 if q % 2 else 1
    out = {("id", None, 1): 1}
    if d == 2:
        out.update({("inv", None, 2): 1, ("unip", True, p): 1, ("unip", False, p): 1})
    else:
        out["unip", None, 2] = 1
    for kind, n in (("split", (q - 1) // d), ("nonsplit", (q + 1) // d)):
        phi = [(1, 1)]  # (divisor j of n, phi(j)), built prime by prime
        for r, e in factorize(n).items():
            phi += [(j * r ** (i + 1), k * (r - 1) * r ** i) for j, k in phi for i in range(e)]
        out.update(((kind, None, j), k // 2) for j, k in sorted(phi) if j >= 3)
    return out


def _power_orders(n: int, d: int, count: int) -> list[int]:
    """PSL-orders of the powers x^1, ..., x^count of an element x of
    SL-order n.  The SL-order of x^k is n/gcd(k, n), written by a divisor
    slice sieve: for each divisor g of n, ascending, every k that g divides
    gets n/g, so the last write at k is for the largest divisor of n that
    divides k, which is gcd(k, n).  An element of SL-order m has PSL-order
    m/d when d divides m."""
    out = [0] * count
    for g in _divisors(n):
        if g > count:
            break
        m = n // g
        out[g - 1::g] = [m // d if m % d == 0 else m] * (count // g)
    return out


def _fold_traces(kind: str, keys: list[int], orders: list[int], size: int,
                 mirror: int | None, slots: list[int], other: list[int]) -> TorusClasses:
    """The classes of a cyclic torus, given the trace key and PSL-order of
    each power x^k of a generator x along its walk as keys[k-1] and
    orders[k-1].

    For q odd, ``mirror`` is the m with x^m = -1 in SL(2,q), half the
    torus order: (q-1)/2 on the split walk, (q+1)/2 on the nonsplit one.
    Then x^(m-k) = -x^(-k), and x^(-k) has the trace of x^k, so powers k
    and m - k carry t and -t, one key and one order.  The powers k < m/2
    are one of each such pair; the rest are their mirrors and the
    involution (k = m/2).  So those powers are the classes, and one list
    comparison checks that every mirror agrees on the key and the order.
    For q even (``mirror`` None) -1 = 1, the walk stops short of the
    inverses, and every power on it is a class of its own.  The orders go
    by key into the zero key array ``slots``; the keys must be distinct and
    miss ``other``, the other torus's key array."""
    if mirror is not None:
        half = (mirror - 1) // 2
        if (keys[mirror - 1 - half:mirror - 1][::-1] != keys[:half]
                or orders[mirror - 1 - half:mirror - 1][::-1] != orders[:half]):
            raise RuntimeError(f"inconsistent {kind} trace fold")
        keys, orders = keys[:half], orders[:half]
    for k, j in zip(keys, orders):
        slots[k] = j  # every order is at least 3
    classes = list(compress(range(len(slots)), slots))
    if len(classes) != len(keys) or any(map(other.__getitem__, classes)):
        raise RuntimeError(f"inconsistent {kind} trace fold")
    return TorusClasses(kind, classes, list(filter(None, slots)), size)


def inventory(ctx: GFContext) -> ClassInventory:
    """Full conjugacy class inventory of PSL(2,q), q >= 4."""
    q = ctx.q
    if q < 4:
        raise RuntimeError("PSL(2,q) class inventory requires q >= 4")
    d = 2 if q % 2 == 1 else 1
    head: list[ClassEntry] = [ClassEntry(ClassLabel("id"), 1, 1)]
    if d == 2:
        eps = 1 if q % 4 == 1 else -1
        head.append(ClassEntry(ClassLabel("inv"), 2, q * (q + eps) // 2))
        unip_size = (q * q - 1) // 2
        head.append(ClassEntry(ClassLabel("unip", sq=True), ctx.p, unip_size))
        head.append(ClassEntry(ClassLabel("unip", sq=False), ctx.p, unip_size))
    else:
        head.append(ClassEntry(ClassLabel("unip"), 2, q * q - 1))

    # both tori by one Dickson walk (``_torus_walk``), k < n/2: the split
    # torus, n = q - 1, along t = g + 1/g, g the generator of GF(q)*, which
    # the walk certifies; the nonsplit torus, n = q + 1, along the first
    # candidate t that generates it (``_nonsplit_walk``), the candidates
    # read off the split key array.  For q odd the classes are read off the
    # first half of each walk (``_fold_traces``).
    key_of = _trace_keys(ctx).__getitem__
    # for q odd the smaller of t and -t has top digit <= (p-1)/2: keys < (q + q/p)/2
    width = q if d == 1 else (q + q // ctx.p) // 2
    split, nonsplit = [0] * width, [0] * width  # the key arrays
    g = ctx.generator
    walk = _torus_walk(ctx, ctx.add(g, ctx.inv(g)), q - 1)
    if walk is None:
        raise RuntimeError(f"the field generator {g} does not generate GF({q})*")
    keys = list(map(key_of, walk))
    tori = [_fold_traces("split", keys, _power_orders(q - 1, d, len(keys)), q * (q + 1),
                         (q - 1) // 2 if d == 2 else None, split, nonsplit)]
    keys = list(map(key_of, _nonsplit_walk(ctx, split, key_of)))
    tori.append(_fold_traces("nonsplit", keys, _power_orders(q + 1, d, len(keys)), q * (q - 1),
                             (q + 1) // 2 if d == 2 else None, nonsplit, split))

    inv = ClassInventory(ctx, head, tori)
    expected = (q + 4 * d - 3) // d
    if len(inv) != expected:
        raise RuntimeError(
            f"class count mismatch for q={q}: built {len(inv)}, formula gives {expected}"
        )
    sizes = sum(e.size for e in head) + sum(len(t.keys) * t.size for t in tori)
    if sizes != inv.group_order():
        raise RuntimeError(f"class sizes do not sum to |PSL(2,{q})|")
    return inv
