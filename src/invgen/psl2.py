"""Elements and conjugacy classes of S = PSL(2,q).

Matrices appear only in enumeration and labelling: ``enumerate_psl2``
yields every element once as a 4-tuple (a, b, c, d) of field elements with
ad - bc = 1, and ``psl2_class_of`` names its conjugacy class.  The tuple
is the canonical representative of the matrix pair {M, -M}: its first
nonzero entry is the smaller (as an int) of itself and its negative.  For
q even M = -M and every determinant-1 tuple is canonical.  Group
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
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from math import gcd
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


class ClassSignature(NamedTuple):
    """What the structural rules may know of a class: its kind, the
    square-class flag of a unipotent (q odd), its element order, and the
    divisors e of f for which the trace, and the trace squared, lie in
    GF(p^e).  Classes with one signature meet the same subgroup classes."""

    kind: str
    sq: bool | None
    order: int
    trace_in: tuple[int, ...]
    trace_sq_in: tuple[int, ...]


class ClassInventory:
    """Complete class list of PSL(2,q), with sizes from centralizer formulas."""

    def __init__(self, ctx: GFContext, entries: list[ClassEntry]):
        self.ctx = ctx
        self.q = ctx.q
        self.d = 2 if ctx.q % 2 == 1 else 1
        self.entries = entries
        self.index = dict(zip((e.label for e in entries), range(len(entries))))

    @cached_property
    def signatures(self) -> tuple[list[ClassSignature], list[int]]:
        """The distinct class signatures, in order of first appearance, and
        for every entry, in entry order, the position of its signature in
        that list.  Only split and nonsplit traces can miss a subfield: the
        other kinds have trace 0 or +-2, which lie in the prime field."""
        ctx = self.ctx
        degrees = tuple(e for e in range(1, ctx.f + 1) if ctx.f % e == 0)
        # GF(p) skips subfield tests; verify 4..1024 CPU 0.55 s, 0.70 s without (2-core Xeon)
        extension = ctx.f > 1

        def within(t: int) -> tuple[int, ...]:
            return tuple(e for e in degrees if ctx.in_subfield(t, e))

        keys = [(label.kind, label.sq, order, within(t), within(ctx.mul(t, t)))
                if extension and (t := label.trace) >= 0
                else (label.kind, label.sq, order, degrees, degrees)
                for label, order, _ in self.entries]
        position: dict[tuple, int] = {}
        of_entry = [position.setdefault(key, len(position)) for key in keys]
        return [ClassSignature(*key) for key in position], of_entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries]

    def nonidentity_labels(self) -> list[ClassLabel]:
        return [e.label for e in self.entries if e.label.kind != "id"]

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

def trace(ctx: GFContext, m: Mat) -> int:
    return ctx.add(m[0], m[3])


def trace_key(ctx: GFContext, t: int) -> int:
    return min(t, ctx.neg(t))


def is_split_trace(ctx: GFContext, t: int) -> bool:
    """Eigenvalues of a trace-t det-1 matrix lie in GF(q); assumes t^2 != 4."""
    if ctx.p != 2:
        disc = ctx.sub(ctx.mul(t, t), ctx.scalar(4))
        return ctx.is_square(disc)
    # q even: x^2 - tx + 1 splits iff the Artin-Schreier trace of 1/t^2 vanishes
    u = ctx.inv(ctx.mul(t, t))
    return ctx.absolute_trace(u) == 0


def psl2_class_of(ctx: GFContext, m: Mat) -> ClassLabel:
    if ctx.q < 4:
        raise ValueError("class labels are defined for q >= 4")
    if m == (1, 0, 0, 1):
        return ClassLabel("id")
    t = trace(ctx, m)
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
            m = (ctx.neg(m[0]), ctx.neg(m[1]), ctx.neg(m[2]), ctx.neg(m[3]))
        a, b, c, d = m
        param = b if c == 0 else ctx.neg(c)
        return ClassLabel("unip", sq=ctx.is_square(param))
    if t == 0:
        return ClassLabel("inv")
    kind = "split" if is_split_trace(ctx, t) else "nonsplit"
    return ClassLabel(kind, trace_key(ctx, t))


def enumerate_psl2(ctx: GFContext):
    """Yield each element of PSL(2,q) exactly once, in canonical form.

    Runs over the standard SL(2,q) parametrization with its first nonzero
    entry (a, or b when a = 0) restricted to the values v <= -v, so the
    canonical member of each pair {M, -M} is the one reached.
    """
    q = ctx.q
    mul, inv, add, neg = ctx.mul, ctx.inv, ctx.add, ctx.neg
    leads = [v for v in range(1, q) if v <= neg(v)]
    for a in leads:
        ia = inv(a)
        for b in range(q):
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

def dickson(ctx: GFContext, t: int, k: int) -> int:
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


def nonsplit_generator_trace(ctx: GFContext) -> int:
    """Trace of a generator of the nonsplit torus (cyclic of order q+1)."""
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


def _trace_keys(ctx: GFContext, traces: list[int]) -> list[int]:
    """``trace_key`` of every trace in the list (neg is the identity for p = 2)."""
    # prime-field fast path; verify 4..1024 CPU 0.55 s, 0.59 s without (2-core Xeon)
    if ctx.f == 1:
        p = ctx.p
        return [t if 2 * t < p else p - t for t in traces]
    neg = ctx.neg
    return [min(t, neg(t)) for t in traces]


def _fold_traces(kind: str, n: int, d: int, keys: list[int]) -> dict[int, int]:
    """Trace key -> element order of the classes of a cyclic torus of order n
    in SL(2,q), given the trace key of the k-th power of a generator as
    keys[k-1] for k = 1..len(keys).  An element of SL-order m has PSL-order
    m/d when d divides m.  Orders below 3 (the identity and the involution
    class) are left out.  For q odd two powers fold onto each key (traces t
    and -t); they must agree on the order."""
    sl_orders = [n // gcd(k, n) for k in range(1, len(keys) + 1)]
    pairs = {(key, order) for key, m in zip(keys, sl_orders)
             if (order := m // d if m % d == 0 else m) >= 3}
    out = dict(pairs)
    if len(out) != len(pairs):
        raise RuntimeError(f"inconsistent {kind} trace fold")
    return out


def inventory(ctx: GFContext) -> ClassInventory:
    """Full conjugacy class inventory of PSL(2,q), q >= 4."""
    q = ctx.q
    if q < 4:
        raise ValueError("PSL(2,q) class inventory requires q >= 4")
    d = 2 if q % 2 == 1 else 1
    entries: list[ClassEntry] = [ClassEntry(ClassLabel("id"), 1, 1)]
    if d == 2:
        eps = 1 if q % 4 == 1 else -1
        entries.append(ClassEntry(ClassLabel("inv"), 2, q * (q + eps) // 2))
        unip_size = (q * q - 1) // 2
        entries.append(ClassEntry(ClassLabel("unip", sq=True), ctx.p, unip_size))
        entries.append(ClassEntry(ClassLabel("unip", sq=False), ctx.p, unip_size))
    else:
        entries.append(ClassEntry(ClassLabel("unip"), 2, q * q - 1))

    # split classes: g^k + g^-k = exp[k] + exp[q-1-k] along the generator g
    # of GF(q)*; nonsplit classes: the Dickson recursion D_(k+1) = t0*D_k - D_(k-1)
    # along a generator of the order-(q+1) torus, with D_0 = 2 and D_1 = t0.
    # In a prime field (q >= 4 makes p odd) the arithmetic is written out:
    # verify 4..1024 CPU 0.55 s, 0.58 s through ctx.add/mul/sub (2-core Xeon).
    exp = ctx.exp_table()
    t0 = nonsplit_generator_trace(ctx)
    half = range(1, (q - 1) // 2 + 1)
    dickson_seq = [0] * ((q + 1) // 2)
    dk_prev, dk = ctx.scalar(2), t0
    if ctx.f == 1:
        p = ctx.p
        split_traces = [(exp[k] + exp[-k]) % p for k in half]
        for k in range(len(dickson_seq)):
            dickson_seq[k] = dk
            dk_prev, dk = dk, (t0 * dk - dk_prev) % p
    else:
        add, mul, sub = ctx.add, ctx.mul, ctx.sub
        split_traces = [add(exp[k], exp[-k]) for k in half]
        for k in range(len(dickson_seq)):
            dickson_seq[k] = dk
            dk_prev, dk = dk, sub(mul(t0, dk), dk_prev)
    for kind, n, traces, size in (("split", q - 1, split_traces, q * (q + 1)),
                                  ("nonsplit", q + 1, dickson_seq, q * (q - 1))):
        order_of = _fold_traces(kind, n, d, _trace_keys(ctx, traces))
        keys = sorted(order_of)
        entries += map(ClassEntry, map(ClassLabel, repeat(kind), keys, repeat(None)),
                       map(order_of.__getitem__, keys), repeat(size))

    inv = ClassInventory(ctx, entries)
    expected = (q + 4 * d - 3) // d
    if len(inv) != expected:
        raise RuntimeError(
            f"class count mismatch for q={q}: built {len(inv)}, formula gives {expected}"
        )
    if sum(size for _, _, size in entries) != inv.group_order():
        raise RuntimeError(f"class sizes do not sum to |PSL(2,{q})|")
    return inv
