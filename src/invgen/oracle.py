"""Brute-force ground truth for small q.

Elements are permutations of the projective line (the action is faithful),
each stored once as ``bytes`` of length q + 1 and composed with
``bytes.translate`` against a 256-byte table; point 0 is infinity and point
1+v is v.  A permutation is composed from the tables of v -> v + s,
v -> s*v and v -> 1/v: for m = (a, b, c, d) with ad - bc = 1,

    c = 0:   v -> a^2 v + ab,
    c != 0:  v -> a/c - 1/(c^2 (v + d/c)) = a/c + 1/(-c^2 (v + d/c)),

so no image is evaluated point by point (``mobius_perm`` in
``tests/helpers.py`` is the pointwise reference).  Each enumerated matrix
is turned into its permutation and its class label, read from tables keyed
by its trace (``_labeller``; ``psl2_class_of`` in ``tests/helpers.py`` is
the reference), and then dropped.  Inverses come from ``bytes.maketrans``.
A pair generates iff its closure under multiplication is the whole group.
The closure returns early once it outgrows every maximal subgroup order:
that ``exit_bound``, read from ``structure.maximal_subgroup_classes``, is
the one place where the Psi2 verdicts depend on the rules they certify.

``psi2`` decides one class pair per pair of power classes.  The power class
of C is the set of classes C^k with gcd(k, |x|) = 1, read off the powers of
one enumerated x in C.  For such k and j, x -> x^k maps C onto C^k and
<x^k, y^j> = <x, y>, so (C, D) and every (C^k, D^j) share one verdict, and
all members of a power class share one row.  The representatives of two
power classes never generate one cyclic subgroup, so no normaliser below
is scanned twice.

``pair_generates`` decides (C, D) by fixing one x in the smaller class and
sweeping one y per orbit, on the larger class, of the group generated by
conjugation by N = N_S(<x>) and by inversion.  Fixing x is sound because
the pair property is invariant under simultaneous conjugation and symmetric
in the two classes.  The verdict is constant on each orbit: for g in N,
x^(g^-1) generates <x>, so <x, y^g> = <x^(g^-1), y>^g = <x, y>^g; and
<x, y^-1> = <x, y>.  Inversion stays inside D only when D is real, so the
orbit of y^-1 is added only when y^-1 has y's label (the unipotent classes
are not real when q = 3 mod 4).  N is the set of enumerated elements that
conjugate x to one of its powers, so no sweep uses a structural rule.
"""

from __future__ import annotations

from math import gcd

from invgen.gf import CapError, GFContext
from invgen.psl2 import ClassInventory, ClassLabel, Mat, enumerate_psl2, trace_key
from invgen.structure import Psi2Table, maximal_subgroup_classes

MAX_Q = 255  # q + 1 points must fit in a byte

Perm = bytes  # images of the points 0..q of the projective line

_POINTS = bytes(range(256))


class OracleCapError(CapError):
    """q exceeds the oracle cap."""


def _line_action(ctx: GFContext):
    """The map from m to its permutation of the projective line: the
    translate tables of v -> v + s, v -> s*v and v -> 1/v (built here in
    O(q^2) field operations), composed by the identity of the module
    docstring, at most four translates and five field operations per m."""
    q, n = ctx.q, ctx.q + 1
    pad = _POINTS[n:]
    shift = [bytes([0] + [1 + ctx.add(v, s) for v in range(q)]) + pad for s in range(q)]
    scale = [b""] + [bytes([0] + [1 + ctx.mul(s, v) for v in range(q)]) + pad
                     for s in range(1, q)]
    recip = bytes([1, 0] + [1 + ctx.inv(v) for v in range(1, q)]) + pad
    mul, inv, neg = ctx.mul, ctx.inv, ctx.neg

    def perm(m: Mat) -> Perm:
        a, b, c, d = m
        if c == 0:
            return scale[mul(a, a)][:n].translate(shift[mul(a, b)])
        ic = inv(c)
        return (shift[mul(d, ic)][:n].translate(scale[neg(mul(c, c))])
                .translate(recip).translate(shift[mul(a, ic)]))

    return perm


def is_split_trace(ctx: GFContext, t: int) -> bool:
    """Eigenvalues of a trace-t det-1 matrix lie in GF(q); assumes t^2 != 4."""
    if ctx.p != 2:
        disc = ctx.sub(ctx.mul(t, t), ctx.scalar(4))
        return ctx.is_square(disc)
    # q even: x^2 - tx + 1 splits iff the Artin-Schreier trace of 1/t^2 vanishes
    u = ctx.inv(ctx.mul(t, t))
    return ctx.absolute_trace(u) == 0


def _labeller(ctx: GFContext):
    """The map from m to its class label, read from tables built once per
    field with ``is_split_trace`` and ``trace_key`` (never from an
    inventory, which the session certifies).

    A non-identity label is a function of the trace t, except for the
    unipotents of q odd (t = +-2): their square class is that of the
    upper-right entry of the unitriangular normal form, b when c = 0 and -c
    otherwise once m has trace 2, and negating m negates it.  So those are
    keyed by t, by whether c = 0, and by that entry.  The identity (trace 2,
    or 0 for q even) is matched first."""
    q, two = ctx.q, ctx.scalar(2)
    identity, involution, unip = ClassLabel("id"), ClassLabel("inv"), ClassLabel("unip")
    by_trace: list[ClassLabel | None] = []
    for t in range(q):
        if ctx.p == 2 and t == 0:
            by_trace.append(unip)
        elif ctx.p != 2 and t in (two, ctx.neg(two)):
            by_trace.append(None)
        elif t == 0:
            by_trace.append(involution)
        else:
            kind = "split" if is_split_trace(ctx, t) else "nonsplit"
            by_trace.append(ClassLabel(kind, trace_key(ctx, t)))
    unipotent = {}
    if ctx.p != 2:
        square = [ClassLabel("unip", sq=ctx.is_square(v)) for v in range(q)]
        negated = [square[ctx.neg(v)] for v in range(q)]
        # (t, c == 0) -> square class of the read entry, b if c == 0 else c
        unipotent = {(two, True): square, (two, False): negated,
                     (ctx.neg(two), True): negated, (ctx.neg(two), False): square}
    add = ctx.add

    def label(m: Mat) -> ClassLabel:
        if m == (1, 0, 0, 1):
            return identity
        a, b, c, d = m
        t = add(a, d)
        lab = by_trace[t]
        if lab is None:
            return unipotent[t, c == 0][b if c == 0 else c]
        return lab

    return label


def _table(p: Perm) -> bytes:
    """p padded to a 256-byte translate table: w.translate(_table(p)) is p after w."""
    return p + _POINTS[len(p):]


def _inverse(p: Perm) -> Perm:
    """p^-1: the table that sends each image p[i] back to i."""
    return bytes.maketrans(p, _POINTS[:len(p)])[:len(p)]


class OracleSession:
    """Enumerated PSL(2,q) with per-class element lists, q <= ``MAX_Q``.
    Certifies the caller's class inventory: every class of the enumeration
    must have the size the inventory gives it."""

    def __init__(self, inv: ClassInventory):
        ctx = inv.ctx
        if ctx.q > MAX_Q:
            raise OracleCapError(f"q={ctx.q} exceeds oracle cap {MAX_Q}")
        self.ctx = ctx
        self.inv = inv
        perm, label = _line_action(ctx), _labeller(ctx)
        # every element once, in enumeration order, counted as it arrives
        self.label_of_perm: dict[Perm, ClassLabel] = {}
        self.by_label: dict[ClassLabel, list[Perm]] = {lab: [] for lab in inv.labels()}
        self.order = 0
        for m in enumerate_psl2(ctx):
            p, lab = perm(m), label(m)
            try:
                self.by_label[lab].append(p)
            except KeyError:
                raise RuntimeError(f"the enumeration meets class {lab}, "
                                   "which the inventory lacks") from None
            self.label_of_perm[p] = lab
            self.order += 1
        if len(self.label_of_perm) != self.order:
            raise RuntimeError("two enumerated elements act alike on the projective line")
        for entry in inv:
            got = len(self.by_label[entry.label])
            if got != entry.size:
                raise RuntimeError(f"class {entry.label} has {got} elements, "
                                   f"formula says {entry.size}")
        self.npoints = ctx.q + 1
        self.identity: Perm = _POINTS[:self.npoints]
        self.exit_bound = max(sc.order for sc in maximal_subgroup_classes(ctx) if sc.maximal)
        self._normalisers: dict[Perm, list[Perm]] = {}  # filled on demand

    # -- closure -------------------------------------------------------------

    def _closure(self, gens: list[Perm], limit: int) -> set[Perm] | None:
        """The subgroup generated by gens, or None once it exceeds limit elements."""
        tables = [_table(g) for g in gens]
        seen, queue = {self.identity}, [self.identity]
        for w in queue:  # breadth first: the loop reaches what it appends
            for t in tables:
                z = w.translate(t)
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
            if len(seen) > limit:
                return None
        return seen

    def closure_generates(self, gens: list[Perm]) -> bool:
        closure = self._closure(gens, self.exit_bound)
        return closure is None or len(closure) == self.order

    # -- Psi2 ----------------------------------------------------------------

    def _powers(self, x: Perm) -> list[Perm]:
        """x, x^2, ... up to the last power before the identity."""
        powers, xt = [], _table(x)
        while x != self.identity:
            powers.append(x)
            x = x.translate(xt)
        return powers

    def normaliser(self, x: Perm) -> list[Perm]:
        """N_S(<x>): the enumerated g whose conjugate of x is a power of x.
        bytes.maketrans(g, x.translate(_table(g))) sends g(i) to g(x(i)): it
        is the padded table of g x g^-1 (g + pad is _table(g) inlined)."""
        if x not in self._normalisers:
            powers = {_table(p) for p in self._powers(x)}
            pad, maketrans, after_x = _POINTS[self.npoints:], bytes.maketrans, x.translate
            self._normalisers[x] = [
                g for g in self.label_of_perm if maketrans(g, after_x(g + pad)) in powers
            ]
        return self._normalisers[x]

    def normaliser_orbits(self, x: Perm, ys: list[Perm]):
        """Yield (y, orbit of y), lazily, for each orbit on the class ys of
        the group generated by N_S(<x>)-conjugation and inversion; y is the
        first member of its orbit in ys.  The orbit of y^-1 is added only
        when y^-1 has y's label, so a non-real class is never left."""
        conj = [(_inverse(g), _table(g)) for g in self.normaliser(x)]
        label = self.label_of_perm
        seen: set[Perm] = set()
        for y in ys:
            if y in seen:
                continue
            yt = _table(y)
            orbit = {ginv.translate(yt).translate(gt) for ginv, gt in conj}
            yinv = _inverse(y)
            if yinv not in orbit and label[yinv] == label[y]:
                yt = _table(yinv)
                orbit.update(ginv.translate(yt).translate(gt) for ginv, gt in conj)
            seen |= orbit
            yield y, orbit

    def pair_generates(self, c: ClassLabel, d: ClassLabel) -> bool:
        """Invariable generation verdict for the class pair (c, d): x fixed
        in the smaller class, one y per ``normaliser_orbits`` orbit of the
        larger (the verdict is symmetric in c and d)."""
        cs, ds = self.by_label[c], self.by_label[d]
        if len(ds) < len(cs):
            cs, ds = ds, cs
        x = cs[0]
        return all(self.closure_generates([x, y]) for y, _ in self.normaliser_orbits(x, ds))

    def power_classes(self) -> list[list[ClassLabel]]:
        """The nonidentity labels in power classes, each in inventory order:
        the first class C not yet grouped, with every C^k, gcd(k, |x|) = 1,
        read off the powers of the first enumerated x in C."""
        labels = self.inv.nonidentity_labels()
        grouped: set[ClassLabel] = set()
        classes = []
        for lab in labels:
            if lab not in grouped:
                powers = self._powers(self.by_label[lab][0])
                n = len(powers) + 1  # the order of x; powers[k - 1] is x^k
                members = {self.label_of_perm[p] for k, p in enumerate(powers, 1)
                           if gcd(k, n) == 1}
                grouped |= members
                classes.append([c for c in labels if c in members])
        return classes

    def psi2(self) -> Psi2Table:
        """One ``pair_generates`` call per pair of power classes; each label
        gets the row of its power class's first member (module docstring)."""
        labels = self.inv.nonidentity_labels()
        rep = {c: members[0] for members in self.power_classes() for c in members}
        reps = list(dict.fromkeys(rep.values()))
        verdict = {}
        for a, c in enumerate(reps):
            for d in reps[a:]:
                verdict[c, d] = verdict[d, c] = self.pair_generates(c, d)
        rows = {c: tuple(j for j, d in enumerate(labels) if verdict[c, rep[d]]) for c in reps}
        return Psi2Table(self.ctx.q, "oracle", labels, [rows[rep[c]] for c in labels])
