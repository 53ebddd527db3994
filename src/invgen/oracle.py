"""Brute-force ground truth for small q.

Elements are realized as permutations of the projective line (the action
is faithful), each stored once as a ``bytes`` value of length q + 1, and
composed with ``bytes.translate`` against a 256-byte table.  Point 0 is
infinity and point 1+v is v.  An element's permutation is itself composed
from the tables of v -> v + s, v -> s*v and v -> 1/v, by field algebra
alone: for m = (a, b, c, d) with ad - bc = 1,

    c = 0:   v -> a^2 v + ab,
    c != 0:  v -> a/c - 1/(c^2 (v + d/c)) = a/c + 1/(-c^2 (v + d/c)),

so the image of v under (av + b)/(cv + d) is never evaluated point by
point.  The pointwise map is the reference in the tests
(``tests/helpers.py``, ``mobius_perm``).  Matrices exist only while the
session is built: each enumerated matrix is turned into its permutation
and its class label, read from tables keyed by its trace (``_labeller``;
``psl2.psl2_class_of`` is the reference in the tests), and from then on
the permutation is the element's only form.  Inverses are read off
``bytes.maketrans``.  Generation is decided by literal subgroup closure:
a pair generates iff the closure of the two elements under multiplication
is the whole group.  The closure returns early once it outgrows every
maximal subgroup order.

``pair_generates`` decides the class pair (C, D) by fixing one element x
of the smaller class and sweeping one element y of each orbit of the
centralizer C_S(x), acting by conjugation, on the larger class.  Fixing x
is sound because the pair property is invariant under simultaneous
conjugation and symmetric in the two classes; sweeping one y per orbit is
sound because for g in C_S(x), (x, y^g) = (x, y)^g has the same verdict
as (x, y).  The centralizer is found by testing which enumerated elements
commute with x, so the sweep never uses a structural rule.

Representatives of the maximal subgroup classes are built explicitly, so
that the structural class-intersection profiles can be certified against
literal fusion.  Most are setwise stabilisers of point sets of the line:

    Borel                    the stabiliser of {inf}
    split dihedral           the stabiliser of {inf, 0}
    subfield PSL/PGL(2,q0)   the stabiliser of the subline {inf} u GF(q0)
    twisted PGL(2,q0)        the stabiliser of {inf} u mu*GF(q0), mu the
                             least nonsquare (q odd)

An element of PGL(2,q) that maps the subline into itself agrees on
{inf, 0, 1} with an element of PGL(2,q0), which is transitive on ordered
triples of the subline; PGL(2,q) is sharply 3-transitive on the line, so
the two are equal.  The stabiliser in PGL(2,q) is therefore PGL(2,q0), and
in S it is the part of PGL(2,q0) with square determinant in GF(q): all of
PGL(2,q0) when q is even or [GF(q):GF(q0)] is even (every element of
GF(q0) is then a square in GF(q)), and PSL(2,q0) when the degree is odd.
That is exactly the subfield class Dickson's list has for that q0.  The
map v -> mu*v comes from diag(mu, 1), which lies in PGL(2,q) but not in
S, so the twisted subline gives the other S-class of PGL(2,q0).

The nonsplit dihedral group is a cyclic torus and one inverting
involution, composed as permutations.  The exceptional subgroups are
found by seeded random search verified by exact order checks.  Two
exceptional subgroups are told apart by the conjugacy orbit of the first,
a breadth-first search under conjugation by one generating pair of S.
"""

from __future__ import annotations

import os
import random

from invgen.gf import CapError, GFContext
from invgen.psl2 import (
    ClassInventory,
    ClassLabel,
    Mat,
    enumerate_psl2,
    is_split_trace,
    trace_key,
)
from invgen.structure import (
    BOREL,
    DIH_NONSPLIT,
    DIH_SPLIT,
    EXC_A4,
    EXC_A5,
    EXC_S4,
    SUBFIELD_PGL,
    SUBFIELD_PSL,
    Psi2Table,
    SubgroupClass,
    maximal_subgroup_classes,
)

DEFAULT_CAP = 31
CAP_ENV = "INVGEN_ORACLE_CAP"
MAX_Q = 255  # q + 1 points must fit in a byte
SEED = 20260810  # seeds every random search, so the oracle is deterministic

Perm = bytes  # images of the points 0..q of the projective line

_POINTS = bytes(range(256))


class OracleCapError(CapError):
    """q exceeds the configured oracle cap."""


def oracle_cap() -> int:
    value = os.environ.get(CAP_ENV)
    return int(value) if value else DEFAULT_CAP


def check_oracle_cap(q: int, cap: int | None = None) -> None:
    """Raise OracleCapError if q exceeds the cap (``oracle_cap()`` by
    default) or ``MAX_Q``."""
    cap = min(oracle_cap() if cap is None else cap, MAX_Q)
    if q > cap:
        raise OracleCapError(f"q={q} exceeds oracle cap {cap}")


def _line_action(ctx: GFContext):
    """The map from m to its permutation of the projective line.

    Composes the translate tables of v -> v + s, v -> s*v and v -> 1/v
    (built here in O(q^2) field operations) by the identity of the module
    docstring: at most four translates and five field operations per m.
    """
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


def _labeller(ctx: GFContext):
    """The map from m to its class label, read from tables built once per
    field with ``is_split_trace`` and ``trace_key`` (never from an
    inventory, which the session certifies).

    The label of a non-identity element is a function of its trace t,
    except for the unipotents of q odd (t = +-2), whose square class is
    that of the upper-right entry of the unitriangular normal form: b when
    c = 0 and -c otherwise once m is normalised to trace 2, and negating m
    negates that entry.  So those are keyed by t, by whether c = 0, and by
    that one entry.  The identity (trace 2, or 0 for q even) is matched first.
    """
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
    """Enumerated PSL(2,q) with per-class element lists, q <= cap.

    Reads the caller's class inventory and certifies it: every class of the
    enumeration must have the size the inventory gives it.
    """

    def __init__(self, inv: ClassInventory, cap: int | None = None):
        ctx = inv.ctx
        check_oracle_cap(ctx.q, cap)
        self.ctx = ctx
        self.inv = inv
        mats = list(enumerate_psl2(ctx))
        perm, label = _line_action(ctx), _labeller(ctx)
        # every element once, in enumeration order
        self.label_of_perm: dict[Perm, ClassLabel] = {}
        self.by_label: dict[ClassLabel, list[Perm]] = {lab: [] for lab in inv.labels()}
        for m in mats:
            p, lab = perm(m), label(m)
            self.by_label[lab].append(p)
            self.label_of_perm[p] = lab
        self.order = len(mats)
        if len(self.label_of_perm) != self.order:
            raise RuntimeError("two enumerated elements act alike on the projective line")
        for entry in inv:
            got = len(self.by_label[entry.label])
            if got != entry.size:
                raise RuntimeError(
                    f"class {entry.label} has {got} elements, formula says {entry.size}"
                )
        self.npoints = ctx.q + 1
        self.identity: Perm = _POINTS[:self.npoints]
        self.exit_bound = max(
            sc.order for sc in maximal_subgroup_classes(ctx) if sc.maximal
        )
        self._centralizers: dict[Perm, list[Perm]] = {}  # filled on demand

    # -- closure -------------------------------------------------------------

    def _closure(self, gens: list[Perm], limit: int) -> set[Perm] | None:
        """The subgroup generated by gens, or None once it exceeds limit elements."""
        tables = [_table(g) for g in gens]
        seen = {self.identity}
        queue = [self.identity]
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

    def centralizer(self, x: Perm) -> list[Perm]:
        """C_S(x): the enumerated elements that commute with x."""
        if x not in self._centralizers:
            xt = _table(x)
            self._centralizers[x] = [
                g for g in self.label_of_perm
                if g.translate(xt) == x.translate(_table(g))
            ]
        return self._centralizers[x]

    def centralizer_orbits(self, x: Perm, ys: list[Perm]):
        """Yield (y, orbit of y) for each C_S(x)-orbit on ys, lazily.

        ys must be closed under conjugation by C_S(x), as a class is; y is
        the first member of its orbit in the order of ys.
        """
        cent = [(_inverse(g), _table(g)) for g in self.centralizer(x)]
        seen: set[Perm] = set()
        for y in ys:
            if y in seen:
                continue
            yt = _table(y)
            orbit = {ginv.translate(yt).translate(gt) for ginv, gt in cent}
            seen |= orbit
            yield y, orbit

    def pair_generates(self, c: ClassLabel, d: ClassLabel) -> bool:
        """Invariable generation verdict for the class pair (c, d).

        Fixes x in the smaller class and sweeps one y per C_S(x)-orbit on
        the larger class (the verdict is symmetric in c and d).
        """
        cs, ds = self.by_label[c], self.by_label[d]
        if len(ds) < len(cs):
            cs, ds = ds, cs
        x = cs[0]
        return all(self.closure_generates([x, y]) for y, _ in self.centralizer_orbits(x, ds))

    def psi2(self) -> Psi2Table:
        labels = self.inv.nonidentity_labels()
        near: list[list[int]] = [[] for _ in labels]
        for i, c in enumerate(labels):
            for j in range(i, len(labels)):
                if self.pair_generates(c, labels[j]):
                    near[i].append(j)
                    if j != i:
                        near[j].append(i)
        # row i gets the j < i from earlier rows, then its own j >= i: ascending
        return Psi2Table(self.ctx.q, "oracle", labels, [tuple(js) for js in near])

    # -- subgroup representatives ---------------------------------------------

    def _labels_met(self, perms) -> set[ClassLabel]:
        return {self.label_of_perm[p] for p in perms} - {ClassLabel("id")}

    def _stabiliser(self, points: set[int]) -> frozenset[Perm]:
        """The elements that map the point set P into itself.

        A permutation maps P into P iff it maps P onto P and the rest onto
        the rest, iff it carries the membership marks of the points to
        themselves.
        """
        mark = bytes(i in points for i in range(256))
        want = mark[:self.npoints]
        return frozenset(g for g in self.label_of_perm if g.translate(mark) == want)

    def _subline(self, sub_degree: int, scale: int = 1) -> set[int]:
        """The points {inf} u scale*GF(p^sub_degree)."""
        ctx = self.ctx
        return {0} | {1 + ctx.mul(scale, v) for v in range(ctx.q)
                      if ctx.in_subfield(v, sub_degree)}

    def dihedral_nonsplit_subgroup(self) -> frozenset[Perm]:
        ctx = self.ctx
        d = 2 if ctx.q % 2 == 1 else 1
        torus_order = (ctx.q + 1) // d
        gen_label = next(
            e.label for e in self.inv
            if e.label.kind == "nonsplit" and e.order == torus_order
        )
        x = self.by_label[gen_label][0]
        xt = _table(x)
        torus = [x]
        for _ in range(torus_order - 1):
            torus.append(torus[-1].translate(xt))
        xinv = _inverse(x)
        inv_label = ClassLabel("inv") if ctx.q % 2 == 1 else ClassLabel("unip")
        for s in self.by_label[inv_label]:
            st = _table(s)
            if _inverse(s).translate(xt).translate(st) == xinv:  # s x s^-1 = x^-1
                group = frozenset(torus + [t.translate(st) for t in torus])
                if len(group) != 2 * torus_order:
                    raise RuntimeError("nonsplit dihedral construction came out wrong")
                return group
        raise RuntimeError("no inverting involution found for the nonsplit torus")

    def exceptional_subgroups(self, kind: str) -> list[frozenset[Perm]]:
        """Representatives for each class of an exceptional kind.

        Seeded random (involution, order-3) pairs; a hit is verified by its
        exact closure size, class separation by a literal conjugacy test.
        """
        target = {EXC_A4: 12, EXC_S4: 24, EXC_A5: 60}[kind]
        wanted = 1 if kind == EXC_A4 else 2
        rng = random.Random(SEED)
        invol_label = ClassLabel("inv") if self.ctx.q % 2 == 1 else ClassLabel("unip")
        invols = self.by_label[invol_label]
        order3 = [m for e in self.inv if e.order == 3
                  for m in self.by_label[e.label]]
        if not order3:
            raise RuntimeError(f"no order-3 elements available for {kind} search")
        found: list[frozenset[Perm]] = []
        orbits: list[set[frozenset[Perm]]] = []
        attempts = 20000
        for _ in range(attempts):
            a = rng.choice(invols)
            b = rng.choice(order3)
            closure = self._closure([a, b], target)
            if closure is None or len(closure) != target:
                continue
            h = frozenset(closure)
            if any(h in orbit for orbit in orbits):
                continue
            found.append(h)
            orbits.append(self._conjugacy_orbit(h))
            if len(found) == wanted:
                return found
        raise RuntimeError(
            f"located only {len(found)}/{wanted} classes of {kind} in {attempts} tries"
        )

    def _generators(self) -> list[Perm]:
        """Two elements that generate S: the first seeded random pair that
        closure_generates accepts."""
        rng = random.Random(SEED)
        elements = list(self.label_of_perm)
        for _ in range(1000):
            pair = [rng.choice(elements) for _ in range(2)]
            if self.closure_generates(pair):
                return pair
        raise RuntimeError("no generating pair of S in 1000 tries")

    def _conjugacy_orbit(self, h: frozenset[Perm]) -> set[frozenset[Perm]]:
        """The S-conjugates of h: breadth-first search under conjugation by
        the generating pair, which reaches every conjugate."""
        gens = [(_inverse(g), _table(g)) for g in self._generators()]
        orbit = {h}
        queue = [h]
        for k in queue:  # breadth first: the loop reaches what it appends
            tables = [_table(x) for x in k]
            for ginv, gt in gens:
                conj = frozenset(ginv.translate(xt).translate(gt) for xt in tables)
                if conj not in orbit:
                    orbit.add(conj)
                    queue.append(conj)
        return orbit

    def class_fusion(self) -> dict[str, set[ClassLabel]]:
        """Labels met by one representative of each subgroup class.

        Two-class kinds located by random search are keyed to variants by
        their unipotent intersection when that distinguishes them, else in
        a fixed sorted order; structural comparisons for those kinds
        should be made as multisets.
        """
        ctx = self.ctx
        out: dict[str, set[ClassLabel]] = {}
        # q odd: the second PGL(2,q0) class fixes the subline scaled by mu
        scales = [1] if ctx.q % 2 == 0 else [
            1, next(a for a in range(1, ctx.q) if not ctx.is_square(a))]
        builders = {
            BOREL: lambda sc: [self._stabiliser({0})],
            DIH_SPLIT: lambda sc: [self._stabiliser({0, 1})],
            DIH_NONSPLIT: lambda sc: [self.dihedral_nonsplit_subgroup()],
            SUBFIELD_PSL: lambda sc: [self._stabiliser(self._subline(sc.sub_degree))],
            SUBFIELD_PGL: lambda sc: [self._stabiliser(self._subline(sc.sub_degree, s))
                                      for s in scales],
        }
        classes = maximal_subgroup_classes(ctx)
        done_kinds: set[tuple] = set()
        for sc in classes:
            key = (sc.kind, sc.q0)
            if key in done_kinds:
                continue
            done_kinds.add(key)
            variants = [v for v in classes if v.kind == sc.kind and v.q0 == sc.q0]
            if sc.kind in builders:
                groups = builders[sc.kind](sc)
            else:
                groups = self.exceptional_subgroups(sc.kind)
            for g in groups:
                if len(g) != sc.order:
                    raise RuntimeError(
                        f"{sc.kind} representative has order {len(g)}, expected {sc.order}"
                    )
            labelsets = [self._labels_met(g) for g in groups]
            labelsets = self._assign_variants(variants, labelsets)
            for variant, labels in zip(variants, labelsets):
                out[variant.id] = labels
        return out

    def _assign_variants(self, variants: list[SubgroupClass],
                         labelsets: list[set[ClassLabel]]) -> list[set[ClassLabel]]:
        if len(variants) != len(labelsets):
            raise RuntimeError(
                f"found {len(labelsets)} subgroups for {len(variants)} classes "
                f"of kind {variants[0].kind}"
            )
        if len(labelsets) == 1:
            return labelsets
        sq = ClassLabel("unip", sq=True)
        first_has_sq = [sq in ls for ls in labelsets]
        if first_has_sq == [False, True]:
            return [labelsets[1], labelsets[0]]
        if first_has_sq == [True, False]:
            return labelsets
        return sorted(labelsets, key=lambda ls: sorted(l.str_form() for l in ls))
