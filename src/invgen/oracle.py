"""Brute-force ground truth for small q.

Elements are realized as permutations of the projective line (the action
is faithful), each stored once as a ``bytes`` value of length q + 1, and
composed with ``bytes.translate`` against a 256-byte table.  Generation is
decided by literal subgroup closure: a pair generates iff the closure of
the two elements under multiplication is the whole group.  The closure
returns early once it outgrows every maximal subgroup order; disabling
the early exit is supported so the shortcut itself can be tested.

``pair_generates`` decides the class pair (C, D) by fixing one element x
of the smaller class and sweeping one element y of each orbit of the
centralizer C_S(x), acting by conjugation, on the larger class.  Fixing x
is sound because the pair property is invariant under simultaneous
conjugation and symmetric in the two classes; sweeping one y per orbit is
sound because for g in C_S(x), (x, y^g) = (x, y)^g has the same verdict
as (x, y).  The centralizer is found by testing which enumerated elements
commute with x, so the sweep never uses a structural rule.

Representatives of the maximal subgroup classes are built explicitly
(Borel and dihedral and subfield copies by direct matrix filters, the
exceptional ones by seeded random search verified by exact order checks)
so that the structural class-intersection profiles can be certified
against literal fusion.
"""

from __future__ import annotations

import os
import random

from invgen.gf import GFContext
from invgen.psl2 import (
    ClassInventory,
    ClassLabel,
    Mat,
    canon,
    enumerate_psl2,
    psl2_class_of,
    psl2_inv,
    psl2_mul,
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

Perm = bytes  # images of the points 0..q of the projective line

_POINTS = bytes(range(256))


class OracleCapError(Exception):
    """q exceeds the configured oracle cap."""


def oracle_cap() -> int:
    value = os.environ.get(CAP_ENV)
    return int(value) if value else DEFAULT_CAP


def _mobius_perm(ctx: GFContext, m: Mat) -> Perm:
    """Action of m on the projective line; point 0 is infinity, 1+v is v."""
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


def _table(p: Perm) -> bytes:
    """p padded to a 256-byte translate table: w.translate(_table(p)) is p after w."""
    return p + _POINTS[len(p):]


def _perm_inverse(p: Perm) -> Perm:
    out = bytearray(len(p))
    for i, v in enumerate(p):
        out[v] = i
    return bytes(out)


class OracleSession:
    """Enumerated PSL(2,q) with per-class element lists, q <= cap.

    Reads the caller's class inventory and certifies it: every class of the
    enumeration must have the size the inventory gives it.
    """

    def __init__(self, inv: ClassInventory, cap: int | None = None):
        ctx = inv.ctx
        cap = oracle_cap() if cap is None else cap
        if ctx.q > min(cap, MAX_Q):
            raise OracleCapError(f"q={ctx.q} exceeds oracle cap {min(cap, MAX_Q)}")
        self.ctx = ctx
        self.inv = inv
        self.mats: list[Mat] = list(enumerate_psl2(ctx, cap=cap))
        self.perm_of: dict[Mat, Perm] = {m: _mobius_perm(ctx, m) for m in self.mats}
        self.label_of_perm: dict[Perm, ClassLabel] = {}
        self.by_label: dict[ClassLabel, list[Mat]] = {lab: [] for lab in self.inv.labels()}
        for m in self.mats:
            lab = psl2_class_of(ctx, m)
            self.by_label[lab].append(m)
            self.label_of_perm[self.perm_of[m]] = lab
        for entry in self.inv:
            got = len(self.by_label[entry.label])
            if got != entry.size:
                raise RuntimeError(
                    f"class {entry.label} has {got} elements, formula says {entry.size}"
                )
        self.order = len(self.mats)
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

    def closure_generates(self, gens: list[Perm], early_exit: bool = True) -> bool:
        closure = self._closure(gens, self.exit_bound if early_exit else self.order)
        return closure is None or len(closure) == self.order

    def generates(self, x: Mat, y: Mat, early_exit: bool = True) -> bool:
        return self.closure_generates([self.perm_of[x], self.perm_of[y]], early_exit)

    # -- Psi2 ----------------------------------------------------------------

    def centralizer(self, x: Perm) -> list[Perm]:
        """C_S(x): the enumerated elements that commute with x."""
        if x not in self._centralizers:
            xt = _table(x)
            self._centralizers[x] = [
                g for g in self.perm_of.values()
                if g.translate(xt) == x.translate(_table(g))
            ]
        return self._centralizers[x]

    def centralizer_orbits(self, x: Perm, ys: list[Perm]):
        """Yield (y, orbit of y) for each C_S(x)-orbit on ys, lazily.

        ys must be closed under conjugation by C_S(x), as a class is; y is
        the first member of its orbit in the order of ys.
        """
        cent = [(_perm_inverse(g), _table(g)) for g in self.centralizer(x)]
        seen: set[Perm] = set()
        for y in ys:
            if y in seen:
                continue
            yt = _table(y)
            orbit = {ginv.translate(yt).translate(gt) for ginv, gt in cent}
            seen |= orbit
            yield y, orbit

    def pair_generates(self, c: ClassLabel, d: ClassLabel, rep_index: int = 0,
                       early_exit: bool = True) -> bool:
        """Invariable generation verdict for the class pair (c, d).

        Fixes x in the smaller class and sweeps one y per C_S(x)-orbit on
        the larger class (the verdict is symmetric in c and d).
        """
        cs, ds = self.by_label[c], self.by_label[d]
        if len(ds) < len(cs):
            cs, ds = ds, cs
        x = self.perm_of[cs[rep_index % len(cs)]]
        ys = [self.perm_of[m] for m in ds]
        return all(
            self.closure_generates([x, y], early_exit)
            for y, _ in self.centralizer_orbits(x, ys)
        )

    def psi2(self, early_exit: bool = True) -> Psi2Table:
        labels = self.inv.nonidentity_labels()
        near: list[list[int]] = [[] for _ in labels]
        for i, c in enumerate(labels):
            for j in range(i, len(labels)):
                if self.pair_generates(c, labels[j], early_exit=early_exit):
                    near[i].append(j)
                    if j != i:
                        near[j].append(i)
        # row i gets the j < i from earlier rows, then its own j >= i: ascending
        return Psi2Table(self.ctx.q, "oracle", labels, [tuple(js) for js in near])

    # -- subgroup representatives ---------------------------------------------

    def _perm_set(self, mats) -> frozenset[Perm]:
        return frozenset(self.perm_of[m] for m in mats)

    def _labels_met(self, perms) -> set[ClassLabel]:
        return {self.label_of_perm[p] for p in perms} - {ClassLabel("id")}

    def borel_subgroup(self) -> frozenset[Perm]:
        return self._perm_set(m for m in self.mats if m[2] == 0)

    def dihedral_split_subgroup(self) -> frozenset[Perm]:
        return self._perm_set(
            m for m in self.mats
            if (m[1] == 0 and m[2] == 0) or (m[0] == 0 and m[3] == 0)
        )

    def dihedral_nonsplit_subgroup(self) -> frozenset[Perm]:
        ctx = self.ctx
        d = 2 if ctx.q % 2 == 1 else 1
        torus_order = (ctx.q + 1) // d
        gen_label = next(
            e.label for e in self.inv
            if e.label.kind == "nonsplit" and e.order == torus_order
        )
        x = self.by_label[gen_label][0]
        torus = [x]
        acc = x
        for _ in range(torus_order - 1):
            acc = psl2_mul(ctx, acc, x)
            torus.append(acc)
        xinv = psl2_inv(ctx, x)
        inv_label = ClassLabel("inv") if ctx.q % 2 == 1 else ClassLabel("unip")
        for s in self.by_label[inv_label]:
            sinv = psl2_inv(ctx, s)
            if psl2_mul(ctx, psl2_mul(ctx, s, x), sinv) == xinv:
                coset = [psl2_mul(ctx, s, t) for t in torus]
                group = self._perm_set(torus + coset)
                if len(group) != 2 * torus_order:
                    raise RuntimeError("nonsplit dihedral construction came out wrong")
                return group
        raise RuntimeError("no inverting involution found for the nonsplit torus")

    def subfield_psl_subgroup(self, sub_degree: int) -> frozenset[Perm]:
        ctx = self.ctx
        return self._perm_set(
            m for m in self.mats
            if all(ctx.in_subfield(x, sub_degree) for x in m)
        )

    def subfield_pgl_subgroups(self, sub_degree: int) -> list[frozenset[Perm]]:
        """Standard PGL(2,q0) copy and, for q odd, its twisted conjugate."""
        ctx = self.ctx
        members = []
        for m in self.mats:
            lead = next(x for x in m if x != 0)
            scale = ctx.inv(lead)
            if all(ctx.in_subfield(ctx.mul(scale, x), sub_degree) for x in m):
                members.append(m)
        v1 = self._perm_set(members)
        if ctx.q % 2 == 0:
            return [v1]
        mu = next(a for a in range(1, ctx.q) if not ctx.is_square(a))
        mu_inv = ctx.inv(mu)
        twisted = [
            canon(ctx, (m[0], ctx.mul(mu, m[1]), ctx.mul(mu_inv, m[2]), m[3]))
            for m in members
        ]
        return [v1, self._perm_set(twisted)]

    def exceptional_subgroups(self, kind: str, seed: int = 20260810,
                              attempts: int = 20000) -> list[frozenset[Perm]]:
        """Representatives for each class of an exceptional kind.

        Seeded random (involution, order-3) pairs; a hit is verified by its
        exact closure size, class separation by a literal conjugacy test.
        """
        target = {EXC_A4: 12, EXC_S4: 24, EXC_A5: 60}[kind]
        wanted = 1 if kind == EXC_A4 else 2
        rng = random.Random(seed)
        invol_label = ClassLabel("inv") if self.ctx.q % 2 == 1 else ClassLabel("unip")
        invols = self.by_label[invol_label]
        order3 = [m for e in self.inv if e.order == 3
                  for m in self.by_label[e.label]]
        if not order3:
            raise RuntimeError(f"no order-3 elements available for {kind} search")
        found: list[frozenset[Perm]] = []
        orbits: list[set[frozenset[Perm]]] = []
        for _ in range(attempts):
            a = self.perm_of[rng.choice(invols)]
            b = self.perm_of[rng.choice(order3)]
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

    def _conjugacy_orbit(self, h: frozenset[Perm]) -> set[frozenset[Perm]]:
        tables = [_table(x) for x in h]
        orbit = set()
        for m in self.mats:
            g = self.perm_of[m]
            ginv, gt = _perm_inverse(g), _table(g)
            orbit.add(frozenset(ginv.translate(xt).translate(gt) for xt in tables))
        return orbit

    def class_fusion(self, seed: int = 20260810) -> dict[str, set[ClassLabel]]:
        """Labels met by one representative of each subgroup class.

        Two-class kinds located by random search are keyed to variants by
        their unipotent intersection when that distinguishes them, else in
        a fixed sorted order; structural comparisons for those kinds
        should be made as multisets.
        """
        ctx = self.ctx
        out: dict[str, set[ClassLabel]] = {}
        builders = {
            BOREL: lambda sc: [self.borel_subgroup()],
            DIH_SPLIT: lambda sc: [self.dihedral_split_subgroup()],
            DIH_NONSPLIT: lambda sc: [self.dihedral_nonsplit_subgroup()],
            SUBFIELD_PSL: lambda sc: [self.subfield_psl_subgroup(sc.sub_degree)],
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
            elif sc.kind == SUBFIELD_PGL:
                groups = self.subfield_pgl_subgroups(sc.sub_degree)
            else:
                groups = self.exceptional_subgroups(sc.kind, seed=seed)
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
