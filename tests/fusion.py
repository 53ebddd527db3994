"""Class fusion of the listed subgroups, from an oracle session: the test
reference that certifies the structural class-intersection profiles.

Representatives of the maximal subgroup classes are built explicitly from
the session's permutations, so that the profiles ``label_meets`` gives can
be compared with literal fusion (``class_fusion`` against
``helpers.expected_fusion``).  Most are setwise stabilisers of point sets
of the line:

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
That is exactly the subfield class Dickson's list has for that q0 (the
PGL classes are records of ``helpers.reference_subgroup_classes`` only).
The map v -> mu*v comes from diag(mu, 1), which lies in PGL(2,q) but not
in S, so the twisted subline gives the other S-class of PGL(2,q0).

The nonsplit dihedral group is a cyclic torus and one inverting
involution, composed as permutations.  The exceptional subgroups are
found by seeded random search verified by exact order checks.  Two
exceptional subgroups are told apart by the conjugacy orbit of the first,
a breadth-first search under conjugation by one generating pair of S.
"""

import random

from invgen.oracle import Perm, _inverse, _table
from invgen.psl2 import ClassLabel
from invgen.structure import (
    BOREL,
    DIH_NONSPLIT,
    DIH_SPLIT,
    SUBFIELD_PSL,
    maximal_subgroup_classes,
)
from helpers import SUBFIELD_PGL, in_subfield, reference_subgroup_classes, subfield_degree

SEED = 20260810  # seeds every random search, so the certifier is deterministic


def labels_met(sess, perms) -> set[ClassLabel]:
    return {sess.label_of_perm[p] for p in perms} - {ClassLabel("id")}


def stabiliser(sess, points: set[int]) -> frozenset[Perm]:
    """The elements that map the point set P into itself.

    A permutation maps P into P iff it maps P onto P and the rest onto
    the rest, iff it carries the membership marks of the points to
    themselves.
    """
    mark = bytes(i in points for i in range(256))
    want = mark[:sess.npoints]
    return frozenset(g for g in sess.label_of_perm if g.translate(mark) == want)


def subline(sess, q0: int, scale: int = 1) -> set[int]:
    """The points {inf} u scale*GF(q0)."""
    ctx = sess.ctx
    e = subfield_degree(ctx, q0)
    return {0} | {1 + ctx.mul(scale, v) for v in range(ctx.q) if in_subfield(ctx, v, e)}


def dihedral_nonsplit_subgroup(sess) -> frozenset[Perm]:
    ctx = sess.ctx
    d = 2 if ctx.q % 2 == 1 else 1
    torus_order = (ctx.q + 1) // d
    gen_label = next(
        e.label for e in sess.inv
        if e.label.kind == "nonsplit" and e.order == torus_order
    )
    x = sess.by_label[gen_label][0]
    xt = _table(x)
    torus = [x]
    for _ in range(torus_order - 1):
        torus.append(torus[-1].translate(xt))
    xinv = _inverse(x)
    inv_label = ClassLabel("inv") if ctx.q % 2 == 1 else ClassLabel("unip")
    for s in sess.by_label[inv_label]:
        st = _table(s)
        if _inverse(s).translate(xt).translate(st) == xinv:  # s x s^-1 = x^-1
            group = frozenset(torus + [t.translate(st) for t in torus])
            if len(group) != 2 * torus_order:
                raise RuntimeError("nonsplit dihedral construction came out wrong")
            return group
    raise RuntimeError("no inverting involution found for the nonsplit torus")


def exceptional_subgroups(sess, kind: str, wanted: int) -> list[frozenset[Perm]]:
    """Representatives of ``wanted`` classes of an exceptional kind.

    Seeded random (involution, order-3) pairs; a hit is verified by its
    exact closure size, class separation by a literal conjugacy test.
    """
    target = next(sc.order for sc in reference_subgroup_classes(sess.ctx) if sc.kind == kind)
    rng = random.Random(SEED)
    invol_label = ClassLabel("inv") if sess.ctx.q % 2 == 1 else ClassLabel("unip")
    invols = sess.by_label[invol_label]
    order3 = [m for e in sess.inv if e.order == 3
              for m in sess.by_label[e.label]]
    if not order3:
        raise RuntimeError(f"no order-3 elements available for {kind} search")
    found: list[frozenset[Perm]] = []
    orbits: list[set[frozenset[Perm]]] = []
    attempts = 20000
    for _ in range(attempts):
        a = rng.choice(invols)
        b = rng.choice(order3)
        closure = sess._closure([a, b], target)
        if closure is None or len(closure) != target:
            continue
        h = frozenset(closure)
        if any(h in orbit for orbit in orbits):
            continue
        found.append(h)
        orbits.append(conjugacy_orbit(sess, h))
        if len(found) == wanted:
            return found
    raise RuntimeError(
        f"located only {len(found)}/{wanted} classes of {kind} in {attempts} tries"
    )


def generating_pair(sess) -> list[Perm]:
    """Two elements that generate S: the first seeded random pair that
    closure_generates accepts."""
    rng = random.Random(SEED)
    elements = list(sess.label_of_perm)
    for _ in range(1000):
        pair = [rng.choice(elements) for _ in range(2)]
        if sess.closure_generates(pair):
            return pair
    raise RuntimeError("no generating pair of S in 1000 tries")


def conjugacy_orbit(sess, h: frozenset[Perm]) -> set[frozenset[Perm]]:
    """The S-conjugates of h: breadth-first search under conjugation by
    the generating pair, which reaches every conjugate."""
    gens = [(_inverse(g), _table(g)) for g in generating_pair(sess)]
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


def class_fusion(sess, classes=None) -> dict[str, set[ClassLabel]]:
    """Labels met by one representative of each subgroup class of
    ``maximal_subgroup_classes``, or of the given list.  Each
    representative must have the order the reference list gives its kind.

    Two-class kinds located by random search are keyed to variants by
    their unipotent intersection when that distinguishes them, else in
    a fixed sorted order; structural comparisons for those kinds
    should be made as multisets.
    """
    ctx = sess.ctx
    out: dict[str, set[ClassLabel]] = {}
    # q odd: the second PGL(2,q0) class fixes the subline scaled by mu
    scales = [1] if ctx.q % 2 == 0 else [
        1, next(a for a in range(1, ctx.q) if not ctx.is_square(a))]
    builders = {
        BOREL: lambda sc: [stabiliser(sess, {0})],
        DIH_SPLIT: lambda sc: [stabiliser(sess, {0, 1})],
        DIH_NONSPLIT: lambda sc: [dihedral_nonsplit_subgroup(sess)],
        SUBFIELD_PSL: lambda sc: [stabiliser(sess, subline(sess, sc.q0))],
        SUBFIELD_PGL: lambda sc: [stabiliser(sess, subline(sess, sc.q0, s))
                                  for s in scales],
    }
    classes = classes or maximal_subgroup_classes(ctx.p, ctx.f)
    orders = {(sc.kind, sc.q0): sc.order for sc in reference_subgroup_classes(ctx)}
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
            groups = exceptional_subgroups(sess, sc.kind, len(variants))
        for g in groups:
            if len(g) != orders[key]:
                raise RuntimeError(
                    f"{sc.kind} representative has order {len(g)}, expected {orders[key]}"
                )
        labelsets = assign_variants(variants, [labels_met(sess, g) for g in groups])
        for variant, labels in zip(variants, labelsets):
            out[variant.id] = labels
    return out


def assign_variants(variants: list,
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
