"""Class fusion of the listed subgroups, from explicit matrices: the test
reference that certifies the structural class-intersection profiles.

For each record of ``helpers.reference_subgroup_classes`` a builder writes
matrices of one subgroup of that class directly, and
``helpers.psl2_class_of`` labels each one from its entries.  So the classes
a subgroup meets are read with no element of S enumerated, no oracle
session and no search.  ``class_fusion`` gives them per record, to be
compared with the classes ``label_meets`` gives
(``helpers.expected_fusion``), and ``implied_psi2`` reads Psi2 off them:
two classes that one listed subgroup meets both of do not invariably
generate S.  A builder writes enough matrices to meet every class its
subgroup meets:

    Borel          the torus diag(a, 1/a) and [[1, b], [0, 1]], b in {1, nu}
                   (b = 1 for q even).  An upper-triangular matrix with
                   diagonal (a, 1/a), a != +-1, is conjugate in the Borel to
                   diag(a, 1/a), and conjugating by diag(s, 1/s) scales b by
                   s^2, so every unipotent is conjugate to one of the two.
    dihedral       the torus and one reflection that inverts it.  The
                   elements of order 2 of S form one class, so one
                   reflection meets the class of them all.  The split torus
                   is diagonal; the nonsplit one is the powers of the
                   companion matrix [[0, -1], [1, t]] of a nonsplit trace t
                   whose class has the torus's order.  The torus is
                   counted, so the group's order is checked.
    subfield PSL   the companion matrices [[0, -1], [1, t]], t in GF(q0),
                   and [[1, b], [0, 1]], b in {1, nu0} (b = 1 for q even).
                   A non-scalar matrix is conjugate over GF(q0) to the
                   companion matrix of its characteristic polynomial, and
                   its trace fixes its class in S unless it is unipotent;
                   the two b cover the unipotents up to conjugacy in
                   SL(2,q0).
    subfield PGL   the companion matrices [[0, -n], [1, t]], t in GF(q0) and
                   n in {1, nu0} (n = 1 for q even), divided by a square
                   root of n in GF(q) = GF(q0^2).  Scaling by l in GF(q0)*
                   takes (t, n) to (lt, l^2 n), so these meet every class
                   of GL(2,q0) up to scalars, and GL(2,q0) conjugates inside
                   PGL(2,q0), which lies in S.
    A4, S4, A5     the group generated by x = [[0, 1], [-1, 0]] and a y of
                   trace 1, so of order 3, picked so that xy has the trace
                   of an element of order 3, 4 or 5; closed to its 12, 24
                   or 60 matrices, and the order checked.

The second class of a kind that comes as two is the conjugate of the first
by diag(nu, 1), which lies in PGL(2,q) but not in S; the first is variant
1, the copy whose unipotents have square parameter.  Here nu is the least
nonsquare of GF(q) and nu0 the generator of GF(q0)* in the exp table,
which is a nonsquare of GF(q0) for q0 odd.  The subfield builders write
O(q0) matrices and the others O(q), so q = 3^11 and 2^18 are in reach.
"""

from invgen.psl2 import ClassLabel
from invgen.structure import (
    BOREL, DIH_NONSPLIT, DIH_SPLIT, EXC_S4, SUBFIELD_PSL, maximal_subgroup_classes,
)
from helpers import (
    EXC_A4, IDENTITY, SUBFIELD_PGL, canon, generator_powers, psl2_class_of, psl2_inv,
    psl2_mul, reference_subgroup_classes,
)


def labeller(ctx):
    """``psl2_class_of``, kept per trace for the traces other than those of
    the identity and the unipotents, where it reads the trace alone."""
    four, by_trace = ctx.scalar(4), {}

    def label(m) -> ClassLabel:
        t = ctx.add(m[0], m[3])
        if ctx.mul(t, t) == four:
            return psl2_class_of(ctx, m)
        if t not in by_trace:
            by_trace[t] = psl2_class_of(ctx, m)
        return by_trace[t]

    return label


def labels_met(ctx, mats, label=None) -> set[ClassLabel]:
    return set(map(label or labeller(ctx), mats)) - {ClassLabel("id")}


def nonsquare(ctx) -> int:
    """The least nonsquare of GF(q), q odd."""
    return next(a for a in range(2, ctx.q) if not ctx.is_square(a))


def square_root(ctx, a) -> int:
    """The least r with r^2 = a, by search."""
    root = next((r for r in range(ctx.q) if ctx.mul(r, r) == a), None)
    if root is None:
        raise RuntimeError(f"{a} is not a square in GF({ctx.q})")
    return root


def first_root(ctx, quadratic) -> tuple:
    """(k, x) for the least k whose x^2 + bx + c, (b, c) = quadratic(k),
    has a root in GF(q), q odd, and x a root."""
    mul, add, neg = ctx.mul, ctx.add, ctx.neg
    four, half = ctx.scalar(4), ctx.inv(ctx.scalar(2))
    for k in range(ctx.q):
        b, c = quadratic(k)
        disc = add(mul(b, b), neg(mul(four, c)))
        if ctx.is_square(disc):
            return k, mul(add(neg(b), square_root(ctx, disc)), half)
    raise RuntimeError(f"no quadratic of the family has a root in GF({ctx.q})")


def closure(ctx, gens, limit) -> set:
    """The group ``gens`` generate, or the part of it first found past
    ``limit`` elements."""
    group, frontier = {IDENTITY}, [IDENTITY]
    while frontier and len(group) <= limit:
        new = []
        for x in frontier:
            for g in gens:
                y = psl2_mul(ctx, x, g)
                if y not in group:
                    group.add(y)
                    new.append(y)
        frontier = new
    return group


def twist(ctx, mats) -> list:
    """The conjugates of ``mats`` by diag(nu, 1)."""
    nu = nonsquare(ctx)
    nu_inv = ctx.inv(nu)
    return [canon(ctx, (a, ctx.mul(nu, b), ctx.mul(nu_inv, c), d)) for a, b, c, d in mats]


def companion(ctx, t, s=1) -> tuple:
    """[[0, -s^2], [1, t]] divided by s, of determinant 1."""
    si = ctx.inv(s)
    return canon(ctx, (0, ctx.neg(s), si, ctx.mul(t, si)))


def split_torus(ctx) -> list:
    """diag(g^k, g^-k) for k = 1, 2, ..., each element once: the first
    generates the torus."""
    exp, n = generator_powers(ctx), ctx.q - 1
    return list(dict.fromkeys(canon(ctx, (exp[k % n], 0, 0, exp[-k % n]))
                              for k in range(1, n + 1)))


def dihedral(ctx, torus, s, order) -> list:
    """The torus, whose first element generates it, and s, which must
    invert that element; the torus must be half of ``order``."""
    x = torus[0]
    if len(torus) != order // 2 or psl2_mul(ctx, s, x) != psl2_mul(ctx, psl2_inv(ctx, x), s):
        raise RuntimeError(f"dihedral representative is not of order {order}")
    return torus + [s]


def nonsplit_dihedral(inv, order) -> list:
    """The powers of x = [[0, -1], [1, t]], t the trace of a nonsplit class
    of order |x| = order/2, and s = [[a, c + ta], [c, -a]], which inverts x
    and has determinant 1 iff a^2 + tac + c^2 = -1: (a, c) = (1, 0) for q
    even, else the first a whose quadratic in c has a root."""
    ctx = inv.ctx
    mul, add = ctx.mul, ctx.add
    _, keys, orders, _ = inv.tori[1]
    t = next(k for k, j in zip(keys, orders) if j == order // 2)
    torus = [companion(ctx, t)]
    while len(torus) <= order and torus[-1] != IDENTITY:
        torus.append(psl2_mul(ctx, torus[-1], torus[0]))
    a, c = (1, 0) if ctx.p == 2 else first_root(ctx, lambda a: (mul(t, a), add(mul(a, a), 1)))
    return dihedral(ctx, torus, canon(ctx, (a, add(c, mul(t, a)), c, ctx.neg(a))), order)


def subfield(ctx, q0) -> tuple[list, list]:
    """GF(q0) inside GF(q), 0 and the powers of nu0 = g^((q - 1)/(q0 - 1)),
    and a representative of each class of GF(q0)* modulo squares: 1, and
    nu0 for q0 odd."""
    field = [0, *ctx.exp_table()[::(ctx.q - 1) // (q0 - 1)]]
    return field, field[1:2 + q0 % 2]


def subfield_psl(ctx, q0) -> list:
    field, square_classes = subfield(ctx, q0)
    return [companion(ctx, t) for t in field] + [(1, b, 0, 1) for b in square_classes]


def subfield_pgl(ctx, q0) -> list:
    field, square_classes = subfield(ctx, q0)
    return [companion(ctx, t, square_root(ctx, n)) for n in square_classes for t in field]


def exceptional(ctx, kind, order) -> list:
    """x = [[0, 1], [-1, 0]] and y = [[u, v], [v + tau, 1 - u]], so that
    trace(xy) = tau, the trace of an element of order 3, 4 or 5: 1, a
    square root of 2, or (1 + sqrt 5)/2.  Then det y = 1 is the quadratic
    v^2 + tau v + u^2 - u + 1 = 0, solved at the first u where it has a
    root."""
    mul, add, neg = ctx.mul, ctx.add, ctx.neg
    if kind == EXC_A4:
        tau = 1
    elif kind == EXC_S4:
        tau = square_root(ctx, ctx.scalar(2))
    else:
        tau = mul(add(1, square_root(ctx, ctx.scalar(5))), ctx.inv(ctx.scalar(2)))
    u, v = first_root(ctx, lambda u: (tau, add(mul(u, u), add(neg(u), 1))))
    y = canon(ctx, (u, v, add(v, tau), add(1, neg(u))))
    group = list(closure(ctx, [canon(ctx, (0, 1, neg(1), 0)), y], order))
    if len(group) != order:
        raise RuntimeError(f"{kind} representative has order {len(group)}, expected {order}")
    if ClassLabel("unip", sq=False) in labels_met(ctx, group):
        return twist(ctx, group)
    return group


def subgroup_matrices(inv, sc) -> list:
    """Matrices of one subgroup of the class ``sc`` that meet every class
    the subgroup meets (module docstring)."""
    ctx = inv.ctx
    order = next(r.order for r in reference_subgroup_classes(ctx)
                 if (r.kind, r.q0) == (sc.kind, sc.q0))
    build = {
        BOREL: lambda: split_torus(ctx) + [
            (1, b, 0, 1) for b in ([1] if ctx.p == 2 else [1, nonsquare(ctx)])],
        DIH_SPLIT: lambda: dihedral(ctx, split_torus(ctx), (0, 1, ctx.neg(1), 0), order),
        DIH_NONSPLIT: lambda: nonsplit_dihedral(inv, order),
        SUBFIELD_PSL: lambda: subfield_psl(ctx, sc.q0),
        SUBFIELD_PGL: lambda: subfield_pgl(ctx, sc.q0),
    }
    mats = build[sc.kind]() if sc.kind in build else exceptional(ctx, sc.kind, order)
    return twist(ctx, mats) if sc.variant == 2 else mats


def class_fusion(inv, classes=None) -> dict[str, set[ClassLabel]]:
    """The labels met by one subgroup of each class of
    ``maximal_subgroup_classes``, or of the given list, by id."""
    label = labeller(inv.ctx)
    return {sc.id: labels_met(inv.ctx, subgroup_matrices(inv, sc), label)
            for sc in classes or maximal_subgroup_classes(inv.ctx.p, inv.ctx.f)}


def implied_psi2(inv, fusion) -> list[tuple[int, ...]]:
    """The Psi2 neighbour tuples over ``inv.nonidentity_labels()`` that the
    class sets of ``fusion`` imply, each ascending: (C, D) is a pair iff no
    class set holds both."""
    sets = list(fusion.values())
    held = [sum(1 << k for k, s in enumerate(sets) if lab in s)
            for lab in inv.nonidentity_labels()]
    members: dict[int, list[int]] = {}
    for i, mask in enumerate(held):
        members.setdefault(mask, []).append(i)
    near = {mask: tuple(sorted(j for other, js in members.items() if not mask & other
                               for j in js))
            for mask in members}
    return [near[mask] for mask in held]
