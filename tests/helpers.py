"""Reference helpers that only the tests need."""

from invgen.gf import _pack, _unpack
from invgen.oracle import _line_action
from invgen.psl2 import ClassSignature, enumerate_psl2
from invgen.structure import label_meets, maximal_subgroup_classes, profile_universe


# ---------------------------------------------------------------------------
# field elements as coefficient vectors
# ---------------------------------------------------------------------------

def coeffs(ctx, a) -> tuple:
    """Coefficient vector (c0, ..., c_{f-1}) of a."""
    return tuple(_unpack(a, ctx.p, ctx.f))


def from_coeffs(ctx, cs) -> int:
    cs = list(cs)
    if len(cs) != ctx.f or any(not 0 <= c < ctx.p for c in cs):
        raise ValueError("coefficient vector must have length f with entries in [0, p)")
    return _pack(cs, ctx.p)


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


def covering_parts(cover) -> tuple:
    """Bipartition parts (P1, P2) = (dihedral side, Borel side) of a
    ``verify_2covering`` result."""
    return set(cover.only_dihedral), set(cover.only_borel)


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

    for gen in action.generators():
        for a, b in parent:
            parent[find((a, b))] = find((gen.get(a, a), gen.get(b, b)))
    return {pair: find(pair) for pair in parent}


def ref_signature(ctx, entry) -> ClassSignature:
    """The class signature of one inventory entry, from that entry alone:
    the trace is the label's key, 0 for the involution class and 2 for the
    identity and the unipotent classes (up to sign)."""
    label = entry.label
    t = label.trace if label.trace >= 0 else 0 if label.kind == "inv" else ctx.scalar(2)
    t2 = ctx.mul(t, t)
    degrees = [e for e in range(1, ctx.f + 1) if ctx.f % e == 0]
    return ClassSignature(label.kind, label.sq, entry.order,
                          tuple(e for e in degrees if ctx.in_subfield(t, e)),
                          tuple(e for e in degrees if ctx.in_subfield(t2, e)))


def ref_profiles(ctx, inv, classes) -> dict:
    """``build_profiles`` one label at a time: every rule evaluated for every
    nonidentity label, on a signature built for that label alone."""
    universe = profile_universe(classes)
    out = {}
    for entry in inv:
        if entry.label.kind == "id":
            continue
        sig = ref_signature(ctx, entry)
        out[entry.label] = frozenset(sc.id for sc in universe if label_meets(ctx, sig, sc))
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


def matrix_subgroups(ctx) -> dict:
    """Borel, split dihedral and subfield subgroups by filters on matrix
    entries, as permutations of the projective line: the reference for the
    oracle's point-set stabilisers.  Keys name the kind, and the subfield
    degree e with q0 = p^e; the twisted PGL(2,q0) copy for q odd is the
    conjugate by diag(mu, 1), mu the least nonsquare."""
    perm = _line_action(ctx)
    mats = list(enumerate_psl2(ctx))
    out = {
        "borel": {m for m in mats if m[2] == 0},
        "dih_split": {m for m in mats
                      if (m[1] == 0 and m[2] == 0) or (m[0] == 0 and m[3] == 0)},
    }
    for e in (e for e in range(1, ctx.f) if ctx.f % e == 0):
        if (ctx.f // e) % 2:
            out[f"subfield_psl:{e}"] = {
                m for m in mats if all(ctx.in_subfield(x, e) for x in m)}
            continue
        members = set()
        for m in mats:  # PGL(2,q0): the matrix over GF(q0) up to a scalar
            scale = ctx.inv(next(x for x in m if x != 0))
            if all(ctx.in_subfield(ctx.mul(scale, x), e) for x in m):
                members.add(m)
        out[f"subfield_pgl:{e}"] = members
        if ctx.q % 2:
            mu = next(a for a in range(1, ctx.q) if not ctx.is_square(a))
            mu_inv = ctx.inv(mu)
            out[f"subfield_pgl:{e}:twisted"] = {
                canon(ctx, (m[0], ctx.mul(mu, m[1]), ctx.mul(mu_inv, m[2]), m[3]))
                for m in members}
    return {key: frozenset(map(perm, ms)) for key, ms in out.items()}


def part_pattern(vertex: tuple, part1: set) -> frozenset:
    """Coordinates of a power-graph vertex whose label lies in part 1."""
    return frozenset(i for i, lab in enumerate(vertex) if lab in part1)


def expected_fusion(sess) -> dict:
    """``label_meets`` inverted into per-subgroup-class label sets."""
    ctx = sess.ctx
    distinct, sigs = sess.inv.signatures
    out = {}
    for sc in maximal_subgroup_classes(ctx):
        out[sc.id] = {
            e.label for e, i in zip(sess.inv, sigs)
            if e.label.kind != "id" and label_meets(ctx, distinct[i], sc)
        }
    return out


RANDOM_KINDS = ("exc_a4", "exc_s4", "exc_a5")


def fusion_key(fusion) -> dict:
    """Per-subgroup-class label sets as comparable names.  Kinds that
    ``class_fusion`` locates by random search do not tie a subgroup to a
    variant id, so their label sets are compared as a sorted multiset per
    kind; every other class is compared by its id."""
    out = {}
    for sid, labels in fusion.items():
        kind = sid.split(":")[0]
        names = sorted(lab.str_form() for lab in labels)
        if kind in RANDOM_KINDS:
            out.setdefault(kind, []).append(names)
        else:
            out[sid] = names
    for kind in RANDOM_KINDS:
        out.get(kind, []).sort()
    return out
