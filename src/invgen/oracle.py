"""Brute-force ground truth for small q: those whose PSL(2,q) has at most
``ORACLE_ELEMENT_CAP`` elements, every prime power q <= 97 (``check_cap``).
The cap bounds a session's memory, not its time: ``psi2`` takes about
1.8, 3.6 and 3.7 s at q = 81, 89 and 97 (265,680, 352,440, 456,288 elements).

Elements are permutations of the projective line (the action is faithful),
each stored once as ``bytes`` of length q + 1 and composed with
``bytes.translate`` against a 256-byte table; point 0 is infinity and point
1+v is v.  A matrix m = (a, b, c, d) with ad - bc = 1 factors as

    a != 0:  m = L(c/a) U(a, b),    L(e) = (1, 0, e, 1),  U(a, b) = (a, b, 0, 1/a),
    a = 0:   m = W U(-c, -d),       W = (0, 1, -1, 0),

so its permutation is that of U(a, b), v -> a^2 v + ab, translated once by
the table of L(c/a), v -> 1/(1/v + e), or by that of W, v -> -1/v.  The
q(q - 1) permutations U(a, b) and the tables of L and W are built once per
session, so no image is evaluated point by point (``mobius_perm`` in
``tests/helpers.py`` is the pointwise reference).  Each enumerated matrix
is turned into its permutation and its class label, read from tables keyed
by its trace (``_labeller``; ``psl2_class_of`` in ``tests/helpers.py`` is
the reference), and then dropped.  Inverses come from ``bytes.maketrans``.
A pair generates iff its closure under multiplication is the whole group.
The closure returns early once it outgrows every proper subgroup: its
``exit_bound`` is the enumerated order over the least index of a proper
subgroup, which Galois's theorem gives from q alone (``min_index``).  So
no verdict reads the structural rules it certifies.

``psi2`` decides one class pair per pair of power classes.  The power class
of C is the set of classes C^k with gcd(k, |x|) = 1, read off the powers of
one enumerated x in C.  For such k and j, x -> x^k maps C onto C^k and
<x^k, y^j> = <x, y>, so (C, D) and every (C^k, D^j) share one verdict, and
all members of a power class share one row.  The representatives of two
power classes never generate one cyclic subgroup, so no normaliser below
is computed twice.

``pair_generates`` decides (C, D) by fixing one x in the smaller class and
sweeping one y per orbit, on the larger class, of the group generated by
conjugation by N = N_S(<x>) and by inversion.  Fixing x is sound because
the pair property is invariant under simultaneous conjugation and symmetric
in the two classes.  The verdict is constant on each orbit: for g in N,
x^(g^-1) generates <x>, so <x, y^g> = <x^(g^-1), y>^g = <x, y>^g; and
<x, y^-1> = <x, y>.  Inversion stays inside D only when D is real, so the
orbit of y^-1 is added only when y^-1 has y's label (the unipotent classes
are not real when q = 3 mod 4).  N is found by linear algebra over GF(q)
(``normaliser``), not by a scan of S: x's matrix is recovered from the
images of infinity, 0 and 1, and N is the det-1 solutions G of
G X = +-X^k G, turned into permutations by the session's line action.  So
no sweep uses a structural rule, and a normaliser costs O(q) field
operations and |N| translates.
"""

from __future__ import annotations

from math import gcd

from invgen.gf import CapError, GFContext
from invgen.psl2 import ClassInventory, ClassLabel, Mat, enumerate_psl2, trace_key
from invgen.structure import Psi2Table

# the most elements a session enumerates: it admits every prime power
# q <= 97 (456,288 elements at q = 97) and no larger one (515,100 at
# q = 101), so the points 0..q of a permutation fit in a byte
ORACLE_ELEMENT_CAP = 500_000

Perm = bytes  # images of the points 0..q of the projective line

_POINTS = bytes(range(256))


def min_index(q: int) -> int:
    """The least index of a proper subgroup of PSL(2,q), q >= 4: the
    Borel's, q + 1, but q at q = 5, 7, 11 (A4, S4, A5) and 6 at q = 9 (A5)
    (Galois; Dickson 1901; Huppert, *Endliche Gruppen I*, II.8.28)."""
    return {5: 5, 7: 7, 9: 6, 11: 11}.get(q, q + 1)


class OracleCapError(CapError):
    """|PSL(2,q)| exceeds the oracle cap."""


def check_cap(q: int) -> None:
    """Refuse q whose PSL(2,q), of order q(q^2 - 1)/gcd(2, q - 1), has more
    than ``ORACLE_ELEMENT_CAP`` elements, before anything is built: a
    bound on the session's memory, not on its time (module docstring)."""
    order = q * (q * q - 1) // gcd(2, q - 1)
    if order > ORACLE_ELEMENT_CAP:
        raise OracleCapError(f"q={q}: the oracle would enumerate {order:,} elements, "
                             f"above its cap of {ORACLE_ELEMENT_CAP:,}")


def _line_action(ctx: GFContext):
    """The map from a determinant-1 matrix m, either sign, to its
    permutation of the projective line: one translate per m, by the
    factorisations of the module docstring.  Built here from the translate
    tables of v -> v + s and v -> 1/v, in O(q^2) field operations: the q
    tables of L(e), v -> 1/(1/v + e), and the q(q - 1) permutations of
    U(a, b), v -> a^2 v + ab, each one translate of v -> a^2 v; lower[a][c]
    is the table of L(c/a)."""
    q, n = ctx.q, ctx.q + 1
    pad = _POINTS[n:]
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    shift = [bytes([0] + [1 + add(v, s) for v in range(q)]) + pad for s in range(q)]
    recip = bytes([1, 0] + [1 + inv(v) for v in range(1, q)]) + pad
    flip = bytes([1, 0] + [1 + neg(inv(v)) for v in range(1, q)]) + pad  # W: v -> -1/v
    lower_of = [recip.translate(t).translate(recip) for t in shift]
    upper: list[list[Perm]] = [[]]
    lower: list[list[bytes]] = [[]]
    shifted_of: dict[int, list[Perm]] = {}  # s -> the maps v -> s v + u, u in GF(q)
    for a in range(1, q):
        s, ia = mul(a, a), inv(a)
        if s not in shifted_of:  # a and -a share s
            scale = bytes([0] + [1 + mul(s, v) for v in range(q)])
            shifted_of[s] = [scale.translate(t) for t in shift]
        shifted = shifted_of[s]
        upper.append([shifted[mul(a, b)] for b in range(q)])
        lower.append([lower_of[mul(c, ia)] for c in range(q)])

    def perm(m: Mat) -> Perm:
        a, b, c, d = m
        if a:
            return upper[a][b].translate(lower[a][c])
        return upper[neg(c)][neg(d)].translate(flip)

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
    keyed by t, by whether c = 0, and by that entry.  The traces of the
    identity (2, or 0 for q even) hold no label: such an m is the identity
    when b = c = 0 and a unipotent otherwise.  The label of every other
    trace a + d is read from row a of ``by_sum``, so no field operation is
    made per m."""
    q, two = ctx.q, ctx.scalar(2)
    identity, involution = ClassLabel("id"), ClassLabel("inv")
    by_trace: list[ClassLabel | None] = []
    for t in range(q):
        if t in (two, ctx.neg(two)):
            by_trace.append(None)
        elif t == 0:
            by_trace.append(involution)
        else:
            kind = "split" if is_split_trace(ctx, t) else "nonsplit"
            by_trace.append(ClassLabel(kind, trace_key(ctx, t)))
    if ctx.p == 2:
        square = negated = [ClassLabel("unip")] * q
    else:
        square = [ClassLabel("unip", sq=ctx.is_square(v)) for v in range(q)]
        negated = [square[ctx.neg(v)] for v in range(q)]
    # (t, c == 0) -> square class of the read entry, b if c == 0 else c
    unipotent = {(two, True): square, (two, False): negated,
                 (ctx.neg(two), True): negated, (ctx.neg(two), False): square}
    add = ctx.add
    by_sum = [[by_trace[add(a, d)] for d in range(q)] for a in range(q)]

    def label(m: Mat) -> ClassLabel:
        a, b, c, d = m
        lab = by_sum[a][d]
        if lab is not None:
            return lab
        if b == c == 0:
            return identity
        return unipotent[add(a, d), c == 0][b if c == 0 else c]

    return label


def _table(p: Perm) -> bytes:
    """p padded to a 256-byte translate table: w.translate(_table(p)) is p after w."""
    return p + _POINTS[len(p):]


def _inverse(p: Perm) -> Perm:
    """p^-1: the table that sends each image p[i] back to i."""
    return bytes.maketrans(p, _POINTS[:len(p)])[:len(p)]


class OracleSession:
    """Enumerated PSL(2,q) with per-class element lists, for the q that
    ``check_cap`` admits.  Certifies the caller's class inventory: every
    class of the enumeration must have the size the inventory gives it."""

    def __init__(self, inv: ClassInventory):
        ctx = inv.ctx
        check_cap(ctx.q)
        self.ctx = ctx
        self.inv = inv
        perm, label = _line_action(ctx), _labeller(ctx)
        # every element once, in enumeration order
        label_of_perm: dict[Perm, ClassLabel] = {}
        by_label: dict[ClassLabel, list[Perm]] = {lab: [] for lab in inv.labels()}
        for m in enumerate_psl2(ctx):
            p, lab = perm(m), label(m)
            try:
                by_label[lab].append(p)
            except KeyError:
                raise RuntimeError(f"the enumeration meets class {lab}, "
                                   "which the inventory lacks") from None
            label_of_perm[p] = lab
        self.label_of_perm, self.by_label = label_of_perm, by_label
        self.order = sum(map(len, by_label.values()))
        if len(label_of_perm) != self.order:
            raise RuntimeError("two enumerated elements act alike on the projective line")
        for entry in inv:
            got = len(self.by_label[entry.label])
            if got != entry.size:
                raise RuntimeError(f"class {entry.label} has {got} elements, "
                                   f"formula says {entry.size}")
        self.npoints = ctx.q + 1
        self.identity: Perm = _POINTS[:self.npoints]
        self.exit_bound = self.order // min_index(ctx.q)  # the largest proper order
        self._perm = perm
        self._inv_root: list[int | None] = [None] * ctx.q  # 1/sqrt(v), None off the squares
        for v in range(1, ctx.q):
            self._inv_root[ctx.mul(v, v)] = ctx.inv(v)
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

    def matrix(self, x: Perm) -> Mat:
        """The determinant-1 matrix, up to sign, that acts as x: the Moebius
        map sending infinity, 0 and 1 where x sends them (PGL(2,q) is
        sharply 3-transitive), scaled by the inverse square root of its
        determinant, a square since x lies in S."""
        ctx = self.ctx
        sub, mul, neg = ctx.sub, ctx.mul, ctx.neg
        a, b, c = x[0] - 1, x[1] - 1, x[2] - 1  # the images; -1 is infinity
        if a < 0:
            m = (sub(c, b), b, 0, 1)
        elif b < 0:
            m = (neg(a), sub(a, c), neg(1), 0)
        elif c < 0:
            m = (a, neg(b), 1, neg(1))
        else:
            cb, ac = sub(c, b), sub(a, c)
            m = (mul(a, cb), mul(b, ac), cb, ac)
        s = self._inv_root[sub(mul(m[0], m[3]), mul(m[1], m[2]))]
        m = (mul(m[0], s), mul(m[1], s), mul(m[2], s), mul(m[3], s))
        if self._perm(m) != x:
            raise RuntimeError("the recovered matrix does not act as its permutation")
        return m

    def normaliser(self, x: Perm) -> list[Perm]:
        """N_S(<x>) by linear algebra over GF(q), no scan of S.  With X the
        ``matrix`` of x and t its trace, X^k = a_k X + b_k I (X^2 = tX - I),
        and x has order n, the least k with a_k = 0.  The g with
        g x g^-1 = x^k are the G with G X = Y G for Y = +-X^k; such G
        exist only when tr(Y) = t, and then, e a cyclic vector of X, they
        are G0 C_GL(X) with G0 the map e -> e, Xe -> Ye, of determinant
        alpha det[e | Xe]^2 for Y = alpha X + beta I.  C_GL(X) holds the
        u I + w X, of determinant u^2 + tuw + w^2: the points (u : w) of
        the line where that is a nonzero square give C_S(x), and one where
        it is not (``twist``) fixes a G0 whose alpha is a nonsquare.  So
        N is C_S(x) and, per other Y, one det-1 G times C_S(x)."""
        if x in self._normalisers:
            return self._normalisers[x]
        ctx, perm, inv_root = self.ctx, self._perm, self._inv_root
        add, sub, mul, neg = ctx.add, ctx.sub, ctx.mul, ctx.neg
        x1, x2, x3, x4 = self.matrix(x)
        t = add(x1, x4)
        cent, twist = [x], None  # (0 : 1) is X itself
        for w in range(ctx.q):  # the points (1 : w)
            det = add(1, mul(w, add(t, w)))
            s = inv_root[det]
            if s is not None:
                ws = mul(w, s)
                cent.append(perm((add(s, mul(ws, x1)), mul(ws, x2), mul(ws, x3),
                                  add(s, mul(ws, x4)))))
            elif det and twist is None:
                twist = (add(1, mul(w, x1)), mul(w, x2), mul(w, x3), add(1, mul(w, x4))), det
        # E = [e | Xe] for the first e of (1, 0), (0, 1), (1, 1) that makes a basis
        e1, e2, e3, e4 = (1, x1, 0, x3) if x3 else (0, x2, 1, x4) if x2 else (1, x1, 1, x4)
        inv_det_e = ctx.inv(sub(mul(e1, e4), mul(e2, e3)))
        signs = [1] if ctx.p == 2 else [1, neg(1)]
        norm = list(cent)
        ak, bk = 1, 0
        while ak:
            for sign in signs:
                alpha, beta = mul(sign, ak), mul(sign, bk)
                if (alpha, beta) == (1, 0) or add(mul(alpha, t), add(beta, beta)) != t:
                    continue
                f2, f4 = add(mul(beta, e1), mul(alpha, e2)), add(mul(beta, e3), mul(alpha, e4))
                g = (sub(mul(e1, e4), mul(f2, e3)), mul(e1, sub(f2, e2)),
                     mul(e3, sub(e4, f4)), sub(mul(f4, e1), mul(e3, e2)))  # [e | Ye] adj(E)
                s = inv_root[alpha]
                if s is None:
                    if twist is None:  # every u I + w X has square determinant
                        continue
                    (t1, t2, t3, t4), det = twist
                    g = (add(mul(g[0], t1), mul(g[1], t3)), add(mul(g[0], t2), mul(g[1], t4)),
                         add(mul(g[2], t1), mul(g[3], t3)), add(mul(g[2], t2), mul(g[3], t4)))
                    s = inv_root[mul(alpha, det)]
                s = mul(s, inv_det_e)
                gt = _table(perm((mul(g[0], s), mul(g[1], s), mul(g[2], s), mul(g[3], s))))
                norm.extend(c.translate(gt) for c in cent)
            ak, bk = add(mul(t, ak), bk), neg(ak)
        self._normalisers[x] = norm
        return norm

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
