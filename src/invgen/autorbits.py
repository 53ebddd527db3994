"""Action of Aut(S) = PGammaL(2,q) on class labels and on Psi2.

Inner automorphisms fix every label, so the induced action is generated by

  * the diagonal map (q odd): conjugation by a determinant-nonsquare
    element of PGL; it swaps the two unipotent labels and fixes all
    semisimple labels (traces are conjugation invariants), and
  * the field map: entrywise Frobenius; it sends a trace pair {t, -t} to
    {t^p, -t^p} and fixes the involution and unipotent labels (their
    traces lie in GF(p), and u^p is a square iff u is).

The two move disjoint sets of classes, so they commute, and the induced
group is the d*f products diag^e * Frob^i (e < d, i < f), with d = 2 for q
odd and 1 for q even.

Frob^i sends the trace pair {t, -t} to {t^(p^i), -t^(p^i)}, the same pair
iff (t^2)^(p^i) = t^2, iff t^2 lies in GF(p^i) meet GF(q) = GF(p^gcd(i,f)).
So Frob^i fixes a torus class of order j iff p^gcd(i,f) = +-1 (mod j),
by the argument of the subfield rule in ``structure.label_meets``;
diag * Frob^i fixes the same classes less the two unipotent ones.

Lemma.  For 0 < i < f, no Psi2 pair has both classes fixed by Frob^i.

Proof.  Let q0 = p^g with g = gcd(i, f) < f; the classes Frob^i fixes are
those with t^2 in GF(q0).  It is enough to find a proper subgroup meeting
both classes of such a pair (C, D).  Two unipotent classes both meet the
Borel subgroup.  Otherwise let H be

  * PSL(2,q0) when p = 2 or f/g is odd.  Then t lies in GF(q0) itself
    (squaring is one to one for p = 2; for f/g odd, else GF(q0)(t) =
    GF(q0^2) would lie in GF(q)), [[0, -1], [1, t]] lies in SL(2,q0),
    and a class with t != +-2 is determined by its trace, so every such
    class meets H.  So do the unipotent classes: for p odd, f/g odd keeps
    a nonsquare of GF(q0) a nonsquare in GF(q).
  * PGL(2,q0) when p is odd and f/g is even.  Then GF(q0^2) lies in
    GF(q), so every element of GF(q0) is a square in GF(q), and M in
    GL(2,q0) scaled to determinant 1 embeds PGL(2,q0) in PSL(2,q) with
    t^2 = tr(M)^2/det(M).  [[0, -1], [1, 0]] gives t^2 = 0 and
    [[0, -1/a], [1, 1]] gives any a != 0 of GF(q0), so every class with
    t^2 in GF(q0) and t != +-2 meets H, and so does unip:sq (through
    [[1, 1], [0, 1]]).  H's image under diag meets unip:nsq and, as diag
    fixes them, every non-unipotent class that H meets.

H is proper because q0 < q, and it or its image under diag meets C and
D.  The smallest q0 need no special case, only a proper subgroup: at
q0 = 2, PSL(2,2) = S3 in SL(2,2^f), with trace 0 on the involutions (the
unipotent class of q even) and 1 on the elements of order 3; at q0 = 3,
PSL(2,3) = A4 (f/g odd) and PGL(2,3) = S4 (f/g even) in PSL(2,3^f), with
t^2 = 0 on the involutions, t = +-1 = -+2 on the unipotents and, in S4,
t^2 = 2 on the elements of order 4.

diag * Frob^i fixes no more classes than Frob^i, so of the d*f elements
only 1 and diag fix a Psi2 pair, and Burnside's lemma reads

    beta = (|Psi2| + fix(diag)) / (d*f),

with fix(diag) the Psi2 pairs with no unipotent coordinate (q odd).  For
q even, d = 1 and beta = |Psi2| / f.

The number of orbits of the diagonal action on Psi2 equals beta(S), the
largest t for which S^t is invariably 2-generated.  ``beta_fast``
evaluates the closed form from the census alone: Psi2 membership depends
only on the profile, so fix(diag) is the bucket-product count
with the two unipotent classes taken out of their buckets.  It is the one
production route to beta and builds no map.

``aut_action`` builds the two generators on class positions, for the
callers that move pairs: ``pair_orbits`` names the orbit of every Psi2
pair by the pair's least image under ``AutAction.elements``; the power
graph reads those names for its columns, and ``beta`` groups the pairs by
them into the orbit partition that ``beta --orbits`` prints.  A class is
named by its position among the nonidentity labels of the inventory, the
index of ``Psi2Table.labels``, and an element of the induced group is the
list of the images of the positions.
"""

from __future__ import annotations

from typing import NamedTuple

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, trace_key
from invgen.structure import ProfileCensus, Psi2Table


class AutAction(NamedTuple):
    ctx: GFContext
    diagonal: list[int] | None  # None for q even
    frobenius: list[int]  # the identity when f = 1

    def elements(self) -> list[list[int]]:
        """The products diag^e * Frob^i (e < d, i < f), Frob^i first.  The
        generators commute, so this is the whole induced group."""
        frob = self.frobenius
        powers = [list(range(len(frob)))]
        for _ in range(1, self.ctx.f):
            powers.append([frob[im] for im in powers[-1]])
        if self.diagonal is None:
            return powers
        return powers + [[self.diagonal[im] for im in g] for g in powers]


def aut_action(inv: ClassInventory) -> AutAction:
    frob = list(range(len(inv) - 1))
    diagonal: list[int] | None = None
    if inv.d == 2:
        usq, unsq = (i - 1 for i, e in enumerate(inv.head) if e.label.kind == "unip")
        diagonal = frob[:]
        diagonal[usq], diagonal[unsq] = unsq, usq
    start = len(inv.head) - 1  # position of the first torus class
    for kind, keys, _, _ in inv.tori:
        where = dict(zip(keys, range(start, start + len(keys))))
        for key, i in where.items():
            j = where.get(trace_key(inv.ctx, inv.ctx.frobenius(key)))
            if j is None:
                raise RuntimeError(
                    f"Frobenius image of {kind}:t={key} missing from inventory")
            frob[i] = j
        start += len(keys)
    return AutAction(inv.ctx, diagonal, frob)


def pair_orbits(action: AutAction, psi2: Psi2Table) -> dict[tuple[int, int], tuple[int, int]]:
    """Each Psi2 index pair (i, j) mapped to its least image under the
    elements of ``action``: two pairs share an Aut(S)-orbit exactly when
    they share a key, and the key is itself a member of the orbit."""
    images = action.elements()
    return {(a, b): min((g[a], g[b]) for g in images)
            for a, bs in enumerate(psi2.near) for b in bs}


class OrbitPartition(NamedTuple):
    beta: int
    orbits: list[list[tuple[str, str]]]  # (name, name) pairs, sorted within and across orbits


def beta(action: AutAction, psi2: Psi2Table) -> OrbitPartition:
    """Orbit partition of the diagonal Aut(S)-action on Psi2.

    The pairs are grouped by their ``pair_orbits`` key.  Checks that the
    generators map Psi2 into itself, so each group is a whole orbit, and
    that no orbit contains both (C, D) and (D, C): the swap direction can
    never be reached because the bipartition parts are Aut-invariant, and a
    violation would falsify the evenness of beta.
    """
    key = pair_orbits(action, psi2)
    if not key:
        raise RuntimeError("Psi2 is empty")
    names = [lab.str_form() for lab in psi2.labels]
    gens = [g for g in (action.frobenius, action.diagonal) if g is not None]
    groups: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for (a, b), k in key.items():
        for g in gens:
            if (g[a], g[b]) not in key:
                raise RuntimeError(
                    f"automorphism image ({names[g[a]]}, {names[g[b]]}) left Psi2; "
                    "the action is broken"
                )
        if key.get((b, a)) == k:
            raise RuntimeError(
                f"orbit of ({names[a]}, {names[b]}) contains its swap; the action is broken"
            )
        groups.setdefault(k, []).append((names[a], names[b]))
    return OrbitPartition(len(groups), sorted(map(sorted, groups.values())))


def beta_fast(census: ProfileCensus) -> int:
    """Orbit count by the closed form (|Psi2| + fix(diag)) / (d*f) of the
    module docstring.

    fix(diag) is the bucket-product count over the classes diag fixes:
    every bucket less its unipotent classes.  Reads only the census, so it
    needs no field, no map and no Psi2.
    """
    inv = census.inv
    total = census.psi2_count
    if inv.d == 2:
        fixed = census.sizes[:]
        for k, entry in enumerate(inv.head):
            if entry.label.kind == "unip":
                fixed[census.sig_bucket[k]] -= 1  # head class k has signature k
        total += sum(fixed[j] * fixed[k] for j, k in census.disjoint)
    count, rem = divmod(total, inv.d * inv.ctx.f)
    if rem:
        raise RuntimeError("Burnside count is not an integer; the census is inconsistent")
    return count
