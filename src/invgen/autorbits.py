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

Which of these products fix a class follows from the class signature
(``ClassInventory.signatures``).  diag^e * Frob^i fixes the involution
class; it fixes the unipotent classes exactly when e = 0; and it fixes a
torus class exactly when gcd(i, f) lies in the signature's ``trace_sq_in``.
Proof of the last: Frob^i sends the trace pair {t, -t} to
{t^(p^i), -t^(p^i)}, which is the same pair iff t^(p^i) = +-t, iff
(t^2)^(p^i) = t^2, iff t^2 lies in GF(p^i) meet GF(q) = GF(p^gcd(i,f)).
The head classes have every divisor of f in ``trace_sq_in``, so the
Frobenius test passes for them.

The number of orbits of the diagonal action on Psi2 equals beta(S), the
largest t for which S^t is invariably 2-generated.  ``beta_fast`` counts
them by Burnside's lemma from the census alone: Psi2 membership depends
only on the maximal profile, so an element fixes the bucket-product count
over the classes it fixes, and a bucket's fixed classes are the classes of
its fixed signatures.  It is the one production route to beta and builds
no map.

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

from math import gcd
from typing import NamedTuple

from invgen.gf import GFContext, prime_power_split
from invgen.psl2 import ClassInventory, ClassSignature, trace_key
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


def aut_action(ctx: GFContext, inv: ClassInventory) -> AutAction:
    frob = list(range(len(inv) - 1))
    diagonal: list[int] | None = None
    if ctx.q % 2 == 1:
        usq, unsq = (i - 1 for i, e in enumerate(inv.head) if e.label.kind == "unip")
        diagonal = frob[:]
        diagonal[usq], diagonal[unsq] = unsq, usq
    start = len(inv.head) - 1  # position of the first torus class
    for kind, keys, _, _ in inv.tori:
        where = dict(zip(keys, range(start, start + len(keys))))
        for key, i in where.items():
            j = where.get(trace_key(ctx, ctx.frobenius(key)))
            if j is None:
                raise RuntimeError(
                    f"Frobenius image of {kind}:t={key} missing from inventory")
            frob[i] = j
        start += len(keys)
    return AutAction(ctx, diagonal, frob)


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


def fixes_signature(sig: ClassSignature, e: int, i: int, f: int) -> bool:
    """Whether diag^e * Frob^i fixes the classes of signature ``sig``, by the
    rule in the module docstring."""
    return gcd(i, f) in sig.trace_sq_in and not (e and sig.kind == "unip")


def beta_fast(census: ProfileCensus) -> int:
    """Orbit count by Burnside's lemma over the d*f elements
    diag^e * Frob^i, per signature and bucket.

    An element's fixed Psi2 pairs number the bucket-product count over the
    classes it fixes; a bucket's fixed classes are those of the signatures
    the element fixes, by ``fixes_signature``.  Reads only the census, so it
    needs no field, no map and no Psi2.
    """
    sigs = census.inv.signatures[0]
    _, f = prime_power_split(census.q)
    d = census.inv.d
    total = 0
    for e in range(d):
        for i in range(f):
            fixed = [0] * len(census.sizes)
            for sig, bucket, n in zip(sigs, census.sig_bucket, census.sig_sizes):
                if bucket >= 0 and fixes_signature(sig, e, i, f):
                    fixed[bucket] += n
            total += sum(fixed[j] * fixed[k] for j, k in census.disjoint)
    count, rem = divmod(total, d * f)
    if rem:
        raise RuntimeError("Burnside count is not an integer; the signatures are inconsistent")
    return count
