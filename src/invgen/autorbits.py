"""Action of Aut(S) = PGammaL(2,q) on class labels and on Psi2.

Inner automorphisms fix every label, so the induced action is generated by

  * the diagonal map (q odd): conjugation by a determinant-nonsquare
    element of PGL; it swaps the two unipotent labels and fixes all
    semisimple labels (traces are conjugation invariants), and
  * the field map: entrywise Frobenius; it sends a trace pair {t, -t} to
    {t^p, -t^p} and preserves unipotent square-class flags.

A class is named by its position among the nonidentity labels of the
inventory, the index of ``Psi2Table.labels`` and of the profile census.
Each permutation is held as the map of the positions it moves, and a
position missing from a map is fixed: the Frobenius map moves no class
when f = 1 and the diagonal map moves only the two unipotent classes, so
the few elements of the induced group (at most d*f) cost O(moved classes)
each, not O(classes), and no label is built.

The number of orbits of the diagonal action on Psi2 equals beta(S), the
largest t for which S^t is invariably 2-generated.  ``beta_fast`` counts
them by Burnside's lemma over profile buckets: an element fixes the
bucket-product count over the classes it leaves in place, which is each
bucket's size less the moved classes in it.  It is the one production
route to beta.  ``pair_orbits`` names the orbit of every Psi2 pair by
the pair's least image under ``AutAction.elements``; the power graph reads
those names for its columns, and ``beta`` groups the pairs by them into the
orbit partition that ``beta --orbits`` prints.
"""

from __future__ import annotations

from typing import NamedTuple

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, trace_key
from invgen.structure import ProfileCensus, Psi2Table

ClassPerm = dict[int, int]  # the positions it moves; the rest are fixed


class AutAction(NamedTuple):
    ctx: GFContext
    diagonal: ClassPerm | None  # None for q even
    frobenius: ClassPerm  # empty when f = 1

    def generators(self) -> list[ClassPerm]:
        gens = [self.frobenius]
        if self.diagonal is not None:
            gens.append(self.diagonal)
        return gens

    def elements(self) -> list[ClassPerm]:
        """The full induced permutation group (order divides d*f), each
        element as the map of the positions it moves; the identity is ``{}``.
        Costs O(moved classes) per element."""
        moved = list(dict.fromkeys(i for gen in self.generators() for i in gen))
        # an element is keyed by the images of the moved positions, in that order
        seen: dict[tuple[int, ...], ClassPerm] = {tuple(moved): {}}
        frontier: list[ClassPerm] = [{}]
        while frontier:
            nxt = []
            for perm in frontier:
                for gen in self.generators():
                    images = [gen.get(im, im) for im in (perm.get(i, i) for i in moved)]
                    key = tuple(images)
                    if key not in seen:
                        seen[key] = comp = {i: im for i, im in zip(moved, images) if im != i}
                        nxt.append(comp)
            frontier = nxt
        return list(seen.values())


def aut_action(ctx: GFContext, inv: ClassInventory) -> AutAction:
    diagonal: ClassPerm | None = None
    if ctx.q % 2 == 1:
        usq, unsq = (i - 1 for i, e in enumerate(inv.head) if e.label.kind == "unip")
        diagonal = {usq: unsq, unsq: usq}
    frob: ClassPerm = {}
    # Frobenius fixes GF(p); verify 4..1024 CPU 0.45 s, 0.47 s without (2-core Xeon)
    if ctx.f > 1:
        start = len(inv.head) - 1  # position of the first torus class
        for kind, keys, _, _ in inv.tori:
            where = dict(zip(keys, range(start, start + len(keys))))
            for key, i in where.items():
                j = where.get(trace_key(ctx, ctx.frobenius(key)))
                if j is None:
                    raise RuntimeError(
                        f"Frobenius image of {kind}:t={key} missing from inventory")
                if j != i:
                    frob[i] = j
            start += len(keys)
    return AutAction(ctx, diagonal, frob)


def _index_images(action: AutAction, n: int) -> list[list[int]]:
    """Every element of the induced group as the list of the images of the
    positions 0..n-1."""
    out = []
    for g in action.elements():
        image = list(range(n))
        for i, im in g.items():
            image[i] = im
        out.append(image)
    return out


def pair_orbits(action: AutAction, psi2: Psi2Table) -> dict[tuple[int, int], tuple[int, int]]:
    """Each Psi2 index pair (i, j) mapped to its least image under the
    elements of ``action``: two pairs share an Aut(S)-orbit exactly when
    they share a key, and the key is itself a member of the orbit."""
    images = _index_images(action, len(psi2.labels))
    return {(a, b): min((g[a], g[b]) for g in images)
            for a, bs in enumerate(psi2.near) for b in bs}


class OrbitPartition(NamedTuple):
    beta: int
    orbits: list[list[tuple[str, str]]]  # (name, name) pairs, sorted within and across orbits


def beta(action: AutAction, psi2: Psi2Table) -> OrbitPartition:
    """Orbit partition of the diagonal Aut(S)-action on Psi2.

    The pairs are grouped by their ``pair_orbits`` key.  Checks that every
    image of each key stays in Psi2, so each group is a whole orbit, and
    that no orbit contains both (C, D) and (D, C): the swap direction can
    never be reached because the bipartition parts are Aut-invariant, and a
    violation would falsify the evenness of beta.
    """
    key = pair_orbits(action, psi2)
    if not key:
        raise RuntimeError("Psi2 is empty")
    names = [lab.str_form() for lab in psi2.labels]
    images = _index_images(action, len(psi2.labels))
    groups: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for (a, b), k in key.items():
        groups.setdefault(k, []).append((names[a], names[b]))
    for a, b in groups:
        for g in images:
            if (g[a], g[b]) not in key:
                raise RuntimeError(
                    f"automorphism image ({names[g[a]]}, {names[g[b]]}) left Psi2; "
                    "the action is broken"
                )
        if key.get((b, a)) == (a, b):
            raise RuntimeError(
                f"orbit of ({names[a]}, {names[b]}) contains its swap; the action is broken"
            )
    return OrbitPartition(len(groups), sorted(map(sorted, groups.values())))


def beta_fast(action: AutAction, census: ProfileCensus) -> int:
    """Orbit count by Burnside's lemma over profile buckets.

    Psi2 membership depends only on the maximal profile, so the number of
    fixed pairs of an automorphism sigma is the bucket-product count taken
    over sigma-fixed classes: each bucket's size less the classes sigma
    moves out of it, read by position.  Avoids materializing Psi2 for large q.
    """
    elements = action.elements()
    bucket = {i: census.bucket_of(i) for gen in action.generators() for i in gen}
    total = 0
    for perm in elements:
        fixed = census.sizes[:]
        for i in perm:
            fixed[bucket[i]] -= 1
        total += sum(fixed[i] * fixed[j] for i, j in census.disjoint)
    count, rem = divmod(total, len(elements))
    if rem:
        raise RuntimeError("Burnside count is not an integer; action is inconsistent")
    return count
