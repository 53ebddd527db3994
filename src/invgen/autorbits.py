"""Action of Aut(S) = PGammaL(2,q) on class labels and on Psi2.

Inner automorphisms fix every label, so the induced action is generated by

  * the diagonal map (q odd): conjugation by a determinant-nonsquare
    element of PGL; it swaps the two unipotent labels and fixes all
    semisimple labels (traces are conjugation invariants), and
  * the field map: entrywise Frobenius; it sends a trace pair {t, -t} to
    {t^p, -t^p} and preserves unipotent square-class flags.

Each permutation is held as the map of the labels it moves, and a label
missing from a map is fixed: the Frobenius map moves no label when f = 1
and the diagonal map moves only the two unipotent classes, so the few
elements of the induced group (at most d*f) cost O(moved labels) each,
not O(labels).

The number of orbits of the diagonal action on Psi2 equals beta(S), the
largest t for which S^t is invariably 2-generated.  ``beta_fast`` counts
them by Burnside's lemma over profile buckets: an element fixes the
bucket-product count over the labels it leaves in place, which is each
bucket's size less the moved labels in it.  It is the one production
route to beta.  ``pair_orbits`` names the orbit of every Psi2 pair by
the pair's least image under ``AutAction.elements``; the power graph reads
those names for its columns, and ``beta`` groups the pairs by them into the
orbit partition that ``beta --orbits`` prints.
"""

from __future__ import annotations

from typing import NamedTuple

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, ClassLabel, trace_key
from invgen.structure import ProfileCensus, Psi2Table

LabelPerm = dict[ClassLabel, ClassLabel]  # the labels it moves; the rest are fixed


class AutAction(NamedTuple):
    ctx: GFContext
    diagonal: LabelPerm | None  # None for q even
    frobenius: LabelPerm  # empty when f = 1

    def generators(self) -> list[LabelPerm]:
        gens = [self.frobenius]
        if self.diagonal is not None:
            gens.append(self.diagonal)
        return gens

    def elements(self) -> list[LabelPerm]:
        """The full induced permutation group (order divides d*f), each
        element as the map of the labels it moves; the identity is ``{}``.
        Costs O(moved labels) per element."""
        moved = list(dict.fromkeys(lab for gen in self.generators() for lab in gen))
        # an element is keyed by the images of the moved labels, in that order
        seen: dict[tuple[ClassLabel, ...], LabelPerm] = {tuple(moved): {}}
        frontier: list[LabelPerm] = [{}]
        while frontier:
            nxt = []
            for perm in frontier:
                for gen in self.generators():
                    images = [gen.get(im, im) for im in (perm.get(lab, lab) for lab in moved)]
                    key = tuple(images)
                    if key not in seen:
                        seen[key] = comp = {lab: im for lab, im in zip(moved, images)
                                            if im != lab}
                        nxt.append(comp)
            frontier = nxt
        return list(seen.values())


def aut_action(ctx: GFContext, inv: ClassInventory) -> AutAction:
    diagonal: LabelPerm | None = None
    if ctx.q % 2 == 1:
        usq, unsq = ClassLabel("unip", sq=True), ClassLabel("unip", sq=False)
        diagonal = {usq: unsq, unsq: usq}
    frob: LabelPerm = {}
    # Frobenius fixes GF(p); verify 4..1024 CPU 0.55 s, 0.67 s without (2-core Xeon)
    if ctx.f > 1:
        for lab in inv.labels():
            if lab.kind in ("split", "nonsplit"):
                image = ClassLabel(lab.kind, trace_key(ctx, ctx.frobenius(lab.trace)))
                if image not in inv.index:
                    raise RuntimeError(f"Frobenius image {image} missing from inventory")
                if image != lab:
                    frob[lab] = image
    return AutAction(ctx, diagonal, frob)


def _index_images(action: AutAction, labels: list[ClassLabel]) -> list[list[int]]:
    """Every element of the induced group as the list of the positions in
    ``labels`` of the images of ``labels``."""
    pos = {lab: i for i, lab in enumerate(labels)}
    out = []
    for g in action.elements():
        image = list(range(len(labels)))
        for lab, im in g.items():
            if lab in pos:
                image[pos[lab]] = pos[im]
        out.append(image)
    return out


def pair_orbits(action: AutAction, psi2: Psi2Table) -> dict[tuple[int, int], tuple[int, int]]:
    """Each Psi2 index pair (i, j) mapped to its least image under the
    elements of ``action``: two pairs share an Aut(S)-orbit exactly when
    they share a key, and the key is itself a member of the orbit."""
    images = _index_images(action, psi2.labels)
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
    images = _index_images(action, psi2.labels)
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
    over sigma-fixed labels: each bucket's size less the labels sigma moves
    out of it.  Avoids materializing Psi2 for large q.
    """
    elements = action.elements()
    disjoint = census.disjoint_pairs()
    sizes = [len(mem) for mem in census.members]
    total = 0
    for perm in elements:
        fixed = sizes[:]
        for lab in perm:
            fixed[census.bucket_of[lab]] -= 1
        total += sum(fixed[i] * fixed[j] for i, j in disjoint)
    count, rem = divmod(total, len(elements))
    if rem:
        raise RuntimeError("Burnside count is not an integer; action is inconsistent")
    return count
