"""Action of Aut(S) = PGammaL(2,q) on class labels and on Psi2.

Inner automorphisms fix every label, so the induced action is generated by

  * the diagonal map (q odd): conjugation by a determinant-nonsquare
    element of PGL; it swaps the two unipotent labels and fixes all
    semisimple labels (traces are conjugation invariants), and
  * the field map: entrywise Frobenius; it sends a trace pair {t, -t} to
    {t^p, -t^p} and preserves unipotent square-class flags.

The number of orbits of the diagonal action on Psi2 equals beta(S), the
largest t for which S^t is invariably 2-generated.  ``beta_fast`` counts
them by Burnside's lemma over profile buckets; it is the one production
route to beta.  ``pair_orbits`` names the orbit of every Psi2 pair by
the pair's least image under ``AutAction.elements``; the power graph reads
those names for its columns, and ``beta`` groups the pairs by them into the
orbit partition that ``beta --orbits`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, ClassLabel, trace_key
from invgen.structure import ProfileCensus, Psi2Table

LabelPerm = dict[ClassLabel, ClassLabel]


@dataclass
class AutAction:
    ctx: GFContext
    diagonal: LabelPerm | None  # None for q even
    frobenius: LabelPerm  # identity map when f = 1

    def generators(self) -> list[LabelPerm]:
        gens = [self.frobenius]
        if self.diagonal is not None:
            gens.append(self.diagonal)
        return gens

    def elements(self) -> list[LabelPerm]:
        """The full induced permutation group (order divides d*f)."""
        labels = list(self.frobenius)
        ident = {lab: lab for lab in labels}
        # a permutation is keyed by its images in the fixed label order
        seen = {tuple(labels): ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for perm in frontier:
                for gen in self.generators():
                    comp = {lab: gen[perm[lab]] for lab in labels}
                    k = tuple(comp[lab] for lab in labels)
                    if k not in seen:
                        seen[k] = comp
                        nxt.append(comp)
            frontier = nxt
        return list(seen.values())


def aut_action(ctx: GFContext, inv: ClassInventory) -> AutAction:
    labels = inv.labels()
    diagonal: LabelPerm | None = None
    if ctx.q % 2 == 1:
        diagonal = {}
        for lab in labels:
            if lab.kind == "unip":
                diagonal[lab] = ClassLabel("unip", sq=not lab.sq)
            else:
                diagonal[lab] = lab
    frob: LabelPerm = {}
    for lab in labels:
        if lab.kind in ("split", "nonsplit"):
            image = ClassLabel(lab.kind, trace_key(ctx, ctx.frobenius(lab.trace)))
            if image not in inv.index:
                raise RuntimeError(f"Frobenius image {image} missing from inventory")
            frob[lab] = image
        else:
            frob[lab] = lab
    return AutAction(ctx, diagonal, frob)


def _index_images(action: AutAction, labels: list[ClassLabel]) -> list[list[int]]:
    """Every element of the induced group as the list of the positions in
    ``labels`` of the images of ``labels``."""
    pos = {lab: i for i, lab in enumerate(labels)}
    return [[pos[g[lab]] for lab in labels] for g in action.elements()]


def pair_orbits(action: AutAction, psi2: Psi2Table) -> dict[tuple[int, int], tuple[int, int]]:
    """Each Psi2 index pair (i, j) mapped to its least image under the
    elements of ``action``: two pairs share an Aut(S)-orbit exactly when
    they share a key, and the key is itself a member of the orbit."""
    images = _index_images(action, psi2.labels)
    return {(a, b): min((g[a], g[b]) for g in images)
            for a, bs in enumerate(psi2.near) for b in bs}


@dataclass
class OrbitPartition:
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
    over sigma-fixed labels.  Avoids materializing Psi2 for large q.
    """
    elements = action.elements()
    disjoint = census.disjoint_pairs()
    total = 0
    for perm in elements:
        fixed_sizes = [sum(1 for lab in mem if perm[lab] == lab)
                       for mem in census.members]
        total += sum(fixed_sizes[i] * fixed_sizes[j] for i, j in disjoint)
    count, rem = divmod(total, len(elements))
    if rem:
        raise RuntimeError("Burnside count is not an integer; action is inconsistent")
    return count
