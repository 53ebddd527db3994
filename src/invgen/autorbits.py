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
route to beta.  ``beta`` builds the orbit partition itself, as the images
of one pair per orbit under every element of the induced group, for
``beta --orbits``.  The power graph needs no partition: it names the orbit
of a pair by the pair's least image under ``AutAction.elements``.
"""

from __future__ import annotations

from dataclasses import dataclass

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, ClassLabel, trace_key
from invgen.structure import ProfileCensus, Psi2Table

LabelPerm = dict[ClassLabel, ClassLabel]
Pair = tuple[ClassLabel, ClassLabel]


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


def _pair_key(pair: Pair) -> tuple[str, str]:
    return pair[0].str_form(), pair[1].str_form()


@dataclass
class OrbitPartition:
    beta: int
    orbits: list[list[Pair]]
    orbit_of: dict[Pair, int]

    def named_orbits(self) -> list[list[tuple[str, str]]]:
        """Each orbit's pairs as (name, name); orbits are already sorted by name."""
        return [list(map(_pair_key, orbit)) for orbit in self.orbits]

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "orbit_of": {
                "|".join(_pair_key(pair)): i
                for pair, i in sorted(self.orbit_of.items(), key=lambda kv: _pair_key(kv[0]))
            },
            "orbits": self.named_orbits(),
        }


def beta(action: AutAction, psi2: Psi2Table) -> OrbitPartition:
    """Orbit partition of the diagonal Aut(S)-action on Psi2.

    Each orbit is the set of images of one of its pairs under every element
    of the induced group.  Checks that every image stays in Psi2 and that no
    orbit contains both (C, D) and (D, C): the swap direction can never be
    reached because the bipartition parts are Aut-invariant, and a
    violation would falsify the evenness of beta.
    """
    pairs = psi2.pairs()
    if not pairs:
        raise ValueError("Psi2 is empty")
    elements = action.elements()
    seen: set[Pair] = set()
    orbits: list[list[Pair]] = []
    for c, dlab in pairs:
        if (c, dlab) in seen:
            continue
        orbit = {(g[c], g[dlab]) for g in elements}
        for image in orbit:
            if image not in pairs:
                raise RuntimeError(
                    f"automorphism image {image} left Psi2; the action is broken"
                )
            if (image[1], image[0]) in orbit:
                raise RuntimeError(
                    f"orbit of ({c}, {dlab}) contains its swap; the action is broken"
                )
        seen |= orbit
        orbits.append(sorted(orbit, key=_pair_key))
    orbits.sort(key=lambda o: [_pair_key(pair) for pair in o])
    orbit_of = {pair: i for i, orbit in enumerate(orbits) for pair in orbit}
    return OrbitPartition(len(orbits), orbits, orbit_of)


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
