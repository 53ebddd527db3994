"""Dickson's subgroup classes of PSL(2,q) and the structural computation of Psi2.

Two nonidentity classes invariably generate iff no proper subgroup meets
both, so Psi2 reads only which records meet both classes of a pair, and a
record whose class set lies inside another's adds no pair.  So
``maximal_subgroup_classes`` keeps only the inclusion-maximal class sets
of Dickson's list, with no maximality flags (a non-maximal dihedral lies
in a maximal subgroup, whose class set holds its own).  It drops subfield
PGL(2,q0), whose class set lies inside the Borel's, A4, whose class set
lies inside a dihedral's, and the second S4 class, whose class set is the
first's; its docstring gives the arguments.  A record holds no order,
since no rule reads one.

Class-intersection profiles are computed symbolically: the profile of a
conjugacy class is the set of listed subgroup classes whose members meet
it, held as an int mask over the list: bit i stands for member i.  The
rules read only a class's signature, and q's arithmetic gives the
signatures and their class counts (``psl2.signature_counts``), so the
census is built from q alone: each rule runs once per signature and
record, the 2-covering reads its sides off those profiles, and bucket
sizes add the class counts.  An inventory's classes are placed in buckets
only when a command names them (``ProfileCensus.members``), and
``psi2_structural`` reads Psi2 off the census, one tuple per bucket.

Conventions for the kinds that come as two classes (q odd): variant 1 of
an exceptional kind whose order is divisible by p is the copy whose
unipotents have square parameter, variant 2 the nonsquare one.  Swapping
the labels swaps two identical-shaped profiles, so no downstream count
depends on it; the oracle certifies the variant split as a multiset.

``json_document`` writes the JSON of ``psi2``, ``graph`` and ``beta``; it
sits here, the lowest module that ``iggraph`` and ``beta`` both import.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import compress
from typing import NamedTuple

from invgen.gf import is_prime, prime_power_split
from invgen.psl2 import ClassInventory, ClassLabel, ClassSignature, signature_counts

BOREL = "borel"
DIH_SPLIT = "dih_split"
DIH_NONSPLIT = "dih_nonsplit"
SUBFIELD_PSL = "subfield_psl"
EXC_S4 = "exc_s4"
EXC_A5 = "exc_a5"

# element orders occurring in the exceptional subgroups
_EXC_ORDERS = {EXC_S4: (2, 3, 4), EXC_A5: (2, 3, 5)}


class SubgroupClass(NamedTuple):
    kind: str
    variant: int | None = None  # 1 or 2 for kinds that come as two classes
    q0: int | None = None  # subfield size for subfield kinds

    @property
    def id(self) -> str:
        parts = [self.kind]
        if self.q0 is not None:
            parts.append(f"q0={self.q0}")
        if self.variant is not None:
            parts.append(f"v{self.variant}")
        return ":".join(parts)

    def __str__(self) -> str:
        return self.id


def maximal_subgroup_classes(p: int, f: int) -> list[SubgroupClass]:
    """The records of Dickson's list for PSL(2,q), q = p^f, whose class sets
    Psi2 can see, each listed whether or not it is maximal.

    A non-maximal dihedral lies in a maximal subgroup, whose class set
    holds its own; the nonsplit one doubles as the covering subgroup for
    the 2-covering check.  Dropped because a listed class set holds theirs:

      * subfield PGL(2,q0), q = q0^2: each semisimple element has its
        eigenvalues in GF(q0^2) = GF(q), so it is split or an involution
        (q = 1 mod 4) and lies in a Borel, as every unipotent does;
      * A4 (f = 1, p >= 5): it meets the involutions and one torus class
        of order 3, both of which the dihedral of that torus meets;
      * the second S4 class (q = +-1 mod 8 prime): p >= 7 does not divide
        24, so neither class meets a unipotent class and the two have one
        class set, that of the one record, which has no variant.
    """
    q = p ** f
    if q < 4:
        raise RuntimeError("subgroup classification requires q >= 4")
    out = [SubgroupClass(BOREL), SubgroupClass(DIH_SPLIT), SubgroupClass(DIH_NONSPLIT)]
    for r in (r for r in range(3, f + 1, 2) if f % r == 0 and is_prime(r)):
        q0 = p ** (f // r)
        if q0 != 2:
            out.append(SubgroupClass(SUBFIELD_PSL, q0=q0))
    if f == 1 and q % 8 in (1, 7):
        out.append(SubgroupClass(EXC_S4))
    if (f == 1 and q % 10 in (1, 9)) or (f == 2 and p % 10 in (3, 7)):
        out.append(SubgroupClass(EXC_A5, variant=1))
        out.append(SubgroupClass(EXC_A5, variant=2))
    return out


def label_meets(q: int, sig: ClassSignature, sc: SubgroupClass) -> bool:
    """Does a conjugacy class of PSL(2,q) with signature `sig` meet a
    conjugate of the subgroup class `sc`?"""
    even = q % 2 == 0
    (kind, sq, order), sub_kind = sig, sc.kind
    if kind == "id":
        return True
    if sub_kind == BOREL:
        return kind in ("unip", "split") or kind == "inv" and q % 4 == 1
    if sub_kind == DIH_SPLIT:  # the reflections are the involution class
        return kind in ("split", "inv") or even and kind == "unip"
    if sub_kind == DIH_NONSPLIT:
        return kind in ("nonsplit", "inv") or even and kind == "unip"
    if sub_kind == SUBFIELD_PSL:
        if kind in ("unip", "inv"):
            # q even, or an odd-degree extension, which preserves square classes
            return True
        # A torus class of PSL-order j has trace t = z + 1/z, z an
        # eigenvalue (in GF(q) or GF(q^2)) of a preimage in SL(2,q), and
        # z -> z + 1/z is two to one with fibres {z, 1/z}.  So t^2 lies in
        # GF(q0) iff t^q0 = +-t, iff z^q0 is one of +-z, +-1/z, iff
        # q0 = +-1 mod j.  PSL(2,q0) meets the class iff t lies in GF(q0);
        # the degree [GF(q):GF(q0)] is an odd prime, and t^2 in GF(q0)
        # with t not would put GF(q0)(t) = GF(q0^2) in GF(q), so the order
        # test decides t as well as t^2.
        return sc.q0 % order in (1, order - 1)
    if sub_kind in _EXC_ORDERS:
        orders = _EXC_ORDERS[sub_kind]
        if kind == "inv":
            return True
        if kind == "unip":  # of order p
            if order not in orders:
                return False
            if sc.variant is None:
                raise RuntimeError(
                    "single-class exceptional subgroup with unipotent members "
                    "cannot occur for q >= 4"
                )
            return sq is (sc.variant == 1)
        return order in orders
    raise RuntimeError(f"unknown subgroup kind {sc.kind}")


def build_profiles(q: int, sigs: Iterable[ClassSignature],
                   classes: list[SubgroupClass]) -> list[int]:
    """Profile of each class signature of PSL(2,q), in the order of
    ``sigs``, as a mask: bit i is set when the classes of the signature
    meet ``classes[i]``.  Each rule runs once per signature and record.
    The identity's signature meets every class."""
    bits = [1 << i for i in range(len(classes))]
    return [sum(b for b, sc in zip(bits, classes) if label_meets(q, sig, sc)) for sig in sigs]


maximal_profiles = build_profiles  # the name perfbench/traced_cli.py wraps


# ---------------------------------------------------------------------------
# profile census: classes grouped by identical profile.  Classes with the
# same profile are interchangeable for every pair test, which collapses the
# up-to-q^2/4 pair sweep to a handful of bucket products.
# ---------------------------------------------------------------------------

# Unordered pairs ``graph`` and ``psi2`` may write: a graph with more edges,
# or a Psi2 with more than twice as many ordered pairs (``psi2_count``), is
# refused before any output.  2^22 admits q = 13 at t = 5 with plus
# (2,013,840 edges, 254 MB of JSON) and Psi2 at q = 4096 (8,384,400 pairs),
# and refuses q = 293 at t = 2 with plus (58,357,660 edges, over 1.7 GB at
# 30 bytes an edge).
EDGE_CAP = 1 << 22


class ProfileCensus(NamedTuple):
    """Buckets of nonidentity classes with equal profile, over the class
    signatures of PSL(2,q); ``members`` places the classes of an inventory,
    each named by its class number less one, as in ``Psi2Table``."""

    q: int
    out_order: int  # d*f, the order of the group that Aut(S) induces on classes
    signatures: dict[ClassSignature, int]  # class count of each, ``signature_counts`` order
    buckets: list[int]  # distinct nonidentity profiles, ascending as masks
    sizes: list[int]  # classes per bucket
    sig_bucket: list[int]  # bucket of each signature; -1 for the identity's
    disjoint: list[tuple[int, int]]  # ordered bucket pairs with disjoint profiles
    profiles: list[int]  # per signature, the mask its bucket holds
    psi2_count: int  # |Psi2|: the bucket products over the disjoint pairs
    universe: list[SubgroupClass]  # the subgroup class of each profile bit

    def members(self, inv: ClassInventory) -> list[list[int]]:
        """Positions, ascending, of the classes of each bucket among
        ``inv.nonidentity_labels()``, ``inv`` the inventory of q."""
        bucket = dict(zip(self.signatures, self.sig_bucket))
        of_class = [bucket[e.label.kind, e.label.sq, e.order] for e in inv.head[1:]]
        for kind, _, orders, _ in inv.tori:
            of_class += [bucket[kind, None, j] for j in orders]
        return [list(compress(range(len(of_class)), map(b.__eq__, of_class)))
                for b in range(len(self.buckets))]


def profile_census(q: int) -> ProfileCensus:
    """The census of PSL(2,q), q >= 4 a prime power, from q's arithmetic."""
    p, f = prime_power_split(q)
    sigs = signature_counts(p, f)
    classes = maximal_subgroup_classes(p, f)
    profs = build_profiles(q, sigs, classes)
    buckets = sorted(set(profs[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1, *map(index.__getitem__, profs[1:])]
    sizes = [0] * len(buckets)
    for b, count in zip(sig_bucket[1:], list(sigs.values())[1:]):
        sizes[b] += count
    disjoint = [(i, j) for i, pi in enumerate(buckets) for j, pj in enumerate(buckets)
                if not pi & pj]
    return ProfileCensus(q, (2 if q % 2 else 1) * f, sigs, buckets, sizes, sig_bucket,
                         disjoint, profs, sum(sizes[i] * sizes[j] for i, j in disjoint),
                         classes)


class Psi2Table:
    """Ordered pairs of nonidentity class labels that invariably generate S:
    ``near[i]`` is the ascending tuple of the j with (labels[i], labels[j])
    in Psi2.  Labels may share one tuple, so tuples are never mutated.

    Text output comes from ``text_blocks`` and JSON from ``json_chunks``,
    one string per label; both read ``_named_near``, the one place that
    fixes the output order: labels by name, and the neighbours of each
    label by name."""

    def __init__(self, q: int, method: str, labels: list[ClassLabel],
                 near: list[tuple[int, ...]]):
        self.q = q
        self.method = method  # "structural" | "oracle"
        self.labels = labels  # nonidentity labels, inventory order
        self.near = near

    def __len__(self) -> int:
        return sum(map(len, self.near))

    def _named_near(self) -> Iterator[tuple[str, list[str]]]:
        """(name, sorted neighbour names) for every label with neighbours,
        labels in name order.  Each distinct tuple is named and sorted once."""
        names = [lab.str_form() for lab in self.labels]
        named: dict[tuple[int, ...], list[str]] = {}
        for i in sorted(range(len(names)), key=names.__getitem__):
            js = self.near[i]
            if not js:
                continue
            near = named.get(js)
            if near is None:
                near = named[js] = sorted(map(names.__getitem__, js))
            yield names[i], near

    def text_blocks(self, sep: str) -> Iterator[str]:
        """The rows as ``name + sep + name`` lines, one string per label."""
        for name, near in self._named_near():
            head = name + sep
            yield head + ("\n" + head).join(near) + "\n"

    def json_chunks(self, extra: dict) -> Iterator[str]:
        """The text of ``json.dumps(payload, indent=2) + "\n"`` for the
        payload {q, method, count, pairs, **extra}, where pairs lists the
        rows as [name, name]; streamed one chunk per label, so the pair
        list is never built."""
        rows = (json_pair_rows(name, near) for name, near in self._named_near())
        return json_document({"q": self.q, "method": self.method, "count": len(self),
                              "pairs": rows, **extra})


def json_document(members: dict) -> Iterator[str]:
    """The text of ``json.dumps(members, indent=2) + "\n"`` for str keys.

    A member given as an iterator is a list streamed one chunk per string it
    yields: each chunk holds one or more items already written at depth 2,
    several joined by ``",\n    "``.  Any other member goes through
    ``json.dumps``, which never writes a raw newline inside a value."""
    import json  # here alone, so commands that write no JSON never load it

    text, sep = "{", "\n  "
    for key, value in members.items():
        text += sep + json.dumps(key) + ": "
        if isinstance(value, Iterator):
            opening = "[\n    "
            for chunk in value:
                yield text + opening + chunk
                text, opening = "", ",\n    "
            text += "[]" if opening == "[\n    " else "\n  ]"
        else:
            text += json.dumps(value, indent=2).replace("\n", "\n  ")
        sep = ",\n  "
    yield text + ("\n}\n" if members else "}\n")


def json_pair_rows(first: str, seconds: list[str]) -> str:
    """The items [first, s], for every s in the nonempty ``seconds``, as one
    chunk of ``json_document``.  Names need no JSON escaping."""
    start = f'[\n      "{first}",\n      "'
    end = '"\n    ]'
    return start + (end + ",\n    " + start).join(seconds) + end


def json_pair_list(pairs: list[tuple[str, str]]) -> str:
    """The nonempty list of rows [a, b] as one item of a ``json_document``
    chunk.  Names need no JSON escaping."""
    row = '[\n        "{}",\n        "{}"\n      ]'.format
    return "[\n      " + ",\n      ".join([row(a, b) for a, b in pairs]) + "\n    ]"


def psi2_structural(census: ProfileCensus, inv: ClassInventory) -> Psi2Table:
    """Psi2 via profile disjointness.

    A pair fails to invariably generate iff some representatives lie in a
    common maximal subgroup, i.e. iff some listed class meets both: every
    listed subgroup is proper, and each maximal subgroup's class set lies
    inside a listed one's.  So membership is exactly profile disjointness,
    and a label's neighbours are the members of the census buckets
    disjoint from its own, named by ``inv``, the inventory of q.
    """
    members = census.members(inv)
    partners: list[list[int]] = [[] for _ in census.buckets]
    for i, j in census.disjoint:
        partners[i] += members[j]
    labels = inv.nonidentity_labels()
    near: list[tuple[int, ...]] = [()] * len(labels)
    for positions, js in zip(members, partners):
        shared = tuple(sorted(js))
        for i in positions:
            near[i] = shared
    return Psi2Table(census.q, "structural", labels, near)


BOREL_SIDE = 1  # bits of a covering side: meets the Borel subgroup,
DIHEDRAL_SIDE = 2  # meets the nonsplit dihedral subgroup


class CoveringResult(NamedTuple):
    ok: bool
    sides: list[int]  # per class signature: BOREL_SIDE | DIHEDRAL_SIDE bits it meets


def verify_2covering(census: ProfileCensus) -> CoveringResult:
    """Check that {Borel, nonsplit dihedral} covers S, and give the side of
    every class signature, read off the census profiles at the bits of
    those two records.

    Classes meeting both sides are isolated in the generating graph; the
    classes that meet one side only give the bipartition of the plus graph.
    """
    kinds = [sc.kind for sc in census.universe]
    borel, dihedral = 1 << kinds.index(BOREL), 1 << kinds.index(DIH_NONSPLIT)
    sides = [BOREL_SIDE * (prof & borel > 0) | DIHEDRAL_SIDE * (prof & dihedral > 0)
             for prof in census.profiles]
    return CoveringResult(all(sides[1:]), sides)
