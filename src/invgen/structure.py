"""Dickson's subgroup classes of PSL(2,q) and the structural computation of Psi2.

Two nonidentity classes invariably generate iff no proper subgroup meets
both, so Psi2 reads only which records meet both classes of a pair, and a
record whose class set lies inside another's adds no pair.  So
``maximal_subgroup_classes`` keeps only the inclusion-maximal class sets
of Dickson's list, with no maximality flags (a non-maximal dihedral lies
in a maximal subgroup, whose class set holds its own).  It drops subfield
PGL(2,q0), whose class set lies inside the Borel's, and the second S4
class, whose class set is the first's; it keeps A4, whose class set lies
inside a dihedral's, because at q = 5 its order is the largest, which the
oracle reads.  Its docstring gives the arguments.

Class-intersection profiles are computed symbolically: the profile of a
conjugacy class is the set of listed subgroup classes whose members meet
it, held as an int mask over the list: bit i stands for member i.  The
rules read only a class's signature (``ClassInventory.signatures``), so
each rule runs once per signature and record, and the 2-covering reads
its sides off those profiles.  Bucket sizes add the class count of each
signature, counted from the torus orders; a bucket's classes are listed
by position only when a command names them.  ``psi2_structural`` reads
Psi2 off the census, one neighbour tuple per bucket.

Conventions for the kinds that come as two classes (q odd): variant 1 of
an exceptional kind whose order is divisible by p is the copy whose
unipotents have square parameter, variant 2 the nonsquare one.  Swapping
the labels swaps two identical-shaped profiles, so no downstream count
depends on it; the oracle certifies the variant split as a multiset.

``json_document`` writes the JSON of ``psi2``, ``graph`` and ``beta``; it
sits here, the lowest module that ``iggraph`` and ``beta`` both import.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import compress
from typing import NamedTuple

from invgen.gf import GFContext, is_prime
from invgen.psl2 import ClassInventory, ClassLabel, ClassSignature

BOREL = "borel"
DIH_SPLIT = "dih_split"
DIH_NONSPLIT = "dih_nonsplit"
SUBFIELD_PSL = "subfield_psl"
EXC_A4 = "exc_a4"
EXC_S4 = "exc_s4"
EXC_A5 = "exc_a5"

# element orders occurring in the exceptional subgroups
_EXC_ORDERS = {EXC_A4: (2, 3), EXC_S4: (2, 3, 4), EXC_A5: (2, 3, 5)}


class SubgroupClass(NamedTuple):
    kind: str
    order: int
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


def maximal_subgroup_classes(ctx: GFContext) -> list[SubgroupClass]:
    """The records of Dickson's list for PSL(2,q) whose class sets Psi2
    can see, each listed whether or not it is maximal.

    A non-maximal dihedral lies in a maximal subgroup, whose class set
    holds its own; the nonsplit one doubles as the covering subgroup for
    the 2-covering check.  Dropped because a listed class set holds theirs:

      * subfield PGL(2,q0), q = q0^2: each semisimple element has its
        eigenvalues in GF(q0^2) = GF(q), so it is split or an involution
        (q = 1 mod 4) and lies in a Borel, as every unipotent does;
      * the second S4 class (q = +-1 mod 8 prime): p >= 7 does not divide
        24, so neither class meets a unipotent class and the two have one
        class set, that of the one record, which has no variant.

    A4 (f = 1, p >= 5) meets the involutions and one torus class of order
    3, both of which the dihedral of that torus meets.  It stays because
    at q = 5 its order 12 is the largest, the oracle's ``exit_bound``.
    """
    p, f, q = ctx.p, ctx.f, ctx.q
    if q < 4:
        raise RuntimeError("subgroup classification requires q >= 4")
    d = 2 if q % 2 == 1 else 1
    out = [
        SubgroupClass(BOREL, q * (q - 1) // d),
        SubgroupClass(DIH_SPLIT, 2 * (q - 1) // d),
        SubgroupClass(DIH_NONSPLIT, 2 * (q + 1) // d),
    ]
    for r in (r for r in range(3, f + 1, 2) if f % r == 0 and is_prime(r)):
        q0 = p ** (f // r)
        if q0 == 2:
            continue
        d0 = 2 if q0 % 2 == 1 else 1
        out.append(SubgroupClass(SUBFIELD_PSL, q0 * (q0 * q0 - 1) // d0, q0=q0))
    if f == 1 and q % 40 in (3, 5, 13, 27, 37):
        out.append(SubgroupClass(EXC_A4, 12))
    if f == 1 and q % 8 in (1, 7):
        out.append(SubgroupClass(EXC_S4, 24))
    if (f == 1 and q % 10 in (1, 9)) or (f == 2 and p % 10 in (3, 7)):
        out.append(SubgroupClass(EXC_A5, 60, variant=1))
        out.append(SubgroupClass(EXC_A5, 60, variant=2))
    return out


def label_meets(ctx: GFContext, sig: ClassSignature, sc: SubgroupClass) -> bool:
    """Does a conjugacy class with signature `sig` meet a conjugate of the
    subgroup class `sc`?"""
    q = ctx.q
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
        if kind == "unip":
            if ctx.p not in orders:
                return False
            if sc.variant is None:
                raise RuntimeError(
                    "single-class exceptional subgroup with unipotent members "
                    "cannot occur for q >= 4"
                )
            return sq is (sc.variant == 1)
        return order in orders
    raise RuntimeError(f"unknown subgroup kind {sc.kind}")


def build_profiles(inv: ClassInventory, classes: list[SubgroupClass]) -> list[int]:
    """Profile of each class signature, in the order of ``inv.signatures``,
    as a mask: bit i is set when the classes of the signature meet
    ``classes[i]``.  Each rule runs once per signature and record.
    Signature 0 is the identity's, which meets every class."""
    ctx = inv.ctx
    bits = [1 << i for i in range(len(classes))]
    return [sum(b for b, sc in zip(bits, classes) if label_meets(ctx, sig, sc))
            for sig in inv.signatures[0]]


maximal_profiles = build_profiles  # the name perfbench/traced_cli.py wraps


# ---------------------------------------------------------------------------
# profile census: classes grouped by identical profile.  Classes with the
# same profile are interchangeable for every pair test, which collapses the
# up-to-q^2/4 pair sweep to a handful of bucket products.
# ---------------------------------------------------------------------------

class ProfileCensus(NamedTuple):
    """Buckets of nonidentity classes with equal profile.  A class is
    named by its position among ``inv.nonidentity_labels()`` (class number
    less one), as in ``Psi2Table``."""

    inv: ClassInventory
    buckets: list[int]  # distinct nonidentity profiles, ascending as masks
    sizes: list[int]  # classes per bucket
    sig_bucket: list[int]  # bucket of each signature; -1 for the identity's
    disjoint: list[tuple[int, int]]  # ordered bucket pairs with disjoint profiles
    profiles: list[int]  # per signature, the mask its bucket holds
    psi2_count: int  # |Psi2|: the bucket products over the disjoint pairs
    universe: list[SubgroupClass]  # the subgroup class of each profile bit

    def members(self) -> list[list[int]]:
        """Positions, ascending, of the classes of each bucket, by ``inv.class_signatures``."""
        bucket = list(map(self.sig_bucket.__getitem__, self.inv.class_signatures[1:]))
        every = range(len(bucket))
        return [list(compress(every, map(b.__eq__, bucket))) for b in range(len(self.buckets))]


def profile_census(inv: ClassInventory) -> ProfileCensus:
    classes = maximal_subgroup_classes(inv.ctx)
    profs = build_profiles(inv, classes)
    buckets = sorted(set(profs[1:]))
    index = {prof: b for b, prof in enumerate(buckets)}
    sig_bucket = [-1, *map(index.__getitem__, profs[1:])]
    sizes = [0] * len(buckets)
    for b, count in zip(sig_bucket[1:], inv.signatures[1][1:]):
        sizes[b] += count
    disjoint = [(i, j) for i, pi in enumerate(buckets) for j, pj in enumerate(buckets)
                if not pi & pj]
    return ProfileCensus(inv, buckets, sizes, sig_bucket, disjoint, profs,
                         sum(sizes[i] * sizes[j] for i, j in disjoint), classes)


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


def psi2_structural(census: ProfileCensus) -> Psi2Table:
    """Psi2 via profile disjointness.

    A pair fails to invariably generate iff some representatives lie in a
    common maximal subgroup, i.e. iff some listed class meets both: every
    listed subgroup is proper, and each maximal subgroup's class set lies
    inside a listed one's.  So membership is exactly profile disjointness,
    and a label's neighbours are the members of the census buckets
    disjoint from its own.
    """
    members = census.members()
    partners: list[list[int]] = [[] for _ in census.buckets]
    for i, j in census.disjoint:
        partners[i] += members[j]
    labels = census.inv.nonidentity_labels()
    near: list[tuple[int, ...]] = [()] * len(labels)
    for positions, js in zip(members, partners):
        shared = tuple(sorted(js))
        for i in positions:
            near[i] = shared
    return Psi2Table(census.inv.q, "structural", labels, near)


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
