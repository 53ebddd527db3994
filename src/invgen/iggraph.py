"""Graph layer: the invariably generating graphs of S and its powers.

For t = 1 the vertices are the nonidentity class labels and the edges are
the unordered Psi2 pairs, one neighbour mask made per distinct
``Psi2Table.near`` tuple (the labels of a profile bucket share one).  For
t > 1 the vertices are t-tuples of nonidentity labels and adjacency follows
the product criterion: every coordinate column must lie in Psi2 and no two
columns may share an Aut(S)-orbit.  A column's orbit is named by
``autorbits.pair_orbits`` (its least image under the induced Aut(S)
group), so no orbit partition is built, and ``autorbits`` is loaded only
for t > 1.  No candidate tuple is tried: ``lambda_power`` ANDs one
partner mask per coordinate and takes away the pairs of columns that land
in one orbit, both read off per-label masks sliced by orbit, so for n
indexed tuples the work is n masks of n bits, and ``POWER_WORK_CAP`` bounds
n^2.  Tuples with an identity coordinate are provably isolated (an
identity column lies in no Psi2 pair) and are not indexed; with plus
neither are those with a partnerless coordinate, and any tuple still
isolated is dropped by one re-index.

Adjacency is stored as one integer bitmask per vertex: bit j of
``nbrs[i]`` is set when vertices i and j are adjacent.  Vertices with one
nonzero neighbour mask are twins, and ``IGGraph`` groups them into twin
classes once, numbered by first vertex, each isolated vertex a class of
its own.  These graphs have few classes (the q = 256 plus graph has 2
among 255 vertices, the q = 13, t = 3 power graph 22 among 343).
Construction checks the loop and range conditions per vertex but symmetry
per pair of adjacent classes, each listing all members of the other, which
is the per-edge check regrouped; the same walk builds the quotient, one
mask of adjacent classes per class.  Components, bipartiteness and
diameter all read ``IGGraph.analysis``: ``_analyse``, one BFS from each
class over the quotient's masks, lifted back to the vertices.  The
exporters are generators that write one chunk per vertex or row, each
class naming and sorting its neighbours once, and read the components and
the parts (written exactly when the graph is bipartite) off
``IGGraph.analysis``; ``graph_to_json`` writes through
``structure.json_document``, which streams the edge list without building
it.  ``n_lower_bound_report`` returns the JSON object ``beta`` prints: a
lower bound on the component count of the power graph, the exact
half-binomial (1/2) * C(beta, beta/2) for beta up to ``BOUND_BETA_CAP``,
multiplied out from its prime factorisation in balanced product trees of
ints and of decimals, so its decimal text never passes through a big int.
Clique and chromatic numbers need no solver: every graph built here is
bipartite, since colouring a vertex by the side of the {Borel, nonsplit
dihedral} 2-covering that its first coordinate meets gives adjacent
vertices different colours (one that meets both sides is isolated), so
both numbers are 2 whenever there is an edge.

``lambda_summary`` answers the standard per-q questions without building
the label-level graph: labels with identical profiles have identical
neighbourhoods, so it runs ``_analyse`` on the quotient by profile buckets
(a blow-up relationship) with the bucket sizes, which determines component
count, bipartiteness, diameter and isolated vertices exactly, the fields
of ``LambdaSummary``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import compress, product
from math import isqrt, log2
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from invgen.gf import CapError, GFContext
from invgen.psl2 import ClassInventory, ClassLabel
from invgen.structure import (
    BOREL_SIDE, DIHEDRAL_SIDE, CoveringResult, ProfileCensus, Psi2Table, json_document,
    json_pair_rows,
)

if TYPE_CHECKING:  # loaded by ``lambda_power`` alone, so t = 1 never imports it
    from invgen.autorbits import AutAction

# Bits of the power graph's adjacency: the square of the tuple count, which
# is the work of ``lambda_power``.  2^29 admits q = 8 and 11 at t = 5 with
# plus (7^5 tuples each) and refuses q = 8 at t = 5 without it (8^5).
POWER_WORK_CAP = 1 << 29
# The largest beta whose exact (1/2) * C(beta, beta/2) is built: beta at
# q = 4096, whose factor list, int product and decimal text take about
# 0.09 s, against 3 ms at q = 1024 (beta = 52,326; in-process, 2-core Xeon
# VM, Python 3.11).
BOUND_BETA_CAP = 698_700


class GraphCapError(CapError):
    """Requested graph exceeds a configured size cap."""


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, ascending: one search
    per set bit along its binary digits, from the lowest, read once."""
    digits, out = bin(mask)[:1:-1], []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _analyse(nbrs: list[int], sizes: list[int]) -> tuple[list[int], int | None, int]:
    """(components, odd, diameter) of the symmetric loop-free masks ``nbrs``,
    vertex i standing for ``sizes[i]`` twins, by a BFS from every vertex.
    Components are masks ordered by first vertex; odd masks the odd layers
    from each component's first vertex, or is None (the graph is not
    bipartite) when an edge joins two vertices of one layer.  Twins u != v
    are not adjacent (a loop), so d(u, v) = 2 when N(u) = N(v) is not empty,
    and every path from u leaves through N(u): twins share one eccentricity,
    and a class of two or more with a neighbour makes the diameter 2 or more."""
    comps = []
    odd = ecc = seen = 0
    for i in range(len(nbrs)):
        layers, inner, frontier, reached = [], 0, 1 << i, 1 << i
        while frontier:  # layer k holds the vertices at distance k from i
            layers.append(frontier)
            reach, rest = 0, frontier
            while rest:  # the bits of the layer, lowest first
                low = rest & -rest
                reach |= nbrs[low.bit_length() - 1]
                rest ^= low
            inner |= reach & frontier  # vertices with a neighbour in their layer
            frontier = reach & ~reached
            reached |= frontier
        ecc = max(ecc, len(layers) - 1)
        if not seen >> i & 1:
            comps.append(sum(layers))  # the layers are disjoint: their sum is their union
            seen |= comps[-1]
            odd = None if odd is None or inner else odd | sum(layers[1::2])
    return comps, odd, max(ecc, 2 * any(size > 1 and mask for size, mask in zip(sizes, nbrs)))


class IGGraph:
    def __init__(self, q: int, t: int, method: str, vertices: list, nbrs: list[int]):
        self.q = q
        self.t = t
        self.method = method
        self.vertices = vertices
        self.nbrs = nbrs  # bit j of nbrs[i]: vertices[i] and vertices[j] are adjacent
        if len(self.nbrs) != len(self.vertices):
            raise RuntimeError("one neighbour mask per vertex is required")
        twins: dict[int, int] = {}  # neighbour mask, or ~i for an isolated i -> its vertices
        for i, mask in enumerate(self.nbrs):
            if mask < 0 or mask >> len(self.vertices):
                raise RuntimeError("neighbour bit past the last vertex")
            if mask >> i & 1:
                raise RuntimeError("loops are not allowed")
            twins[mask or ~i] = twins.get(mask or ~i, 0) | 1 << i
        members = list(twins.values())  # per twin class, by first vertex: the mask of its vertices
        number = dict(zip(twins, range(len(members))))
        self.twin = [number[mask or ~i] for i, mask in enumerate(self.nbrs)]  # each vertex's class
        self.classes = [(own & -own).bit_length() - 1 for own in members]  # first vertices
        quotient = []  # per twin class, the mask of the classes adjacent to it
        for head, own in zip(self.classes, members):
            near, rest = 0, self.nbrs[head]
            while rest:  # one neighbour per adjacent class: it and its twins must list own
                d = self.twin[(rest & -rest).bit_length() - 1]
                if self.nbrs[self.classes[d]] & own != own:
                    raise RuntimeError("adjacency is not symmetric")
                near |= 1 << d
                rest &= ~members[d]
            quotient.append(near)
        comps, odd, ecc = _analyse(quotient, [own.bit_count() for own in members])
        lifted = [sum(map(members.__getitem__, _bits(x))) for x in (*comps, odd or 0)]
        # on the vertices, read by the analyses below and the exporters
        self.analysis = lifted[:-1], None if odd is None else lifted[-1], ecc

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.nbrs) // 2

    def vertex_name(self, v) -> str:
        if self.t > 1:
            return "(" + ",".join(lab.str_form() for lab in v) + ")"
        return v.str_form()


def lambda_graph(psi2: Psi2Table, plus: bool = False) -> IGGraph:
    """The graph on nonidentity classes of S; plus drops isolated vertices.
    Labels share neighbour tuples, so each distinct tuple is made a mask once."""
    rows = [a for a, bs in enumerate(psi2.near) if bs or not plus]
    at = {a: k for k, a in enumerate(rows)}
    masks: dict[int, int] = {}  # id of a neighbour tuple -> its mask
    nbrs = []
    for a in rows:
        mask = masks.get(id(psi2.near[a]))
        if mask is None:
            mask = masks[id(psi2.near[a])] = sum(1 << at[b] for b in psi2.near[a])
        nbrs.append(mask)
    return IGGraph(psi2.q, 1, psi2.method, [psi2.labels[a] for a in rows], nbrs)


def lambda_power(ctx: GFContext, t: int, psi2: Psi2Table, action: AutAction,
                 inv: ClassInventory, plus: bool = False) -> IGGraph:
    """The graph on classes of S^t via the product criterion, from
    orbit-sliced neighbour masks over the tuple index.

    The n tuples over the indexed labels (every nonidentity label, or with
    plus those with a Psi2 partner) are numbered in lexicographic order.
    For coordinate i and label a, A_i(a) masks the tuples whose coordinate i
    is a Psi2 partner of a, and A_i(a, o) those whose column with a lies in
    the Aut(S)-orbit o, as named by ``pair_orbits``.  Then
        N(v) = AND_i A_i(v_i) minus OR_{i<j} OR_o A_i(v_i, o) & A_j(v_j, o),
    built coordinate by coordinate along the tuple prefixes, so the work is
    n masks of n bits.  The n^2 bits must be at most ``POWER_WORK_CAP``,
    checked before any orbit work; at least two labels have a partner, so
    a t past its bit length is over the cap without forming n.
    """
    if t > POWER_WORK_CAP.bit_length():
        raise GraphCapError(f"power graph for t={t} would have at least 2^{t} vertices, "
                            f"cap is {POWER_WORK_CAP}")
    rows = [a for a, bs in enumerate(psi2.near) if bs or not plus]
    m = len(rows)
    n = m ** t
    if n * n > POWER_WORK_CAP:
        raise GraphCapError(
            f"power graph for t={t} would index {n} tuples, {n * n} adjacency bits, "
            f"cap is {POWER_WORK_CAP}")
    from invgen.autorbits import pair_orbits

    orbit = pair_orbits(action, psi2)
    n_orbits = len(set(orbit.values()))
    if t > n_orbits:
        raise ValueError(
            f"t={t} exceeds beta={n_orbits}; S^t is not invariably 2-generated there"
        )
    at = {a: k for k, a in enumerate(rows)}
    slices = []  # per indexed label: {orbit: mask of the row positions of its partners there}
    for a in rows:
        by_orbit: dict[tuple[int, int], int] = {}
        for b in psi2.near[a]:
            by_orbit[orbit[a, b]] = by_orbit.get(orbit[a, b], 0) | 1 << at[b]
        slices.append(by_orbit)
    full = (1 << n) - 1
    levels = []  # per coordinate: per label, (A_i(a), [(o, A_i(a, o)), ...])
    for i in range(t):
        size = m ** (t - 1 - i)  # coordinate i is constant on blocks of this many tuples
        block, repeat = (1 << size) - 1, full // ((1 << m * size) - 1)

        def lift(x: int) -> int:  # the tuples whose coordinate i is at a position of x
            return sum(block << k * size for k in _bits(x)) * repeat

        levels.append([(lift(sum(by_orbit.values())),
                        [(o, lift(x)) for o, x in by_orbit.items()]) for by_orbit in slices])
    nbrs: list[int] = []

    def walk(i: int, common: int, clash: int, seen: dict) -> None:
        """Extend a prefix of i coordinates: common is AND_{j<i} A_j(v_j),
        clash the tuples two of whose first i columns share an orbit, and
        seen[o] the tuples with a column among the first i in orbit o."""
        for partners, cuts in levels[i]:
            hit = clash
            for o, x in cuts:
                if o in seen:
                    hit |= seen[o] & x
            if i == t - 1:
                nbrs.append(common & partners & ~hit)
                continue
            ahead = dict(seen)
            for o, x in cuts:
                ahead[o] = ahead.get(o, 0) | x
            walk(i + 1, common & partners, hit, ahead)

    walk(0, full, 0, {})
    vertices = list(product([inv.nonidentity_labels()[a] for a in rows], repeat=t))
    if plus and not all(nbrs):  # a tuple over partnered labels may still be isolated
        keep = [i for i, mask in enumerate(nbrs) if mask]
        new = dict(zip(keep, range(len(keep))))
        moved: dict[int, int] = {}
        for i in keep:
            if nbrs[i] not in moved:
                moved[nbrs[i]] = sum(1 << new[j] for j in _bits(nbrs[i]))
        vertices = [vertices[i] for i in keep]
        nbrs = [moved[nbrs[i]] for i in keep]
    return IGGraph(ctx.q, t, psi2.method, vertices, nbrs)


# ---------------------------------------------------------------------------
# graph analyses
# ---------------------------------------------------------------------------

def components(g: IGGraph) -> list[list]:
    """Vertex lists of the components, each in vertex order, ordered by
    their first vertex."""
    return [[g.vertices[j] for j in _bits(comp)] for comp in g.analysis[0]]


def is_bipartite(g: IGGraph) -> tuple[bool, tuple[list, list]]:
    """Bipartite verdict and parts; each component's part 0 holds the even
    BFS layers from its first vertex."""
    odd = g.analysis[1]
    if odd is None:
        return False, ([], [])
    part0 = [v for i, v in enumerate(g.vertices) if not odd >> i & 1]
    part1 = [v for i, v in enumerate(g.vertices) if odd >> i & 1]
    return True, (part0, part1)


def diameter(g: IGGraph) -> int:
    """Largest eccentricity within a component, over all vertices (0 when
    there are no edges)."""
    return g.analysis[2]


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

def int_log2(n: int) -> float:
    """log2 of a positive big int without float overflow."""
    if n <= 0:
        raise RuntimeError("log2 of a non-positive integer")
    bits = n.bit_length()
    if bits <= 53:
        return log2(n)
    shift = bits - 53
    return shift + log2(n >> shift)


def check_bound_cap(beta_value: int) -> None:
    """Refuse (``CapError``) a beta past ``BOUND_BETA_CAP``, before any
    factorisation or product."""
    if beta_value > BOUND_BETA_CAP:
        raise CapError(f"beta={beta_value} is above {BOUND_BETA_CAP}, the largest beta "
                       "whose exact component bound is built")


def _half_binomial_factors(beta_value: int) -> list[int]:
    """Products of up to 8 factors each (the first holds the power of 2),
    whose product is (1/2) * C(beta, beta/2); beta must be even (it always
    is) and at most ``BOUND_BETA_CAP``.

    By Legendre's formula a prime r divides C(beta, h), h = beta/2, exactly
    sum_k (floor(beta/r^k) - 2 floor(h/r^k)) times.  As beta = 2h, each term
    is floor(beta/r^k) mod 2, so r is a factor once per odd floor(beta/r^k),
    and 2 has exponent popcount(h), less 1 for the half.  The sieve holds
    the odd numbers only, and the factors are multiplied in groups of 8 as
    they are found: small ints still, an eighth as many to hold and to
    turn into decimals.
    """
    if beta_value < 2 or beta_value % 2 != 0:
        raise RuntimeError(
            f"beta must be even and >= 2, got {beta_value}; an odd orbit count "
            "signals an upstream bug"
        )
    check_bound_cap(beta_value)
    sieve = bytearray([1]) * (beta_value // 2)  # sieve[k]: is 2k + 1 prime
    sieve[0] = 0
    for r in range(3, isqrt(beta_value) + 1, 2):
        if sieve[r // 2]:
            sieve[r * r // 2::r] = bytes(len(range(r * r // 2, len(sieve), r)))
    groups, group, size = [], 1 << (beta_value // 2).bit_count() - 1, 1
    for r in compress(range(1, beta_value, 2), sieve):
        power = r
        while power <= beta_value:
            if beta_value // power & 1:
                group *= r
                size += 1
                if size == 8:
                    groups.append(group)
                    group, size = 1, 0
            power *= r
    return groups + [group] if size else groups


def _tree_product(xs: list, times):
    """Product of a non-empty list by a balanced tree of ``times`` calls, so
    the big multiplications are between operands of equal size."""
    while len(xs) > 1:
        xs = [*map(times, xs[::2], xs[1::2]), *xs[len(xs) & ~1:]]
    return xs[0]


def _big_int_str(factors: list[int]) -> str:
    """Exact decimal text of the product of ``factors``, built as a product
    tree of ``decimal.Decimal`` in a context of its own whose precision no
    product reaches, so no big int is converted to text (that conversion is
    quadratic in the digit count) and no interpreter-global setting is read
    or changed."""
    import decimal
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    return str(_tree_product(list(map(decimal.Decimal, factors)), exact.multiply))


def component_bound(beta_value: int) -> int:
    """Exact (1/2) * C(beta, beta/2), by ``_half_binomial_factors``."""
    return _tree_product(_half_binomial_factors(beta_value), mul)


def n_lower_bound_report(census: ProfileCensus, beta_exact: int | None = None) -> dict:
    """Certified lower bound on the component count of the plus graph of
    S^beta, as the JSON object that ``beta`` prints: {q, psi2_count,
    beta_lower, beta_exact, component_bound, log2_bound}, where
    component_bound is the exact (1/2) * C(beta_lower, beta_lower/2) in
    decimal.  One factor list feeds both products: ints for log2_bound,
    decimals for the text.

    Uses beta >= |Psi2|/(d*f) rounded down to an even integer when the exact
    orbit count is not supplied; that bound is exactly the closed form
    beta = (|Psi2| + fix(diag))/(d*f) of ``autorbits`` with fix(diag)
    dropped.  The half-binomial is monotone in even beta, so the report
    stays a true lower bound.
    """
    beta_lb = census.psi2_count // census.out_order
    use = beta_exact if beta_exact is not None else beta_lb
    use_even = max(2, use - use % 2)
    factors = _half_binomial_factors(use_even)
    return {"q": census.q, "psi2_count": census.psi2_count, "beta_lower": use_even,
            "beta_exact": beta_exact, "component_bound": _big_int_str(factors),
            "log2_bound": int_log2(_tree_product(factors, mul))}


# ---------------------------------------------------------------------------
# fast per-q summary over profile buckets
# ---------------------------------------------------------------------------

class LambdaSummary(NamedTuple):
    component_count: int
    bipartite: bool
    parts_match_covering: bool
    diameter: int
    isolated: list[str]


def lambda_summary(census: ProfileCensus, cover: CoveringResult,
                   inv: ClassInventory | None = None) -> LambdaSummary:
    """Exact plus-graph facts computed on the profile-bucket quotient.

    Same-profile labels are twins (identical neighborhoods, never mutually
    adjacent), so the quotient graph on the buckets with a neighbor
    determines everything reported here, ``_analyse`` lifting the diameter.
    Only the isolated classes are named: a head class by its signature, a
    torus class (q = 7 alone) by ``inv``, the inventory of q.
    """
    nbrs = [0] * len(census.sizes)
    for i, j in census.disjoint:
        if i != j:
            nbrs[i] |= 1 << j
    comps, odd, diam = _analyse(nbrs, census.sizes)
    dead = {i for i, mask in enumerate(nbrs) if not mask}
    dead_sigs = [sig for sig, b in zip(census.signatures, census.sig_bucket) if b in dead]
    if all(kind in ("inv", "unip") for kind, _, _ in dead_sigs):  # one class each
        isolated = [str(ClassLabel(kind, sq=sq)) for kind, sq, _ in dead_sigs]
    else:  # a torus class is isolated (q = 7): name every class of the dead buckets
        members = census.members(inv)
        isolated = [str(inv.entries[i + 1].label) for b in dead for i in members[b]]
    return LambdaSummary(
        component_count=len(comps) - len(dead),
        bipartite=odd is not None,
        parts_match_covering=odd is not None and _parts_match_covering(cover, census, nbrs),
        diameter=diam,
        isolated=sorted(isolated),
    )


def _parts_match_covering(cover: CoveringResult, census: ProfileCensus,
                          nbrs: list[int]) -> bool:
    """Every quotient edge must join the Borel-only side to the dihedral-only
    side.  Decided per signature: every signature of a bucket must be on
    one side, where meeting both sides or neither counts as no side."""
    tagged = [0] * 4  # by side bits: the buckets with a signature on that side
    for bucket, side in zip(census.sig_bucket, cover.sides):
        if bucket >= 0:
            tagged[side] |= 1 << bucket
    borel, dihedral = tagged[BOREL_SIDE], tagged[DIHEDRAL_SIDE]
    neither = tagged[0] | tagged[BOREL_SIDE | DIHEDRAL_SIDE]  # no side
    if borel & dihedral or (borel | dihedral) & neither:
        return False
    return not any(mask and (neither >> i & 1 or mask & (borel if borel >> i & 1 else dihedral))
                   for i, mask in enumerate(nbrs))


def expected_isolated(inv: ClassInventory) -> set[str]:
    """Isolated vertices of the graph of S by the published case analysis,
    as label strings; ``lambda_summary(...).isolated`` must equal them."""
    q, p = inv.q, inv.ctx.p
    if q == 7:
        return {e.label.str_form() for e in inv if e.order == 3}
    if q == 9:
        return {"inv", "unip:sq", "unip:nsq"}
    if q % 2 == 0:
        return {"unip"}
    if q % 4 == 1 or q != p:
        return {"inv"}
    return set()  # q = p = 3 mod 4, q != 7


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def to_dot(g: IGGraph) -> Iterator[str]:
    """DOT text, one chunk for the vertex lines and then one per vertex
    with a later neighbour: each edge is written once, from its earlier end
    in vertex order, with the later ends in vertex order too.  Each twin
    class names its neighbours once; parts as in ``graph_to_json``."""
    names = [g.vertex_name(v) for v in g.vertices]
    odd = g.analysis[1]
    attrs = ["" if odd is None else f' [part="{1 + (odd >> i & 1)}"]' for i in range(len(names))]
    yield "graph lambda {\n" + "".join(
        f'  "{name}"{attr};\n' for name, attr in zip(names, attrs))
    ends = [[names[j] for j in _bits(g.nbrs[i])] for i in g.classes]
    for i, c in enumerate(g.twin):  # the neighbours before i are the first ends to skip
        later = ends[c][(g.nbrs[i] & (1 << i) - 1).bit_count():]
        if later:
            head = f'  "{names[i]}" -- "'
            yield head + ('";\n' + head).join(later) + '";\n'
    yield "}\n"


def _json_edges(g: IGGraph, names: list[str], order: list[int]) -> Iterator[str]:
    """The edges as [name, name] items, smaller name first, in name order:
    one chunk per vertex, in name order, holding its edges to the vertices
    with larger names.  Each twin class sorts its neighbour names once."""
    named = [sorted(map(names.__getitem__, _bits(g.nbrs[i]))) for i in g.classes]
    for i in order:
        near = named[g.twin[i]]
        later = near[bisect_right(near, names[i]):]
        if later:
            yield json_pair_rows(names[i], later)


def graph_to_json(g: IGGraph) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2) + "\n"`` for the payload
    {q, t, method, vertices, edges, components[, parts]}: vertex names
    sorted, each edge as its two names in order, the components and, for a
    bipartite graph, the ``is_bipartite`` parts as sorted name lists, the
    components in order too; both are read off ``g.analysis``.  The edges
    are streamed one chunk per vertex, so the edge list is never built."""
    names = [g.vertex_name(v) for v in g.vertices]
    comps, odd, _ = g.analysis
    order = sorted(range(len(names)), key=names.__getitem__)
    members = {"q": g.q, "t": g.t, "method": g.method,
               "vertices": [names[i] for i in order],
               "edges": _json_edges(g, names, order),
               "components": sorted(sorted(map(names.__getitem__, _bits(c))) for c in comps)}
    if odd is not None:
        even = ((1 << len(names)) - 1) ^ odd
        members["parts"] = [sorted(map(names.__getitem__, _bits(m))) for m in (even, odd)]
    yield from json_document(members)
