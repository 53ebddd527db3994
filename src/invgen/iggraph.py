"""Graph layer: the invariably generating graphs of S and its powers.

For t = 1 the vertices are the nonidentity class labels and the edges are
the unordered Psi2 pairs.  For t > 1 the vertices are t-tuples of
nonidentity labels and adjacency follows the product criterion: every
coordinate column must lie in Psi2 and no two columns may share an
Aut(S)-orbit.  Both read Psi2 as the neighbour lists ``Psi2Table.near``,
and a column's orbit is named by ``autorbits.pair_orbits`` (its least
image under the induced Aut(S) group), so no orbit partition is built.
Tuples with an identity coordinate are provably isolated (an identity
column lies in no Psi2 pair), so the enumeration skips them; the plus
filter then drops everything else that is isolated.

Adjacency is stored as one integer bitmask per vertex: bit j of
``nbrs[i]`` is set when vertices i and j are adjacent.  Components,
bipartiteness and diameter all read one BFS routine over those masks,
``IGGraph.analysis``, run once per graph.

Vertices with one neighbour mask are twins, and the work that depends only
on the mask is done once per twin class.  These graphs have few classes
(the q = 256 plus graph has 2 among 255 vertices, the q = 13, t = 3 power
graph 22 among 343).  Construction checks the loop and range conditions
per vertex but symmetry per class: every neighbour of the class must list
all of its members, which is the per-edge check regrouped.  Twins have
equal eccentricity (``_analyse`` gives the argument), so one BFS
per class is enough.  The exporters are generators that write one chunk
per vertex or row, each class naming and sorting its neighbours once, and
read the components and the parts (written exactly when the graph is
bipartite) off ``IGGraph.analysis``; ``graph_to_json`` writes through
``structure.json_document``, which streams the edge list without building
it.  ``n_lower_bound_report`` returns the JSON object ``beta`` prints: a
lower bound on the component count of the power graph, the exact
half-binomial (1/2) * C(beta, beta/2) for beta up to ``BOUND_BETA_CAP``,
multiplied out from its prime factorisation in balanced product trees of
ints and of decimals, so its decimal text never passes through a big
int.  Clique and chromatic numbers need no solver: every
graph built here is bipartite, since colouring a vertex by the side of the
{Borel, nonsplit dihedral} 2-covering that its first coordinate meets
gives adjacent vertices different colours (one that meets both sides is
isolated), so both numbers are 2 whenever there is an edge.

``lambda_summary`` answers the standard per-q questions without building
the label-level graph: labels with identical profiles have
identical neighborhoods, so the quotient by profile buckets (a blow-up
relationship) determines component count, bipartiteness, diameter and
isolated vertices exactly, the fields of ``LambdaSummary``; it runs
``_analyse``, the BFS routine behind ``IGGraph.analysis``, on the quotient's
masks, which are symmetric and loop-free by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import compress, product
from math import isqrt, log2, prod
from operator import mul
from typing import NamedTuple

from invgen.autorbits import AutAction, pair_orbits
from invgen.gf import CapError, GFContext
from invgen.psl2 import ClassInventory
from invgen.structure import (
    BOREL_SIDE, DIHEDRAL_SIDE, CoveringResult, ProfileCensus, Psi2Table, json_document,
    json_pair_rows,
)

POWER_WORK_CAP = 10 ** 6  # power-graph vertices, and candidate neighbour tuples
# The largest beta whose exact (1/2) * C(beta, beta/2) is built: beta at
# q = 4096, whose factor list, int product and decimal text take about
# 0.09 s, against 3 ms at q = 1024 (beta = 52,326; in-process, 2-core Xeon
# VM, Python 3.11).
BOUND_BETA_CAP = 698_700


class GraphCapError(CapError):
    """Requested graph exceeds a configured size cap."""


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _analyse(nbrs: list[int]) -> tuple[list[int], int | None, int]:
    """(components, odd, diameter) from one BFS from the first vertex of
    each component and of each other twin class with a neighbour.  The
    component masks are ordered by first vertex; odd masks the odd BFS
    layers from each component's first vertex, or is None when an edge
    joins two vertices of one layer, exactly when the graph is not
    bipartite.  Twins u != v with N(u) = N(v) not empty are not adjacent
    (that would be a loop), so d(u, v) = 2, and every path from u to
    another w leaves through N(u) = N(v): twins have one eccentricity."""
    comps, searched = [], set()  # the masks searched from
    odd = ecc = seen = 0
    for i, mask in enumerate(nbrs):
        root = not seen >> i & 1
        if not root and (not mask or mask in searched):
            continue
        searched.add(mask)
        layers, inner, frontier, reached = [], 0, 1 << i, 1 << i
        while frontier:  # layer k holds the vertices at distance k from i
            layers.append(frontier)
            reach, rest = 0, frontier
            while rest:  # the bits of the layer, as in ``_bits``
                low = rest & -rest
                reach |= nbrs[low.bit_length() - 1]
                rest ^= low
            inner |= reach & frontier  # vertices with a neighbour in their layer
            frontier = reach & ~reached
            reached |= frontier
        ecc = max(ecc, len(layers) - 1)
        if root:
            comps.append(sum(layers))  # the layers are disjoint: their sum is their union
            seen |= comps[-1]
            odd = None if odd is None or inner else odd | sum(layers[1::2])
    return comps, odd, ecc


class IGGraph:
    def __init__(self, q: int, t: int, method: str, vertices: list, nbrs: list[int]):
        self.q = q
        self.t = t
        self.method = method
        self.vertices = vertices
        self.nbrs = nbrs  # bit j of nbrs[i]: vertices[i] and vertices[j] are adjacent
        if len(self.nbrs) != len(self.vertices):
            raise RuntimeError("one neighbour mask per vertex is required")
        twins: dict[int, int] = {}  # neighbour mask -> bitmask of the vertices with it
        for i, mask in enumerate(self.nbrs):
            if mask < 0 or mask >> len(self.vertices):
                raise RuntimeError("neighbour bit past the last vertex")
            if mask >> i & 1:
                raise RuntimeError("loops are not allowed")
            twins[mask] = twins.get(mask, 0) | 1 << i
        for mask, members in twins.items():
            if any(self.nbrs[j] & members != members for j in _bits(mask)):
                raise RuntimeError("adjacency is not symmetric")
        self.analysis = _analyse(nbrs)  # read by the analyses below and the exporters

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.nbrs) // 2

    def vertex_name(self, v) -> str:
        if self.t > 1:
            return "(" + ",".join(lab.str_form() for lab in v) + ")"
        return v.str_form()


def _graph(q: int, t: int, method: str, vertices: list, near: Sequence[Sequence[int]],
           plus: bool) -> IGGraph:
    """The graph on ``vertices`` whose entry i of ``near`` lists the indices
    of the neighbours of vertex i; plus keeps only the vertices with a
    neighbour, re-indexed in their original order."""
    keep = [i for i, js in enumerate(near) if js] if plus else range(len(vertices))
    new = {i: k for k, i in enumerate(keep)}
    nbrs = []
    for i in keep:
        mask = 0
        for j in near[i]:
            mask |= 1 << new[j]
        nbrs.append(mask)
    return IGGraph(q, t, method, [vertices[i] for i in keep], nbrs)


def lambda_graph(psi2: Psi2Table, plus: bool = False) -> IGGraph:
    """The graph on nonidentity classes of S; plus drops isolated vertices."""
    return _graph(psi2.q, 1, psi2.method, psi2.labels, psi2.near, plus)


def lambda_power(ctx: GFContext, t: int, psi2: Psi2Table, action: AutAction,
                 inv: ClassInventory, plus: bool = False,
                 cap: int = POWER_WORK_CAP) -> IGGraph:
    """The graph on classes of S^t via the product criterion.

    The neighbours of a tuple v are drawn from the product of the Psi2
    neighbour lists of its coordinates, so exactly |Psi2|^t candidate
    tuples are visited; a candidate is kept when its t columns lie in t
    distinct Aut(S)-orbits, as named by ``pair_orbits``.  Both the vertex
    count and the candidate count must be at most ``cap``; that is checked
    before any orbit work.  S has at least two nonidentity classes, so a t
    past ``cap.bit_length()`` is over the cap without forming either count.
    """
    if t > cap.bit_length():
        raise GraphCapError(
            f"power graph for t={t} would have at least 2^{t} vertices, cap is {cap}")
    labels = inv.nonidentity_labels()
    n_vertices = len(labels) ** t
    n_candidates = len(psi2) ** t
    if n_vertices > cap or n_candidates > cap:
        raise GraphCapError(
            f"power graph for t={t} would have {n_vertices} vertices and {n_candidates} "
            f"candidate neighbour tuples, cap is {cap}"
        )
    orbit = pair_orbits(action, psi2)
    n_orbits = len(set(orbit.values()))
    if t > n_orbits:
        raise ValueError(
            f"t={t} exceeds beta={n_orbits}; S^t is not invariably 2-generated there"
        )
    # product() yields index tuples in lexicographic order, which is also the
    # order of the label tuples below, so w > v means w comes later: the
    # first coordinate of w runs from v[0] up, and w > v decides the ties
    index = {v: i for i, v in enumerate(product(range(len(labels)), repeat=t))}
    near: list[list[int]] = [[] for _ in index]
    for v, i in index.items():
        first = psi2.near[v[0]]
        for w in product(first[bisect_left(first, v[0]):], *(psi2.near[a] for a in v[1:])):
            if w > v and len({orbit[col] for col in zip(v, w)}) == t:
                j = index[w]
                near[i].append(j)
                near[j].append(i)
    return _graph(ctx.q, t, psi2.method, list(product(labels, repeat=t)), near, plus)


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
    """Primes and one power of 2 whose product is (1/2) * C(beta, beta/2);
    beta must be even (it always is) and at most ``BOUND_BETA_CAP``.

    By Legendre's formula a prime r divides C(beta, h), h = beta/2, exactly
    sum_k (floor(beta/r^k) - 2 floor(h/r^k)) times.  As beta = 2h, each term
    is floor(beta/r^k) mod 2, so r is listed once per odd floor(beta/r^k),
    and 2 has exponent popcount(h), less 1 for the half.
    """
    if beta_value < 2 or beta_value % 2 != 0:
        raise RuntimeError(
            f"beta must be even and >= 2, got {beta_value}; an odd orbit count "
            "signals an upstream bug"
        )
    check_bound_cap(beta_value)
    sieve = bytearray([1]) * (beta_value + 1)  # read at odd r only: is r prime
    for r in range(3, isqrt(beta_value) + 1, 2):
        if sieve[r]:
            sieve[r * r::2 * r] = bytes(len(range(r * r, beta_value + 1, 2 * r)))
    factors = [1 << (beta_value // 2).bit_count() - 1]
    for r in compress(range(3, beta_value + 1, 2), sieve[3::2]):
        power = r
        while power <= beta_value:
            if beta_value // power & 1:
                factors.append(r)
            power *= r
    return factors


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
    beta_lb = census.psi2_count // (census.inv.d * census.inv.ctx.f)
    use = beta_exact if beta_exact is not None else beta_lb
    use_even = max(2, use - use % 2)
    factors = _half_binomial_factors(use_even)
    # products of 8 factors are still small ints: an eighth as many decimals
    factors = [prod(factors[i:i + 8]) for i in range(0, len(factors), 8)]
    return {"q": census.inv.q, "psi2_count": census.psi2_count, "beta_lower": use_even,
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


def lambda_summary(census: ProfileCensus, cover: CoveringResult) -> LambdaSummary:
    """Exact plus-graph facts computed on the profile-bucket quotient.

    Same-profile labels are twins (identical neighborhoods, never mutually
    adjacent), so the quotient graph on the buckets with a neighbor
    determines everything reported here; twins sit at distance exactly 2,
    which lifts the diameter to 2 when a live bucket has two members.
    Only the isolated classes are named.
    """
    inv = census.inv
    nbrs = [0] * len(census.sizes)
    for i, j in census.disjoint:
        if i != j:
            nbrs[i] |= 1 << j
    comps, odd, diam = _analyse(nbrs)
    dead = {i for i, mask in enumerate(nbrs) if not mask}
    dead_sigs = [s for s, b in enumerate(census.sig_bucket) if b in dead]
    if all(s < len(inv.head) for s in dead_sigs):  # head class k has signature k
        isolated = [str(inv.head[s].label) for s in dead_sigs]
    else:  # a torus class is isolated (q = 7): name every class of the dead buckets
        members = census.members()
        isolated = [str(inv.entries[i + 1].label) for b in dead for i in members[b]]
    if any(size >= 2 and mask for size, mask in zip(census.sizes, nbrs)):
        diam = max(diam, 2)
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
    ends: dict[int, tuple[list[int], list[str]]] = {}
    for i, mask in enumerate(g.nbrs):
        near = ends.get(mask)
        if near is None:
            js = _bits(mask)
            near = ends[mask] = (js, [names[j] for j in js])
        later = near[1][bisect_right(near[0], i):]
        if later:
            head = f'  "{names[i]}" -- "'
            yield head + ('";\n' + head).join(later) + '";\n'
    yield "}\n"


def _json_edges(nbrs: list[int], names: list[str], order: list[int]) -> Iterator[str]:
    """The edges as [name, name] items, smaller name first, in name order:
    one chunk per vertex, in name order, holding its edges to the vertices
    with larger names.  Each twin class sorts its neighbour names once."""
    named: dict[int, list[str]] = {}
    for i in order:
        near = named.get(nbrs[i])
        if near is None:
            near = named[nbrs[i]] = sorted(map(names.__getitem__, _bits(nbrs[i])))
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
               "edges": _json_edges(g.nbrs, names, order),
               "components": sorted(sorted(map(names.__getitem__, _bits(c))) for c in comps)}
    if odd is not None:
        even = ((1 << len(names)) - 1) ^ odd
        members["parts"] = [sorted(map(names.__getitem__, _bits(m))) for m in (even, odd)]
    yield from json_document(members)
