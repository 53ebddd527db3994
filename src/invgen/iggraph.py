"""Graph layer: the invariably generating graphs of S and its powers.

For t = 1 the vertices are the nonidentity class labels and the edges are
the unordered Psi2 pairs.  For t > 1 the vertices are t-tuples of
nonidentity labels and adjacency follows the product criterion: every
coordinate column must lie in Psi2 and no two columns may share an
Aut(S)-orbit.  Tuples with an identity coordinate are provably isolated
(an identity column lies in no Psi2 pair), so the enumeration skips them;
the plus filter then drops everything else that is isolated.

The graph keeps label-keyed adjacency sets.  Components, bipartiteness
and diameter index the vertices once per call and walk BFS layers over
integer bitmasks, one mask per vertex; exact clique/chromatic numbers on
small graphs run on the adjacency sets.  The lower bounds on component
counts of the power graph are reported with exact big-integer binomials.

``lambda_summary`` answers the standard per-q questions without building
the label-level graph: labels with identical maximal profiles have
identical neighborhoods, so the quotient by profile buckets (a blow-up
relationship) determines component count, bipartiteness, diameter and
isolated vertices exactly; it runs the same analyses on that quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, ClassLabel
from invgen.structure import CoveringResult, ProfileCensus, Psi2Table

POWER_WORK_CAP = 10 ** 6  # power-graph vertices, and candidate neighbour tuples
EXACT_SOLVER_CAP = 64


class GraphCapError(Exception):
    """Requested graph exceeds a configured size cap."""


@dataclass
class IGGraph:
    q: int
    t: int
    method: str
    vertices: list
    adj: dict

    def __post_init__(self):
        for v, nbrs in self.adj.items():
            for w in nbrs:
                if v not in self.adj.get(w, ()):  # pragma: no cover - sanity
                    raise ValueError("adjacency is not symmetric")
            if v in nbrs:  # pragma: no cover - sanity
                raise ValueError("loops are not allowed")

    def edge_count(self) -> int:
        return sum(len(n) for n in self.adj.values()) // 2

    def vertex_name(self, v) -> str:
        if isinstance(v, tuple):
            return "(" + ",".join(lab.str_form() for lab in v) + ")"
        return v.str_form()


def lambda_graph(ctx: GFContext, psi2: Psi2Table, inv: ClassInventory,
                 plus: bool = False) -> IGGraph:
    """The graph on nonidentity classes of S; plus drops isolated vertices."""
    vertices = list(inv.nonidentity_labels())
    adj = {v: set() for v in vertices}
    for a, b in psi2.pairs:
        adj[a].add(b)
        adj[b].add(a)
    if plus:
        vertices = [v for v in vertices if adj[v]]
        adj = {v: adj[v] for v in vertices}
    return IGGraph(ctx.q, 1, psi2.method, vertices, adj)


def lambda_power(ctx: GFContext, t: int, psi2: Psi2Table, orbit_of: dict,
                 inv: ClassInventory, plus: bool = False,
                 cap: int = POWER_WORK_CAP) -> IGGraph:
    """The graph on classes of S^t via the product criterion.

    ``orbit_of`` maps each Psi2 pair to its Aut(S)-orbit, as in the
    partition that ``autorbits.beta`` returns.  The neighbours of a tuple v
    are drawn from the product of the Psi2 neighbour lists of its
    coordinates, so exactly |Psi2|^t candidate tuples are visited; a
    candidate is kept when its t columns lie in t distinct orbits.  Both
    the vertex count and that candidate count must be at most ``cap``.
    """
    n_orbits = len(set(orbit_of.values()))
    if t > n_orbits:
        raise ValueError(
            f"t={t} exceeds beta={n_orbits}; S^t is not invariably 2-generated there"
        )
    labels = inv.nonidentity_labels()
    n_vertices = len(labels) ** t
    n_candidates = len(psi2.pairs) ** t
    if n_vertices > cap or n_candidates > cap:
        raise GraphCapError(
            f"power graph would have {n_vertices} vertices and {n_candidates} "
            f"candidate neighbour tuples, cap is {cap}"
        )
    pos = {lab: i for i, lab in enumerate(labels)}
    nbrs: list[list[int]] = [[] for _ in labels]
    orbit: dict[tuple[int, int], int] = {}
    for a, b in psi2.pairs:
        i, j = pos[a], pos[b]
        nbrs[i].append(j)
        orbit[i, j] = orbit_of[a, b]
    # product() yields index tuples in lexicographic order, which is also the
    # order of the label tuples below, so w > v means w comes later
    index = {v: i for i, v in enumerate(product(range(len(labels)), repeat=t))}
    near: list[list[int]] = [[] for _ in index]
    for v, i in index.items():
        for w in product(*(nbrs[a] for a in v)):
            if w > v and len({orbit[col] for col in zip(v, w)}) == t:
                j = index[w]
                near[i].append(j)
                near[j].append(i)
    tuples = list(product(labels, repeat=t))
    keep = [i for i in range(len(tuples)) if near[i]] if plus else range(len(tuples))
    vertices = [tuples[i] for i in keep]
    adj = {tuples[i]: {tuples[j] for j in near[i]} for i in keep}
    return IGGraph(ctx.q, t, psi2.method, vertices, adj)


# ---------------------------------------------------------------------------
# graph analyses
# ---------------------------------------------------------------------------

def _masks(g: IGGraph) -> list[int]:
    """Adjacency as bitmasks: bit j of entry i is set when vertices i and j
    (positions in ``g.vertices``) are adjacent."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    masks = []
    for v in g.vertices:
        mask = 0
        for w in g.adj[v]:
            mask |= 1 << pos[w]
        masks.append(mask)
    return masks


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _layers(masks: list[int], source: int) -> list[int]:
    """BFS layers from ``source`` as bitmasks; layer k holds the vertices at
    distance k, so the layers partition the source's component."""
    frontier = seen = 1 << source
    layers = []
    while frontier:
        layers.append(frontier)
        reach = 0
        for i in _bits(frontier):
            reach |= masks[i]
        frontier = reach & ~seen
        seen |= frontier
    return layers


def components(g: IGGraph) -> list[list]:
    """Vertex lists of the components, each in vertex order, ordered by
    their first vertex."""
    masks = _masks(g)
    seen = 0
    out = []
    for i in range(len(g.vertices)):
        if seen >> i & 1:
            continue
        comp = 0
        for layer in _layers(masks, i):
            comp |= layer
        seen |= comp
        out.append([g.vertices[j] for j in _bits(comp)])
    return out


def is_bipartite(g: IGGraph) -> tuple[bool, tuple[list, list]]:
    """Bipartite verdict and parts; each component's part 0 holds the even
    BFS layers from its first vertex.  A graph is bipartite exactly when
    no edge joins two vertices of one layer."""
    masks = _masks(g)
    seen = odd = 0
    for i in range(len(g.vertices)):
        if seen >> i & 1:
            continue
        for depth, layer in enumerate(_layers(masks, i)):
            if any(masks[j] & layer for j in _bits(layer)):
                return False, ([], [])
            seen |= layer
            if depth % 2:
                odd |= layer
    part0 = [v for i, v in enumerate(g.vertices) if not odd >> i & 1]
    part1 = [v for i, v in enumerate(g.vertices) if odd >> i & 1]
    return True, (part0, part1)


def diameter(g: IGGraph) -> int:
    """Largest eccentricity within a component, over all vertices (0 when
    there are no edges)."""
    masks = _masks(g)
    return max((len(_layers(masks, i)) - 1 for i in range(len(masks))), default=0)


def clique_number(g: IGGraph) -> int:
    if not g.vertices:
        return 0
    if g.edge_count() == 0:
        return 1
    ok, _ = is_bipartite(g)
    if ok:
        return 2
    if len(g.vertices) > EXACT_SOLVER_CAP:
        raise GraphCapError(
            f"exact clique needs <= {EXACT_SOLVER_CAP} vertices off the bipartite path"
        )
    best = 1

    def extend(clique: list, candidates: set):
        nonlocal best
        if len(clique) + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, len(clique))
            return
        for v in list(candidates):
            candidates.discard(v)
            extend(clique + [v], {w for w in candidates if w in g.adj[v]})

    extend([], set(g.vertices))
    return best


def chromatic_number(g: IGGraph) -> int:
    if not g.vertices:
        return 0
    if g.edge_count() == 0:
        return 1
    ok, _ = is_bipartite(g)
    if ok:
        return 2
    if len(g.vertices) > EXACT_SOLVER_CAP:
        raise GraphCapError(
            f"exact coloring needs <= {EXACT_SOLVER_CAP} vertices off the bipartite path"
        )
    lo = clique_number(g)
    order = sorted(g.vertices, key=lambda v: -len(g.adj[v]))

    def colorable(k: int) -> bool:
        assign: dict = {}

        def place(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            used = {assign[w] for w in g.adj[v] if w in assign}
            for c in range(k):
                if c not in used:
                    assign[v] = c
                    if place(i + 1):
                        return True
                    del assign[v]
                if c not in assign.values():
                    break  # first untouched color; later ones are symmetric
            return False

        return place(0)

    k = lo
    while not colorable(k):
        k += 1
    return k


def gamma_upper(ctx: GFContext, cover: CoveringResult) -> tuple[int, tuple[str, str]]:
    """Normal covering number of PSL(2,q): exactly 2, with the witness pair."""
    if not cover.ok:
        raise RuntimeError(
            f"2-covering check failed for q={ctx.q}; structural model is broken"
        )
    return 2, ("borel", "dih_nonsplit")


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

def int_log2(n: int) -> float:
    """log2 of a positive big int without float overflow."""
    if n <= 0:
        raise ValueError("log2 of a non-positive integer")
    bits = n.bit_length()
    if bits <= 53:
        from math import log2
        return log2(n)
    from math import log2
    shift = bits - 53
    return shift + log2(n >> shift)


@dataclass
class BoundReport:
    q: int
    psi2_count: int
    beta_lower: int
    beta_exact: int | None
    bound: int  # exact (1/2) * C(beta, beta/2) at the reported beta
    log2_bound: float

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "psi2_count": self.psi2_count,
            "beta_lower": self.beta_lower,
            "beta_exact": self.beta_exact,
            "component_bound": _big_int_str(self.bound),
            "log2_bound": self.log2_bound,
        }


def _big_int_str(n: int) -> str:
    """Exact decimal form of any size, leaving the interpreter's int-to-str
    digit limit alone (``decimal`` does not apply it)."""
    import decimal
    return str(decimal.Decimal(n))


def component_bound(beta_value: int) -> int:
    """Exact (1/2) * C(beta, beta/2); beta must be even (it always is)."""
    if beta_value < 2 or beta_value % 2 != 0:
        raise ValueError(
            f"beta must be even and >= 2, got {beta_value}; an odd orbit count "
            "signals an upstream bug"
        )
    return comb(beta_value, beta_value // 2) // 2


def n_lower_bound_report(ctx: GFContext, inv: ClassInventory, census: ProfileCensus,
                         beta_exact: int | None = None) -> BoundReport:
    """Certified lower bound on the component count of the plus graph of S^beta.

    Uses beta >= |Psi2|/(d*f) rounded down to an even integer when the exact
    orbit count is not supplied; the half-binomial is monotone in even beta,
    so the report stays a true lower bound.
    """
    count = census.psi2_count()
    beta_lb = count // (inv.d * ctx.f)
    use = beta_exact if beta_exact is not None else beta_lb
    use_even = use if use % 2 == 0 else use - 1
    if use_even < 2:
        use_even = 2
    bound = component_bound(use_even)
    return BoundReport(ctx.q, count, use_even, beta_exact, bound, int_log2(bound))


# ---------------------------------------------------------------------------
# fast per-q summary over profile buckets
# ---------------------------------------------------------------------------

@dataclass
class LambdaSummary:
    q: int
    class_count: int  # labels including identity
    psi2_count: int
    vertices_plus: int
    edge_count: int
    component_count: int
    bipartite: bool
    parts_match_covering: bool
    diameter: int
    isolated: list[str] = field(default_factory=list)


def lambda_summary(ctx: GFContext, inv: ClassInventory, census: ProfileCensus,
                   cover: CoveringResult) -> LambdaSummary:
    """Exact plus-graph facts computed on the profile-bucket quotient.

    Same-profile labels are twins (identical neighborhoods, never mutually
    adjacent), so the quotient graph on the buckets with a neighbor
    determines everything reported here; twins sit at distance exactly 2,
    which lifts the diameter to 2 when a live bucket has two members.
    """
    sizes = [len(m) for m in census.members]
    qadj: dict[int, set[int]] = {i: set() for i in range(len(sizes))}
    for i, j in census.disjoint_pairs():
        if i != j:
            qadj[i].add(j)
    live = [i for i in qadj if qadj[i]]
    quotient = IGGraph(ctx.q, 1, "structural", live, {i: qadj[i] for i in live})
    isolated = sorted(
        lab.str_form() for i in qadj if not qadj[i] for lab in census.members[i]
    )
    bipartite, _ = is_bipartite(quotient)
    diam = diameter(quotient)
    if any(sizes[i] >= 2 for i in live):
        diam = max(diam, 2)
    return LambdaSummary(
        q=ctx.q,
        class_count=len(inv),
        psi2_count=census.psi2_count(),
        vertices_plus=sum(sizes[i] for i in live),
        edge_count=sum(sizes[i] * sizes[j] for i in live for j in qadj[i] if i < j),
        component_count=len(components(quotient)),
        bipartite=bipartite,
        parts_match_covering=bipartite and _parts_match_covering(cover, census, quotient),
        diameter=diam,
        isolated=isolated,
    )


def _parts_match_covering(cover: CoveringResult, census: ProfileCensus,
                          quotient: IGGraph) -> bool:
    """Every quotient edge must join the Borel-only side to the dihedral-only side."""
    side: dict[ClassLabel, int] = {}
    for lab in cover.only_borel:
        side[lab] = 0
    for lab in cover.only_dihedral:
        side[lab] = 1
    bucket_side = []
    for members in census.members:
        tags = {side.get(lab) for lab in members}
        if len(tags) != 1:
            return False
        bucket_side.append(tags.pop())
    for i in quotient.vertices:
        if bucket_side[i] is None:  # covered by both sides yet not isolated
            return False
        for j in quotient.adj[i]:
            if bucket_side[j] == bucket_side[i]:
                return False
    return True


def expected_isolated(ctx: GFContext, inv: ClassInventory) -> set[str]:
    """Isolated vertices of the graph of S by the published case analysis,
    as label strings; ``lambda_summary(...).isolated`` must equal them."""
    q, p = ctx.q, ctx.p
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

def part_pattern(vertex: tuple, part1: set[ClassLabel]) -> frozenset[int]:
    """Coordinates of a power-graph vertex whose label lies in part 1."""
    return frozenset(i for i, lab in enumerate(vertex) if lab in part1)


def to_dot(g: IGGraph, parts: tuple[list, list] | None = None) -> str:
    """DOT text; each edge is written once, from its earlier end in vertex
    order, with the later ends in vertex order too (not set order, which
    depends on the hash seed)."""
    names = {v: g.vertex_name(v) for v in g.vertices}
    position = {v: i for i, v in enumerate(g.vertices)}
    lines = ["graph lambda {"]
    part1 = set(parts[0]) if parts else set()
    for v in g.vertices:
        attrs = f' [part="{1 if v in part1 else 2}"]' if parts else ""
        lines.append(f'  "{names[v]}"{attrs};')
    for v in g.vertices:
        for w in sorted(g.adj[v], key=position.__getitem__):
            if position[v] < position[w]:
                lines.append(f'  "{names[v]}" -- "{names[w]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: IGGraph, parts: tuple[list, list] | None = None) -> dict:
    names = {v: g.vertex_name(v) for v in g.vertices}
    comps = components(g)
    out = {
        "q": g.q,
        "t": g.t,
        "method": g.method,
        "vertices": sorted(names.values()),
        "edges": sorted(
            sorted((names[v], names[w]))
            for v in g.vertices for w in g.adj[v] if names[v] < names[w]
        ),
        "components": sorted(sorted(names[v] for v in comp) for comp in comps),
    }
    if parts is not None:
        out["parts"] = [sorted(names[v] for v in parts[0]),
                        sorted(names[v] for v in parts[1])]
    return out
