"""Graph layer: the invariably generating graphs of S and its powers.

For t = 1 the vertices are the nonidentity class labels and the edges are
the unordered Psi2 pairs.  For t > 1 the vertices are t-tuples of
nonidentity labels and adjacency follows the product criterion: every
coordinate column must lie in Psi2 and no two columns may share an
Aut(S)-orbit.  Tuples with an identity coordinate are provably isolated
(an identity column lies in no Psi2 pair), so the enumeration skips them;
the plus filter then drops everything else that is isolated.

Analyses (components, bipartiteness, diameter, exact clique/chromatic
numbers on small graphs) run on immutable adjacency sets.  The lower
bounds on component counts of the power graph are reported with exact
big-integer binomials.

``lambda_summary`` answers the standard per-q questions without building
the label-level graph: labels with identical maximal profiles have
identical neighborhoods, so the quotient by profile buckets (a blow-up
relationship) determines component count, bipartiteness, diameter and
isolated vertices exactly; it runs the same analyses on that quotient.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import comb

from invgen.gf import GFContext
from invgen.psl2 import ClassInventory, ClassLabel
from invgen.structure import CoveringResult, ProfileCensus, Psi2Table

POWER_VERTEX_CAP = 10 ** 6
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
                 cap: int = POWER_VERTEX_CAP) -> IGGraph:
    """The graph on classes of S^t via the product criterion.

    ``orbit_of`` maps each Psi2 pair to its Aut(S)-orbit, as in the
    partition that ``autorbits.beta`` returns.
    """
    from itertools import product

    n_orbits = len(set(orbit_of.values()))
    if t > n_orbits:
        raise ValueError(
            f"t={t} exceeds beta={n_orbits}; S^t is not invariably 2-generated there"
        )
    labels = inv.nonidentity_labels()
    n_vertices = len(labels) ** t
    if n_vertices > cap:
        raise GraphCapError(
            f"power graph would have {n_vertices} vertices, cap is {cap}"
        )
    vertices = list(product(labels, repeat=t))
    pair_set = psi2.pairs
    adj = {v: set() for v in vertices}
    for i, v in enumerate(vertices):
        for w in vertices[i + 1:]:
            cols = tuple(zip(v, w))
            if any(col not in pair_set for col in cols):
                continue
            orbits = [orbit_of[col] for col in cols]
            if len(set(orbits)) == t:
                adj[v].add(w)
                adj[w].add(v)
    if plus:
        vertices = [v for v in vertices if adj[v]]
        adj = {v: adj[v] for v in vertices}
    return IGGraph(ctx.q, t, psi2.method, vertices, adj)


# ---------------------------------------------------------------------------
# graph analyses
# ---------------------------------------------------------------------------

def components(g: IGGraph) -> list[list]:
    seen = set()
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        out.append(comp)
    return out


def is_bipartite(g: IGGraph) -> tuple[bool, tuple[list, list]]:
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return False, ([], [])
    part0 = [v for v in g.vertices if color[v] == 0]
    part1 = [v for v in g.vertices if color[v] == 1]
    return True, (part0, part1)


def _bfs_ecc(g: IGGraph, start) -> int:
    dist = {start: 0}
    queue = deque([start])
    ecc = 0
    while queue:
        v = queue.popleft()
        for w in g.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                ecc = max(ecc, dist[w])
                queue.append(w)
    return ecc


def diameter(g: IGGraph) -> int:
    """Max eccentricity per component, reported over components with >= 2 vertices."""
    best = 0
    for comp in components(g):
        if len(comp) < 2:
            continue
        best = max(best, max(_bfs_ecc(g, v) for v in comp))
    return best


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
