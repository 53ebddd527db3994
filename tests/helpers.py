"""Reference helpers that only the tests need."""

from invgen.psl2 import identity_mat, psl2_mul


def psl2_order(ctx, x) -> int:
    """Least n >= 1 with x^n = 1, by repeated multiplication; an order
    reference independent of the class inventory."""
    ident = identity_mat(ctx)
    acc = x
    n = 1
    bound = max(ctx.p, ctx.q + 1)
    while acc != ident:
        acc = psl2_mul(ctx, acc, x)
        n += 1
        if n > bound:
            raise RuntimeError("order iteration exceeded the group exponent bound")
    return n


def isolated(table) -> set:
    """Labels with no Psi2 neighbour: the isolated vertices of the graph of S."""
    return {lab for lab, js in zip(table.labels, table.near) if not js}


def pairs(table) -> set:
    """The Psi2 pairs of a table as a set of label pairs."""
    labels = table.labels
    return {(labels[i], labels[j]) for i, js in enumerate(table.near) for j in js}


def ref_orbits(action, table) -> dict:
    """Each Psi2 label pair mapped to a representative of its Aut(S)-orbit,
    by union-find: every pair is merged with its image under each generator
    of ``action``.  An orbit reference independent of ``autorbits``'
    least-image naming."""
    parent = {pair: pair for pair in pairs(table)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for gen in action.generators():
        for a, b in parent:
            parent[find((a, b))] = find((gen[a], gen[b]))
    return {pair: find(pair) for pair in parent}
