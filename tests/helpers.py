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
