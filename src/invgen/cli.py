"""Command-line front end.

Subcommands: classes, psi2, graph, beta, verify.  Every number printed is
produced by a library call; the CLI only formats.  Output ordering is
deterministic (labels sorted by their stable string form) so emitted files
are byte-stable across runs.  Each subcommand imports only the layers it
runs, so a command does not pay to load the rest of the package.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
cap exceeded, 4 internal error (an invariant of the computation failed, or
any other ``Exception`` escaped a layer).  A ``ValueError`` is a usage
error only where the CLI hands user input to a layer and turns it into a
``UsageError`` there; from anywhere else it is internal.
Field sizes are checked against ``Q_CAP`` and the ``--out`` file is opened
before any computation, so either refusal (exit 2) comes without work; the
file is emptied only as output is written, so a refused or failed command
leaves an existing one as it was (and may leave a new path empty).
Before any field is built, ``psi2 --method oracle|both`` refuses (exit 3) a
q whose group the oracle would not enumerate (``oracle.check_cap``), and
``verify`` a range whose prime powers sum past ``VERIFY_Q_SUM_CAP``.
``REFUSALS`` in ``tests/test_cli.py`` lists every refusal and its message.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import chain, compress
from math import isqrt
from typing import TextIO

from invgen.gf import Q_CAP, CapError, GFContext, checked_field

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

ORACLE_VERIFY_DEFAULT = 13  # oracle cross-check in `verify` runs for q up to this
ORACLE_VERIFY_EXTENDED = (16, 25, 27, 31)
# `verify` refuses a range whose prime powers sum past this (exit 3).  A
# field's tables and classes grow with q, so the sum bounds the run:
# 4..1024 sums to 87,755 and verifies in about 0.21 s end to end (the
# ``sweep`` benchmark's wall_s).  In-process, through ``verify_qs``, q = 2^18
# alone takes about 0.16 s and 61 MB, and q = 2^20 alone about 0.7 s and
# 200 MB (2-core Xeon VM).
VERIFY_Q_SUM_CAP = 1 << 18


class UsageError(Exception):
    pass


def _field(args) -> tuple[int, int]:
    """(p, f) of the field --q or --p/--f names, checked, not built."""
    if args.q is not None:
        if args.p is not None or args.f is not None:
            raise UsageError("give either --q or --p/--f, not both")
    elif args.p is None:
        raise UsageError("one of --q or --p is required")
    try:  # not a prime power, p not prime, f < 1, or q above Q_CAP
        q, p, f = checked_field(args.q, args.p, args.f if args.f is not None else 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if q < 4:
        raise UsageError(f"q must be at least 4, got {q}")
    return p, f


def _open_out(path: str | None) -> contextlib.AbstractContextManager:
    """The ``--out`` file opened to write, not yet emptied, or a stand-in for stdout."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "a")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(chunks: Iterable[str], out: TextIO | None) -> None:
    if out is not None and out.seekable() and out.tell():  # a file with old content
        out.truncate(0)
    (out or sys.stdout).writelines(chunks)


def _parse_range(spec: str) -> dict[int, tuple[int, int]]:
    """{q: (p, f)} for every prime power q = p^f in the range, ascending."""
    try:
        lo_s, hi_s = spec.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise UsageError(f"bad range {spec!r}; expected like 4..13") from exc
    if lo < 4 or hi < lo:
        raise UsageError(f"range must satisfy 4 <= lo <= hi, got {spec!r}")
    if hi > Q_CAP:
        raise UsageError(f"range end {hi} exceeds the supported cap {Q_CAP}")
    fields = _prime_powers(lo, hi)
    if sum(fields) > VERIFY_Q_SUM_CAP:
        raise CapError(
            f"the prime powers of range {spec} sum past the verify cap {VERIFY_Q_SUM_CAP}")
    return fields


def _prime_powers(lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """{q: (p, f)} for every prime power q = p^f in [lo, hi], ascending, by
    a sieve with no trial division: each prime p up to sqrt(hi), itself
    sieved from [2, sqrt(hi)], strikes its multiples from p^2 on out of
    [lo, hi] and lists its own powers there; what [lo, hi] keeps is its
    primes."""
    root = isqrt(hi)
    small = bytearray([1]) * (root + 1)
    kept = bytearray([1]) * (hi - lo + 1)  # kept[n - lo]
    found = {}
    for p in range(2, root + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
            start = max(p * p, -(-lo // p) * p)
            kept[start - lo::p] = bytes(len(range(start, hi + 1, p)))
            q, f = p, 1
            while q <= hi:
                if q >= lo:
                    found[q] = p, f
                q, f = q * p, f + 1
    found.update((n, (n, 1)) for n in compress(range(lo, hi + 1), kept))
    return dict(sorted(found.items()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classes(args) -> int:
    from invgen.psl2 import inventory

    ctx = GFContext(*_field(args))
    inv = inventory(ctx)
    rows = inv.to_json()
    if args.format == "json":
        import json

        _emit([json.dumps({"q": ctx.q, "classes": rows}, indent=2) + "\n"], args.out)
    elif args.format == "csv":
        lines = ["label,order,size"]
        lines += [f"{r['label']},{r['order']},{r['size']}" for r in rows]
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        width = max(len(r["label"]) for r in rows)
        lines = [f"{'label':<{width}}  order  size"]
        lines += [f"{r['label']:<{width}}  {r['order']:>5}  {r['size']}" for r in rows]
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def cmd_psi2(args) -> int:
    from invgen.psl2 import inventory
    from invgen.structure import EDGE_CAP, profile_census, psi2_structural

    p, f = _field(args)
    q = p ** f
    if args.method != "structural":
        from invgen.oracle import OracleSession, check_cap

        check_cap(q)
    census = profile_census(q)  # from q's arithmetic: the table's size before any field
    if census.psi2_count // 2 > EDGE_CAP:
        raise CapError(f"Psi2 has {census.psi2_count // 2} unordered pairs, above {EDGE_CAP}, "
                       "the most it writes")
    inv = inventory(GFContext(p, f))
    tables = {}
    if args.method in ("structural", "both"):
        tables["structural"] = psi2_structural(census, inv)
    if args.method in ("oracle", "both"):
        tables["oracle"] = OracleSession(inv).psi2()
    table = tables["structural" if args.method == "structural" else "oracle"]
    k = len(inv)
    prob = len(table) / (k * k)
    match = None
    if args.method == "both":
        match = tables["structural"].near == tables["oracle"].near
    if args.format == "json":
        extra = {"probability": prob}
        if match is not None:
            extra["match"] = match
        _emit(table.json_chunks(extra), args.out)
    elif args.format == "csv":
        _emit(chain(["label1,label2\n"], table.text_blocks(",")), args.out)
    else:
        tail = [f"count={len(table)} probability={prob:.6f}\n"]
        if match is not None:
            tail.append(f"match={match}\n")
        _emit(chain(table.text_blocks("  "), tail), args.out)
    if match is False:
        print(f"psi2 mismatch between methods at q={q}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_graph(args) -> int:
    from invgen.iggraph import (
        GraphCapError, components, diameter, graph_to_json, is_bipartite, lambda_graph,
        lambda_power, to_dot,
    )
    from invgen.psl2 import inventory
    from invgen.structure import EDGE_CAP, profile_census, psi2_structural

    p, f = _field(args)
    census = profile_census(p ** f)

    def refuse(edges: int) -> None:
        if edges > EDGE_CAP:
            raise GraphCapError(f"graph has {edges} edges, above {EDGE_CAP}, the most it writes")

    if args.power == 1:  # the Psi2 pairs, with or without plus: known before any field
        refuse(census.psi2_count // 2)
    ctx = GFContext(p, f)
    inv = inventory(ctx)
    psi2 = psi2_structural(census, inv)
    if args.power == 1:
        g = lambda_graph(psi2, plus=args.plus)
    else:
        from invgen.autorbits import aut_action

        try:  # t above beta
            g = lambda_power(ctx, args.power, psi2, aut_action(inv), plus=args.plus)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    edges = g.edge_count()
    refuse(edges)
    if args.format == "dot":
        _emit(to_dot(g), args.out)
    else:
        _emit(graph_to_json(g), args.out)
    summary = (
        f"q={ctx.q} t={args.power} vertices={len(g.vertices)} edges={edges} "
        f"components={len(components(g))} bipartite={is_bipartite(g)[0]} "
        f"diameter={diameter(g)}"
    )
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def cmd_beta(args) -> int:
    from invgen.autorbits import aut_action, beta, beta_fast
    from invgen.iggraph import check_bound_cap, n_lower_bound_report
    from invgen.psl2 import inventory
    from invgen.structure import (
        json_document, json_pair_list, profile_census, psi2_structural,
    )

    p, f = _field(args)
    census = profile_census(p ** f)  # from q's arithmetic: no field is built
    b = beta_fast(census)
    check_bound_cap(b)  # the floor bound is at most b: refuse before either is built
    count, df = census.psi2_count, census.out_order
    floor_report = n_lower_bound_report(census)
    if b == floor_report["beta_lower"]:  # the same bound: build it once
        exact_report = dict(floor_report, beta_exact=b)
    else:
        exact_report = n_lower_bound_report(census, beta_exact=b)
    payload = {
        "q": census.q,
        "psi2_count": count,
        "out_order": df,
        "beta": b,
        "beta_even": b % 2 == 0,
        # implied by the closed form, as verify's beta_bounds is: it cannot fail
        "bounds_ok": count / df <= b <= count,
        "n_lower_bound": floor_report,
        "component_bound_at_beta": exact_report,
    }
    if args.orbits:  # names the pairs: the one path of beta that builds the field
        inv = inventory(GFContext(p, f))
        part = beta(aut_action(inv), psi2_structural(census, inv))
        if part.beta != b:
            raise RuntimeError(
                f"orbit partition has {part.beta} orbits but Burnside counts {b}"
            )
        payload["orbits"] = map(json_pair_list, part.orbits)  # streamed, never one string
    if args.format == "json":
        _emit(json_document(payload), args.out)
    else:
        lines = [f"q={census.q} |Psi2|={count} |Out|={df} beta={b}",
                 f"even={payload['beta_even']} bounds_ok={payload['bounds_ok']}",
                 f"certified floor bound: {floor_report['component_bound']} "
                 f"(log2 {floor_report['log2_bound']:.3f})",
                 f"component bound at beta: {exact_report['component_bound']} "
                 f"(log2 {exact_report['log2_bound']:.3f})"]
        _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_qs(runs: Iterable[tuple[GFContext, bool]]) -> Iterator[tuple[dict, dict]]:
    """Run every per-q check for each (context, run the oracle) pair in
    turn; yields ({check_name: bool}, {check_name: detail}) for each, a
    detail for each failed check that says what disagreed.  The layers are
    imported once."""
    from invgen.autorbits import beta_fast
    from invgen.iggraph import expected_isolated, lambda_summary
    from invgen.oracle import OracleSession
    from invgen.psl2 import inventory
    from invgen.structure import profile_census, psi2_structural, verify_2covering

    for ctx, oracle in runs:
        q, inv, census = ctx.q, inventory(ctx), profile_census(ctx.q)
        # the torus classes per order, counted by the fold, against the
        # census's counts from arithmetic; the checks below name the fold's
        # classes, so a q whose counts differ runs no other check
        wrong = _torus_count_errors(inv, census)
        if wrong:
            yield {"class_count": False}, {"class_count": wrong}
            continue
        cover = verify_2covering(census)
        s, b = lambda_summary(census, cover, inv), beta_fast(census)
        isolated = sorted(expected_isolated(inv))
        checks = {
            "class_count": True,
            "two_covering": cover.ok,
            "bipartite": s.bipartite and s.parts_match_covering,
            "connected": s.component_count == 1,
            "diameter": s.diameter <= 3,
            "isolated_census": s.isolated == isolated,  # both sorted
            "beta_even": b % 2 == 0,
            # implied by the closed form beta = (|Psi2| + fix(diag))/(d*f) of
            # ``autorbits``: 0 <= fix(diag) <= |Psi2| and d*f >= 2, so it cannot fail
            "beta_bounds": census.psi2_count / census.out_order <= b <= census.psi2_count,
        }
        if q >= 64:
            checks["probability"] = abs(census.psi2_count / len(inv) ** 2 - 0.5) <= 10 / q
            checks["psi2_asymptotic"] = 0.8 <= census.psi2_count * 2 * inv.d ** 2 / (q * q) <= 1.2
        details = {}
        if s.isolated != isolated:
            details["isolated_census"] = {"expected": isolated, "got": s.isolated}
        if oracle:  # both hold ascending tuples over inv.nonidentity_labels()
            tables = OracleSession(inv).psi2(), psi2_structural(census, inv)
            checks["oracle_equals_structural"] = tables[0].near == tables[1].near
            if not checks["oracle_equals_structural"]:
                by_oracle, by_rules = map(_pair_names, tables)
                details["oracle_equals_structural"] = {
                    "oracle_only": sorted(by_oracle - by_rules),
                    "structural_only": sorted(by_rules - by_oracle)}
        yield checks, details


def _torus_count_errors(inv, census) -> list[dict]:
    """Each torus (kind, order) whose class count in the inventory's fold
    differs from the census's, with both counts; empty when all agree."""
    folded = {(kind, j): n for kind, _, orders, _ in inv.tori for j, n in Counter(orders).items()}
    expected = {(kind, j): n for (kind, _, j), n in census.signatures.items()
                if kind in ("split", "nonsplit")}
    return [{"kind": kind, "order": j, "expected": expected.get((kind, j), 0),
             "got": folded.get((kind, j), 0)}
            for kind, j in sorted(expected.keys() | folded.keys())
            if expected.get((kind, j)) != folded.get((kind, j))]


def _pair_names(table) -> set[tuple[str, str]]:
    """The Psi2 pairs of a table as (name, name) tuples."""
    names = [lab.str_form() for lab in table.labels]
    return {(names[i], names[j]) for i, js in enumerate(table.near) for j in js}


def cmd_verify(args) -> int:
    import json

    fields = _parse_range(args.q_range)
    if not fields:
        raise UsageError(f"no prime powers in range {args.q_range}")
    runs = ((GFContext(p, f), q <= ORACLE_VERIFY_DEFAULT or (
        args.extended and q in ORACLE_VERIFY_EXTENDED)) for q, (p, f) in fields.items())
    results = dict(zip(fields, verify_qs(runs)))
    failures = [f"q={q}:{name}" for q, (checks, _) in results.items()
                for name, ok in checks.items() if not ok]
    payload = {
        "range": args.q_range,
        "extended": args.extended,
        "pass": not failures,
        "failures": failures,
    }
    if failures:  # what disagreed, keyed like the failures
        payload["details"] = {f"q={q}:{name}": detail for q, (_, details) in results.items()
                              for name, detail in details.items()}
    payload["checks"] = {str(q): checks for q, (checks, _) in results.items()}
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    if failures:
        print("FAILED: " + ", ".join(failures), file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _exponent(text: str) -> int:
    """A direct-power exponent t >= 1, as ``--power`` takes it."""
    try:
        t = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if t < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {t}")
    return t


def _add_q_args(sub) -> None:
    sub.add_argument("--q", type=int, default=None, help="field size, a prime power >= 4")
    sub.add_argument("--p", type=int, default=None, help="characteristic (with --f)")
    sub.add_argument("--f", type=int, default=None, help="extension degree (with --p)")
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgen",
        description="Invariably generating graphs of PSL(2,q) and its powers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classes", help="conjugacy class inventory")
    _add_q_args(sc)
    sc.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sc.set_defaults(func=cmd_classes)

    sp = subs.add_parser("psi2", help="invariably generating class pairs")
    _add_q_args(sp)
    sp.add_argument("--method", choices=("structural", "oracle", "both"),
                    default="structural")
    sp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    sp.set_defaults(func=cmd_psi2)

    sg = subs.add_parser("graph", help="generating graph of S or S^t")
    _add_q_args(sg)
    sg.add_argument("--power", type=_exponent, default=1, help="direct-power exponent t")
    sg.add_argument("--plus", action="store_true", help="drop isolated vertices")
    sg.add_argument("--format", choices=("dot", "json"), default="json")
    sg.set_defaults(func=cmd_graph)

    sb = subs.add_parser("beta", help="Aut-orbit count on Psi2 and bound report")
    _add_q_args(sb)
    sb.add_argument("--orbits", action="store_true", help="include the orbit partition")
    sb.add_argument("--format", choices=("table", "json"), default="table")
    sb.set_defaults(func=cmd_beta)

    sv = subs.add_parser("verify", help="run the verification suite over a q range")
    sv.add_argument("--q-range", required=True, help="inclusive range, e.g. 4..13")
    sv.add_argument("--extended", action="store_true",
                    help="also run the extended oracle set {16,25,27,31}")
    sv.add_argument("--out", default=None)
    sv.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with _open_out(args.out) as args.out:
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a failed invariant, or any other error from a layer
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
