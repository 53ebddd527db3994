import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import invgen
from invgen import autorbits, cli, gf, iggraph, oracle, psl2, structure
from invgen.autorbits import AutAction
from invgen.cli import main
from invgen.structure import SubgroupClass
from helpers import canon, drop_class

# exit-code contract: 0 ok, 1 verification failure, 2 usage, 3 cap, 4 internal

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid(monkeypatch, *targets):
    """Make each (owner, name) callable raise: a command must not run it."""
    for owner, name in targets:
        def refused(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran")
        monkeypatch.setattr(owner, name, refused)


FIELDS = ((gf.GFContext, "__init__"), (psl2, "inventory"))  # a field or a class inventory
# the --out file of a refused or failed command, written before it runs
SENTINEL = "an earlier run's output\n"


# ---------------------------------------------------------------------------
# classes
# ---------------------------------------------------------------------------

def test_classes_q7_table(capsys):
    code, out, _ = run(capsys, "classes", "--q", "7")
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("label")]
    assert len(rows) == 6


def test_classes_q4_rows(capsys):
    code, out, _ = run(capsys, "classes", "--q", "4", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 5


def test_classes_csv(capsys):
    code, out, _ = run(capsys, "classes", "--q", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label,order,size"


def test_p_f_spelling(capsys):
    code, out, _ = run(capsys, "classes", "--p", "3", "--f", "2", "--format", "json")
    assert code == 0 and json.loads(out)["q"] == 9


# REFUSALS holds `classes --q 6` and `classes --q 3`; these two check that
# every command taking a field refuses the same q, in either spelling
FIELD_COMMANDS = ("classes", "psi2", "graph", "beta")


def test_classes_rejects_non_prime_power(capsys):
    for command in FIELD_COMMANDS:
        for q in (0, 1, 6, 12, 100):
            assert run(capsys, command, "--q", str(q)) == (
                2, "", f"error: {q} is not a prime power\n")


def test_q_below_4(capsys):
    for command in FIELD_COMMANDS:
        for argv, q in (("--q 3", 3), ("--q 2", 2), ("--p 3 --f 1", 3), ("--p 2 --f 1", 2)):
            assert run(capsys, command, *argv.split()) == (
                2, "", f"error: q must be at least 4, got {q}\n")


# ---------------------------------------------------------------------------
# psi2
# ---------------------------------------------------------------------------

def test_psi2_both_q5(capsys):
    code, out, _ = run(capsys, "psi2", "--q", "5", "--method", "both")
    assert code == 0
    assert "count=4" in out and "match=True" in out


@pytest.mark.parametrize("method,code", [("both", 1), ("oracle", 0)])
def test_psi2_prints_an_empty_oracle_table(method, code, capsys, monkeypatch):
    # an empty table has length 0: the oracle's is still the one printed
    from invgen.oracle import OracleSession
    from invgen.structure import Psi2Table

    def no_pairs(sess):
        labels = sess.inv.nonidentity_labels()
        return Psi2Table(sess.ctx.q, "oracle", labels, [()] * len(labels))

    monkeypatch.setattr(OracleSession, "psi2", no_pairs)
    got, out, err = run(capsys, "psi2", "--q", "5", "--method", method, "--format", "json")
    payload = json.loads(out)
    assert got == code
    assert (payload["method"], payload["count"], payload["pairs"]) == ("oracle", 0, [])
    assert payload.get("match") is (False if method == "both" else None)
    assert ("mismatch" in err) == (method == "both")


def test_psi2_structural_q7(capsys):
    code, out, _ = run(capsys, "psi2", "--q", "7", "--method", "structural",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert payload["pairs"] == sorted(payload["pairs"])
    assert 0 < payload["probability"] < 1


def test_psi2_oracle_cap(capsys):
    # the element cap admits q = 97 (456,288 elements) and refuses the next
    # prime power, 101 (515,100), in the session as in the CLI (REFUSALS)
    assert run(capsys, "psi2", "--q", "97", "--method", "oracle")[0] == 0
    with pytest.raises(invgen.OracleCapError) as refused:
        invgen.OracleSession(psl2.inventory(gf.gf_for_q(101)))
    assert str(refused.value) == ("q=101: the oracle would enumerate 515,100 elements, "
                                  "above its cap of 500,000")


def test_psi2_csv(capsys):
    code, out, _ = run(capsys, "psi2", "--q", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label1,label2"
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_psi2_out_file_matches_stdout(tmp_path, capsys, fmt):
    argv = ["psi2", "--q", "64", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / f"psi2.{fmt}"
    for old in ("", out + "a longer file's tail\n"):  # a new path, then a longer file
        if old:
            target.write_text(old)
        code, to_stdout, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and to_stdout == ""
        assert target.read_bytes() == out.encode()


def test_out_to_stdout_through_a_pipe(capsys):
    # /dev/stdout is the pipe here, which is written but cannot be emptied
    argv = ["psi2", "--q", "5", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "invgen.cli", *argv, "--out", "/dev/stdout"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run(capsys, *argv)[1], "")


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_q7_dot(capsys):
    code, out, err = run(capsys, "graph", "--q", "7", "--plus", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 4
    assert "vertices=4" in err


def test_graph_power_summary(capsys):
    code, out, err = run(capsys, "graph", "--q", "5", "--power", "2", "--plus")
    assert code == 0
    assert "components=1" in err


def test_graph_q9_keeps_isolated_without_plus(capsys):
    code, out, _ = run(capsys, "graph", "--q", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 6
    isolated = [v for v in payload["vertices"]
                if not any(v in e for e in payload["edges"])]
    assert sorted(isolated) == ["inv", "unip:nsq", "unip:sq"]


@pytest.mark.extended
@pytest.mark.parametrize("q,components", [(8, 15), (11, 16)])
def test_graph_power_five_with_plus_extended(q, components, tmp_path, capsys):
    # 7^5 tuples each: within the cap with --plus; the component counts are
    # the closed form N(beta, 5) at beta = 8 and 10
    code, out, _ = run(capsys, "graph", "--q", str(q), "--power", "5", "--plus",
                       "--format", "dot", "--out", str(tmp_path / "g.dot"))
    assert code == 0
    assert f"components={components} " in out


def test_graph_out_file(tmp_path, capsys):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--q", "7", "--plus", "--format", "dot",
                       "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("graph lambda {")


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,value", [(5, 2), (7, 4), (9, 2)])
def test_beta_values(capsys, q, value):
    code, out, _ = run(capsys, "beta", "--q", str(q), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == value
    assert payload["beta_even"] and payload["bounds_ok"]


def test_beta_orbits_flag(capsys):
    code, out, _ = run(capsys, "beta", "--q", "5", "--format", "json", "--orbits")
    payload = json.loads(out)
    assert len(payload["orbits"]) == 2


def test_beta_bound_report_fields(capsys):
    code, out, _ = run(capsys, "beta", "--q", "25", "--format", "json")
    payload = json.loads(out)
    assert payload["n_lower_bound"]["component_bound"] == "92378"


def test_beta_table_prints_bounds_above_digit_limit(capsys):
    # beta(PSL(2,512)) = 14504: the bound has 4364 digits, above the
    # interpreter's default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "beta", "--q", "512")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q=512 |Psi2|=130536 |Out|=9 beta=14504"
    for line in lines[2:]:
        assert len(line.split(": ")[1].split()[0]) == 4364
    assert sys.get_int_max_str_digits() == limit


def test_beta_evaluates_one_binomial_when_the_floor_is_exact(capsys, monkeypatch):
    # |Psi2| / (d*f) = 130536 / 9 = 14504 = beta at q=512
    calls = []
    factors = iggraph._half_binomial_factors
    monkeypatch.setattr(iggraph, "_half_binomial_factors",
                        lambda b: calls.append(b) or factors(b))
    code, out, _ = run(capsys, "beta", "--q", "512", "--format", "json")
    assert code == 0 and calls == [14504]
    payload = json.loads(out)
    floor, exact = payload["n_lower_bound"], payload["component_bound_at_beta"]
    assert floor["beta_exact"] is None and exact["beta_exact"] == 14504
    assert exact == dict(floor, beta_exact=14504)


def test_beta_builds_no_field(capsys, monkeypatch):
    # the census is q's arithmetic: beta and its bounds need no field and no
    # class inventory (nor does its refusal past the bound cap: REFUSALS).
    # The digest is the one the benchmark's orbits workload checks for q = 512
    forbid(monkeypatch, *FIELDS)
    code, out, _ = run(capsys, "beta", "--q", "512", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["beta"], payload["psi2_count"]) == (14504, 130536)
    for key in ("n_lower_bound", "component_bound_at_beta"):
        assert hashlib.sha256(payload[key]["component_bound"].encode()).hexdigest() == (
            "66f0ee4c932310a45cc71aee3103b6d15be36341c843856f3ee93549c610f0e4")


def test_beta_at_the_bound_cap_is_built(capsys, monkeypatch):
    # beta = 14504 at q = 512, the cap moved down to it and then one below it
    monkeypatch.setattr(iggraph, "BOUND_BETA_CAP", 14504)
    code, out, _ = run(capsys, "beta", "--q", "512", "--format", "json")
    assert code == 0 and json.loads(out)["beta"] == 14504
    monkeypatch.setattr(iggraph, "BOUND_BETA_CAP", 14503)
    code, out, err = run(capsys, "beta", "--q", "512", "--format", "json")
    assert code == 3 and out == "" and "beta=14504 is above 14503" in err
    with pytest.raises(gf.CapError):
        iggraph.component_bound(14504)


def test_beta_orbits_must_agree_with_burnside(capsys, monkeypatch):
    monkeypatch.setattr(autorbits, "beta_fast", lambda census: 6)
    code, out, err = run(capsys, "beta", "--q", "7", "--orbits")
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and "Burnside counts 6" in err
    code, _, _ = run(capsys, "beta", "--q", "7")  # no partition, no cross-check
    assert code == 0


def break_canon(monkeypatch):
    monkeypatch.setattr(psl2, "inventory", lambda ctx: canon(ctx, (0, 0, 0, 0)))
    return ["classes", "--q", "5"], "zero matrix"


def break_subgroup_list(monkeypatch):
    real = structure.maximal_subgroup_classes
    monkeypatch.setattr(structure, "maximal_subgroup_classes",
                        lambda p, f: real(p, f) + [SubgroupClass("bogus")])
    return ["beta", "--q", "7"], "unknown subgroup kind bogus"


def break_bound(monkeypatch):
    monkeypatch.setattr(iggraph, "_half_binomial_factors", lambda beta: [0])
    return ["beta", "--q", "7"], "log2 of a non-positive integer"


def break_graph(monkeypatch):
    monkeypatch.setattr(iggraph, "lambda_graph",
                        lambda *a, **k: iggraph.IGGraph(7, 1, "structural", ["a", "b"], [0b10, 0]))
    return ["graph", "--q", "7", "--plus"], "adjacency is not symmetric"


def break_inventory(monkeypatch):
    real = psl2.inventory
    monkeypatch.setattr(psl2, "inventory",
                        lambda ctx: drop_class(real(ctx), psl2.ClassLabel("split", 1)))
    return ["psi2", "--q", "7", "--method", "oracle"], "split:t=1"


def break_field_in_a_layer(monkeypatch):
    # a ValueError from inside a layer is an internal failure, not usage:
    # only the CLI's own calls on user input turn one into exit 2
    monkeypatch.setattr(psl2, "inventory", lambda ctx: gf.GFContext(ctx.p, 0))
    return ["classes", "--q", "5"], "f must be positive, got 0"


def break_label_lookup(monkeypatch):
    # neither a RuntimeError nor a ValueError: any other exception from a
    # layer is internal too, not a traceback with exit 1
    real = psl2.inventory
    monkeypatch.setattr(psl2, "inventory", lambda ctx: real(ctx).entries[10 ** 6])
    return ["classes", "--q", "5"], "list index out of range"


@pytest.mark.parametrize("breaker", [break_canon, break_subgroup_list, break_bound,
                                     break_graph, break_inventory, break_field_in_a_layer,
                                     break_label_lookup])
def test_invariant_failures_exit_internal(breaker, tmp_path, capsys, monkeypatch):
    argv, message = breaker(monkeypatch)
    target = tmp_path / "out"
    target.write_text(SENTINEL)
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 4 and out == ""
    assert err.startswith("internal error: ") and message in err
    assert target.read_text() == SENTINEL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--q-range", "4..9")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["failures"] == []
    assert list(payload) == ["range", "extended", "pass", "failures", "checks"]  # no details
    assert set(payload["checks"]) == {"4", "5", "7", "8", "9"}
    assert payload["checks"]["5"]["oracle_equals_structural"] is True


def test_verify_structural_only_range(capsys):
    code, out, _ = run(capsys, "verify", "--q-range", "61..67")
    assert code == 0
    payload = json.loads(out)
    assert "oracle_equals_structural" not in payload["checks"]["64"]
    assert payload["checks"]["64"]["probability"] is True


def drop_first(inv, torus):
    t = inv.tori[torus]
    return drop_class(inv, psl2.ClassLabel(t.kind, t.keys[0]))


def move_first(inv, torus):
    """The first class of the torus takes the order of another: the class
    total, which the check compared before, still holds."""
    t = inv.tori[torus]
    tori = list(inv.tori)
    tori[torus] = t._replace(orders=[next(j for j in t.orders if j != t.orders[0]),
                                     *t.orders[1:]])
    return psl2.ClassInventory(inv.ctx, inv.head, tori)


# the nonsplit torus of q = 16 has one order, 17, so a class cannot move there
WRONG_COUNTS = [(q, torus, fault) for q, torus in [(16, 0), (16, 1), (25, 0), (29, 0), (29, 1)]
                for fault in (drop_first, move_first) if (q, torus, fault) != (16, 1, move_first)]


@pytest.mark.parametrize("q,torus,fault", WRONG_COUNTS)
def test_verify_class_count_fails_on_a_wrong_torus_count(q, torus, fault, monkeypatch, capsys):
    # the per-signature torus counts are compared with arithmetic, so an
    # inventory short of one class, or with one class under another order,
    # reads false (q > 13: no oracle run).  The checks that read the census
    # are skipped for that q: at q = 16 without a nonsplit class Burnside's
    # count is not an integer, and beta_fast would stop the run with exit 4.
    real = psl2.inventory
    monkeypatch.setattr(psl2, "inventory", lambda ctx: fault(real(ctx), torus))
    code, out, err = run(capsys, "verify", "--q-range", f"{q}..{q}")
    assert code == 1
    payload = json.loads(out)
    assert payload["checks"][str(q)] == {"class_count": False}
    assert payload["failures"] == [f"q={q}:class_count"]
    assert err == f"FAILED: q={q}:class_count\n"
    # the detail names each torus order whose count moved, the census's
    # count against the fold's
    t = real(gf.gf_for_q(q)).tori[torus]
    kind, orders = t.kind, t.orders
    moved = {orders[0]: -1}
    if fault is move_first:
        moved[next(j for j in orders if j != orders[0])] = 1
    assert payload["details"] == {f"q={q}:class_count": [
        {"kind": kind, "order": j, "expected": orders.count(j),
         "got": orders.count(j) + moved[j]} for j in sorted(moved)]}


def test_verify_details_name_the_pairs_a_mutant_adds(monkeypatch, capsys):
    # drop_s4 of tests/test_mutants.py: without S4 the order-3 split class
    # and the order-4 nonsplit class of q = 7 share no listed record, so
    # structural Psi2 gains that pair both ways, which the oracle's lacks
    real = structure.maximal_subgroup_classes
    monkeypatch.setattr(structure, "maximal_subgroup_classes",
                        lambda p, f: [sc for sc in real(p, f) if sc.kind != structure.EXC_S4])
    code, out, _ = run(capsys, "verify", "--q-range", "4..13")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"] == ["q=7:isolated_census", "q=7:oracle_equals_structural"]
    # the torus class of order 3 gains a partner, so it is no longer isolated
    assert payload["details"] == {
        "q=7:isolated_census": {"expected": ["split:t=1"], "got": []},
        "q=7:oracle_equals_structural": {
            "oracle_only": [],
            "structural_only": [["nonsplit:t=3", "split:t=1"], ["split:t=1", "nonsplit:t=3"]]}}


# ---------------------------------------------------------------------------
# refusals: every usage error (exit 2) and cap (exit 3) of the CLI comes
# before the work it refuses, and leaves the --out file as it was
# ---------------------------------------------------------------------------

BIG = 10 ** 30 + 57  # 31 digits: trial division up to its square root never ends
FACTORING = ((gf, "factorize"), (gf, "is_prime"))
AUT = ((AutAction, "elements"),)  # the Aut(S) elements the power graph builds


class Refusal(NamedTuple):
    argv: str
    code: int
    err: str | re.Pattern  # a pattern only where argparse or the OS writes a part
    forbid: tuple = ()  # the (owner, name) callables that must not run
    bound: float | None = None  # seconds


def usage(line):
    """argparse's usage text, then its final error line."""
    return re.compile(f"usage: .*\n{re.escape(line)}\n", re.S)


# missing/x is under a directory that test_refusal's working directory lacks
UNWRITABLE = re.compile("error: cannot write missing/x: .+\n")

REFUSALS = [
    Refusal("classes --q 6", 2, "error: 6 is not a prime power\n"),
    Refusal("classes --q 9 --p 3 --f 2", 2, "error: give either --q or --p/--f, not both\n"),
    Refusal("classes --q 3", 2, "error: q must be at least 4, got 3\n"),
    Refusal("classes --p 4 --f 1", 2, "error: p must be prime, got 4\n"),
    Refusal("classes --p 2 --f 0", 2, "error: f must be positive, got 0\n"),
    Refusal("classes --q 1048577", 2, "error: q=1048577 exceeds the supported cap 1048576\n"),
    # input above the field cap is refused before it is factorised, tested
    # for primality or raised to a power (2^3000000000 would take seconds
    # and hundreds of MB to form)
    Refusal(f"classes --q {BIG}", 2, f"error: q={BIG} exceeds the supported cap 1048576\n",
            FACTORING),
    Refusal(f"classes --p {BIG} --f 1", 2,
            f"error: q={BIG}^1 exceeds the supported cap 1048576\n", FACTORING),
    Refusal("classes --p 2 --f 3000000000", 2,
            "error: q=2^3000000000 exceeds the supported cap 1048576\n", bound=1),
    Refusal("verify --q-range 4..3000000", 2,
            "error: range end 3000000 exceeds the supported cap 1048576\n", FACTORING),
    Refusal("verify --q-range 1048570..1048600", 2,
            "error: range end 1048600 exceeds the supported cap 1048576\n", FACTORING),
    Refusal("verify --q-range 13..4", 2, "error: range must satisfy 4 <= lo <= hi, got '13..4'\n"),
    Refusal("verify --q-range 4..3", 2, "error: range must satisfy 4 <= lo <= hi, got '4..3'\n"),
    *[Refusal(f"graph --q 5 --power {t}", 2,
              usage(f"invgen graph: error: argument --power: must be at least 1, got {t}"))
      for t in (0, -1)],
    Refusal("graph --q 5 --power 3", 2,
            "error: t=3 exceeds beta=2; S^t is not invariably 2-generated there\n"),
    Refusal("classes --q 7 --out missing/x", 2, UNWRITABLE, FIELDS),
    Refusal("verify --q-range 4..5 --out missing/x", 2, UNWRITABLE, FIELDS),
    Refusal("", 2, usage("invgen: error: the following arguments are required: command")),
    # 8^5 = 32,768 tuples are 2^30 adjacency bits, over the cap of 2^29, and
    # 1024^2 tuples are over it too: no Aut(S) element is built first
    Refusal("graph --q 8 --power 5", 3, "cap exceeded: power graph for t=5 would index 32768 "
            "tuples, 1073741824 adjacency bits, cap is 536870912\n", AUT),
    Refusal("graph --q 1024 --power 2", 3, "cap exceeded: power graph for t=2 would index "
            "1048576 tuples, 1099511627776 adjacency bits, cap is 536870912\n", AUT),
    # |labels|^t has hundreds of digits at t = 1000 and is past the
    # interpreter's int-to-str limit at t = 100000: no count may be formed
    *[Refusal(f"graph --q 5 --power {t}", 3, f"cap exceeded: power graph for t={t} would "
              f"have at least 2^{t} vertices, cap is 536870912\n", bound=1)
      for t in (1000, 100000, 10 ** 18)],
    # the masks of (293, 2, plus) are within the work cap, but its
    # 58,357,660 edges would be over 1.7 GB of JSON: no writer may start
    Refusal("graph --q 293 --power 2 --plus", 3, "cap exceeded: graph has 58357660 edges, "
            "above 4194304, the most it writes\n", ((iggraph, "graph_to_json"),)),
    # at t = 1 the edges are the unordered Psi2 pairs, with or without plus,
    # which the census counts from q's arithmetic before any field
    *[Refusal(f"graph --q 8192{plus}", 3, "cap exceeded: graph has 16773120 edges, "
              "above 4194304, the most it writes\n", FIELDS) for plus in ("", " --plus")],
    # q = 2^20 is within Q_CAP, but its Psi2 has about 5.5 * 10^11 ordered
    # pairs; under --method oracle the oracle's cap is checked first
    Refusal("psi2 --p 2 --f 20", 3, "cap exceeded: Psi2 has 274877382600 unordered pairs, "
            "above 4194304, the most it writes\n", FIELDS),
    Refusal("psi2 --p 2 --f 20 --method oracle", 3, "cap exceeded: q=1048576: the oracle "
            "would enumerate 1,152,921,504,605,798,400 elements, above its cap of 500,000\n",
            FIELDS),
    *[Refusal(f"psi2 --q 101 --method {method}", 3, "cap exceeded: q=101: the oracle would "
              "enumerate 515,100 elements, above its cap of 500,000\n", FIELDS)
      for method in ("oracle", "both")],
    # beta = 2,580,480 at q = 8192: the exact binomial would have about 777k digits
    Refusal("beta --q 8192 --format json", 3, "cap exceeded: beta=2580480 is above 698700, "
            "the largest beta whose exact component bound is built\n",
            ((iggraph, "_half_binomial_factors"),)),
    Refusal("beta --p 2 --f 20", 3, "cap exceeded: beta=27487738260 is above 698700, "
            "the largest beta whose exact component bound is built\n", FIELDS),
    *[Refusal(f"verify --q-range {spec}", 3, f"cap exceeded: the prime powers of range {spec} "
              "sum past the verify cap 262144\n", FIELDS, bound=1)
      for spec in ("1048573..1048576", "4..1048576", "262139..262147")],
]


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.argv or "no-command")
def test_refusal(row, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("out").write_text(SENTINEL)
    forbid(monkeypatch, *row.forbid)
    argv = row.argv.split()
    if argv:  # the sentinel first: a row's own --out comes later, and wins
        argv[1:1] = ["--out", "out"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    if row.bound:
        assert time.perf_counter() - start < row.bound
    assert (code, out) == (row.code, "")
    if isinstance(row.err, str):
        assert err == row.err
    else:
        assert row.err.fullmatch(err), err
    assert Path("out").read_text() == SENTINEL


def test_every_cap_has_a_refusal():
    # each cap as its refusal prints it
    printed = {"gf.Q_CAP": f"the supported cap {gf.Q_CAP}\n",
               "cli.VERIFY_Q_SUM_CAP": f"the verify cap {cli.VERIFY_Q_SUM_CAP}\n",
               "structure.EDGE_CAP": f"above {structure.EDGE_CAP}, the most it writes\n",
               "iggraph.POWER_WORK_CAP": f"cap is {iggraph.POWER_WORK_CAP}\n",
               "iggraph.BOUND_BETA_CAP": f"above {iggraph.BOUND_BETA_CAP}, the largest beta ",
               "oracle.ORACLE_ELEMENT_CAP": f"its cap of {oracle.ORACLE_ELEMENT_CAP:,}\n"}
    errs = [row.err for row in REFUSALS if isinstance(row.err, str)]
    assert [cap for cap, text in printed.items() if not any(text in err for err in errs)] == []
    assert {row.code for row in REFUSALS} == {cli.EXIT_USAGE, cli.EXIT_CAP}
    # psi2 and graph write at most EDGE_CAP edges, the census's one cap
    assert structure.EDGE_CAP == 1 << 22 and not hasattr(iggraph, "EDGE_CAP")


@pytest.mark.parametrize("spec,n_q", [("4..1024", 196), ("4..27", 13), ("4096..4200", 11)])
def test_verify_work_cap_admits_the_checked_ranges(spec, n_q):
    assert len(cli._parse_range(spec)) == n_q


# the sieve against one prime_power_split per integer: the benchmark's range,
# a range with no prime power, squares of primes (181^2), 3^10, 3^11, 2^15, 2^16
@pytest.mark.parametrize("lo,hi", [(4, 1024), (4, 4), (24, 24), (5, 30), (1000, 1100),
                                   (1021, 1024), (32749, 32771), (59040, 59060),
                                   (65521, 65537), (177140, 177150)])
def test_parse_range_matches_the_per_integer_reference(lo, hi):
    fields = cli._parse_range(f"{lo}..{hi}")
    reference = {q: pf for q in range(lo, hi + 1) if (pf := gf.prime_power_split(q))}
    assert fields == reference
    assert list(fields) == sorted(reference)


# the benchmark's psi2 --q 1024, the golden q = 4099 and the largest table
# written (q = 4096) are admitted; q = 8192 is the first power of 2 refused
@pytest.mark.parametrize("q,count,admitted", [(1024, 523260, True), (4099, 2101248, True),
                                              (4096, 8384400, True), (8192, 33546240, False)])
def test_psi2_pair_cap_admits_the_written_tables(q, count, admitted):
    assert structure.profile_census(q).psi2_count == count
    assert (count // 2 <= structure.EDGE_CAP) == admitted


# ---------------------------------------------------------------------------
# imports: each subcommand loads only the layers it runs, and the package
# namespace loads a layer on first use of one of its names
# ---------------------------------------------------------------------------

# Runs in a fresh interpreter (pytest itself loads dataclasses): imports the
# CLI, runs argv through cli.main if given, and prints the invgen modules
# then loaded and whether dataclasses and json are (json before the probe
# loads it to print).
PROBE = """
import contextlib, io, sys
import invgen.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = invgen.cli.main(sys.argv[1:])
loaded = set(sys.modules)
import json
print(json.dumps({"code": code, "dataclasses": "dataclasses" in loaded, "json": "json" in loaded,
                  "invgen": sorted(m for m in loaded if m.split(".")[0] == "invgen")}))
"""

GRAPH_LAYERS = ("psl2", "structure", "autorbits", "iggraph")


def loaded_after(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_cli_loads_no_layer():
    result = loaded_after()
    assert result["invgen"] == ["invgen", "invgen.cli", "invgen.gf"]
    assert not result["dataclasses"]


@pytest.mark.parametrize("argv,layers", [
    (["classes", "--q", "7"], ("psl2",)),
    (["psi2", "--q", "7"], ("psl2", "structure")),
    (["psi2", "--q", "7", "--method", "oracle"], ("psl2", "structure", "oracle")),
    (["psi2", "--q", "7", "--method", "both"], ("psl2", "structure", "oracle")),
    (["graph", "--q", "7"], ("psl2", "structure", "iggraph")),
    (["graph", "--q", "7", "--power", "2"], GRAPH_LAYERS),
    (["beta", "--q", "7"], GRAPH_LAYERS),
    (["verify", "--q-range", "4..5"], GRAPH_LAYERS + ("oracle",)),
], ids=["classes", "psi2", "psi2-oracle", "psi2-both", "graph", "graph-power", "beta",
        "verify"])
def test_each_subcommand_loads_only_its_layers(argv, layers):
    result = loaded_after(*argv)
    assert result["code"] == 0
    assert result["invgen"] == sorted(
        ["invgen", "invgen.cli", "invgen.gf"] + [f"invgen.{m}" for m in layers])
    assert not result["dataclasses"]


@pytest.mark.parametrize("argv,writes_json", [
    (["psi2", "--q", "5"], False),
    (["psi2", "--q", "5", "--format", "csv"], False),
    (["graph", "--q", "7", "--format", "dot"], False),
    (["beta", "--q", "7"], False),
    (["psi2", "--q", "5", "--format", "json"], True),
    (["graph", "--q", "7"], True),
], ids=["psi2", "psi2-csv", "graph-dot", "beta", "psi2-json", "graph-json"])
def test_only_json_output_loads_json(argv, writes_json):
    result = loaded_after(*argv)
    assert result["code"] == 0
    assert result["json"] == writes_json


PUBLIC = {
    "gf": ["GFContext", "gf_for_q", "prime_power_split"],
    "psl2": ["ClassLabel", "ClassEntry", "ClassInventory", "inventory",
             "enumerate_psl2"],
    "structure": ["SubgroupClass", "Psi2Table", "maximal_subgroup_classes",
                  "build_profiles", "psi2_structural", "verify_2covering",
                  "profile_census"],
    "autorbits": ["AutAction", "OrbitPartition", "aut_action", "beta", "beta_fast"],
    "oracle": ["OracleSession", "OracleCapError"],
    "iggraph": ["IGGraph", "GraphCapError", "lambda_graph",
                "lambda_power", "lambda_summary", "expected_isolated", "components",
                "is_bipartite", "diameter", "component_bound", "n_lower_bound_report"],
}


def test_package_names_resolve_to_their_owning_module():
    assert sorted(invgen.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"invgen.{module}")
        for name in names:
            obj = getattr(invgen, name)
            assert obj is getattr(owner, name)
            assert obj.__module__ == owner.__name__


def test_package_star_import():
    namespace = {}
    exec("from invgen import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(invgen.__all__)
    assert all(namespace[name] is getattr(invgen, name) for name in namespace)


def test_package_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        invgen.no_such_name
    assert not hasattr(invgen, "ORACLE_ELEMENT_CAP")  # public on invgen.oracle only
    with pytest.raises(ImportError):
        exec("from invgen import no_such_name", {})


@pytest.mark.parametrize("error", [iggraph.GraphCapError, invgen.OracleCapError])
def test_cap_errors_share_one_base(error):
    assert issubclass(error, gf.CapError)
