"""The per-q objects are built once, as seen by the benchmark's tracer.

Each command runs under ``perfbench/traced_cli.py``, which wraps the layer
functions and records spans and counters; the tests read its output file.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from invgen import iggraph

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "traced_cli.py"


def load_tracer():
    """``perfbench/traced_cli.py`` as a module, its tracer not installed."""
    spec = importlib.util.spec_from_file_location("traced_cli", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in LAYERS],
                         ids=[f"{m}.{a}" for m, a, _, _ in LAYERS])
def test_every_traced_name_resolves(module, attr):
    # the tracer wraps each LAYERS entry by name; a rename in the package
    # fails here with the missing name, not as a traceback inside the traced
    # subprocess.  A method must be the class's own, since the tracer reads
    # it from vars(cls)
    owner = importlib.import_module(f"invgen.{module}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), attr
    assert callable(getattr(owner, attr, None)), attr


def traced(tmp_path, *argv):
    """Run one CLI command under the tracer; return (span counts, counters)."""
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TRACER), str(out), *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    return Counter(span[0] for span in data["spans"]), data["counters"]


def test_verify_builds_census_and_covering_once_per_q(tmp_path):
    spans, counters = traced(tmp_path, "verify", "--q-range", "4..16")
    n_q = 8  # 4, 5, 7, 8, 9, 11, 13, 16
    assert counters["gf.contexts"] == n_q
    assert counters["structure.census_calls"] == n_q
    assert counters["structure.covering_calls"] == n_q
    assert spans["iggraph.summary"] == spans["autorbits.beta_fast"] == n_q
    assert "autorbits.beta" not in spans
    # every per-layer metric of the sweep keeps its span: a renamed layer
    # function would drop it from the trace and zero the metric
    # the oracle sessions for q <= 13 read the inventory verify_q built
    assert spans["psl2.inventory"] == counters["psl2.inventory_calls"] == n_q
    # maximal_profiles is another name of build_profiles, so the tracer
    # wraps it twice: two nested spans per call
    assert spans["structure.profiles"] == 2 * n_q
    # beta comes from the census: no Aut(S) map is built
    assert "autorbits.action" not in spans


def test_beta_counts_without_the_orbit_partition(tmp_path):
    spans, counters = traced(tmp_path, "beta", "--q", "64", "--format", "json")
    assert "autorbits.beta" not in spans
    assert "structure.psi2" not in spans
    assert spans["autorbits.beta_fast"] == 1
    assert "autorbits.action" not in spans
    assert counters["structure.census_calls"] == 1
    # the census is q's arithmetic: no field and no class inventory
    assert "gf.build" not in spans and "psl2.inventory" not in spans
    assert "gf.contexts" not in counters


def test_power_graph_builds_the_partition_once(tmp_path):
    # the power graph names orbits by least images; only beta --orbits
    # builds the partition
    spans, counters = traced(tmp_path, "graph", "--q", "5", "--power", "2", "--plus")
    assert "autorbits.beta" not in spans
    assert counters["structure.census_calls"] == 1
    assert counters["iggraph.power_pairs"] == 120  # 16 vertices of S^2
    assert spans["autorbits.action"] == 1
    spans, counters = traced(tmp_path, "beta", "--q", "7", "--orbits")
    assert spans["autorbits.beta"] == spans["autorbits.action"] == 1
    assert counters["autorbits.orbits"] == 4
    assert counters["structure.census_calls"] == 1
    # the partition names classes: one field and one inventory
    assert counters["gf.contexts"] == counters["psl2.inventory_calls"] == 1


def test_psi2_both_runs_each_route_once(tmp_path):
    spans, counters = traced(tmp_path, "psi2", "--q", "8", "--method", "both")
    assert spans["structure.psi2"] == spans["oracle.psi2"] == 1
    assert counters["structure.census_calls"] == 1
    assert counters["structure.psi2_pairs"] == 24
    assert counters["oracle.closures"] > 0
    # enumerate_psl2 stays a generator that yields each element of PSL(2,8)
    # once, and the oracle decides one class pair per pair of its 4 power
    # classes (the unipotents, orders 7, 9 and 3): 4*5/2, not the 8*9/2
    # class pairs
    assert counters["psl2.elements"] == 504
    assert counters["oracle.pair_verdicts"] == 10


def test_graph_keeps_its_export_span(tmp_path):
    # the exporters are generators and the tracer wraps them by name: a
    # renamed writer would drop the span and zero iggraph.export_s
    for fmt in ("json", "dot"):
        spans, _ = traced(tmp_path, "graph", "--q", "7", "--plus", "--format", fmt)
        assert spans["iggraph.export"] == 1, fmt
        assert spans["iggraph.diameter"] == spans["iggraph.graph"] == 1, fmt
        assert spans["iggraph.components"] == 1, fmt  # the summary's; the writers read g.analysis


def test_exporters_are_generator_functions():
    # the tracer keeps a generator's iggraph.export span open until the
    # generator is drained; a plain function returning a generator would
    # close it at once and move the row work into cli.self_s
    assert inspect.isgeneratorfunction(iggraph.graph_to_json)
    assert inspect.isgeneratorfunction(iggraph.to_dot)
