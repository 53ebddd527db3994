"""Run one invgen CLI command with its layer functions wrapped in spans.

    python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Every function named in LAYERS is replaced, on each invgen module that
holds a reference to it (methods on their class), by a wrapper that records
a span and adds to named counters.  Nested calls get spans of their own, so
a layer's self time leaves out the layers it calls, as in
``lambda_summary`` -> ``profile_census``.  Spans and counters stay in
memory and are written to SPANS_JSON as ``{"spans": [[name, start, end,
parent_index], ...], "counters": {name: count}}`` when the command returns.
The wrapping happens here, outside the package, so the package is unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

from invgen.psl2 import inventory as _inventory

MODULES = ("invgen", "invgen.gf", "invgen.psl2", "invgen.structure",
           "invgen.autorbits", "invgen.oracle", "invgen.iggraph", "invgen.cli")


def _one(args, kwargs, result) -> int:
    return 1


def _power_pairs(args, kwargs, result) -> int:
    """Vertex pairs of S^t that lambda_power puts to the product criterion."""
    from invgen.iggraph import lambda_power
    bound = inspect.signature(lambda_power).bind(*args, **kwargs)
    ctx, t, inv = bound.arguments["ctx"], bound.arguments["t"], bound.arguments.get("inv")
    n = len((inv or _inventory(ctx)).nonidentity_labels()) ** t
    return n * (n - 1) // 2


# (module, attribute, span name or None, {counter: amount(args, kwargs, result)}).
# A generator function's counters count the items it yields.
LAYERS = [
    ("gf", "GFContext.__init__", "gf.build", {"gf.contexts": _one}),
    ("psl2", "inventory", "psl2.inventory", {"psl2.inventory_calls": _one}),
    ("psl2", "enumerate_psl2", "psl2.enumerate", {"psl2.elements": _one}),
    ("structure", "build_profiles", "structure.profiles", {}),
    ("structure", "maximal_profiles", "structure.profiles", {}),
    ("structure", "profile_census", "structure.census", {"structure.census_calls": _one}),
    ("structure", "verify_2covering", "structure.covering",
     {"structure.covering_calls": _one}),
    ("structure", "psi2_structural", "structure.psi2",
     {"structure.psi2_pairs": lambda a, k, r: len(r)}),
    ("autorbits", "aut_action", "autorbits.action", {}),
    ("autorbits", "beta", "autorbits.beta", {"autorbits.orbits": lambda a, k, r: r.beta}),
    ("autorbits", "beta_fast", "autorbits.beta_fast", {}),
    ("oracle", "OracleSession.__init__", "oracle.session", {}),
    ("oracle", "OracleSession.psi2", "oracle.psi2", {}),
    # Called once per verdict and once per closure: counted, not timed, so the
    # closure work stays in the self time of oracle.psi2.
    ("oracle", "OracleSession.pair_generates", None, {"oracle.pair_verdicts": _one}),
    ("oracle", "OracleSession.closure_generates", None,
     {"oracle.closures": _one, "oracle.generating": lambda a, k, r: int(r)}),
    ("iggraph", "lambda_summary", "iggraph.summary", {}),
    ("iggraph", "lambda_graph", "iggraph.graph", {}),
    ("iggraph", "lambda_power", "iggraph.power", {"iggraph.power_pairs": _power_pairs}),
    ("iggraph", "components", "iggraph.components", {}),
    ("iggraph", "is_bipartite", "iggraph.bipartite", {}),
    ("iggraph", "diameter", "iggraph.diameter", {}),
    ("iggraph", "to_dot", "iggraph.export", {}),
    ("iggraph", "graph_to_json", "iggraph.export", {}),
    ("iggraph", "n_lower_bound_report", "iggraph.bound", {}),
    ("iggraph", "component_bound", "iggraph.bound", {}),
    ("iggraph", "_big_int_str", "iggraph.bound", {}),
    ("cli", "main", "cli", {}),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.remove(index)

    def _count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, span: str | None, counters: dict):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                index = self._open(span)
                try:
                    for item in fn(*args, **kwargs):
                        for name in counters:
                            self._count(name, 1)
                        yield item
                finally:
                    self._close(index)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(span) if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    self._close(index)
            for name, amount in counters.items():
                self._count(name, amount(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, span, counters in LAYERS:
            owner = importlib.import_module(f"invgen.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(vars(cls)[method], span, counters))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, span, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from invgen import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
