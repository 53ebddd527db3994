"""Invariably generating graphs of PSL(2,q) and its direct powers.

The names below are loaded on first use (PEP 562), so ``import invgen``
imports no layer module until one of its names is read.
"""

import importlib

_OWNER = {
    "gf": ("GFContext", "gf_for_q", "prime_power_split"),
    "psl2": ("ClassLabel", "ClassEntry", "ClassInventory", "inventory",
             "enumerate_psl2"),
    "structure": ("SubgroupClass", "Psi2Table", "maximal_subgroup_classes",
                  "build_profiles", "psi2_structural", "verify_2covering",
                  "profile_census"),
    "autorbits": ("AutAction", "OrbitPartition", "aut_action", "beta", "beta_fast"),
    "oracle": ("OracleSession", "OracleCapError"),
    "iggraph": ("IGGraph", "GraphCapError",
                "lambda_graph", "lambda_power", "lambda_summary", "expected_isolated",
                "components", "is_bipartite", "diameter",
                "component_bound", "n_lower_bound_report"),
}
_MODULE_OF = {name: module for module, names in _OWNER.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
