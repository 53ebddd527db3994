"""Invariably generating graphs of PSL(2,q) and its direct powers."""

from invgen.gf import GFContext, gf_make, gf_for_q, prime_power_split
from invgen.psl2 import (
    ClassLabel,
    ClassEntry,
    ClassInventory,
    inventory,
    enumerate_psl2,
    psl2_class_of,
)
from invgen.structure import (
    SubgroupClass,
    Psi2Table,
    maximal_subgroup_classes,
    build_profiles,
    psi2_structural,
    verify_2covering,
    profile_census,
)
from invgen.autorbits import AutAction, OrbitPartition, aut_action, beta, beta_fast
from invgen.oracle import OracleSession, OracleCapError
from invgen.iggraph import (
    IGGraph,
    BoundReport,
    GraphCapError,
    lambda_graph,
    lambda_power,
    lambda_summary,
    expected_isolated,
    components,
    is_bipartite,
    diameter,
    component_bound,
    n_lower_bound_report,
)

__all__ = [
    "GFContext", "gf_make", "gf_for_q", "prime_power_split",
    "ClassLabel", "ClassEntry", "ClassInventory", "inventory",
    "enumerate_psl2", "psl2_class_of",
    "SubgroupClass", "Psi2Table", "maximal_subgroup_classes",
    "build_profiles", "psi2_structural", "verify_2covering", "profile_census",
    "AutAction", "OrbitPartition", "aut_action", "beta", "beta_fast",
    "OracleSession", "OracleCapError",
    "IGGraph", "BoundReport", "GraphCapError",
    "lambda_graph", "lambda_power", "lambda_summary", "expected_isolated",
    "components", "is_bipartite", "diameter",
    "component_bound", "n_lower_bound_report",
]
