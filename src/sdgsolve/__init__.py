"""Exact solvers for score-based social distance games."""

from .core import (
    NEG_INF,
    ExtInt,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    UnsupportedInputError,
    agent_utility,
    coalition_diameter,
    coalition_distance,
    coalition_welfare,
    social_welfare,
    utility_in_coalition,
    validate_outcome,
)
from .stability import Deviation, find_deviation, is_individually_rational, is_nash_stable
from .oracle import (
    bell_number,
    brute_force_solve,
    decide_welfare_at_least,
    enumerate_partitions,
)
from .bounds import (
    BoundReport,
    CertificateReport,
    certify_outcome,
    compute_bound_report,
    degree_coalition_bound,
    select_sz,
    stable_diameter_limit,
    treewidth_coalition_bound,
)
from .treedecomp import (
    NiceTreeDecomposition,
    TreeDecomposition,
    compute_decomposition,
    exact_treewidth,
    make_nice,
    nice_decomposition,
    read_td,
    validate,
)
from .solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from .solver_fptdp import solve_fpt
# no solver imports canon; it stays loaded because perfbench/layers.py
# traces canon.canonical_order and looks the module up as sdgsolve.canon
from . import canon  # noqa: F401
from .solver_vc import compute_vertex_cover, enumerate_structures, solve_qp, solve_vc
from .dispatch import choose_algorithm, solve

__all__ = [
    "NEG_INF",
    "ExtInt",
    "Outcome",
    "ResourceLimitError",
    "ScoringVector",
    "SocialNetwork",
    "SolveResult",
    "UnsupportedInputError",
    "agent_utility",
    "coalition_diameter",
    "coalition_distance",
    "coalition_welfare",
    "social_welfare",
    "utility_in_coalition",
    "validate_outcome",
    "Deviation",
    "find_deviation",
    "is_individually_rational",
    "is_nash_stable",
    "bell_number",
    "brute_force_solve",
    "decide_welfare_at_least",
    "enumerate_partitions",
    "BoundReport",
    "CertificateReport",
    "certify_outcome",
    "compute_bound_report",
    "degree_coalition_bound",
    "stable_diameter_limit",
    "treewidth_coalition_bound",
    "NiceTreeDecomposition",
    "TreeDecomposition",
    "compute_decomposition",
    "exact_treewidth",
    "make_nice",
    "nice_decomposition",
    "read_td",
    "validate",
    "solve_tw_ir",
    "solve_tw_ns",
    "solve_tw_welfare",
    "select_sz",
    "solve_fpt",
    "compute_vertex_cover",
    "enumerate_structures",
    "solve_qp",
    "solve_vc",
    "choose_algorithm",
    "solve",
]
