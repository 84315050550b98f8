"""depbounds: verified tail bounds for sums of weakly dependent [0,1]-valued
random variables, with exact small-n oracles, Monte Carlo estimators and a
command-line front end.

The names below resolve on first access (PEP 562), so importing the package,
as ``python -m depbounds.cli`` does first, loads none of its modules.
"""

import importlib

_EXPORTS = {
    "bounds": (
        "DependencyGraphParams", "MeanOnly", "ProductBound", "SplitBound",
        "SymmetricMoments", "TailBound", "UStatParams", "bincoupling_bound",
        "depgraph_bound", "eps_to_t", "expfunct_bound", "gnm_isolated_bound",
        "gnm_triangles_bound", "hoeffding_bound", "ik_bound",
        "kwise_bernoulli_bound", "kwise_bound",
        "linial_lower_bound", "linial_luria_bound", "mcdiarmid_bound",
        "mcdiarmid_refined_bound", "sss_bound", "t_to_eps", "ustat_bound",
        "ustat_refined_bound",
    ),
    "graphcomb": (
        "Graph", "clique4_union_triangles", "gnm_isolated_exact_tail",
        "gnp_constants", "gnp_count", "independence_number",
        "triangle_union_edges",
    ),
    "numkernel": (
        "BinomialSpec", "PoissonBinomialSpec", "binom_tail_log",
        "kl_divergence", "poisson_binom_dist",
    ),
    "oracle": (
        "ExponentialFamily", "JointDist", "ZDist", "dephoeff_bound",
        "exact_tail", "random_joint_dist", "z_distribution",
        "zeta_decomposition",
    ),
    "simulate": ("SimResult", "empirical_tail", "exact_binomial_ci"),
    "verify": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
