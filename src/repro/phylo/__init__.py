"""A working maximum-likelihood phylogenetics engine (the RAxML workload).

Real Felsenstein-pruning likelihood kernels (``newview`` / ``evaluate`` /
``makenewz``), GTR/HKY substitution models with discrete-Gamma rates,
NNI hill-climbing search and non-parametric bootstrapping — plus the
bridge that replays recorded kernel invocations through the simulated
Cell machine.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy(globals(), {
    "alignment": ("Alignment", "Alphabet", "DNA", "PROTEIN",
                  "bootstrap_weights", "synthesize_alignment"),
    "cat": ("estimate_pattern_rates", "fit_cat", "quantize_rates"),
    "consensus": ("annotate_support", "majority_rule_consensus",
                  "split_frequencies"),
    "distance": ("jc_distance_matrix", "neighbor_joining",
                 "p_distance_matrix"),
    "bootstrap": ("BootstrapAnalysis", "BootstrapReplicate",
                  "branch_support", "run_bootstrap_analysis"),
    "likelihood": ("KernelLog", "LikelihoodEngine"),
    "models": ("SubstitutionModel", "discrete_gamma_rates", "gtr", "hky",
               "jc69", "protein_poisson"),
    "modelfit": ("golden_section_maximize", "optimize_alpha",
                 "optimize_kappa"),
    "newick": ("parse_newick",),
    "raxml": ("KernelCostModel", "fit_profile", "profile_report",
              "trace_from_kernel_log"),
    "search": ("SearchResult", "hill_climb"),
    "tree": ("Node", "Tree"),
})
