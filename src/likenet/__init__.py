"""likenet: likedness centrality and the stability of like-rate ensembles.

A simulation toolkit for social graphs where agents exchange "likes"
at directed rates: solve the likedness-centrality fixed point, measure
how stable a sampled rate ensemble is under per-agent rate
perturbations, and run the Monte-Carlo analyses relating stability to
network structure.
"""

from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    GraphMetrics,
    compute_metrics,
    degree_histogram,
    degree_stddev,
    generate_ba,
    generate_star,
    mean_local_clustering,
    mean_path_length,
    read_edge_list,
    write_edge_list,
)
from .centrality import (
    CentralityVector,
    DegenerateSystemError,
    NonConvergenceError,
    RateMatrix,
    SolverError,
    SolverOptions,
    eigenvector_centrality,
    likedness_centrality,
    read_rates,
    write_rates_dense,
    write_rates_triplets,
)
from .stability import (
    StabilityResult,
    centrality_gradient,
    classify_strategic,
    stability,
    stability_from_gradients,
)
from .ensemble import (
    EnsembleConfig,
    RecordTable,
    SystemRecord,
    compute_record,
    read_records,
    run_ensemble,
    run_to_files,
    sample_rates,
    summarize_records,
    write_records,
)

__version__ = "0.1.0"
