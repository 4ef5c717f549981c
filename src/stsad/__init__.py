"""Unsupervised anomaly detection in 4-mode spatiotemporal count tensors.

The package decomposes an observed tensor into a structured low-rank part
and a temporally smooth sparse part (ADMM), scores the sparse part with a
robust per-fiber estimator, and evaluates detections against ground truth.
"""

from .baselines import solve_horpca, solve_loss, svt
from .evaluation import (
    LabeledScores,
    benchmark_timing,
    detection_at_k,
    labeled_scores,
    roc_auc,
    roc_points,
)
from .graphs import (
    ModeGraph,
    build_knn_graph,
    build_laplacian,
    build_mode_graphs,
    select_rank,
    stationarity_report,
    sym_eig,
)
from .logss import (
    DecompositionResult,
    LogssParams,
    NumericalError,
    build_diff_operator,
    solve,
)
from .ingest import events_from_csv, ingest_trips, read_zone_list
from .scoring import FiberScoreField, score_sparse_tensor, top_k_mask, univariate_mcd
from .synth import (
    GroundTruth,
    SynthConfig,
    apply_missing,
    builtin_template,
    generate_base,
    inject_anomalies,
    inject_noise,
    synthesize,
)
from .tensor import (
    fold,
    load_mask,
    load_tensor,
    mode_n_product,
    project_support,
    save_mask,
    save_tensor,
    soft_threshold,
    tensor_norms,
    unfold,
)

__version__ = "0.1.0"
