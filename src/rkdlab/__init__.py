"""Desk-scale workbench: spectral views of relational distillation, clustering
-error audits, augmentation expansion, and cluster-aware label acquisition.

Every top-level name of the package's modules is reached from the `rkdlab`
command (`rkdlab.cli.main`) or exported here.  The exports are the graph,
student and kernel types the commands use, and the paper-claim checkers that
no command runs yet: theorem 2's Rademacher and loss-gap bounds, theorem 3's
excess-risk audit, and the constant-expansion check.
"""

from .dac_expansion import constant_expansion_check
from .graph_core import (
    PopulationGraph,
    SpectralDecomposition,
    build_sbm,
    build_two_blobs,
    inter_class_fraction,
    lazy_graph,
    load_graph,
    normalized_adjacency,
    save_graph,
    spectral_decompose,
)
from .label_acquisition import erm_zero_one, population_error, theorem3_bound, theorem3_check
from .spectral_rkd import (
    OptimizerConfig,
    Prediction,
    RkdLossReport,
    StudentModel,
    dnn_rademacher_bound,
    empirical_rkd_loss,
    estimate_rademacher,
    population_rkd_loss,
    theorem2_gap_bound,
    train_student,
)
from .teacher_kernel import KernelSpec, TeacherEmbedding, kernel_matrix

__all__ = [name for name in dir() if not name.startswith("_")]
