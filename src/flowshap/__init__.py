"""Boosted-tree flow classification with exact Shapley-value feature selection."""

from .ingest import (
    ClassWeights,
    FlowTable,
    ParseError,
    RawTable,
    SchemaError,
    SplitSpec,
    apply_sample_weights,
    class_weights,
    load_csv,
    load_table,
    preprocess,
    read_flow_csv,
    save_table,
    split_rows,
    stratified_split,
)
from .gbt import (
    Hyperparams,
    ModelFormatError,
    Tree,
    TreeEnsemble,
    deserialize,
    find_best_split,
    load_model,
    predict_class,
    predict_classes,
    predict_margin,
    predict_margins,
    save_model,
    serialize,
    softmax_grad_hess,
    split_gain,
    train,
)
from .explain import (
    ImportanceRanking,
    ShapMatrix,
    brute_force_shapley,
    conditional_expectation,
    global_importance,
    per_class_importance,
    tree_shap,
)
from .selection import (
    FilterScores,
    SelectionResult,
    Trial,
    anova_scores,
    chi_square_scores,
    correlation_scores,
    filter_select,
    forward_select,
    run_forward_pass,
)
from .metrics import (
    Averages,
    ClassMetrics,
    ConfusionMatrix,
    EvalReport,
    aggregate,
    confusion,
    macro_f1,
    per_class_metrics,
    timed_evaluate,
)
from .config import RunConfig

__version__ = "0.1.0"
