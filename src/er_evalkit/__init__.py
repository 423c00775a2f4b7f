"""Relevance test-set generation and bin-aware evaluation for entity resolution."""

from .catalog import Catalog, Title, parse_catalog
from .clickstream import (
    ClickEvent,
    CtrFilter,
    CtrRecord,
    aggregate_pairs,
    compute_ctr,
    filter_records,
    parse_events,
)
from .diagnose import (
    Diagnosis,
    FailureCategory,
    compare_reports,
    diagnose_run,
)
from .errors import ConfigError, EvalKitError, IngestError
from .importance import (
    ComponentScores,
    ImportanceConfig,
    ScoredTitle,
    importance_score,
    linear_score,
    log_scale_score,
    score_catalog,
)
from .metrics import (
    ConfidenceBin,
    MetricsReport,
    RankedEntity,
    RunResult,
    evaluate_run,
    precision_at_k,
    precision_at_k_bin,
    recall_at_k,
    recall_at_k_bin,
)
from .relevance import RelevanceSet, emit_qrels, load_qrels, merge_relevance
from .simulate import SimConfig, gen_catalog, gen_clicklog, gen_queries, run_mock_er

__version__ = "0.1.0"
