"""Relevance test-set generation and bin-aware evaluation for entity resolution."""

from .metrics import ConfidenceBin, RankedEntity, RunResult, evaluate_run

__version__ = "0.1.0"
