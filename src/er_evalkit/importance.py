"""Importance scoring over catalog popularity features.

Each title gets three component scores in [0, 1]: release year on a linear
min-max scale, rank and rating count on a log min-max scale (rank inverted,
lower rank means more popular). The importance score is the weighted sum of
the components under simplex weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import add, attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .catalog import Catalog, Title
from .errors import ConfigError
from .jsonl import as_records, fields, iter_records, require, write_jsonl

WEIGHT_SUM_TOL = 1e-9

POLICY_DEFAULT_SCORE = "default_score"
POLICY_EXCLUDE_TITLE = "exclude_title"
_POLICIES = (POLICY_DEFAULT_SCORE, POLICY_EXCLUDE_TITLE)


@dataclass(frozen=True, slots=True)
class ComponentScores:
    release_year_score: float
    rank_score: float
    rating_count_score: float

    def __post_init__(self):
        for name in ("release_year_score", "rank_score", "rating_count_score"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} {value} outside [0, 1]")


@dataclass(frozen=True)
class ScoreBounds:
    """Normalization endpoints, either fixed up front or fit from a catalog.
    Built, the year pair and then the rank pair pass their scales' checks.

    ``scales`` holds the year, rank and rating-count scales, each built
    once here for every title it scores (a log scale takes the logs of its
    bounds once), or None where the pair is degenerate (lo == hi).
    """

    min_year: int
    max_year: int
    min_rank: int
    max_rank: int
    max_rating_count: int
    scales: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        year = rank = count = None
        if self.min_year != self.max_year:
            linear_score(self.min_year, self.min_year, self.max_year)
            year = functools.partial(linear_score, lo=self.min_year,
                                     hi=self.max_year)
        if self.min_rank != self.max_rank:
            rank = _log_scale(self.min_rank, self.max_rank, invert=True)
        # Rating counts floor at 1 (see score_title), so that pins lo.
        if self.max_rating_count > 1:
            count = _log_scale(1, self.max_rating_count)
        object.__setattr__(self, "scales", (year, rank, count))


@dataclass(frozen=True)
class ImportanceConfig:
    """Weights, missing-feature policy, and optional fixed bounds.

    ``bounds=None`` means fit bounds from the catalog being scored. Weights
    must be nonnegative and sum to 1 (within 1e-9).
    """

    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    missing_feature_policy: str = POLICY_DEFAULT_SCORE
    default_component_score: float = 0.5
    bounds: ScoreBounds | None = None

    def __post_init__(self):
        if len(self.weights) != 3:
            raise ConfigError("weights must be a (year, rank, count) triple")
        if not all(map(math.isfinite, self.weights)):
            raise ConfigError(f"weights must be finite, got {self.weights}")
        if any(w < 0 for w in self.weights):
            raise ConfigError(f"weights must be nonnegative, got {self.weights}")
        # Left to right: since 3.12, sum() compensates, moving digits.
        total = functools.reduce(add, self.weights, 0)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1, got {total!r}")
        if self.missing_feature_policy not in _POLICIES:
            raise ConfigError(
                f"missing_feature_policy must be one of {_POLICIES}, "
                f"got {self.missing_feature_policy!r}")
        if not 0.0 <= self.default_component_score <= 1.0:
            raise ConfigError(
                f"default_component_score {self.default_component_score} "
                f"outside [0, 1]")


@dataclass(frozen=True, slots=True)
class ScoredTitle:
    entity_id: str
    components: ComponentScores
    importance: float


def _position(t: float, lo: float, hi: float) -> float:
    """Where ``t`` sits from ``lo`` (0.0) to ``hi`` (1.0), clamped. Only a
    ``t`` strictly between divides, so an out-of-range ``t`` or bounds too
    close to tell apart never overflow or divide by zero."""
    if lo < t < hi:
        return (t - lo) / (hi - lo)
    return 0.0 if t <= lo else 1.0


def linear_score(x: float, lo: float, hi: float) -> float:
    """Min-max normalize ``x`` into [0, 1], clamping outside values."""
    if lo >= hi:
        raise ConfigError(f"linear bounds need lo < hi, got lo={lo} hi={hi}")
    return _position(x, lo, hi)


def _log_scale(lo: float, hi: float,
               invert: bool = False) -> Callable[[float], float]:
    """``log_scale_score(·, lo, hi, invert)``, with the bounds checked and
    their logs taken once."""
    if lo <= 0 or hi <= 0:
        raise ValueError(f"log scale needs positive bounds, got lo={lo} hi={hi}")
    if lo >= hi:
        raise ConfigError(f"log bounds need lo < hi, got lo={lo} hi={hi}")
    log_lo, log_hi = math.log(lo), math.log(hi)

    def score(x: float) -> float:
        if x <= 0:
            raise ValueError(f"log scale needs x > 0, got {x}")
        s = _position(math.log(x), log_lo, log_hi)
        return 1.0 - s if invert else s

    return score


def log_scale_score(x: float, lo: float, hi: float, invert: bool = False) -> float:
    """Min-max normalize ``ln x`` into [0, 1]; ``invert`` flips the scale.

    Inversion serves rank, where 1 is the most popular title and should
    score highest.
    """
    return _log_scale(lo, hi, invert)(x)


def importance_score(components: ComponentScores,
                     config: ImportanceConfig) -> float:
    w_year, w_rank, w_count = config.weights
    return (w_year * components.release_year_score
            + w_rank * components.rank_score
            + w_count * components.rating_count_score)


def fit_bounds(catalog: Catalog) -> ScoreBounds:
    """Derive normalization endpoints from the feature values present.

    Raises :class:`ConfigError` naming the feature when no title carries it,
    since min-max over an empty set is meaningless.
    """
    ends = []
    for name in ("release_year", "rank", "rating_count"):
        values = [value for value in map(attrgetter(name), catalog.titles)
                  if value is not None]
        if not values:
            raise ConfigError(f"cannot fit bounds: no title has {name}")
        ends += min(values), max(values)
        del values
    return ScoreBounds(*ends[:4], max_rating_count=ends[5])


def _component(value, scale, config: ImportanceConfig):
    """Score one feature on its scale; None means absent and defers to the
    policy.

    Returns the score, or None when the policy excludes the title.
    Degenerate bounds (no scale) carry no information, so every present
    value scores 1.0.
    """
    if value is None:
        if config.missing_feature_policy == POLICY_EXCLUDE_TITLE:
            return None
        return config.default_component_score
    if scale is None:
        return 1.0
    return scale(value)


def score_title(title: Title, bounds: ScoreBounds,
                config: ImportanceConfig) -> ScoredTitle | None:
    """Score one title, or return None when the policy excludes it."""
    # Rating counts can legitimately be 0; the log scale needs positives,
    # so counts floor at 1 and the lower bound is pinned there.
    count = title.rating_count
    if count is not None:
        count = max(1, count)
    year_scale, rank_scale, count_scale = bounds.scales
    year = _component(title.release_year, year_scale, config)
    rank = _component(title.rank, rank_scale, config)
    count_score = _component(count, count_scale, config)
    if year is None or rank is None or count_score is None:
        return None
    components = ComponentScores(year, rank, count_score)
    return ScoredTitle(
        entity_id=title.entity_id,
        components=components,
        importance=importance_score(components, config),
    )


def score_titles(catalog: Catalog,
                 config: ImportanceConfig) -> Iterator[ScoredTitle]:
    """Score the titles one at a time, in entity-id order, skipping those
    the policy excludes.

    The bounds are fit (or taken from ``config``) when this is called, not
    when the first title is drawn: a catalog that cannot be fit fails
    before a consumer opens its output. Each ScoredTitle is built only when
    it is drawn, so :func:`write_scored` holds one at a time.
    """
    bounds = config.bounds
    if bounds is None:
        if not catalog.titles:
            raise ConfigError("cannot fit bounds from an empty catalog")
        bounds = fit_bounds(catalog)
    titles = sorted(catalog.titles, key=attrgetter("entity_id"))
    scored = (score_title(title, bounds, config) for title in titles)
    return (item for item in scored if item is not None)


def score_catalog(catalog: Catalog,
                  config: ImportanceConfig) -> tuple[list[ScoredTitle], int]:
    """Score every title; returns (scored sorted by entity_id, excluded tally).

    The list is :func:`score_titles` drawn to its end.
    """
    scored = list(score_titles(catalog, config))
    return scored, len(catalog.titles) - len(scored)


# ComponentScores' fields sit between the id and the importance.
SCORED_FIELDS = (
    ("entity_id", require, (str,)),
    ("release_year_score", require, (int, float)),
    ("rank_score", require, (int, float)),
    ("rating_count_score", require, (int, float)),
    ("importance", require, (int, float)))


def write_scored(scored: Iterable[ScoredTitle], path: str | Path) -> int:
    return write_jsonl(path, as_records(SCORED_FIELDS, map(attrgetter(
        "entity_id", "components.release_year_score", "components.rank_score",
        "components.rating_count_score", "importance"), scored)))


def iter_scored(path: str | Path) -> Iterator[ScoredTitle]:
    """Yield each scored title of ``path`` in file order, as it is read.

    Every score is a finite number in [0, 1]. Importance may exceed 1 by
    the weight-sum tolerance, as scoring with weights that sum to
    1 + WEIGHT_SUM_TOL can produce it. A bad line raises an IngestError
    naming the file and line when the stream reaches it.
    """
    def parse(rec: dict) -> ScoredTitle:
        entity_id, *components, importance = fields(rec, SCORED_FIELDS)
        components = ComponentScores(*components)
        if not 0.0 <= importance <= 1.0 + WEIGHT_SUM_TOL:
            raise ValueError(f"importance {importance} outside [0, 1]")
        return ScoredTitle(entity_id, components, importance)

    return iter_records(path, parse, "scored record")


def load_scored(path: str | Path) -> list[ScoredTitle]:
    """Every scored title of ``path``: :func:`iter_scored` as a list."""
    return list(iter_scored(path))
