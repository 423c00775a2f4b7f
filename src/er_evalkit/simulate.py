"""Seeded synthetic fixtures: catalog, queries, mock matcher, click log.

Everything here is a deterministic function of (seed, config). Independent
streams (catalog, queries, matcher noise, clicks) draw from sub-seeds split
off the master seed by label, so regenerating one stream never perturbs the
others. The mock matcher scores candidates by normalized edit-distance
similarity with optional Gaussian noise, which gives the pipeline a ground
truth with controllable, graded errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .catalog import (BASICS_COLUMNS, MISSING_TOKEN, RANKS_COLUMNS,
                      RATINGS_COLUMNS, Catalog, Title)
from .clickstream import ClickEvent, normalize_query
from .errors import ConfigError
from .jsonl import write_jsonl
from .metrics import ConfidenceBin, RankedEntity, RunResult
from .rng import SplitMix64, derive_seed

DEFAULT_BIN_THRESHOLDS = (0.8, 0.5)

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_TYPO_OPS = ("substitute", "delete", "duplicate")


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation; defaults are the documented noisy setup."""

    seed: int
    n_titles: int = 1000
    n_queries: int = 500
    typo_rate: float = 0.02
    score_noise_sigma: float = 0.05
    bin_thresholds: tuple[float, float] = DEFAULT_BIN_THRESHOLDS
    retrieve_m: int = 10
    click_position_decay: float = 0.7
    n_replays: int = 200

    def __post_init__(self):
        if self.n_titles < 1:
            raise ConfigError(f"n_titles must be >= 1, got {self.n_titles}")
        if self.n_queries < 1:
            raise ConfigError(f"n_queries must be >= 1, got {self.n_queries}")
        if self.n_queries > self.n_titles:
            raise ConfigError(
                f"n_queries ({self.n_queries}) cannot exceed n_titles "
                f"({self.n_titles}): queries sample distinct titles")
        if not 0.0 <= self.typo_rate <= 1.0:
            raise ConfigError(f"typo_rate {self.typo_rate} outside [0, 1]")
        if self.score_noise_sigma < 0:
            raise ConfigError(
                f"score_noise_sigma must be >= 0, got {self.score_noise_sigma}")
        t_high, t_medium = self.bin_thresholds
        if not (1.0 >= t_high > t_medium >= 0.0):
            raise ConfigError(
                f"bin_thresholds need 1 >= t_high > t_medium >= 0, "
                f"got ({t_high}, {t_medium})")
        if self.retrieve_m < 1:
            raise ConfigError(f"retrieve_m must be >= 1, got {self.retrieve_m}")
        if not 0.0 < self.click_position_decay <= 1.0:
            raise ConfigError(
                f"click_position_decay {self.click_position_decay} "
                f"outside (0, 1]")
        if self.n_replays < 1:
            raise ConfigError(f"n_replays must be >= 1, got {self.n_replays}")


def _pattern_masks(pattern: str) -> dict[str, int]:
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    return masks


def _levenshtein_with_masks(masks: dict[str, int], m: int, text: str) -> int:
    # Myers bit-parallel edit distance; Python ints make any m legal.
    if m == 0:
        return len(text)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp = full
    vn = 0
    score = m
    for ch in text:
        pm = masks.get(ch, 0)
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            score += 1
        elif hn & top:
            score -= 1
        hp = (hp << 1) | 1
        hn = hn << 1
        vp = (hn | ~(d0 | hp)) & full
        vn = d0 & hp
    return score


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert, delete, substitute all cost 1)."""
    return _levenshtein_with_masks(_pattern_masks(a), len(a), b)


def similarity(a: str, b: str) -> float:
    """1 − distance/max(len); identical strings (even empty) score 1.0."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def _syllable(rng: SplitMix64) -> str:
    return rng.choice(_CONSONANTS) + rng.choice(_VOWELS)


def _synthetic_name(rng: SplitMix64) -> str:
    words = []
    for _ in range(rng.randint(1, 2)):
        word = "".join(_syllable(rng) for _ in range(rng.randint(2, 4)))
        words.append(word.capitalize())
    return " ".join(words)


def gen_catalog(config: SimConfig) -> Catalog:
    """Deterministic synthetic catalog of pronounceable titles.

    Rating counts are log-normal so popularity spans orders of magnitude,
    and rank is the ordinal of rating count descending, matching how real
    catalogs derive a pseudo-rank.
    """
    rng = SplitMix64(derive_seed(config.seed, "catalog"))
    used_names: set[str] = set()
    rows = []
    for i in range(1, config.n_titles + 1):
        while True:
            name = _synthetic_name(rng)
            key = normalize_query(name)
            if key not in used_names:
                used_names.add(key)
                break
        year = rng.randint(1950, 2024)
        count = max(1, round(math.exp(rng.gauss(math.log(1000), 2.0))))
        rating = round(1.0 + 9.0 * rng.random(), 1)
        rows.append({"entity_id": f"tt{i:07d}", "name": name,
                     "release_year": year, "rating_count": count,
                     "rating": rating})
    ordering = sorted(rows, key=lambda r: (-r["rating_count"], r["entity_id"]))
    ranks = {row["entity_id"]: ordinal
             for ordinal, row in enumerate(ordering, start=1)}
    titles = [Title(entity_id=row["entity_id"], name=row["name"],
                    release_year=row["release_year"],
                    rank=ranks[row["entity_id"]],
                    rating_count=row["rating_count"], rating=row["rating"])
              for row in rows]
    return Catalog(titles=titles)


def _apply_typos(text: str, rng: SplitMix64, typo_rate: float) -> str:
    if typo_rate == 0.0:
        return text
    out = []
    for ch in text:
        if rng.random() >= typo_rate:
            out.append(ch)
            continue
        op = rng.choice(_TYPO_OPS)
        if op == "substitute":
            out.append(rng.choice(_ALPHABET))
        elif op == "duplicate":
            out.append(ch)
            out.append(ch)
        # delete: drop the character
    return "".join(out)


def gen_queries(catalog: Catalog, config: SimConfig) -> list[tuple[str, str]]:
    """Sample distinct titles and emit (query, true_entity_id) pairs.

    Queries are normalized title names with per-character edits applied at
    typo_rate. Emitted query strings are distinct and nonempty; an edit
    that would collide with an earlier query or delete everything is
    redrawn, with the title name itself as a last resort.
    """
    if not catalog.titles:
        raise ConfigError("cannot generate queries from an empty catalog")
    rng = SplitMix64(derive_seed(config.seed, "queries"))
    # Partial Fisher-Yates: the first n_queries slots end up a uniform
    # sample of distinct titles.
    pool = list(range(len(catalog.titles)))
    for i in range(config.n_queries):
        j = rng.randint(i, len(pool) - 1)
        pool[i], pool[j] = pool[j], pool[i]
    out = []
    used: set[str] = set()
    for i in range(config.n_queries):
        title = catalog.titles[pool[i]]
        base = normalize_query(title.name)
        query = ""
        for _ in range(100):
            candidate = normalize_query(_apply_typos(base, rng, config.typo_rate))
            if candidate and candidate not in used:
                query = candidate
                break
        if not query:
            if base in used:
                raise ConfigError(
                    f"cannot produce a distinct query for {title.entity_id}")
            query = base
        used.add(query)
        out.append((query, title.entity_id))
    return out


def _bin_for(score: float, thresholds: tuple[float, float]) -> ConfidenceBin:
    t_high, t_medium = thresholds
    if score >= t_high:
        return ConfidenceBin.HIGH
    if score >= t_medium:
        return ConfidenceBin.MEDIUM
    return ConfidenceBin.LOW


def run_mock_er(catalog: Catalog, queries: list[tuple[str, str]],
                config: SimConfig) -> list[RunResult]:
    """Score every catalog title per query, keep the top retrieve_m.

    Score = edit-distance similarity against the normalized title name,
    plus Gaussian noise when score_noise_sigma > 0. Ties break by
    entity_id so output order is total.
    """
    rng = SplitMix64(derive_seed(config.seed, "matcher"))
    sigma = config.score_noise_sigma
    names = [(title.entity_id, normalize_query(title.name))
             for title in catalog.titles]
    results = []
    for query, _truth in queries:
        masks = _pattern_masks(query)
        m = len(query)
        scored = []
        for entity_id, name in names:
            longest = max(m, len(name))
            sim = 1.0 - _levenshtein_with_masks(masks, m, name) / longest
            if sigma > 0.0:
                sim += rng.gauss(0.0, sigma)
            scored.append((sim, entity_id))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        ranked = tuple(
            RankedEntity(entity_id=entity_id, score=score,
                         bin=_bin_for(score, config.bin_thresholds))
            for score, entity_id in scored[:config.retrieve_m]
        )
        results.append(RunResult(query=query, ranked=ranked))
    return results


def gen_clicklog(run: list[RunResult], truth: dict[str, str],
                 config: SimConfig) -> Iterator[ClickEvent]:
    """Replay each result list as impression events with position-biased clicks.

    Only the true entity is ever clicked: when it is shown at 1-based
    position p, each replay clicks it with probability decay^(p−1).
    """
    rng = SplitMix64(derive_seed(config.seed, "clicklog"))
    decay = config.click_position_decay
    for result in run:
        impressions = tuple(item.entity_id for item in result.ranked)
        if not impressions:
            continue
        truth_id = truth.get(result.query)
        position = None
        if truth_id is not None and truth_id in impressions:
            position = impressions.index(truth_id) + 1
        click_prob = decay ** (position - 1) if position is not None else 0.0
        for _ in range(config.n_replays):
            clicked = None
            if position is not None and rng.random() < click_prob:
                clicked = truth_id
            yield ClickEvent(query=result.query, impressions=impressions,
                             clicked=clicked)


def write_catalog_tsv(catalog: Catalog, out_dir: str | Path,
                      ) -> tuple[Path, Path, Path]:
    """Write basics/ratings/ranks TSVs in the ingestable dump format."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, header, attrs in (
            ("basics", BASICS_COLUMNS, ("name", "release_year")),
            ("ratings", RATINGS_COLUMNS, ("rating", "rating_count")),
            ("ranks", RANKS_COLUMNS, ("rank",))):
        paths.append(out_dir / f"{name}.tsv")
        with open(paths[-1], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter="\t", quoting=csv.QUOTE_NONE,
                                lineterminator="\n")
            writer.writerow(header)
            for t in catalog.titles:
                values = [getattr(t, attr) for attr in attrs]
                writer.writerow([t.entity_id] + [
                    MISSING_TOKEN if v is None else str(v) for v in values])
    return tuple(paths)


def write_truth_qrels(queries: list[tuple[str, str]], path: str | Path) -> int:
    """Write the simulator's ground truth in qrels format."""
    def rows():
        for query, truth_id in sorted(queries):
            yield {"query": query, "relevant": [truth_id]}

    return write_jsonl(path, rows())
