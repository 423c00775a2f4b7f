"""Independent brute-force oracles used to verify the library.

Everything here recomputes results from first principles with explicit
loops and exact rational arithmetic, deliberately avoiding the set algebra
and bit tricks the library uses. Keep this module dependency-free of
er_evalkit internals beyond plain data, so an implementation bug cannot
leak into its own oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

BIN_VALUES = ("high", "medium", "low")


@dataclass(frozen=True)
class OracleItem:
    entity_id: str
    bin: str


@dataclass(frozen=True)
class Instance:
    """One randomized metric test case."""

    relevant: tuple[str, ...]
    ranked: tuple[OracleItem, ...]
    k: int


def brute_recall_at_k(relevant, ranked, k) -> Fraction | None:
    """Recall by direct enumeration: count relevant ids found in top k."""
    if not relevant:
        return None
    hits = 0
    for rel_id in relevant:
        found = False
        for item in list(ranked)[:k]:
            if item.entity_id == rel_id:
                found = True
        if found:
            hits += 1
    return Fraction(hits, len(relevant))


def brute_precision_at_k(relevant, ranked, k) -> Fraction | None:
    if not ranked:
        return None
    top = list(ranked)[:k]
    hits = 0
    for item in top:
        for rel_id in relevant:
            if item.entity_id == rel_id:
                hits += 1
                break
    return Fraction(hits, len(top))


def brute_recall_at_k_bin(relevant, ranked, k, bin_value) -> Fraction | None:
    if not relevant:
        return None
    hits = 0
    for rel_id in relevant:
        found = False
        for item in list(ranked)[:k]:
            if item.bin == bin_value and item.entity_id == rel_id:
                found = True
        if found:
            hits += 1
    return Fraction(hits, len(relevant))


def brute_precision_at_k_bin(relevant, ranked, k, bin_value) -> Fraction | None:
    top_in_bin = [item for item in list(ranked)[:k] if item.bin == bin_value]
    if not top_in_bin:
        return None
    hits = 0
    for item in top_in_bin:
        for rel_id in relevant:
            if item.entity_id == rel_id:
                hits += 1
                break
    return Fraction(hits, len(top_in_bin))


def brute_classify(relevant, ranked, k, target_bin):
    """Failure category, best rank and best bin by explicit enumeration.

    Returns (category, best_rank, best_bin) with the category as its string
    value; best_rank is 1-based and, like best_bin, None when no relevant id
    was retrieved. Bins compare by their position in BIN_VALUES, which lists
    them strongest first.
    """
    target_level = BIN_VALUES.index(target_bin)
    found_in_top = False
    found_at_target = False
    best_rank = None
    best_bin = None
    position = 0
    for item in ranked:
        position += 1
        is_relevant = False
        for rel_id in relevant:
            if item.entity_id == rel_id:
                is_relevant = True
        if not is_relevant:
            continue
        if best_rank is None:
            best_rank = position
            best_bin = item.bin
        if position <= k:
            found_in_top = True
            if BIN_VALUES.index(item.bin) <= target_level:
                found_at_target = True
    if found_at_target:
        category = "success"
    elif found_in_top:
        category = "binning_miss"
    elif best_rank is not None:
        category = "ranking_miss"
    else:
        category = "retrieval_miss"
    return category, best_rank, best_bin


def random_instance(rng: random.Random) -> Instance:
    """Small random instance: ≤ 8 ranked items, ≤ 4 relevant, k ∈ {1,3,5}.

    Relevant ids are drawn from a universe slightly larger than the ranked
    list so misses, partial hits, and unretrieved relevants all occur.
    """
    universe = [f"e{i}" for i in range(12)]
    n_ranked = rng.randint(0, 8)
    ranked_ids = rng.sample(universe, n_ranked)
    ranked = tuple(OracleItem(entity_id=eid, bin=rng.choice(BIN_VALUES))
                   for eid in ranked_ids)
    n_relevant = rng.randint(0, 4)
    relevant = tuple(rng.sample(universe, n_relevant))
    k = rng.choice((1, 3, 5))
    return Instance(relevant=relevant, ranked=ranked, k=k)


def dp_levenshtein(a: str, b: str) -> int:
    """Textbook dynamic-programming edit distance."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(cur[j - 1] + 1,
                           prev[j] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def similarity(a: str, b: str) -> float:
    """1 − distance/max(len); identical strings (even empty) score 1.0."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - dp_levenshtein(a, b) / longest


def binomial_bounds(p: float, n: int, z: float = 2.576) -> tuple[float, float]:
    """Normal-approximation confidence bounds for a binomial proportion.

    z = 2.576 gives the two-sided 99% interval.
    """
    half = z * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half
