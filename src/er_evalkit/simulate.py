"""Seeded synthetic fixtures: catalog, queries, mock matcher, click log.

Everything here is a deterministic function of (seed, config). Independent
streams (catalog, queries, matcher noise, clicks) draw from sub-seeds split
off the master seed by label, so regenerating one stream never perturbs the
others. The mock matcher scores candidates by normalized edit-distance
similarity with optional Gaussian noise, which gives the pipeline a ground
truth with controllable, graded errors. Its edit distances come from one
kernel, :class:`PackedMyers`, which packs every catalog name into its own
lane of one Python int and scores a query against all of them in a single
bit-parallel pass; :func:`levenshtein` is its one-lane case. Its noise is
drawn in Box-Muller's polar form (:meth:`~.rng.SplitMix64.polar`): a
title's radius alone bounds its score, so only the titles whose bound can
reach the top list get a full draw. It scores the two halves of the
query list at once (:func:`halves.parts`), the second half's noise stream
jumped past the first half's draws. The click log draws each shown list's
replays as one batch of uniforms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import add, ge, neg
from pathlib import Path
from typing import Iterator, Sequence

from .catalog import (BASICS_COLUMNS, MISSING_TOKEN, RANKS_COLUMNS,
                      RATINGS_COLUMNS, Catalog, Title, assign_pseudo_ranks)
from .clickstream import ClickEvent, normalize_query
from .errors import ConfigError
from .halves import parts
from .jsonl import make_dirs, write_lines
from .metrics import RunResult
from .relevance import write_qrels
from .rng import MAX_RADIUS, SplitMix64, derive_seed

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
        if not (math.isfinite(self.score_noise_sigma)
                and self.score_noise_sigma >= 0):
            raise ConfigError(f"score_noise_sigma must be finite and >= 0, "
                              f"got {self.score_noise_sigma}")
        # A draw is at most sigma * MAX_RADIUS, and rounding is monotone, so
        # every score is finite when that product is; past it, one can
        # overflow.
        if not math.isfinite(self.score_noise_sigma * MAX_RADIUS):
            raise ConfigError(
                f"score_noise_sigma must keep scores finite (noise reaches "
                f"{MAX_RADIUS:.4f} sigma), got {self.score_noise_sigma}")
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


class PackedMyers:
    """Edit distances from one text to many fixed patterns in one pass.

    Myers' bit-parallel algorithm (1999) holds a column of the edit-distance
    matrix as two bit vectors, VP and VN, the +1 and -1 vertical deltas, one
    bit per pattern character. Following Hyyrö, Fredriksson & Navarro
    (2005), every pattern gets its own lane of bits in one Python int, each
    lane starting on a byte boundary, so one step per text character
    advances every pattern at once. Nothing crosses a lane edge: the add
    masks off each lane's top bit and XORs it back in, and the shift clears
    each top bit before and sets each low bit after. The distance to a
    pattern is ``len(text) + popcount(VP) - popcount(VN)`` over its lane,
    read for all lanes from one SWAR popcount.
    """

    def __init__(self, patterns: Sequence[str]):
        self._widths = [len(pattern) for pattern in patterns]
        # Lane i covers bytes bounds[i]:bounds[i + 1].
        bounds = [0]
        for width in self._widths:
            bounds.append(bounds[-1] + (width + 7) // 8)
        self._starts, self._ends = bounds[:-1], bounds[1:]
        self._n_bytes = n_bytes = bounds[-1]
        masks: dict[str, bytearray] = {}
        lanes, tops, lows = (bytearray(n_bytes) for _ in range(3))
        for pattern, start, width in zip(patterns, self._starts, self._widths):
            for j, ch in enumerate(pattern):
                byte, flag = start + (j >> 3), 1 << (j & 7)
                if ch not in masks:
                    masks[ch] = bytearray(n_bytes)
                masks[ch][byte] |= flag
                lanes[byte] |= flag
            if width:
                lows[start] |= 1
                tops[start + ((width - 1) >> 3)] |= 1 << ((width - 1) & 7)

        def to_int(buf: bytes) -> int:
            return int.from_bytes(buf, "little")

        self._masks = {ch: to_int(buf) for ch, buf in masks.items()}
        self._lanes, self._tops, self._lows = map(to_int, (lanes, tops, lows))
        self._swar = tuple(to_int(byte * n_bytes)
                           for byte in (b"\x55", b"\x33", b"\x0f"))

    def _byte_popcounts(self, x: int) -> int:
        m1, m2, m4 = self._swar
        x -= (x >> 1) & m1
        x = (x & m2) + ((x >> 2) & m2)
        return (x + (x >> 4)) & m4

    def distances(self, text: str) -> list[int]:
        """Edit distance from ``text`` to each pattern, in pattern order."""
        masks, lanes, tops, lows = (self._masks, self._lanes, self._tops,
                                    self._lows)
        body = lanes ^ tops
        vp, vn = lanes, 0
        for ch in text:
            pm = masks.get(ch, 0)
            x = pm & vp
            d0 = ((((x & body) + (vp & body)) ^ ((x ^ vp) & tops)) ^ vp
                  | pm | vn)
            hp = vn | (lanes ^ (d0 | vp))
            hn = d0 & vp
            hp = ((hp & body) << 1) | lows
            hn = (hn & body) << 1
            vp = hn | (lanes ^ (d0 | hp))
            vn = d0 & hp
        # A lane's byte sum is popcount(VP) + width - popcount(VN). Per byte
        # the two counts add to at most 16, so no byte carries.
        counts = (self._byte_popcounts(vp)
                  + self._byte_popcounts(lanes ^ vn)).to_bytes(
                      self._n_bytes, "little")
        sums = list(accumulate(counts, initial=0))
        n = len(text)
        return [n - width + sums[end] - sums[start] for start, end, width
                in zip(self._starts, self._ends, self._widths)]


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert, delete, substitute all cost 1)."""
    return PackedMyers([a]).distances(b)[0]


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
    and rank is the pseudo-rank :func:`~.catalog.assign_pseudo_ranks`
    derives from them, as ingestion does for a catalog without ranks.
    """
    rng = SplitMix64(derive_seed(config.seed, "catalog"))
    used_names: set[str] = set()
    rows = {}
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
        entity_id = f"tt{i:07d}"
        rows[entity_id] = [entity_id, name, year, None, count, rating]
    assign_pseudo_ranks(rows)
    return Catalog(titles=[Title(*row) for row in rows.values()])


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
            if not base:
                raise ConfigError(f"title {title.entity_id} has a blank name")
            if base in used:
                raise ConfigError(
                    f"cannot produce a distinct query for {title.entity_id}")
            query = base
        used.add(query)
        out.append((query, title.entity_id))
    return out


def _reaching(values, floor: float, among: Sequence[int]) -> list[int]:
    """The items of ``among`` whose value, in step, is at least floor."""
    return list(compress(among, map(ge, values, repeat(floor))))


def run_mock_er(catalog: Catalog, queries: list[tuple[str, str]],
                config: SimConfig) -> list[RunResult]:
    """Score every catalog title per query, keep the top retrieve_m.

    Score = edit-distance similarity against the normalized title name,
    plus Gaussian noise when score_noise_sigma > 0. Ties break by
    entity_id so output order is total. The names are packed once into a
    :class:`PackedMyers`; each query then takes one kernel pass and one
    batch of noise draws, in title order, completed only where needed.

    A draw never exceeds its radius, so ``similarity + radius`` bounds a
    title's score (the threshold idea of Fagin, Lotem & Naor 2001). The
    exact scores of the 2·retrieve_m most similar titles set a cut that
    retrieve_m titles reach, so a title whose bound falls below it cannot
    make the list. Only titles whose similarity plus the batch's largest
    radius reaches the cut get a radius, and only those whose bound does
    get a full draw and a rank. A title at the cut can still win on
    entity_id, so it stays.

    The halves of ``queries`` are scored at once where they can be
    (:func:`halves.parts`), the second's stream jumped past the first's
    2·n_titles draws per noisy query (:meth:`~.rng.SplitMix64.skip`).
    """
    sigma, top_m = config.score_noise_sigma, config.retrieve_m
    t_high, t_medium = config.bin_thresholds
    ids = [title.entity_id for title in catalog.titles]
    names = [normalize_query(title.name) for title in catalog.titles]
    widths = [len(name) for name in names]
    kernel = PackedMyers(names)
    everyone = range(len(ids))

    def part(start: int, end: int | None) -> Iterator[tuple]:
        """(query, (ids, scores, levels)) of each of queries[start:end]."""
        rng = SplitMix64(derive_seed(config.seed, "matcher"))
        rng.skip(2 * len(ids) * start if sigma > 0.0 else 0)
        for query, _truth in queries[start:end]:
            # An empty query against an empty name is identical: similarity 1.
            m = len(query) or 1
            sims = [1.0 - d / (w if w > m else m)
                    for d, w in zip(kernel.distances(query), widths)]
            pool, scores = everyone, sims
            if sigma > 0.0:
                noise = rng.polar(len(ids), sigma)
                if len(ids) > 2 * top_m:
                    # The 2m most similar titles' exact scores set a cut m
                    # titles reach; only titles whose bound reaches it rank.
                    best = _reaching(sims, sorted(sims)[-2 * top_m], everyone)
                    cut = sorted(map(add, map(sims.__getitem__, best),
                                     noise.draws(best)))[-top_m]
                    near = _reaching(map(add, sims, repeat(
                        noise.radius_bound())), cut, everyone)
                    pool = _reaching(map(add, map(sims.__getitem__, near),
                                         noise.radii(near)), cut, near)
                scores = map(add, map(sims.__getitem__, pool),
                             noise.draws(pool))
            # The smallest (-score, entity_id) pairs rank by score, then id.
            top = heapq.nsmallest(top_m, zip(map(neg, scores),
                                             map(ids.__getitem__, pool)))
            # Ids are distinct and scores fall; a level is thresholds missed.
            scores = tuple(-key for key, _ in top)
            yield query, (tuple(entity_id for _, entity_id in top), scores,
                          bytes((s < t_high) + (s < t_medium) for s in scores))

    with parts(part, None, len(queries) // 2 or None) as lists:
        return [RunResult(query, columns=columns) for query, columns in lists]


def gen_clicklog(run: list[RunResult], truth: dict[str, str],
                 config: SimConfig) -> Iterator[ClickEvent]:
    """Replay each result list as impression events with position-biased clicks.

    Only the true entity is ever clicked: when it is shown at 1-based
    position p, each replay clicks it with probability decay^(p−1).
    """
    rng = SplitMix64(derive_seed(config.seed, "clicklog"))
    decay = config.click_position_decay
    for result in run:
        impressions = result.ids
        if not impressions:
            continue
        truth_id = truth.get(result.query)
        position = (impressions.index(truth_id) + 1
                    if truth_id in impressions else None)
        # Events are immutable, so every replay yields one of two objects.
        shown = ClickEvent(query=result.query, impressions=impressions)
        if position is None:
            yield from repeat(shown, config.n_replays)
            continue
        click_prob = decay ** (position - 1)
        hit = ClickEvent(query=result.query, impressions=impressions,
                         clicked=truth_id)
        for u in rng.uniforms(config.n_replays):
            yield hit if u < click_prob else shown


def write_catalog_tsv(catalog: Catalog, out_dir: str | Path,
                      ) -> tuple[Path, Path, Path]:
    """Write basics/ratings/ranks TSVs in the ingestable dump format."""
    out_dir = Path(out_dir)
    make_dirs(out_dir)
    paths = []
    for name, header, attrs in (
            ("basics", BASICS_COLUMNS, ("name", "release_year")),
            ("ratings", RATINGS_COLUMNS, ("rating", "rating_count")),
            ("ranks", RANKS_COLUMNS, ("rank",))):
        paths.append(out_dir / f"{name}.tsv")
        rows = ([t.entity_id, *(MISSING_TOKEN if v is None else str(v)
                                for v in [getattr(t, a) for a in attrs])]
                for t in catalog.titles)
        write_lines(paths[-1], map("\t".join, chain([header], rows)))
    return tuple(paths)


def write_truth_qrels(queries: list[tuple[str, str]], path: str | Path) -> int:
    """Write the simulator's ground truth in qrels format."""
    return write_qrels({query: [truth] for query, truth in queries}, path)
