"""Seeded inputs for the benchmark workloads.

Standard library only, and deliberately independent of ``er_evalkit``: a
change to the package must never change the inputs a workload runs on. The
only source of randomness is the workload seed. Each generator writes its
files and returns what it planted (the expected results the output checks
compare against) plus a summary of the input properties.

Files are formatted by hand rather than with ``json.dumps`` because every
string written here is plain ASCII without quotes or backslashes; that keeps
set-up time small next to the stages being measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"

# testset: sizes and shape of the catalog and click log.
TESTSET_TITLES = 25_000
TESTSET_QUERIES = 7_500
TESTSET_EVENTS = 100_000
TESTSET_ZIPF_S = 1.0
TESTSET_CANDIDATES = 15      # entities a query's result lists draw from
TESTSET_SHOWN = 10           # impressions per event
TESTSET_MALFORMED = 0.005    # share of click-log lines the parser must reject
TESTSET_BAD_YEAR = 0.002     # share of basics rows ingest must reject
TESTSET_NO_YEAR = 0.01
TESTSET_NO_RATINGS = 0.03
TESTSET_VARIANT = 0.05       # events whose query differs only in case/spaces

# evaluate: qrels and two runs over them.
EVALUATE_QUERIES = 10_000
EVALUATE_LIST = 20
EVALUATE_MISSING = 0.10      # qrels queries a run does not answer
EVALUATE_EXTRA = 0.05        # run queries that are not in the qrels
EVALUATE_NON_MONOTONE = 0.02 # lists with a score rising down the list
EVALUATE_K = 5               # the CLI default cutoff
BIN_HIGH, BIN_MEDIUM = 0.8, 0.5

# Where a relevant id lands in a result list: in the top k, below it, or
# absent. The candidate run is the better system.
_PLACEMENT = {"baseline": (0.55, 0.20, 0.25), "candidate": (0.65, 0.17, 0.18)}
CATEGORIES = ("success", "binning_miss", "ranking_miss", "retrieval_miss")


_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _vocabulary(rng: random.Random, n: int) -> list[str]:
    """n distinct pseudo-words of 2–4 consonant-vowel syllables."""
    rand, k = rng.random, len(_SYLLABLES)
    words: dict[str, None] = {}
    while len(words) < n:
        words["".join(_SYLLABLES[int(rand() * k)]
                      for _ in range(2 + int(rand() * 3)))] = None
    return list(words)


def _distinct_names(rng: random.Random, n: int, words: tuple[int, int],
                    taken: set[str] | None = None) -> list[str]:
    """n names of `words` title-cased pseudo-words, distinct in lower case."""
    vocab = [w.capitalize() for w in _vocabulary(rng, 3000)]
    rand, k = rng.random, len(vocab)
    lo, span = words[0], words[1] - words[0] + 1
    seen = set() if taken is None else taken
    out = []
    while len(out) < n:
        name = " ".join([vocab[int(rand() * k)]
                         for _ in range(lo + int(rand() * span))])
        key = name.lower()
        if key not in seen:
            seen.add(key)
            out.append(name)
    return out


def _eid(i: int) -> str:
    return f"tt{i:07d}"


def _write(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


@dataclass
class Generated:
    """What a generator planted: work unit, expected results, properties."""

    unit: int
    expected: dict = field(default_factory=dict)
    props: dict = field(default_factory=dict)


# ---------------------------------------------------------------- testset

def _importance_truth(titles: dict[str, tuple]) -> dict[str, float]:
    """Expected importance per valid title at the CLI defaults.

    Same arithmetic, in the same order, as the documented score: year on a
    linear min-max scale, rank (inverted) and rating count on a log min-max
    scale fit from the catalog, an absent feature scoring 0.5, and equal
    weights of 1/3.
    """
    years = [y for y, _, _ in titles.values() if y is not None]
    ranks = [r for _, r, _ in titles.values() if r is not None]
    counts = [c for _, _, c in titles.values() if c is not None]
    lo_y, hi_y = min(years), max(years)
    lo_r, hi_r = min(ranks), max(ranks)
    hi_c = max(1, max(counts))

    def log_score(x, lo, hi, invert=False):
        if lo == hi:
            return 1.0
        s = (math.log(x) - math.log(lo)) / (math.log(hi) - math.log(lo))
        s = min(1.0, max(0.0, s))
        return 1.0 - s if invert else s

    w = 1 / 3
    out = {}
    for eid, (year, rank, count) in titles.items():
        if year is None:
            ys = 0.5
        elif lo_y == hi_y:
            ys = 1.0
        else:
            ys = min(1.0, max(0.0, (year - lo_y) / (hi_y - lo_y)))
        rs = 0.5 if rank is None else log_score(rank, lo_r, hi_r, invert=True)
        cs = 0.5 if count is None else log_score(max(1, count), 1, hi_c)
        out[eid] = w * ys + w * rs + w * cs
    return out


def _malformed_event(rng: random.Random, kind: int, query: str,
                     ids: str) -> str:
    if kind == 0:    # cut mid-line: invalid JSON
        line = f'{{"query":"{query}","impressions":[{ids}],"clicked":null}}'
        return line[:rng.randint(5, len(line) - 5)]
    if kind == 1:    # clicked id not among the impressions
        return (f'{{"query":"{query}","impressions":[{ids}],'
                f'"clicked":"tt9999999","ts":null}}')
    if kind == 2:    # empty impressions
        return f'{{"query":"{query}","impressions":[],"clicked":null,"ts":null}}'
    if kind == 3:    # ts is not an integer
        return (f'{{"query":"{query}","impressions":[{ids}],"clicked":null,'
                f'"ts":"2022-05-20"}}')
    if kind == 4:    # blank query
        return f'{{"query":"   ","impressions":[{ids}],"clicked":null,"ts":null}}'
    return f'[{ids}]'  # not an object


def gen_testset(seed: int, out: Path) -> Generated:
    """Catalog TSVs plus a Zipf-skewed click log, with the expected results.

    Each query targets one title. Its result lists draw TESTSET_SHOWN of
    TESTSET_CANDIDATES entities, so frequent queries grow the distinct-pair
    count up to the candidate set while rare ones stop near TESTSET_SHOWN.
    The target is clicked with a position-decayed probability and other
    entities only rarely, so only frequent queries survive the CTR filter.
    """
    rng = random.Random(f"testset:{seed}")
    n = TESTSET_TITLES
    names = _distinct_names(rng, n, (1, 3))
    basics, ratings = ["tconst\tprimaryTitle\tstartYear"], \
        ["tconst\taverageRating\tnumVotes"]
    raw_counts = {}
    valid: dict[str, list] = {}
    bad_rows = 0
    for i in range(1, n + 1):
        eid = _eid(i)
        roll = rng.random()
        year = rng.randint(1950, 2024)
        if roll < TESTSET_BAD_YEAR:
            basics.append(f"{eid}\t{names[i - 1]}\t{year}?")
            bad_rows += 1
        elif roll < TESTSET_BAD_YEAR + TESTSET_NO_YEAR:
            basics.append(f"{eid}\t{names[i - 1]}\t\\N")
            valid[eid] = [None, None, None]
        else:
            basics.append(f"{eid}\t{names[i - 1]}\t{year}")
            valid[eid] = [year, None, None]
        if rng.random() >= TESTSET_NO_RATINGS:
            count = max(1, round(math.exp(rng.gauss(math.log(1000), 2.0))))
            rating = round(1.0 + 9.0 * rng.random(), 1)
            ratings.append(f"{eid}\t{rating}\t{count}")
            raw_counts[eid] = count
    ranks = ["tconst\trank"]
    order = sorted(range(1, n + 1),
                   key=lambda i: (-raw_counts.get(_eid(i), 0), i))
    for rank, i in enumerate(order, start=1):
        eid = _eid(i)
        ranks.append(f"{eid}\t{rank}")
        if eid in valid:
            valid[eid][1] = rank
            valid[eid][2] = raw_counts.get(eid)
    _write(out / "basics.tsv", basics)
    _write(out / "ratings.tsv", ratings)
    _write(out / "ranks.tsv", ranks)
    importance = _importance_truth({e: tuple(v) for e, v in valid.items()})

    # Queries: Zipf rank r has weight r^-s; each targets a distinct title.
    nq = TESTSET_QUERIES
    targets = rng.sample(range(1, n + 1), nq)
    queries = [names[t - 1].lower() for t in targets]
    candidates = []
    for t in targets:
        others = {t}
        while len(others) < TESTSET_CANDIDATES:
            others.add(1 + int(rng.random() * n))
        others.remove(t)
        candidates.append((_eid(t), [_eid(i) for i in sorted(others)]))
    cum, total = [], 0.0
    for r in range(1, nq + 1):
        total += r ** -TESTSET_ZIPF_S
        cum.append(total)
    picks = rng.choices(range(nq), cum_weights=cum, k=TESTSET_EVENTS)

    # Query q's result lists hold its target at position `pos` and a window
    # of TESTSET_SHOWN - 1 of its other candidates, starting at `offset`.
    # Impressions are tallied per window offset and expanded afterwards.
    rand = rng.random
    n_others, window = TESTSET_CANDIDATES - 1, TESTSET_SHOWN - 1
    formatted: dict[tuple[int, int, int], str] = {}
    offsets: list[list[int] | None] = [None] * nq
    clicks: dict[tuple[str, str], int] = {}
    lines = []
    malformed = variants = 0
    for ev, q in enumerate(picks):
        query = queries[q]
        target, others = candidates[q]
        offset = int(rand() * n_others)
        pos = 0 if rand() < 0.6 else 1 + int(rand() * window)
        ids = formatted.get((q, offset, pos))
        if ids is None:
            shown = [others[(offset + j) % n_others] for j in range(window)]
            shown.insert(pos, target)
            ids = formatted[(q, offset, pos)] = ",".join(f'"{e}"' for e in shown)
        if rand() < TESTSET_MALFORMED:
            lines.append(_malformed_event(rng, malformed % 6, query, ids))
            malformed += 1
            continue
        hist = offsets[q]
        if hist is None:
            hist = offsets[q] = [0] * n_others
        hist[offset] += 1
        if rand() < 0.8 * 0.7 ** pos:
            clicked = target
        elif rand() < 0.03:
            j = int(rand() * TESTSET_SHOWN)
            clicked = (target if j == pos
                       else others[(offset + j - (j > pos)) % n_others])
        else:
            clicked = None
        if clicked is None:
            click = "null"
        else:
            click = f'"{clicked}"'
            clicks[(query, clicked)] = clicks.get((query, clicked), 0) + 1
        written = query
        if rand() < TESTSET_VARIANT:
            written = "  " + query.title().replace(" ", "   ") + " "
            variants += 1
        ts = "null" if ev % 3 == 0 else str(1_650_000_000 + ev)
        lines.append(f'{{"query":"{written}","impressions":[{ids}],'
                     f'"clicked":{click},"ts":{ts}}}')
    _write(out / "clicklog.jsonl", lines)

    # Distinct pairs: each query's target plus every candidate some window
    # covered. Only clicked pairs can pass min_ctr, so only they need nimp.
    n_pairs = n_queries_seen = 0
    by_query = {}
    for q, hist in enumerate(offsets):
        if hist is None:
            continue
        n_queries_seen += 1
        by_query[queries[q]] = q
        covered = {(o + j) % n_others
                   for o, c in enumerate(hist) if c for j in range(window)}
        n_pairs += 1 + len(covered)
    kept = {}
    for (query, eid), nclick in clicks.items():
        q = by_query[query]
        hist = offsets[q]
        target, others = candidates[q]
        if eid == target:
            nimp = sum(hist)
        else:
            m = others.index(eid)
            nimp = sum(hist[(m - d) % n_others] for d in range(window))
        if nimp >= 25 and nclick / nimp >= 0.3:
            kept[(query, eid)] = (nimp, nclick)
    qrels: dict[str, list[str]] = {}
    for (query, eid) in kept:
        if importance.get(eid, -1.0) >= 0.3:
            qrels.setdefault(query, []).append(eid)
    return Generated(
        unit=TESTSET_EVENTS,
        expected={
            "titles": len(valid), "basics_rejects": bad_rows,
            "importance": importance, "events": TESTSET_EVENTS - malformed,
            "rejected": malformed, "pairs": n_pairs, "kept": kept,
            "qrels": {q: sorted(ids) for q, ids in qrels.items()},
        },
        props={
            "titles": n, "basics_rejected_share": bad_rows / n,
            "events": TESTSET_EVENTS, "query_pool": nq,
            "distinct_queries": n_queries_seen,
            "distinct_pairs": n_pairs, "zipf_s": TESTSET_ZIPF_S,
            "malformed_share": malformed / TESTSET_EVENTS,
            "query_variant_share": variants / TESTSET_EVENTS,
            "kept_pairs": len(kept), "qrels_queries": len(qrels),
        },
    )


# --------------------------------------------------------------- evaluate

def _ranked_list(rng: random.Random, relevant: list[str], placement,
                 universe: int) -> list[tuple[str, float, str]]:
    """One descending result list with each relevant id placed by plan."""
    scores = sorted((rng.random() for _ in range(EVALUATE_LIST)), reverse=True)
    slots: list[str | None] = [None] * EVALUATE_LIST
    p_top, p_low, _ = placement
    for eid in relevant:
        roll = rng.random()
        if roll < p_top:
            free = [i for i in range(EVALUATE_K) if slots[i] is None]
        elif roll < p_top + p_low:
            free = [i for i in range(EVALUATE_K, EVALUATE_LIST)
                    if slots[i] is None]
        else:
            continue
        if free:
            slots[rng.choice(free)] = eid
    taken = set(relevant)
    for i in range(EVALUATE_LIST):
        while slots[i] is None:
            eid = _eid(rng.randrange(1, universe))
            if eid not in taken:
                taken.add(eid)
                slots[i] = eid
    return [(eid, s, "high" if s >= BIN_HIGH else "medium" if s >= BIN_MEDIUM
             else "low") for eid, s in zip(slots, scores)]


def _truth(relevant: list[str], ranked) -> tuple[str, int, int]:
    """(diagnosis category, relevant hits in top k, high-bin hits in top k)."""
    rel = set(relevant)
    top = [b for eid, _, b in ranked[:EVALUATE_K] if eid in rel]
    high = top.count("high")
    if high:
        category = "success"
    elif top:
        category = "binning_miss"
    elif any(eid in rel for eid, _, _ in ranked):
        category = "ranking_miss"
    else:
        category = "retrieval_miss"
    return category, len(top), high


def gen_evaluate(seed: int, out: Path) -> Generated:
    """Qrels plus a baseline and a candidate run, with planted metric truth."""
    rng = random.Random(f"evaluate:{seed}")
    universe = 200_000
    names = [n.lower() for n in
             _distinct_names(rng, EVALUATE_QUERIES, (2, 3))]
    qrels = {}
    for query in names:
        qrels[query] = sorted({_eid(rng.randrange(1, universe))
                               for _ in range(rng.randint(1, 3))})
    _write(out / "qrels.jsonl", [
        '{"query":"%s","relevant":[%s]}' % (q, ",".join(f'"{e}"' for e in ids))
        for q, ids in sorted(qrels.items())])

    taken = set(qrels)
    expected, props = {}, {}
    for side, placement in _PLACEMENT.items():
        answered = [q for q in names if rng.random() >= EVALUATE_MISSING]
        n_extra = round(len(answered) * EVALUATE_EXTRA / (1 - EVALUATE_EXTRA))
        extra = [n.lower() for n in _distinct_names(rng, n_extra, (2, 3), taken)]
        order = answered + extra
        rng.shuffle(order)
        categories = dict.fromkeys(CATEGORIES, 0)
        top = high = p1 = p1_den = rel_total = non_monotone = 0
        lines = []
        answered_set = set(answered)
        for query in order:
            relevant = qrels.get(query, [])
            ranked = _ranked_list(rng, relevant, placement, universe)
            if rng.random() < EVALUATE_NON_MONOTONE:
                j = rng.randrange(EVALUATE_LIST - 1)
                (a, sa, ba), (b, sb, bb) = ranked[j], ranked[j + 1]
                ranked[j], ranked[j + 1] = (a, sb, ba), (b, sa, bb)
                non_monotone += 1
            if relevant:
                cat, t, h = _truth(relevant, ranked)
                categories[cat] += 1
                top += t
                high += h
                if ranked[0][2] == "high":
                    p1_den += 1
                    p1 += ranked[0][0] in relevant
            lines.append('{"query":"%s","results":[%s]}' % (query, ",".join(
                '{"entity_id":"%s","score":%r,"bin":"%s"}' % r for r in ranked)))
        for query, relevant in qrels.items():
            rel_total += len(relevant)
            if query not in answered_set:
                categories["retrieval_miss"] += 1
        _write(out / f"{side}.jsonl", lines)
        expected[side] = {
            "evaluated": len(answered), "skipped": len(names) - len(answered),
            "ignored": len(extra), "non_monotone": non_monotone,
            "categories": categories,
            "recall": top / rel_total, "recall_high": high / rel_total,
            "p1_high": p1 / p1_den if p1_den else None,
            "entries": len(order) * EVALUATE_LIST,
        }
        props[side] = {
            "run_queries": len(order),
            "missing_qrels_share": 1 - len(answered) / len(names),
            "extra_run_share": len(extra) / len(order),
            "non_monotone_share": non_monotone / len(order),
        }
    props.update(qrels_queries=len(qrels), list_length=EVALUATE_LIST,
                 relevant_per_query=rel_total / len(qrels))
    # Entries read: evaluate reads both runs, diagnose the candidate again.
    unit = expected["baseline"]["entries"] + 2 * expected["candidate"]["entries"]
    return Generated(unit=unit, expected=expected, props=props)
