"""Command-line pipeline: one subcommand per stage, files in, files out.

Configuration resolves in precedence order: explicit flag, then --config
key-value file, then the documented default (printed by --help). Every
subcommand writes machine-readable JSON to stdout, as UTF-8 whatever the
locale: dispatch prints each summary a stage returns, and _emit a report.
Exit status is 0 on success, 1 on module errors and on an interrupt
(SIGINT or SIGTERM), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path
from typing import Iterable

from . import catalog as catalog_mod
from . import clickstream, diagnose, importance, metrics, relevance, simulate
from .errors import ConfigError, EvalKitError
from .jsonl import atomic_open, dumps, landing, read_lines

_SIM_DEFAULTS = {f.name: f.default for f in fields(simulate.SimConfig)
                 if f.name != "seed"}
# One help text per simulate setting: its --help defaults row and its flag.
_SIM_HELP = {
    "n_titles": "catalog size",
    "n_queries": "number of queries",
    "typo_rate": "per-character edit probability",
    "score_noise_sigma": "Gaussian score noise sigma",
    "bin_thresholds": "t_high,t_medium score cutoffs",
    "retrieve_m": "results retrieved per query",
    "click_position_decay": "click probability decay per rank position",
    "n_replays": "impression replays per query",
}
_IMPORTANCE_DEFAULTS = importance.ImportanceConfig()

# The --help defaults table, rendered from the constants the code uses.
DEFAULTS = (
    ("k", metrics.DEFAULT_K, "top-k cutoff for all metrics"),
    ("min_impressions", clickstream.DEFAULT_MIN_IMPRESSIONS,
     "CTR filter: minimum impressions per pair"),
    ("min_ctr", clickstream.DEFAULT_MIN_CTR,
     "CTR filter: minimum click-through rate"),
    ("min_importance", relevance.DEFAULT_MIN_IMPORTANCE,
     "relevance merge: minimum importance score"),
    # Thirds show as 1/3, a form --weights also accepts.
    ("weights", tuple(f"1/{round(1 / w)}" for w in _IMPORTANCE_DEFAULTS.weights),
     "importance weights w_year,w_rank,w_count"),
    ("missing_feature_policy", _IMPORTANCE_DEFAULTS.missing_feature_policy,
     "absent feature handling: default_score or exclude_title"),
    ("default_component_score", _IMPORTANCE_DEFAULTS.default_component_score,
     "component score for absent features"),
    ("target_bin", diagnose.DEFAULT_TARGET_BIN.value,
     "bin a diagnosed success must reach"),
    ("year_window", catalog_mod.DEFAULT_YEAR_WINDOW,
     "plausible release-year window"),
) + tuple((name, default, f"simulate: {_SIM_HELP[name]}")
         for name, default in _SIM_DEFAULTS.items())
# A --config key names a defaults row or one of three settings without one.
_CONFIG_KEYS = {row[0] for row in DEFAULTS} | {"strict", "format", "bounds"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_numbers(text: str, n: int, what: str, kind=float) -> tuple:
    """Exactly ``n`` comma-separated values, each parsed by ``kind``."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, "
                          f"got {text!r}")
    try:
        return tuple(kind(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def _weight(text: str) -> float:
    # Accept "1/3" style fractions so the documented default is writable.
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _converter(name: str, default):
    """Parse a flag or config string into the type of ``default``; weights
    also take fractions, and bounds are five ints."""
    if name == "bounds":
        return lambda text: importance.ScoreBounds(
            *_parse_numbers(text, 5, name, int))
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        kind = _weight if name == "weights" else type(default[0])
        return lambda text: _parse_numbers(text, len(default), name, kind)
    return type(default)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key-value file: one `key = value` per line, # comments."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for lineno, stripped in read_lines(path):
        if stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        key = key.strip().replace("-", "_")
        if first.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line "
                              f"{first[key]}")
        out[key] = value.strip()
    return out


class Settings:
    """Flag > config file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.args = args
        self.config = config

    def get(self, key: str, default):
        """Resolve ``key``; a string parses by ``_converter(key, default)``.

        A string that does not parse is a ConfigError naming the key and
        where the string came from: its flag, or the config file.
        """
        value = getattr(self.args, key, None)
        source = f"flag --{key.replace('_', '-')}"
        if value is None:
            value = self.config.get(key)
            source = f"config file {self.args.config}"
        if value is None:
            return default
        if not isinstance(value, str):
            return value
        try:
            return _converter(key, default)(value)
        except (ValueError, EvalKitError) as exc:
            raise ConfigError(f"{key} {value!r} from {source}: {exc}") from exc


def _print(text: str, end: str = "\n") -> None:
    """``print`` and flush. A failed write to stdout is an EvalKitError,
    never taken for an --out file's: ``stdout closed`` for a closed pipe,
    ``cannot write stdout`` otherwise. fd 1 is then os.devnull, so exit's
    flush is quiet."""
    try:
        print(text, end=end, flush=True)
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        what = ("stdout closed" if isinstance(exc, BrokenPipeError)
                else "cannot write stdout")
        raise EvalKitError(f"{what}: {exc}") from exc


def _emit(out: str | None, pieces: Iterable[str], text: str | None) -> None:
    """The output rule of evaluate, diagnose and compare: ``pieces``, read
    once and only if taken, go to the --out file ``out``, if given, and to
    stdout if ``text`` is None; else stdout gets ``text`` as one line."""
    with nullcontext() if out is None else atomic_open(out) as fh:
        for piece in pieces if fh or text is None else ():
            if fh:
                fh.write(piece)
            if text is None:
                _print(piece, end="")
    if text is not None:
        _print(text)


def _wants_table(cfg: Settings) -> bool:
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "table"):
        raise ConfigError(f"format must be json or table, got {fmt!r}")
    return fmt == "table"


def _config(cls, cfg: Settings, **given):
    """A ``cls`` from ``given`` and, for each other field in field order,
    ``cfg.get(field.name, field.default)``."""
    return cls(**given, **{f.name: cfg.get(f.name, f.default)
                           for f in fields(cls) if f.name not in given})


def cmd_ingest_catalog(args: argparse.Namespace, cfg: Settings) -> dict:
    window = cfg.get("year_window", catalog_mod.DEFAULT_YEAR_WINDOW)
    parsed = catalog_mod.parse_catalog(
        args.basics, args.ratings, args.ranks,
        strict=cfg.get("strict", False),
        year_window=tuple(window),
    )
    catalog_mod.write_catalog(parsed, args.out)
    return {"titles": len(parsed), "rejects": parsed.stats.rejects,
            "stats": parsed.stats.as_dict(), "out": str(args.out)}


def cmd_score_importance(args: argparse.Namespace, cfg: Settings) -> dict:
    config = _config(importance.ImportanceConfig, cfg)
    loaded = catalog_mod.load_catalog(args.catalog)
    scored = importance.score_titles(loaded, config)
    written = importance.write_scored(scored, args.out)
    return {"scored": written, "excluded": len(loaded) - written,
            "out": str(args.out)}


def cmd_aggregate_ctr(args: argparse.Namespace, cfg: Settings) -> dict:
    stats = clickstream.ParseStats()
    kept, summary = clickstream.aggregate_log(
        args.events, _config(clickstream.CtrFilter, cfg),
        strict=cfg.get("strict", False), stats=stats)
    clickstream.write_ctr_records(kept, args.out)
    return {"events": stats.events, "rejected_events": stats.rejected,
            "pairs": summary.kept + summary.dropped, "kept": summary.kept,
            "dropped": summary.dropped, "out": str(args.out)}


def cmd_build_relevance(args: argparse.Namespace, cfg: Settings) -> dict:
    relset, summary = relevance.merge_relevance(
        clickstream.load_ctr_records(args.ctr),
        importance.iter_scored(args.scored),
        cfg.get("min_importance", relevance.DEFAULT_MIN_IMPORTANCE))
    provenance_path = relevance.emit_qrels(relset, args.out, args.provenance)
    return {"queries": len(relset.entries), "pairs": summary.included,
            "dropped_unscored": summary.dropped_unscored,
            "dropped_low_importance": summary.dropped_low_importance,
            "out": str(args.out), "provenance": str(provenance_path)}


def cmd_evaluate(args: argparse.Namespace, cfg: Settings) -> None:
    table = _wants_table(cfg)
    qrels = relevance.load_qrels(args.qrels)
    report = metrics.evaluate_run(qrels, metrics.iter_run(args.run),
                                  k=cfg.get("k", metrics.DEFAULT_K))
    _emit(args.out, chain(report.json_pieces(), ["\n"]),
          report.render_table() if table else None)


def cmd_diagnose(args: argparse.Namespace, cfg: Settings) -> None:
    table = _wants_table(cfg)
    target = cfg.get("target_bin", diagnose.DEFAULT_TARGET_BIN)
    qrels = relevance.load_qrels(args.qrels)
    diagnoses, summary = diagnose.diagnose_run(
        qrels, metrics.iter_run(args.run), k=cfg.get("k", metrics.DEFAULT_K),
        target_bin=target)
    _emit(args.out, (dumps(rec) + "\n"
                     for rec in diagnose.diagnosis_records(diagnoses)),
          summary.render_table() if table else dumps(summary.to_dict()))


def cmd_compare(args: argparse.Namespace, cfg: Settings) -> None:
    table = _wants_table(cfg)
    # compare_reports reads no per-query row; drop each before the next load.
    baseline, candidate = (
        replace(metrics.MetricsReport.load(path), per_query={})
        for path in (args.baseline, args.candidate))
    delta = diagnose.compare_reports(baseline, candidate)
    _emit(args.out, [dumps(delta.to_dict()) + "\n"],
          delta.render_table() if table else None)


def cmd_simulate(args: argparse.Namespace, cfg: Settings) -> dict:
    sim_config = _config(simulate.SimConfig, cfg, seed=args.seed)
    out_dir = Path(args.out_dir)
    generated = simulate.gen_catalog(sim_config)
    queries = simulate.gen_queries(generated, sim_config)
    run = simulate.run_mock_er(generated, queries, sim_config)
    simulate.write_catalog_tsv(generated, out_dir)
    events = simulate.gen_clicklog(run, dict(queries), sim_config)
    n_events = clickstream.write_events(events, out_dir / "clicklog.jsonl")
    metrics.save_run(run, out_dir / "run.jsonl")
    simulate.write_truth_qrels(queries, out_dir / "truth_qrels.jsonl")
    return {"seed": args.seed, "out_dir": str(out_dir),
            "titles": len(generated), "queries": len(queries),
            "events": n_events,
            "files": ["basics.tsv", "ratings.tsv", "ranks.tsv",
                      "clicklog.jsonl", "run.jsonl", "truth_qrels.jsonl"]}


def _show(value) -> str:
    """Spell a default the way a flag or config value would."""
    if isinstance(value, tuple):
        return ",".join(map(_show, value))
    return str(value)


def _defaults_epilog() -> str:
    rows = [(name, _show(value), help_text)
            for name, value, help_text in DEFAULTS]
    width = max(len(name) for name, _, _ in rows)
    value_width = max(len(value) for _, value, _ in rows)
    lines = ["defaults:"]
    for name, value, help_text in rows:
        lines.append(f"  {name:<{width}}  {value:<{value_width}}  {help_text}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="er-evalkit",
        description="Relevance test-set generation and bin-aware evaluation "
                    "for entity resolution runs.",
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.set_defaults(func=func)
        return p

    p = add("ingest-catalog", "parse catalog TSV dumps into canonical JSONL",
            cmd_ingest_catalog)
    p.add_argument("--basics", required=True, help="basics TSV path")
    p.add_argument("--ratings", required=True, help="ratings TSV path")
    p.add_argument("--ranks", help="optional ranks TSV path")
    p.add_argument("--out", required=True, help="catalog JSONL output")
    p.add_argument("--year-window", help="plausible release-year window, LO,HI")
    p.add_argument("--strict", action="store_true", default=None,
                   help="error on the first malformed row")

    p = add("score-importance", "compute importance scores for a catalog",
            cmd_score_importance)
    p.add_argument("--catalog", required=True, help="catalog JSONL path")
    p.add_argument("--out", required=True, help="scored JSONL output")
    p.add_argument("--weights", help="w_year,w_rank,w_count (fractions ok)")
    p.add_argument("--missing-feature-policy",
                   choices=[importance.POLICY_DEFAULT_SCORE,
                            importance.POLICY_EXCLUDE_TITLE])
    p.add_argument("--default-component-score", type=float)
    p.add_argument("--bounds",
                   help="fixed min_year,max_year,min_rank,max_rank,"
                        "max_rating_count (default: fit from catalog)")

    p = add("aggregate-ctr", "aggregate click events into filtered CTR records",
            cmd_aggregate_ctr)
    p.add_argument("--events", required=True, help="click event JSONL path")
    p.add_argument("--out", required=True, help="CTR record JSONL output")
    p.add_argument("--min-impressions", type=int)
    p.add_argument("--min-ctr", type=float)
    p.add_argument("--strict", action="store_true", default=None,
                   help="error on the first malformed event")

    p = add("build-relevance", "merge CTR records with importance into qrels",
            cmd_build_relevance)
    p.add_argument("--ctr", required=True, help="filtered CTR JSONL path")
    p.add_argument("--scored", required=True, help="scored title JSONL path")
    p.add_argument("--out", required=True, help="qrels JSONL output")
    p.add_argument("--provenance", help="provenance sidecar path")
    p.add_argument("--min-importance", type=float)

    p = add("evaluate", "score a run file against qrels", cmd_evaluate)
    p.add_argument("--qrels", required=True, help="qrels JSONL path")
    p.add_argument("--run", required=True, help="run JSONL path")
    p.add_argument("-k", type=int, help="top-k cutoff")
    p.add_argument("--out", help="also write the report JSON here")
    p.add_argument("--format", choices=["json", "table"])

    p = add("diagnose", "classify each query as success or failure category",
            cmd_diagnose)
    p.add_argument("--qrels", required=True, help="qrels JSONL path")
    p.add_argument("--run", required=True, help="run JSONL path")
    p.add_argument("-k", type=int, help="top-k cutoff")
    p.add_argument("--target-bin", choices=[b.value for b in metrics.BINS])
    p.add_argument("--out", help="write per-query diagnoses JSONL here")
    p.add_argument("--format", choices=["json", "table"])

    p = add("compare", "delta two evaluation reports column by column",
            cmd_compare)
    p.add_argument("--baseline", required=True, help="baseline report JSON")
    p.add_argument("--candidate", required=True, help="candidate report JSON")
    p.add_argument("--out", help="write the delta report JSON here")
    p.add_argument("--format", choices=["json", "table"])

    p = add("simulate", "generate a seeded synthetic fixture set", cmd_simulate)
    p.add_argument("--seed", type=int, required=True,
                   help="PRNG seed (required: output depends on it)")
    p.add_argument("--out-dir", required=True,
                   help="directory for the generated files")
    # A tuple stays a string here and is parsed by Settings.get (exit 1).
    for name, default in _SIM_DEFAULTS.items():
        p.add_argument(f"--{name.replace('_', '-')}",
                       type=None if isinstance(default, tuple) else type(default),
                       help=_SIM_HELP[name])

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = load_config_file(args.config) if args.config else {}
        for key in config:
            if key not in _CONFIG_KEYS:
                print(f"warning: config file {args.config}: key {key!r} "
                      "names no setting; ignored", file=sys.stderr)
        with landing():
            summary = args.func(args, Settings(args, config))
            if summary is not None:
                _print(dumps({"command": args.command, **summary}))
        return 0
    except (EvalKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


def main() -> None:
    # A path that is not UTF-8 echoes as a JSON escape of its lone surrogate.
    sys.stdout.reconfigure(encoding="utf-8", errors="backslashreplace")
    # SIGTERM unwinds like Ctrl-C, so no stage leaves a temp file behind.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
