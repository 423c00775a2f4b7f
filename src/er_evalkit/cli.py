"""Command-line pipeline: one subcommand per stage, files in, files out.

Configuration resolves in precedence order: explicit flag, then --config
key-value file, then the documented default (printed by --help). Every
subcommand writes a machine-readable JSON summary to stdout; exit status is
0 on success, 1 on module errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import catalog as catalog_mod
from . import clickstream, diagnose, importance, metrics, relevance, simulate
from .errors import ConfigError, EvalKitError
from .jsonl import INPUT_ENCODING, dumps, read_failure, write_lines

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
    """Parse a flag or config string into the type of ``default``."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, tuple):
        return lambda text: _parse_numbers(text, len(default), name,
                                           type(default[0]))
    return type(default)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat key-value file: one `key = value` per line, # comments."""
    try:
        text = Path(path).read_text(encoding=INPUT_ENCODING)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(
            f"cannot read config {path}: {read_failure(path, exc)}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


class Settings:
    """Flag > config file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.args = args
        self.config = config

    def get(self, key: str, default, convert=None):
        """Resolve ``key``; a string parses by ``convert`` or as ``default``.

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
            return (convert or _converter(key, default))(value)
        except (ValueError, EvalKitError) as exc:
            raise ConfigError(f"{key} {value!r} from {source}: {exc}") from exc


def _emit(summary: dict) -> None:
    print(dumps(summary))


def _wants_table(cfg: Settings) -> bool:
    fmt = cfg.get("format", "json")
    if fmt not in ("json", "table"):
        raise ConfigError(f"format must be json or table, got {fmt!r}")
    return fmt == "table"


def cmd_ingest_catalog(args: argparse.Namespace, cfg: Settings) -> int:
    window = cfg.get("year_window", catalog_mod.DEFAULT_YEAR_WINDOW)
    parsed = catalog_mod.parse_catalog(
        args.basics, args.ratings, args.ranks,
        strict=cfg.get("strict", False),
        year_window=tuple(window),
    )
    catalog_mod.write_catalog(parsed, args.out)
    _emit({
        "command": "ingest-catalog",
        "titles": len(parsed),
        "rejects": parsed.stats.rejects,
        "stats": parsed.stats.as_dict(),
        "out": str(args.out),
    })
    return 0


def _importance_config(cfg: Settings) -> importance.ImportanceConfig:
    defaults = _IMPORTANCE_DEFAULTS
    return importance.ImportanceConfig(
        weights=cfg.get("weights", defaults.weights,
                        lambda t: _parse_numbers(t, 3, "weights", _weight)),
        missing_feature_policy=cfg.get("missing_feature_policy",
                                       defaults.missing_feature_policy),
        default_component_score=cfg.get("default_component_score",
                                        defaults.default_component_score),
        bounds=cfg.get("bounds", None, lambda t: importance.ScoreBounds(
            *_parse_numbers(t, 5, "bounds", int))),
    )


def cmd_score_importance(args: argparse.Namespace, cfg: Settings) -> int:
    loaded = catalog_mod.load_catalog(args.catalog)
    scored, excluded = importance.score_catalog(loaded, _importance_config(cfg))
    importance.write_scored(scored, args.out)
    _emit({
        "command": "score-importance",
        "scored": len(scored),
        "excluded": excluded,
        "out": str(args.out),
    })
    return 0


def cmd_aggregate_ctr(args: argparse.Namespace, cfg: Settings) -> int:
    ctr_filter = clickstream.CtrFilter(
        min_impressions=cfg.get("min_impressions",
                                clickstream.DEFAULT_MIN_IMPRESSIONS),
        min_ctr=cfg.get("min_ctr", clickstream.DEFAULT_MIN_CTR),
    )
    stats = clickstream.ParseStats()
    kept, summary = clickstream.aggregate_log(
        args.events, ctr_filter, strict=cfg.get("strict", False), stats=stats)
    clickstream.write_ctr_records(kept, args.out)
    _emit({
        "command": "aggregate-ctr",
        "events": stats.events,
        "rejected_events": stats.rejected,
        "pairs": summary.kept + summary.dropped,
        "kept": summary.kept,
        "dropped": summary.dropped,
        "out": str(args.out),
    })
    return 0


def cmd_build_relevance(args: argparse.Namespace, cfg: Settings) -> int:
    ctr_records = clickstream.load_ctr_records(args.ctr)
    scored = importance.load_scored(args.scored)
    relset, summary = relevance.merge_relevance(
        ctr_records, scored,
        min_importance=cfg.get("min_importance",
                               relevance.DEFAULT_MIN_IMPORTANCE),
    )
    provenance_path = (Path(args.provenance) if args.provenance
                       else relevance.default_provenance_path(args.out))
    relevance.emit_qrels(relset, args.out, provenance_path)
    _emit({
        "command": "build-relevance",
        "queries": len(relset.entries),
        "pairs": summary.included,
        "dropped_unscored": summary.dropped_unscored,
        "dropped_low_importance": summary.dropped_low_importance,
        "out": str(args.out),
        "provenance": str(provenance_path),
    })
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: Settings) -> int:
    table = _wants_table(cfg)
    qrels = relevance.load_qrels(args.qrels)
    report = metrics.evaluate_run(qrels, metrics.iter_run(args.run),
                                  k=cfg.get("k", metrics.DEFAULT_K))
    if args.out or not table:
        text = dumps(report.to_dict())
    if args.out:
        write_lines(args.out, [text])
    print(report.render_table() if table else text)
    return 0


def cmd_diagnose(args: argparse.Namespace, cfg: Settings) -> int:
    table = _wants_table(cfg)
    target = cfg.get("target_bin", diagnose.DEFAULT_TARGET_BIN)
    qrels = relevance.load_qrels(args.qrels)
    diagnoses, summary = diagnose.diagnose_run(
        qrels, metrics.iter_run(args.run), k=cfg.get("k", metrics.DEFAULT_K),
        target_bin=target)
    if args.out:
        diagnose.write_diagnoses(diagnoses, args.out)
    print(summary.render_table() if table else dumps(summary.to_dict()))
    return 0


def cmd_compare(args: argparse.Namespace, cfg: Settings) -> int:
    table = _wants_table(cfg)
    baseline = metrics.MetricsReport.load(args.baseline)
    candidate = metrics.MetricsReport.load(args.candidate)
    delta = diagnose.compare_reports(baseline, candidate)
    if args.out:
        delta.save(args.out)
    print(delta.render_table() if table else dumps(delta.to_dict()))
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: Settings) -> int:
    sim_config = simulate.SimConfig(seed=args.seed, **{
        name: cfg.get(name, default)
        for name, default in _SIM_DEFAULTS.items()})
    out_dir = Path(args.out_dir)
    generated = simulate.gen_catalog(sim_config)
    queries = simulate.gen_queries(generated, sim_config)
    run = simulate.run_mock_er(generated, queries, sim_config)
    truth = dict(queries)
    simulate.write_catalog_tsv(generated, out_dir)
    events = simulate.gen_clicklog(run, truth, sim_config)
    n_events = clickstream.write_events(events, out_dir / "clicklog.jsonl")
    metrics.save_run(run, out_dir / "run.jsonl")
    simulate.write_truth_qrels(queries, out_dir / "truth_qrels.jsonl")
    _emit({
        "command": "simulate",
        "seed": args.seed,
        "out_dir": str(out_dir),
        "titles": len(generated),
        "queries": len(queries),
        "events": n_events,
        "files": ["basics.tsv", "ratings.tsv", "ranks.tsv", "clicklog.jsonl",
                  "run.jsonl", "truth_qrels.jsonl"],
    })
    return 0


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
    p.add_argument("--year-window", dest="year_window",
                   help="plausible release-year window, LO,HI")
    p.add_argument("--strict", action="store_true", default=None,
                   help="error on the first malformed row")

    p = add("score-importance", "compute importance scores for a catalog",
            cmd_score_importance)
    p.add_argument("--catalog", required=True, help="catalog JSONL path")
    p.add_argument("--out", required=True, help="scored JSONL output")
    p.add_argument("--weights", help="w_year,w_rank,w_count (fractions ok)")
    p.add_argument("--missing-feature-policy", dest="missing_feature_policy",
                   choices=[importance.POLICY_DEFAULT_SCORE,
                            importance.POLICY_EXCLUDE_TITLE])
    p.add_argument("--default-component-score", dest="default_component_score",
                   type=float)
    p.add_argument("--bounds",
                   help="fixed min_year,max_year,min_rank,max_rank,"
                        "max_rating_count (default: fit from catalog)")

    p = add("aggregate-ctr", "aggregate click events into filtered CTR records",
            cmd_aggregate_ctr)
    p.add_argument("--events", required=True, help="click event JSONL path")
    p.add_argument("--out", required=True, help="CTR record JSONL output")
    p.add_argument("--min-impressions", dest="min_impressions", type=int)
    p.add_argument("--min-ctr", dest="min_ctr", type=float)
    p.add_argument("--strict", action="store_true", default=None,
                   help="error on the first malformed event")

    p = add("build-relevance", "merge CTR records with importance into qrels",
            cmd_build_relevance)
    p.add_argument("--ctr", required=True, help="filtered CTR JSONL path")
    p.add_argument("--scored", required=True, help="scored title JSONL path")
    p.add_argument("--out", required=True, help="qrels JSONL output")
    p.add_argument("--provenance", help="provenance sidecar path")
    p.add_argument("--min-importance", dest="min_importance", type=float)

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
    p.add_argument("--target-bin", dest="target_bin",
                   choices=[b.value for b in metrics.BINS])
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
    p.add_argument("--out-dir", dest="out_dir", required=True,
                   help="directory for the generated files")
    # A tuple stays a string here and is parsed by Settings.get (exit 1).
    for name, default in _SIM_DEFAULTS.items():
        p.add_argument(f"--{name.replace('_', '-')}", dest=name,
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
        return args.func(args, Settings(args, config))
    except (EvalKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
