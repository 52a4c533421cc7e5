"""Command-line front end for the imputation pipeline.

Subcommands compose into the full experiment: ``filter`` cleans a raw
knowledge base, ``split`` builds controlled or random train/test sets,
``blank`` hides cells in an arbitrary dataset, ``impute`` fills a test
file with one system, ``evaluate`` scores one or more filled files, and
``report`` renders an evaluation directory as readable text.

Diagnostics go to stderr; data goes to files only.  Exit codes: 0 on
success, 1 for usage or configuration problems, 2 for data problems.
Every command writes a run-manifest (plain key=value, no timestamps)
beside its outputs recording the configuration hash, the seed, and the
sha256 digest of each input, taken before the first output is written,
so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .configio import ConfigError, config_hash, file_digest, read_kv, write_kv
from .errors import DatasetError, EvaluationError

if TYPE_CHECKING:
    from . import evaluate as ev
    from .kb import Dataset
    from .splits import SplitSpec

__all__ = ["main", "build_parser", "UsageError"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    """Bad command line or infeasible flag combination."""


class _BlankHelpFormatter(argparse.HelpFormatter):
    """Shows the SplitSpec defaults of blank's bounds; splits is imported
    only when the help is printed."""

    def _get_help_string(self, action: argparse.Action) -> Optional[str]:
        if action.dest not in _BLANK_BOUNDS:
            return action.help
        from .splits import SplitSpec

        return f"{action.help} (default {getattr(SplitSpec, _BLANK_BOUNDS[action.dest])})"


class _Parser(argparse.ArgumentParser):
    # every flag has one spelling: no unique-prefix abbreviations, also in
    # the subparsers, which argparse builds from this class
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on usage errors; route them through
    # UsageError so main() can return 1 instead
    def error(self, message):
        raise UsageError(message)


def _manifest(command: str, params: Mapping[str, str], inputs: Mapping[str, str | Path],
              seed: Optional[int] = None) -> dict[str, str]:
    """The run-manifest of one command invocation: its effective
    settings ``params``, their hash, the seed and each input's digest.
    Taken before the command writes its first output, which may
    overwrite an input, and written with ``write_kv`` after its last."""
    items = {"command": command, "config_hash": config_hash(params)}
    if seed is not None:
        items["seed"] = str(seed)
    items.update((f"param.{key}", params[key]) for key in sorted(params))
    items.update((f"input.{name}", file_digest(inputs[name])) for name in sorted(inputs))
    return items


def _load_dataset(path: str | Path, gold: Optional[Dataset] = None) -> Dataset:
    """The dataset in the file ``path``, parsed as it is read, line by
    line: its whole text is never held.  Bytes that are not UTF-8 are a
    data error."""
    from .kb import parse_dataset

    try:
        with open(path, encoding="utf-8-sig") as handle:
            return parse_dataset(handle, gold=gold)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(
    path: Path,
    comments: Sequence[str],
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(value) for value in row])


def _read_table(path: Path, numeric: Sequence[int]) -> list[list[str]]:
    """The rows under the header of a table ``evaluate`` wrote; each must
    hold a number in every ``numeric`` column."""
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    rows = list(csv.reader(lines))
    if not rows:
        raise DatasetError(f"{path} has no table rows")
    for row in rows[1:]:
        try:
            for column in numeric:
                float(row[column])
        except (IndexError, ValueError):
            raise DatasetError(f"{path}: malformed row {','.join(row)!r}") from None
    return rows[1:]


# ---------------------------------------------------------------------------
# filter


def cmd_filter(args: argparse.Namespace) -> int:
    from .kb import filter_dataset, write_dataset

    dataset = _load_dataset(args.input)
    filtered = filter_dataset(dataset, args.min_features, args.min_languages)
    removed_langs = len(dataset.languages) - len(filtered.languages)
    removed_feats = len(dataset.feature_names) - len(filtered.feature_names)
    params = {"min_features": str(args.min_features), "min_languages": str(args.min_languages)}
    manifest = _manifest("filter", params, {"input": args.input})
    write_dataset(args.out, filtered)
    log.info("kept %d of %d languages (%d removed), %d of %d features (%d removed)",
             len(filtered.languages), len(dataset.languages), removed_langs,
             len(filtered.feature_names), len(dataset.feature_names), removed_feats)
    write_kv(Path(f"{args.out}.manifest"), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# split


def _split_spec_from_args(args: argparse.Namespace) -> SplitSpec:
    from dataclasses import replace

    from .splits import SplitSpec

    spec = SplitSpec.from_file(args.spec) if args.spec else SplitSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _require_split(train: Dataset, test: Dataset, settings: str) -> None:
    """Reject a split whose training set ``impute`` or whose test set
    ``blank`` and ``evaluate`` would reject, before anything is written."""
    from .kb import OBSERVED_CODE

    if not (train.cell_state == OBSERVED_CODE).any():
        raise DatasetError(f"split leaves no observed cell to train on ({settings})")
    if not test.languages:
        raise DatasetError(f"split leaves the test set empty ({settings})")


def cmd_split(args: argparse.Namespace) -> int:
    from .kb import write_dataset
    from .splits import SplitError, build_controlled_split, random_split, require_blankable

    dataset = _load_dataset(args.input)
    out_dir = Path(args.out_dir)

    if args.random_fractions is not None:
        if args.spec:
            raise UsageError("--random-fractions excludes --spec")
        if args.seed is None:
            raise UsageError("--seed is required with --random-fractions")
        parts = [p for p in args.random_fractions.split(",") if p.strip()]
        if len(parts) != 3:
            raise UsageError("--random-fractions needs exactly three comma-separated numbers")
        try:
            fractions = tuple(float(p) for p in parts)
        except ValueError:
            raise UsageError(f"bad fraction in {args.random_fractions!r}") from None
        train, dev, test = random_split(dataset, fractions, seed=args.seed)
        settings = f"--random-fractions {args.random_fractions}"
        _require_split(train, test, settings)
        try:
            require_blankable(test)
        except SplitError as exc:
            raise DatasetError(f"split leaves a test set blank rejects: {exc} ({settings})") from None
        manifest = _manifest("split", {"mode": "random", "fractions": args.random_fractions},
                             {"input": args.input}, seed=args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, part in (("train", train), ("dev", dev), ("test", test)):
            write_dataset(out_dir / f"{name}.tsv", part)
        log.info(
            "random split: %d train, %d dev, %d test languages",
            len(train.languages),
            len(dev.languages),
            len(test.languages),
        )
        write_kv(out_dir / "run_manifest.txt", manifest)
        return EXIT_OK

    spec = _split_spec_from_args(args)
    result = build_controlled_split(dataset, spec)
    settings = spec.settings()
    _require_split(result.train, result.test, ", ".join(
        f"{key}={settings[key]}" for key in ("genera", "radius_km", "holdout_fraction")))
    params = {"mode": "controlled", **settings}
    del params["seed"]  # recorded as the run's seed
    inputs: dict[str, str | Path] = {"input": args.input}
    if args.spec:
        inputs["spec"] = args.spec
    manifest = _manifest("split", params, inputs, seed=spec.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(out_dir / "train.tsv", result.train)
    write_dataset(out_dir / "test.tsv", result.test)
    write_dataset(out_dir / "test_gold.tsv", result.test, reveal_blanked=True)
    _write_table(out_dir / "provenance.csv", [], ["code", "role", "reason", "blanking_ratio"],
                 [(p.code, p.role, p.reason, "" if p.blanking_ratio is None else p.blanking_ratio)
                  for p in result.provenance])
    spec.to_file(out_dir / "split_spec.cfg")

    n_excluded = sum(1 for p in result.provenance if p.role == "excluded")
    log.info(
        "controlled split: %d train, %d test, %d excluded languages",
        len(result.train.languages),
        len(result.test.languages),
        n_excluded,
    )
    write_kv(out_dir / "run_manifest.txt", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# blank


# blank's options that default to a SplitSpec field, by option dest
_BLANK_BOUNDS = {"low": "blanking_low", "high": "blanking_high"}


def cmd_blank(args: argparse.Namespace) -> int:
    from .kb import BLANKED_CODE, write_dataset
    from .splits import SplitSpec, blank_features, blanking_ratios

    dataset = _load_dataset(args.input)
    if not dataset.languages:
        raise DatasetError(f"{args.input} has no language to blank")
    bounds = {name: getattr(args, dest) for dest, name in _BLANK_BOUNDS.items()
              if getattr(args, dest) is not None}
    spec = SplitSpec(seed=args.seed, **bounds)
    low, high = spec.blanking_low, spec.blanking_high
    ratios = blanking_ratios(dataset.codes(), spec)
    blanked = blank_features(dataset, ratios, args.seed)
    manifest = _manifest("blank", {"low": str(low), "high": str(high)}, {"input": args.input},
                         seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(out_dir / "blanked.tsv", blanked)
    write_dataset(out_dir / "gold.tsv", blanked, reveal_blanked=True)
    _write_table(
        out_dir / "ratios.csv",
        [f"config_hash={config_hash({'low': low, 'high': high})}", f"seed={args.seed}"],
        ["language", "target_ratio"],
        [(code, ratios[code]) for code in sorted(ratios)],
    )
    n_blanked = int((blanked.cell_state == BLANKED_CODE).sum())
    log.info("blanked %d cells across %d languages", n_blanked, len(blanked.languages))
    write_kv(out_dir / "run_manifest.txt", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# impute


def cmd_impute(args: argparse.Namespace) -> int:
    from .imputers import EnsembleImputer, GlobalFrequencyImputer, build_imputer, fill_dataset
    from .kb import OBSERVED_CODE, write_dataset

    # A bad config fails before any dataset is parsed.
    config = read_kv(args.imputer_config) if args.imputer_config else {"method": "frequency"}
    imputer = build_imputer(config, vectors=args.vectors)
    if not args.no_fallback:
        imputer = EnsembleImputer([imputer, GlobalFrequencyImputer()])
    train = _load_dataset(args.train)
    test = _load_dataset(args.test)
    if not (train.cell_state == OBSERVED_CODE).any():
        raise DatasetError(f"{args.train} has no observed cells to train on")
    imputer.fit(train, context=test)
    # A fitted imputer keeps the count tables, not the training cell table.
    del train

    filled = fill_dataset(imputer, test)
    n_unfilled = int((filled.cell_state != OBSERVED_CODE).sum())
    inputs: dict[str, str | Path] = {"train": args.train, "test": args.test}
    if args.imputer_config:
        inputs["imputer_config"] = args.imputer_config
    if args.vectors:
        inputs["vectors"] = args.vectors
    manifest = _manifest("impute", {**config, "fallback": str(not args.no_fallback)}, inputs)
    write_dataset(args.out, filled)
    log.info("filled %d cells (%d left unfilled)",
             int((test.cell_state != OBSERVED_CODE).sum()) - n_unfilled, n_unfilled)
    if n_unfilled and not args.no_fallback:
        log.warning(
            "%d cells unfillable even by the frequency fallback "
            "(features unseen in training)",
            n_unfilled,
        )
    write_kv(Path(f"{args.out}.manifest"), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


def _parse_system_args(specs: Sequence[str]) -> list[tuple[str, str]]:
    systems: list[tuple[str, str]] = []
    seen = set()
    for entry in specs:
        if "=" not in entry:
            raise UsageError(f"--system expects NAME=FILLED.tsv, got {entry!r}")
        name, path = entry.split("=", 1)
        name = name.strip()
        if not name or not path:
            raise UsageError(f"--system expects NAME=FILLED.tsv, got {entry!r}")
        if name in seen:
            raise UsageError(f"duplicate system name {name!r}")
        seen.add(name)
        systems.append((name, path))
    return systems


def cmd_evaluate(args: argparse.Namespace) -> int:
    # numpy.random imports ``secrets`` and so ``hashlib``, which would map
    # OpenSSL's libcrypto; without ``_hashlib`` it takes the interpreter's
    # own digests, and a seeded generator never reads them.
    sys.modules.setdefault("_hashlib", None)
    from . import evaluate as ev

    if args.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    systems = _parse_system_args(args.system)
    if len(systems) > 1 and args.seed is None:
        raise UsageError("--seed is required when comparing two or more systems")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")

    gold_values = _load_dataset(args.gold)
    gold = _load_dataset(args.test, gold=gold_values)
    del gold_values  # ``gold`` holds the gold values it reads

    # Each filled dataset is dropped once scored, and ``gold`` after the
    # last: only the reports are read from here on.
    reports = [ev.score(gold, ev.output_from_dataset(name, _load_dataset(path), gold),
                        exclude_missing=args.exclude_missing)
               for name, path in systems]
    del gold

    held_genera: tuple[str, ...] = ()
    if args.spec:
        from .splits import SplitSpec

        held_genera = SplitSpec.from_file(args.spec).held_out_genera

    params = {
        "samples": str(args.samples),
        "exclude_missing": str(args.exclude_missing),
        "systems": ",".join(name for name, _ in systems),
    }
    if held_genera:
        params["genera"] = ",".join(held_genera)
    comments = [
        f"config_hash={config_hash(params)}",
        f"seed={args.seed if args.seed is not None else 'none'}",
    ]

    # Every figure is computed before --out-dir exists: a data error leaves no directory.
    correlations: dict[str, Optional[ev.CorrelationResult]] = {}
    for report in reports:
        try:
            correlations[report.system] = ev.blanking_ratio_correlation(report)
        except ev.UndefinedCorrelationError as exc:
            log.warning("blanking correlation undefined for %s: %s", report.system, exc)
            correlations[report.system] = None

    feature_rows = ev.feature_accuracy_table(reports)
    # one system makes no pair
    by_name = {r.system: r for r in reports}
    significance = [ev.paired_permutation_test(by_name[a], by_name[b], samples=args.samples,
                                               seed=args.seed)
                    for a, b in itertools.combinations(sorted(by_name), 2)]
    meta: Optional[ev.CorrelationResult] = None
    defined = [(r.macro_accuracy, correlations[r.system].r) for r in reports
               if correlations[r.system] is not None]
    if len(defined) >= 2:
        try:
            meta = ev.meta_correlation(defined)
        except ev.UndefinedCorrelationError as exc:
            log.warning("meta correlation undefined: %s", exc)

    breakdown = {r.system: ev.genus_breakdown(r, held_genera) for r in reports} if held_genera else {}

    inputs: dict[str, str | Path] = {"test": args.test, "gold": args.gold}
    for name, path in systems:
        inputs[f"system.{name}"] = path
    if args.spec:
        inputs["spec"] = args.spec
    manifest = _manifest("evaluate", params, inputs, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_table(
        out_dir / "systems.csv",
        comments,
        [
            "system",
            "macro_accuracy",
            "micro_accuracy",
            "n_blanked",
            "n_missing",
            "blanking_r",
            "blanking_p",
        ],
        [
            (
                r.system,
                r.macro_accuracy,
                r.micro_accuracy,
                r.n_blanked,
                r.n_missing,
                correlations[r.system].r if correlations[r.system] else "NA",
                correlations[r.system].p_value if correlations[r.system] else "NA",
            )
            for r in reports
        ],
    )
    _write_table(
        out_dir / "per_language.csv",
        comments,
        ["system", "language", "genus", "blanking_ratio", "accuracy"],
        [
            (r.system, code, r.language_genus[code], r.language_ratio[code], r.per_language[code])
            for r in reports
            for code in sorted(r.per_language)
        ],
    )
    _write_table(
        out_dir / "per_genus.csv",
        comments,
        ["system", "genus", "accuracy", "n_languages"],
        [
            (
                r.system,
                genus,
                r.per_genus[genus],
                sum(1 for g in r.language_genus.values() if g == genus),
            )
            for r in reports
            for genus in sorted(r.per_genus)
        ],
    )
    _write_table(
        out_dir / "per_feature.csv",
        comments,
        ["feature", "mean_accuracy", "std_accuracy", "n_scored"],
        [
            (row.feature, row.mean_accuracy, row.std_accuracy, row.n_scored)
            for row in feature_rows
        ],
    )
    _write_table(
        out_dir / "significance.csv",
        comments,
        ["system_a", "system_b", "observed_diff", "p_value", "samples", "seed"],
        [
            (s.system_a, s.system_b, s.observed_diff, s.p_value, s.samples, s.seed)
            for s in significance
        ],
    )
    if breakdown:
        _write_table(
            out_dir / "breakdown.csv",
            comments,
            ["system", "group", "accuracy", "n_languages"],
            [
                (r.system, row.group, row.accuracy, row.n_languages)
                for r in reports
                for row in breakdown[r.system]
            ],
        )

    _write_summary(out_dir / "summary.txt", comments, reports, correlations, significance, meta, breakdown)
    write_kv(out_dir / "run_manifest.txt", manifest)
    log.info("evaluated %d systems over %d gold cells", len(reports), reports[0].n_blanked)
    return EXIT_OK


def _write_summary(
    path: Path,
    comments: Sequence[str],
    reports: Sequence[ev.EvalReport],
    correlations: Mapping[str, Optional[ev.CorrelationResult]],
    significance: Sequence[ev.PermutationResult],
    meta: Optional[ev.CorrelationResult],
    breakdown: Mapping[str, Sequence[ev.GenusRow]],
) -> None:
    lines = [f"# {comment}" for comment in comments]
    lines.append("")
    lines.append("system ranking (macro accuracy, genus-weighted):")
    lines.extend(_ranking_lines(
        (r.system, r.macro_accuracy, r.micro_accuracy, r.n_blanked, r.n_missing) for r in reports
    ))
    ranked = sorted(reports, key=lambda r: (-r.macro_accuracy, r.system))
    if significance:
        lines.append("")
        lines.append("pairwise paired permutation tests:")
        for s in significance:
            lines.append(
                f"  {s.system_a} vs {s.system_b}: |macro diff|={s.observed_diff:.4f} "
                f"p={s.p_value:.4f} ({s.samples} samples)"
            )
    lines.append("")
    lines.append("per-language blanking ratio vs accuracy:")
    for report in ranked:
        result = correlations[report.system]
        if result is None:
            lines.append(f"  {report.system}: undefined")
        else:
            lines.append(
                f"  {report.system}: r={result.r:.4f} p={result.p_value:.4f} (n={result.n})"
            )
    if meta is not None:
        lines.append("")
        lines.append(
            f"across systems, macro accuracy vs blanking correlation: "
            f"r={meta.r:.4f} p={meta.p_value:.4f} (n={meta.n})"
        )
    if breakdown:
        lines.append("")
        lines.append("held-out genus breakdown:")
        lines.extend(_breakdown_lines(
            (r.system, row.group, row.accuracy, row.n_languages)
            for r in ranked
            for row in breakdown[r.system]
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ranking_lines(systems: Iterable[tuple[str, float, float, object, object]]) -> list[str]:
    """The ranking section of ``summary.txt`` and ``report.txt``: one
    line per (name, macro, micro, n_blanked, n_missing), best macro
    accuracy first, ties by name."""
    ranked = sorted(systems, key=lambda s: (-s[1], s[0]))
    return [
        f"  {i}. {name}: macro={macro:.4f} micro={micro:.4f} missing={n_missing}/{n_blanked}"
        for i, (name, macro, micro, n_blanked, n_missing) in enumerate(ranked, start=1)
    ]


def _breakdown_lines(rows: Iterable[tuple[str, str, float, object]]) -> list[str]:
    """The held-out genus breakdown of ``summary.txt`` and ``report.txt``:
    (system, group, accuracy, n_languages) rows in the order given, under
    one heading per run of rows of a system."""
    lines = []
    for system, group_rows in itertools.groupby(rows, key=lambda row: row[0]):
        lines.append(f"  {system}:")
        lines.extend(f"    {group}: {accuracy:.4f} ({n} languages)"
                     for _, group, accuracy, n in group_rows)
    return lines


# ---------------------------------------------------------------------------
# report


def cmd_report(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise UsageError(f"--top must be nonnegative, got {args.top}")
    in_dir = Path(args.input)
    systems_path = in_dir / "systems.csv"
    if not systems_path.exists():
        raise UsageError(f"{in_dir} does not look like an evaluation directory (no systems.csv)")
    system_rows = _read_table(systems_path, (1, 2, 3, 4))

    lines = ["imputation evaluation report", ""]
    lines.append("systems by macro accuracy:")
    lines.extend(_ranking_lines(
        (row[0], float(row[1]), float(row[2]), row[3], row[4]) for row in system_rows
    ))

    inputs: dict[str, str | Path] = {"systems": systems_path}

    significance_path = in_dir / "significance.csv"
    if significance_path.exists():
        rows = _read_table(significance_path, (2, 3))
        if rows:
            lines.append("")
            lines.append("significance (paired permutation):")
            for row in rows:
                lines.append(
                    f"  {row[0]} vs {row[1]}: |diff|={float(row[2]):.4f} p={float(row[3]):.4f}"
                )
            inputs["significance"] = significance_path

    feature_path = in_dir / "per_feature.csv"
    if feature_path.exists():
        rows = _read_table(feature_path, (1, 2, 3))
        if rows:
            ordered = sorted(rows, key=lambda row: (-float(row[1]), row[0]))
            show = min(args.top, len(ordered))
            lines.append("")
            lines.append(f"easiest features (top {show} by mean accuracy):")
            for row in ordered[:show]:
                lines.append(
                    f"  {row[0]}: {float(row[1]):.4f} (std {float(row[2]):.4f}, n={row[3]})"
                )
            lines.append(f"hardest features (bottom {show}):")
            for row in ordered[len(ordered) - show:]:
                lines.append(
                    f"  {row[0]}: {float(row[1]):.4f} (std {float(row[2]):.4f}, n={row[3]})"
                )
            inputs["per_feature"] = feature_path

    breakdown_path = in_dir / "breakdown.csv"
    if breakdown_path.exists():
        rows = _read_table(breakdown_path, (2, 3))
        if rows:
            lines.append("")
            lines.append("held-out genus breakdown:")
            lines.extend(_breakdown_lines((row[0], row[1], float(row[2]), row[3]) for row in rows))
            inputs["breakdown"] = breakdown_path

    manifest = _manifest("report", {"top": str(args.top)}, inputs)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_kv(Path(f"{args.out}.manifest"), manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(
        prog="typoimpute",
        description="Impute and evaluate categorical typological features.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("filter", help="drop sparse languages and rare features")
    p.add_argument("--input", required=True, help="raw dataset (TSV)")
    p.add_argument("--out", required=True, help="filtered dataset path")
    p.add_argument("--min-features", type=int, default=4, help="min observed features per language")
    p.add_argument("--min-languages", type=int, default=10, help="min languages per feature")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("split", help="build train/test sets")
    p.add_argument("--input", required=True, help="dataset to split (TSV)")
    p.add_argument("--out-dir", required=True, help="directory for split artifacts")
    p.add_argument("--spec", help="split spec file (key=value)")
    p.add_argument("--seed", type=int, help="overrides the split spec seed")
    p.add_argument(
        "--random-fractions",
        help="three comma-separated fractions for a plain random split (no blanking)",
    )
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("blank", help="hide observed cells of a dataset",
                       formatter_class=_BlankHelpFormatter)
    p.add_argument("--input", required=True, help="dataset to blank (TSV)")
    p.add_argument("--out-dir", required=True, help="directory for blanked/gold files")
    p.add_argument("--seed", type=int, required=True, help="blanking seed")
    p.add_argument("--low", type=float, help="lowest blanking ratio")
    p.add_argument("--high", type=float, help="highest blanking ratio")
    p.set_defaults(func=cmd_blank)

    p = sub.add_parser("impute", help="fill the hidden cells of a test file")
    p.add_argument("--train", required=True, help="training dataset (TSV)")
    p.add_argument("--test", required=True, help="test dataset with ? cells (TSV)")
    p.add_argument("--out", required=True, help="filled dataset path")
    p.add_argument("--imputer-config", help="imputer config file (key=value); default method=frequency")
    p.add_argument("--vectors", help="language vector file for the knn imputer")
    p.add_argument(
        "--no-fallback",
        action="store_true",
        help="leave cells the imputer cannot answer as ? instead of using the global mode",
    )
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="score filled test files against gold")
    p.add_argument("--test", required=True, help="test dataset with ? cells (TSV)")
    p.add_argument("--gold", required=True, help="gold dataset with revealed values (TSV)")
    p.add_argument(
        "--system",
        action="append",
        required=True,
        metavar="NAME=FILLED.tsv",
        help="system name and its filled test file; repeatable",
    )
    p.add_argument("--out-dir", required=True, help="directory for report tables")
    p.add_argument("--seed", type=int, help="permutation seed (required for 2+ systems)")
    p.add_argument("--samples", type=int, default=5000, help="permutation samples")
    p.add_argument(
        "--exclude-missing",
        action="store_true",
        help="drop missing predictions from denominators instead of counting them wrong",
    )
    p.add_argument("--spec", help="split spec file; adds the held-out genus breakdown")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render an evaluation directory as text")
    p.add_argument("--input", required=True, help="evaluation output directory")
    p.add_argument("--out", required=True, help="text report path")
    p.add_argument("--top", type=int, default=5, help="feature rows to show per direction")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, EvaluationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
