"""Command-line surface: score a dataset, evaluate reports, inspect routing.

Exit codes: 0 success, 2 configuration error, 3 dataset, cache or report
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, default_config, load_config
from .corpus import DatasetError, load_dataset, parse_factuality
from .evaluation import compare, comparison_table
from .pipeline import PromptReport, _to_json, build_providers, report_from_dict, run_corpus
from .providers import CacheCorruptError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3

# What reading and parsing a malformed report file can raise. ValueError
# covers bad UTF-8, bad JSON and out-of-range report values.
_MALFORMED_REPORT = (OSError, ValueError, KeyError, TypeError, AttributeError,
                     OverflowError, RecursionError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agsc",
        description=(
            "Consistency-based uncertainty scoring for long-form LLM outputs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score every prompt of a dataset")
    score.add_argument("--dataset", required=True, help="line-delimited sample file")
    score.add_argument("--config", default=None, help="flat key-value config file")
    score.add_argument("--out", required=True, help="report output directory")

    ev = sub.add_parser("eval", help="correlate report scores with labels")
    ev.add_argument("--reports", required=True, help="directory of report files")
    ev.add_argument("--out", required=True, help="CSV comparison table to write")

    ins = sub.add_parser("inspect", help="show the routing record of one sentence")
    ins.add_argument("--report", required=True, help="a reports.jsonl file")
    ins.add_argument("--sentence", required=True, type=int, help="sentence index")
    ins.add_argument("--prompt-id", default=None, help="prompt to inspect (default: first)")
    return parser


def _cmd_score(args) -> int:
    try:
        config = load_config(args.config) if args.config else default_config()
        config = dataclasses.replace(config, report_dir=args.out)
        providers = build_providers(config)
    except OSError as e:  # an unusable cache_dir
        print(f"cache error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        try:
            samples = load_dataset(args.dataset)
        except (DatasetError, OSError) as e:
            print(f"dataset error: {e}", file=sys.stderr)
            return EXIT_DATA
        try:  # the report file is opened before any prompt is scored
            reports, summary = run_corpus(samples, config, providers)
        except CacheCorruptError as e:  # found at the file's first use
            print(f"cache error: {e}", file=sys.stderr)
            return EXIT_DATA
        except OSError as e:
            print(f"report error: {e}", file=sys.stderr)
            return EXIT_DATA
    finally:
        providers.close()
    print(
        f"scored {len(reports)}/{summary.n_prompts} prompts "
        f"({summary.n_failed} failed) -> {args.out}"
    )
    return EXIT_OK


def _read_reports(
    path: Path, skip_others: bool = False
) -> list[tuple[PromptReport, float | None]]:
    """(report, factuality label or None) for each report line of a file.

    Lines end at "\n" only: report text may hold U+2028 or U+0085, which
    str.splitlines would also break at. Blank lines are passed over, and so,
    with skip_others, is any line but an object holding a variant and a
    u_final (a cache record, say). Any other malformed line raises
    ValueError naming its path and line.
    """
    reports = []
    for lineno, raw in enumerate(path.read_bytes().split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            record = json.loads(line)
            is_report = isinstance(record, dict) and {"variant", "u_final"} <= record.keys()
            if skip_others and not is_report:
                continue
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
            report = report_from_dict(record)
            label = parse_factuality(record["factuality"]) if "factuality" in record else None
        except _MALFORMED_REPORT as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
        reports.append((report, label))
    return reports


def _cmd_eval(args) -> int:
    root = Path(args.reports)
    if not root.exists():
        print(f"report error: no such directory: {root}", file=sys.stderr)
        return EXIT_DATA
    by_variant: dict[str, list] = {}
    labels: dict[str, float] = {}
    try:
        for path in sorted(root.rglob("*.jsonl")):
            for report, label in _read_reports(path, skip_others=True):
                if label is not None:
                    labels[report.prompt_id] = label
                by_variant.setdefault(report.variant, []).append(report)
    except _MALFORMED_REPORT as e:
        print(f"report error: malformed report line: {e}", file=sys.stderr)
        return EXIT_DATA
    if not by_variant:
        print(f"report error: no report lines under {root}", file=sys.stderr)
        return EXIT_DATA
    table = comparison_table(compare(by_variant, labels))
    try:
        Path(args.out).write_text(table, encoding="utf-8")
    except OSError as e:
        print(f"report error: {e}", file=sys.stderr)
        return EXIT_DATA
    print(table, end="")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    try:
        reports = [report for report, _ in _read_reports(Path(args.report))]
    except _MALFORMED_REPORT as e:
        print(f"report error: {e}", file=sys.stderr)
        return EXIT_DATA
    if args.prompt_id is not None:
        reports = [r for r in reports if r.prompt_id == args.prompt_id]
    if not reports:
        print("report error: no matching report line", file=sys.stderr)
        return EXIT_DATA
    matches = [s for s in reports[0].sentences if s.sentence_index == args.sentence]
    if not matches:
        print(
            f"report error: prompt {reports[0].prompt_id!r} has no sentence "
            f"{args.sentence}",
            file=sys.stderr,
        )
        return EXIT_DATA
    print(json.dumps(_to_json(matches[0]), ensure_ascii=False, indent=2))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "score":
        return _cmd_score(args)
    if args.command == "eval":
        return _cmd_eval(args)
    return _cmd_inspect(args)


if __name__ == "__main__":
    sys.exit(main())
