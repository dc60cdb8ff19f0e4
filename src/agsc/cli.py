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
from .corpus import DatasetError, load_dataset
from .evaluation import compare, comparison_table
from .pipeline import build_providers, report_from_dict, run_corpus
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
    except CacheCorruptError as e:
        print(f"cache error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        samples = load_dataset(args.dataset)
    except (DatasetError, OSError) as e:
        print(f"dataset error: {e}", file=sys.stderr)
        return EXIT_DATA
    try:
        reports, summary = run_corpus(samples, config, providers)
    finally:
        providers.close()
    print(
        f"scored {len(reports)}/{summary.n_prompts} prompts "
        f"({summary.n_failed} failed) -> {args.out}"
    )
    return EXIT_OK


def _read_records(path: Path) -> list:
    """The JSON value of each non-blank line of a report file.

    Lines end at "\n" only: report text may hold U+2028 or U+0085, which
    str.splitlines would also break at.
    """
    text = path.read_text(encoding="utf-8")
    return [json.loads(line) for line in text.split("\n") if line.strip()]


def _cmd_eval(args) -> int:
    root = Path(args.reports)
    if not root.exists():
        print(f"report error: no such directory: {root}", file=sys.stderr)
        return EXIT_DATA
    by_variant: dict[str, list] = {}
    labels: dict[str, float] = {}
    files = sorted(root.rglob("*.jsonl"))
    try:
        for path in files:
            for record in _read_records(path):
                if "variant" not in record or "u_final" not in record:
                    continue  # not a report line (e.g. a provider cache file)
                report = report_from_dict(record)
                by_variant.setdefault(report.variant, []).append(report)
                if "factuality" in record:
                    labels[report.prompt_id] = float(record["factuality"])
        # Report fields are not type-checked on load; a wrong-typed one
        # fails in compare's arithmetic.
        rows = compare(by_variant, labels)
    except _MALFORMED_REPORT as e:
        print(f"report error: malformed report line: {e}", file=sys.stderr)
        return EXIT_DATA
    if not by_variant:
        print(f"report error: no report lines under {root}", file=sys.stderr)
        return EXIT_DATA
    table = comparison_table(rows)
    Path(args.out).write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    path = Path(args.report)
    try:
        lines = _read_records(path)
    except _MALFORMED_REPORT as e:
        print(f"report error: {e}", file=sys.stderr)
        return EXIT_DATA
    if not all(isinstance(r, dict) for r in lines):
        print("report error: a report line is not a JSON object", file=sys.stderr)
        return EXIT_DATA
    if args.prompt_id is not None:
        lines = [r for r in lines if r.get("prompt_id") == args.prompt_id]
    if not lines:
        print("report error: no matching report line", file=sys.stderr)
        return EXIT_DATA
    record = lines[0]
    sentences = record.get("sentences", [])
    if not isinstance(sentences, list) or not all(isinstance(s, dict) for s in sentences):
        print("report error: 'sentences' is not an array of objects", file=sys.stderr)
        return EXIT_DATA
    matches = [s for s in sentences if s.get("sentence_index") == args.sentence]
    if not matches:
        print(
            f"report error: prompt {record.get('prompt_id')!r} has no sentence "
            f"{args.sentence}",
            file=sys.stderr,
        )
        return EXIT_DATA
    print(json.dumps(matches[0], ensure_ascii=False, indent=2))
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
