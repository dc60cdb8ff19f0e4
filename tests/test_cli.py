"""Command-line surface: exit codes, outputs, inspection."""

from __future__ import annotations

import json
from pathlib import Path

from agsc.cli import main

BASE_CONFIG = """
seed = 5
workers = 1
timing = off
variant = agsc
providers.nli.kind = mock
providers.embed.kind = mock
providers.decompose.kind = mock
"""


def write_dataset(path: Path, n: int = 3) -> Path:
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "prompt_id": f"p{i}",
                    "prompt": f"Describe subject {i}.",
                    "responses": [
                        f"Subject {i} lives in a city. It has a long history.",
                        f"Subject {i} lives in a big city. The history is long.",
                        f"Subject {i} resides in a city. Its history is long.",
                    ],
                    "factuality": round(0.2 + 0.1 * i, 3),
                }
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_config(path: Path, extra: str = "") -> Path:
    path.write_text(BASE_CONFIG + extra, encoding="utf-8")
    return path


def scored_report(tmp_path: Path) -> Path:
    """Score the three-prompt dataset; return its reports.jsonl."""
    dataset = write_dataset(tmp_path / "data.jsonl")
    config = write_config(tmp_path / "run.cfg")
    out = tmp_path / "out"
    assert main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]) == 0
    return out / "reports.jsonl"


def edit_first_line(report: Path, edit) -> None:
    """Replace the first report line by edit(record), dumped as JSON."""
    first, rest = report.read_text(encoding="utf-8").split("\n", 1)
    report.write_text(json.dumps(edit(json.loads(first))) + "\n" + rest, encoding="utf-8")


class TestScore:
    def test_score_success(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg")
        out = tmp_path / "out"
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "reports.jsonl").exists()
        assert (out / "summary.json").exists()
        lines = (out / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert "scored 3/3" in capsys.readouterr().out

    def test_score_without_config_uses_defaults(self, tmp_path):
        dataset = write_dataset(tmp_path / "data.jsonl")
        out = tmp_path / "out"
        assert main(["score", "--dataset", str(dataset), "--out", str(out)]) == 0

    def test_bad_config_exit_2(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_key = 1\n", encoding="utf-8")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_value_exit_2(self, tmp_path):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg", extra="granularity.tau = 3.0\n")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_mock_latency_beyond_timeout_exit_2(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(
            tmp_path / "run.cfg", extra="providers.decompose.mock_latency_ms = 1e308\n"
        )
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "timeout_ms" in capsys.readouterr().err

    def test_unknown_variant_exit_2(self, tmp_path):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg", extra="variant = agsc_turbo\n")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_dataset_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "data.jsonl"
        bad.write_text('{"prompt_id": "p"}\n', encoding="utf-8")
        config = write_config(tmp_path / "run.cfg")
        code = main(["score", "--dataset", str(bad), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "dataset error" in capsys.readouterr().err

    def test_deleted_key_exit_2(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg", extra="report.debug_clusters = true\n")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'report.debug_clusters'" in capsys.readouterr().err

    def test_missing_dataset_exit_3(self, tmp_path):
        config = write_config(tmp_path / "run.cfg")
        code = main(["score", "--dataset", str(tmp_path / "nope.jsonl"), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_corrupt_cache_line_exit_3(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        cache = tmp_path / "cache"
        config = write_config(tmp_path / "run.cfg", extra=f"cache_dir = {cache}\n")
        args = ["score", "--dataset", str(dataset), "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        nli = cache / "nli.jsonl"
        first, rest = nli.read_text(encoding="utf-8").split("\n", 1)
        nli.write_text(first + "\ngarbage\n" + rest, encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "second")]) == 3
        err = capsys.readouterr().err
        assert "cache error" in err
        assert f"{nli}:2:" in err


class TestEval:
    def _scored_dir(self, tmp_path, variant: str) -> Path:
        dataset = write_dataset(tmp_path / f"data_{variant}.jsonl")
        config = write_config(tmp_path / f"{variant}.cfg", extra=f"variant = {variant}\n")
        out = tmp_path / "runs" / variant
        assert main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_eval_groups_variants(self, tmp_path, capsys):
        self._scored_dir(tmp_path, "agsc")
        self._scored_dir(tmp_path, "luq_sentence")
        table = tmp_path / "table.csv"
        code = main(["eval", "--reports", str(tmp_path / "runs"), "--out", str(table)])
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("variant,pcc,scc,n,")
        variants = {line.split(",")[0] for line in lines[1:]}
        assert variants == {"agsc", "luq_sentence"}

    def test_eval_out_of_range_score_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        edit_first_line(report, lambda r: dict(r, u_final=2.0))
        code = main(["eval", "--reports", str(report.parent), "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert "report error" in capsys.readouterr().err

    def test_eval_reads_text_with_unicode_line_separators(self, tmp_path):
        # Report lines keep U+2028 and U+0085 unescaped; they are not line ends.
        dataset = write_dataset(tmp_path / "data.jsonl")
        text = dataset.read_text(encoding="utf-8").replace("long history", "long\\u2028history\\u0085")
        dataset.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["score", "--dataset", str(dataset), "--out", str(out)]) == 0
        assert "\u2028" in (out / "reports.jsonl").read_text(encoding="utf-8")
        assert main(["eval", "--reports", str(out), "--out", str(tmp_path / "t.csv")]) == 0
        assert main(["inspect", "--report", str(out / "reports.jsonl"), "--sentence", "0"]) == 0

    def test_eval_missing_dir_exit_3(self, tmp_path):
        code = main(["eval", "--reports", str(tmp_path / "none"), "--out", str(tmp_path / "t.csv")])
        assert code == 3

    def test_eval_empty_dir_exit_3(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["eval", "--reports", str(empty), "--out", str(tmp_path / "t.csv")])
        assert code == 3


class TestInspect:
    def test_inspect_prints_routing_record(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        capsys.readouterr()
        code = main(["inspect", "--report", str(report), "--sentence", "1", "--prompt-id", "p1"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["sentence_index"] == 1
        assert record["decision"] in ("keep", "skip", "decompose")
        assert "gap" in record and "dominant" in record

    def test_inspect_missing_sentence_exit_3(self, tmp_path):
        report = scored_report(tmp_path)
        assert main(["inspect", "--report", str(report), "--sentence", "99"]) == 3

    def test_inspect_non_object_line_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        edit_first_line(report, lambda r: [1])
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert "not a JSON object" in capsys.readouterr().err

    def test_inspect_non_object_sentence_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        edit_first_line(report, lambda r: dict(r, sentences=[1]))
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert "report error" in capsys.readouterr().err

    def test_inspect_invalid_utf8_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        report.write_bytes(b"\xff" + report.read_bytes())
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert "report error" in capsys.readouterr().err

    def test_inspect_missing_file_exit_3(self, tmp_path):
        code = main(["inspect", "--report", str(tmp_path / "none.jsonl"), "--sentence", "0"])
        assert code == 3
