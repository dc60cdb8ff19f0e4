"""Command-line surface: exit codes, outputs, inspection."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from conftest import CountingDecomposer, CountingNli
import agsc.cli
import agsc.pipeline
from agsc.cli import main
from agsc.pipeline import build_providers
from agsc.providers import content_key

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

    def test_lone_surrogate_in_dataset_exit_3(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl", n=1)
        text = dataset.read_text(encoding="utf-8").replace("long history", "long \\ud800 history", 1)
        dataset.write_text(text, encoding="utf-8")
        config = write_config(tmp_path / "run.cfg")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "dataset error: line 1: field 'responses'" in capsys.readouterr().err

    def test_deleted_key_exit_2(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg", extra="report.debug_clusters = true\n")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'report.debug_clusters'" in capsys.readouterr().err

    def test_nli_direction_key_exit_2(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg", extra="scoring.nli_direction = unit_premise\n")
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown key 'scoring.nli_direction'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("blocker", ["cache_dir", "nli.jsonl"])
    def test_unusable_cache_dir_exit_3(self, tmp_path, capsys, blocker):
        # A regular file where the cache directory belongs, or a directory
        # where its NLI cache file belongs.
        dataset = write_dataset(tmp_path / "data.jsonl")
        cache = tmp_path / "cache"
        if blocker == "cache_dir":
            cache.write_text("not a directory\n", encoding="utf-8")
        else:
            (cache / "nli.jsonl").mkdir(parents=True)
        config = write_config(tmp_path / "run.cfg", extra=f"cache_dir = {cache}\n")
        out = tmp_path / "out"
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 3
        assert "cache error" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_prompt_id_exit_3(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        first, second, _ = dataset.read_text(encoding="utf-8").splitlines()
        dataset.write_text(
            "\n".join([first, first.replace('"p0"', '"p1"'), second]) + "\n",
            encoding="utf-8",
        )
        config = write_config(tmp_path / "run.cfg")
        out = tmp_path / "out"
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "dataset error: line 3: duplicate prompt_id 'p1' (first on line 2)" in err
        assert not out.exists()

    @pytest.mark.parametrize("record", ['{"x": 1}', "[1, 2]"])
    def test_cache_line_that_is_not_a_record_exit_3(self, tmp_path, capsys, record):
        dataset = write_dataset(tmp_path / "data.jsonl")
        cache = tmp_path / "cache"
        config = write_config(tmp_path / "run.cfg", extra=f"cache_dir = {cache}\n")
        args = ["score", "--dataset", str(dataset), "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        nli = cache / "nli.jsonl"
        nli.write_text(nli.read_text(encoding="utf-8") + record + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(args + ["--out", str(tmp_path / "second")]) == 3
        err = capsys.readouterr().err
        n_lines = len(nli.read_text(encoding="utf-8").splitlines())
        assert f"cache error: {nli}:{n_lines}: not a cache record" in err

    def test_wrong_shaped_cache_record_fails_only_its_prompt(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        cache = tmp_path / "cache"
        config = write_config(tmp_path / "run.cfg", extra=f"cache_dir = {cache}\n")
        args = ["score", "--dataset", str(dataset), "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        # The first record is p0's first pair: its premise, a reference, names p0.
        nli = cache / "nli.jsonl"
        first, rest = nli.read_text(encoding="utf-8").split("\n", 1)
        nli.write_text(
            json.dumps(dict(json.loads(first), v=[1.0, 2.0])) + "\n" + rest, encoding="utf-8"
        )
        capsys.readouterr()
        out = tmp_path / "second"
        assert main(args + ["--out", str(out)]) == 0
        assert "scored 2/3 prompts (1 failed)" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert [f["prompt_id"] for f in summary["failures"]] == ["p0"]
        assert f"{nli}: cache record malformed" in summary["failures"][0]["error"]
        reports = (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["prompt_id"] for line in reports] == ["p1", "p2"]

    def test_tampered_embedding_record_fails_only_its_prompt(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path / "data.jsonl")
        cache = tmp_path / "cache"
        config = write_config(tmp_path / "run.cfg", extra=f"cache_dir = {cache}\n")
        args = ["score", "--dataset", str(dataset), "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        # Cut the embedding of a sentence only p0's references hold to one entry.
        embed = cache / "embed.jsonl"
        key = content_key("embed", "Subject 0 lives in a big city.").hex()
        records = [json.loads(line) for line in embed.read_text(encoding="utf-8").splitlines()]
        assert key in [r["k"] for r in records]
        embed.write_text(
            "".join(json.dumps(dict(r, v=[1.0]) if r["k"] == key else r) + "\n" for r in records),
            encoding="utf-8",
        )
        capsys.readouterr()
        out = tmp_path / "second"
        assert main(args + ["--out", str(out)]) == 0
        assert "scored 2/3 prompts (1 failed)" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert [f["prompt_id"] for f in summary["failures"]] == ["p0"]
        assert "vectors of dimensions [1, " in summary["failures"][0]["error"]
        reports = (out / "reports.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["prompt_id"] for line in reports] == ["p1", "p2"]

    def test_out_below_a_file_exit_3_before_scoring(self, tmp_path, capsys, monkeypatch):
        def no_scoring(*args, **kwargs):
            raise AssertionError("a prompt was scored")

        monkeypatch.setattr(agsc.pipeline, "run_prompt", no_scoring)
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg")
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("report error: ")

    def test_report_file_that_is_a_directory_exit_3_before_scoring(
        self, tmp_path, capsys, monkeypatch
    ):
        counters = []

        def counting_providers(config):
            bundle = build_providers(config)
            bundle.nli = CountingNli(bundle.nli)
            bundle.decomposer = CountingDecomposer(bundle.decomposer)
            counters.extend([bundle.nli, bundle.decomposer])
            return bundle

        monkeypatch.setattr(agsc.cli, "build_providers", counting_providers)
        dataset = write_dataset(tmp_path / "data.jsonl")
        config = write_config(tmp_path / "run.cfg")
        out = tmp_path / "out"
        (out / "reports.jsonl").mkdir(parents=True)
        code = main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("report error: ")
        assert [c.calls for c in counters] == [0, 0]
        assert not (out / "summary.json").exists()

    def test_failed_run_keeps_the_previous_reports(self, tmp_path, monkeypatch):
        report = scored_report(tmp_path)
        before = report.read_bytes()

        def dies(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(agsc.pipeline, "run_many", dies)
        dataset = tmp_path / "data.jsonl"
        config = tmp_path / "run.cfg"
        with pytest.raises(KeyboardInterrupt):
            main(["score", "--dataset", str(dataset), "--config", str(config), "--out", str(report.parent)])
        assert report.read_bytes() == before


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

    def test_eval_wrong_typed_field_names_path_and_line(self, tmp_path, capsys):
        for i, edit in enumerate([
            lambda r: dict(r, u_final=True),
            lambda r: dict(r, timing=dict(r["timing"], decomposer_calls=[1])),
        ]):
            (tmp_path / str(i)).mkdir()
            report = scored_report(tmp_path / str(i))
            edit_first_line(report, edit)
            code = main(["eval", "--reports", str(report.parent), "--out", str(tmp_path / "t.csv")])
            assert code == 3
            assert f"{report}:1: field '" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [math.nan, math.inf, 1.5, -0.1, True, "0.5", None])
    def test_eval_bad_factuality_label_names_path_and_line(self, tmp_path, capsys, label):
        report = scored_report(tmp_path)
        edit_first_line(report, lambda r: dict(r, factuality=label))
        code = main(["eval", "--reports", str(report.parent), "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert f"{report}:1: field 'factuality' must" in capsys.readouterr().err

    def test_eval_invalid_json_names_path_and_line(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        report.write_bytes(report.read_bytes() + b"{not json\n")
        code = main(["eval", "--reports", str(report.parent), "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert f"{report}:4: " in capsys.readouterr().err

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

    @pytest.mark.parametrize("target", ["below-a-file", "a-directory"])
    def test_eval_unwritable_out_exit_3(self, tmp_path, capsys, target):
        scored_report(tmp_path)
        out = tmp_path / "table.csv"
        if target == "below-a-file":
            out.write_text("", encoding="utf-8")
            out = out / "table.csv"
        else:
            out.mkdir()
        capsys.readouterr()
        assert main(["eval", "--reports", str(tmp_path / "out"), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("report error: ")

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

    def test_inspect_malformed_line_names_path_and_line(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        text = report.read_text(encoding="utf-8").split("\n")
        text[1] = "[1, "
        report.write_text("\n".join(text), encoding="utf-8")
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert f"report error: {report}:2: " in capsys.readouterr().err
        report.write_text("\n".join(text[:1] + ["7"] + text[2:]), encoding="utf-8")
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert f"report error: {report}:2: not a JSON object" in capsys.readouterr().err

    def test_inspect_non_object_sentence_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        edit_first_line(report, lambda r: dict(r, sentences=[1]))
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert "report error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: dict(r, u_final=2.0),
            lambda r: dict(r, timing=dict(r["timing"], decomposer_calls=[1])),
        ],
        ids=["u_final", "timing"],
    )
    def test_inspect_rejects_what_eval_rejects(self, tmp_path, capsys, edit):
        report = scored_report(tmp_path)
        edit_first_line(report, edit)
        capsys.readouterr()
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert capsys.readouterr().err.startswith(f"report error: {report}:1: ")

    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda r: dict(r, sentences=[dict(r["sentences"][0], units="r0.s2")]),
                "field 'units' must be an array, got 'r0.s2'",
            ),
            (
                lambda r: dict(r, units=[dict(r["units"][0], memberships=["x", True])]),
                "items of field 'memberships' must be float, got 'x'",
            ),
            (lambda r: dict(r, timing=[1]), "field 'timing' must be an object, got [1]"),
        ],
        ids=["sentence_units", "membership_items", "timing_object"],
    )
    def test_wrong_shaped_sequence_exit_3(self, tmp_path, capsys, command, edit, message):
        report = scored_report(tmp_path)
        edit_first_line(report, edit)
        capsys.readouterr()
        if command == "eval":
            args = ["eval", "--reports", str(report.parent), "--out", str(tmp_path / "t.csv")]
        else:
            args = ["inspect", "--report", str(report), "--sentence", "0"]
        assert main(args) == 3
        assert f"{report}:1: {message}" in capsys.readouterr().err

    def test_inspect_invalid_utf8_exit_3(self, tmp_path, capsys):
        report = scored_report(tmp_path)
        report.write_bytes(b"\xff" + report.read_bytes())
        assert main(["inspect", "--report", str(report), "--sentence", "0"]) == 3
        assert "report error" in capsys.readouterr().err

    def test_inspect_missing_file_exit_3(self, tmp_path):
        code = main(["inspect", "--report", str(tmp_path / "none.jsonl"), "--sentence", "0"])
        assert code == 3
