"""Segmentation, domain-type invariants, and dataset ingestion."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from agsc.corpus import (
    DatasetError,
    SampleSet,
    Sentence,
    TextUnit,
    load_dataset,
    segment_sentences,
    split_sentences,
)

DATA = Path(__file__).parent / "data"


def collapse(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


class TestSplitSentences:
    def test_two_plain_sentences(self):
        assert split_sentences("One fact. Two facts!") == ["One fact.", "Two facts!"]

    def test_abbreviation_stoplist(self):
        assert split_sentences("Dr. Who left.") == ["Dr. Who left."]

    def test_initials(self):
        assert split_sentences("A. B.") == ["A. B."]

    def test_empty_input(self):
        assert split_sentences("") == []
        assert split_sentences("   \n  ") == []

    def test_newline_is_boundary(self):
        assert split_sentences("first line\nsecond line") == [
            "first line",
            "second line",
        ]

    def test_no_split_before_lowercase(self):
        assert split_sentences("He left. the end") == ["He left. the end"]

    def test_no_split_inside_number(self):
        assert split_sentences("Growth was 3.5 percent. Then it fell.") == [
            "Growth was 3.5 percent.",
            "Then it fell.",
        ]

    def test_closing_quote_stays_with_sentence(self):
        assert split_sentences('She said "Stop." Then she left.') == [
            'She said "Stop."',
            "Then she left.",
        ]

    def test_question_and_exclamation(self):
        assert split_sentences("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_deterministic(self):
        text = "Dr. A. Smith wrote it. Twice! Or more?\nNew para."
        assert split_sentences(text) == split_sentences(text)

    def test_golden_biography_counts(self):
        fixtures = json.loads((DATA / "bio_fixture.json").read_text())
        assert len(fixtures) == 20
        for fx in fixtures:
            got = split_sentences(fx["text"])
            assert len(got) == fx["sentences"], fx["text"]

    def test_concatenation_reproduces_input(self):
        fixtures = json.loads((DATA / "bio_fixture.json").read_text())
        for fx in fixtures:
            joined = " ".join(split_sentences(fx["text"]))
            assert collapse(joined) == collapse(fx["text"])


class TestSegmentSentences:
    def test_indices(self):
        sents = segment_sentences("One fact. Two facts!", response_index=2)
        assert [s.sentence_index for s in sents] == [0, 1]
        assert all(s.response_index == 2 for s in sents)

    def test_unique_keys_within_sample(self):
        sents = segment_sentences("A move. B move. C move.", response_index=1)
        keys = {(s.response_index, s.sentence_index) for s in sents}
        assert len(keys) == len(sents) == 3


class TestDomainTypes:
    def test_sample_set_needs_two_responses(self):
        with pytest.raises(ValueError):
            SampleSet(prompt_id="p", prompt="q", responses=("only one",))

    def test_sample_set_rejects_blank_response(self):
        with pytest.raises(ValueError):
            SampleSet(prompt_id="p", prompt="q", responses=("ok", "   "))

    def test_sample_set_factuality_range(self):
        with pytest.raises(ValueError):
            SampleSet(prompt_id="p", prompt="q", responses=("a", "b"), factuality=1.5)

    def test_anchor_and_references(self):
        s = SampleSet(prompt_id="p", prompt="q", responses=("a", "b", "c"))
        assert s.anchor == "a"
        assert s.references == ("b", "c")

    def test_sentence_nonempty(self):
        with pytest.raises(ValueError):
            Sentence(response_index=0, sentence_index=0, text="  ")

    def test_unit_role_checked(self):
        origin = Sentence(response_index=0, sentence_index=0, text="A fact.")
        with pytest.raises(ValueError):
            TextUnit(unit_id="u", origin=origin, role="paragraph", text="A fact.")
        unit = TextUnit(unit_id="u", origin=origin, role="atomic_fact", text="A")
        assert unit.origin is origin


class TestLoadDataset:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_basic_record(self, tmp_path):
        path = self._write(
            tmp_path,
            [json.dumps({"prompt_id": "p1", "prompt": "q", "responses": ["a", "b", "c"]})],
        )
        samples = load_dataset(path)
        assert len(samples) == 1
        assert samples[0].prompt_id == "p1"
        assert len(samples[0].responses) == 3
        assert samples[0].anchor == "a"
        assert samples[0].factuality is None

    def test_missing_responses_field(self, tmp_path):
        path = self._write(tmp_path, [json.dumps({"prompt_id": "p1", "prompt": "q"})])
        with pytest.raises(DatasetError, match=r"line 1.*responses"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        good = json.dumps({"prompt_id": "p1", "prompt": "q", "responses": ["a", "b"]})
        path = self._write(tmp_path, [good, "{not json"])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_record_with_one_response_skipped_with_diagnostic(self, tmp_path, caplog):
        lines = [
            json.dumps({"prompt_id": "solo", "prompt": "q", "responses": ["a"]}),
            json.dumps({"prompt_id": "pair", "prompt": "q", "responses": ["a", "b"]}),
        ]
        path = self._write(tmp_path, lines)
        with caplog.at_level("WARNING"):
            samples = load_dataset(path)
        assert [s.prompt_id for s in samples] == ["pair"]
        assert any("solo" in rec.message for rec in caplog.records)

    def test_factuality_parsed_and_bounded(self, tmp_path):
        ok = json.dumps(
            {"prompt_id": "p", "prompt": "q", "responses": ["a", "b"], "factuality": 0.25}
        )
        samples = load_dataset(self._write(tmp_path, [ok]))
        assert samples[0].factuality == 0.25
        bad = json.dumps(
            {"prompt_id": "p", "prompt": "q", "responses": ["a", "b"], "factuality": 2}
        )
        with pytest.raises(DatasetError, match="factuality"):
            load_dataset(self._write(tmp_path, [bad]))

    def test_nfc_normalization(self, tmp_path):
        decomposed = "Café story here."  # e + combining accent
        composed = "Café story here."
        rec = json.dumps(
            {"prompt_id": "p", "prompt": "q", "responses": [decomposed, composed]}
        )
        samples = load_dataset(self._write(tmp_path, [rec]))
        assert samples[0].responses[0] == samples[0].responses[1]

    def test_order_preserved_and_blank_lines_ignored(self, tmp_path):
        lines = []
        for i in range(5):
            lines.append(
                json.dumps(
                    {"prompt_id": f"p{i}", "prompt": "q", "responses": ["a", "b"]}
                )
            )
            lines.append("")
        samples = load_dataset(self._write(tmp_path, lines))
        assert [s.prompt_id for s in samples] == [f"p{i}" for i in range(5)]

    @pytest.mark.parametrize(
        "bad",
        [
            b'{"prompt_id": "p", "prompt": "q", "responses": ["a", "b"], "factuality": 1'
            + b"0" * 400 + b"}",
            b'{"prompt_id": "p", "prompt": "q\xff", "responses": ["a", "b"]}',
            b"[" * 100_000,
            b'{"prompt_id": "p", "prompt": "q", "responses": ["a", "b"], "factuality": '
            + b"1" * 5000 + b"}",
        ],
        ids=["huge_int", "invalid_utf8", "deep_nesting", "too_many_digits"],
    )
    def test_malformed_line_is_a_dataset_error(self, tmp_path, bad):
        good = json.dumps({"prompt_id": "p0", "prompt": "q", "responses": ["a", "b"]})
        path = tmp_path / "data.jsonl"
        path.write_bytes(good.encode() + b"\n" + bad + b"\n")
        with pytest.raises(DatasetError, match="^line 2: "):
            load_dataset(path)

    def test_crlf_line_ends(self, tmp_path):
        rec = json.dumps({"prompt_id": "p", "prompt": "q", "responses": ["a", "b"]})
        path = tmp_path / "data.jsonl"
        path.write_bytes(f"{rec}\r\n\r\n{rec}\r\n".encode())
        assert [s.prompt_id for s in load_dataset(path)] == ["p", "p"]

    def test_longfact_scale_fixture(self, tmp_path):
        # 38 topics x 10 prompts, mirroring the benchmark's advertised size.
        lines = [
            json.dumps(
                {
                    "prompt_id": f"t{topic:02d}-q{q}",
                    "prompt": f"Describe topic {topic} item {q}.",
                    "responses": [f"Answer {r} for {topic}-{q}." for r in range(5)],
                    "factuality": 0.5,
                }
            )
            for topic in range(38)
            for q in range(10)
        ]
        samples = load_dataset(self._write(tmp_path, lines))
        assert len(samples) == 380


class TestLoadDatasetFuzz:
    """Seeded mutations of valid records: every file loads, or raises a
    DatasetError that names the mutated line; no other exception escapes."""

    VALUES = (
        None, True, False, 0, 1, -1, 0.5, 2.5, 10**400, float("nan"),
        float("inf"), "", " ", "x", [], ["a"], ["a", ""], [1, 2], ["a", 3],
        {}, {"a": "b"},
    )
    FIELDS = ("prompt_id", "prompt", "responses", "factuality")
    HUGE = "9" * 5000  # more digits than int() accepts from text

    def _record(self, i: int) -> dict:
        return {
            "prompt_id": f"p{i}",
            "prompt": f"Question {i}?",
            "responses": [f"Answer {i} one.", f"Answer {i} two.", "Answer three."],
            "factuality": 0.5,
        }

    def _mutate(self, rng: random.Random, record: dict) -> bytes:
        roll = rng.randrange(7)
        field = rng.choice(self.FIELDS)
        if roll == 0:
            record.pop(field, None)
        elif roll == 1:
            record[field] = rng.choice(self.VALUES)
        elif roll == 2:
            record["responses"][rng.randrange(3)] = rng.choice(self.VALUES)
        elif roll == 3:
            record[field] = "__huge__"
        elif roll == 4:
            record[field] = "__deep__"
        depth = rng.choice((10, 2000, 100_000))
        line = json.dumps(record)  # writes NaN and Infinity as bare literals
        line = line.replace('"__huge__"', self.HUGE)
        line = line.replace('"__deep__"', "[" * depth + "]" * depth)
        raw = line.encode("utf-8")
        if roll == 5:  # bytes that are not UTF-8 inside an ASCII line
            at = rng.randrange(len(raw) + 1)
            raw = raw[:at] + rng.choice((b"\xff", b"\xc3", b"\xed\xa0\x80")) + raw[at:]
        elif roll == 6:
            raw = raw[: rng.randrange(len(raw))]
        return raw

    def test_loads_or_names_the_line(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "data.jsonl"
        loaded = failed = 0
        for trial in range(400):
            n = rng.randint(1, 4)
            bad = rng.randrange(n)
            lines = [
                self._mutate(rng, self._record(i)) if i == bad
                else json.dumps(self._record(i)).encode()
                for i in range(n)
            ]
            path.write_bytes(b"\n".join(lines) + b"\n")
            try:
                samples = load_dataset(path)
            except DatasetError as e:
                assert str(e).startswith(f"line {bad + 1}: "), (trial, str(e))
                failed += 1
                continue
            loaded += 1
            assert len(samples) <= n
        # Both outcomes are exercised.
        assert loaded > 20 and failed > 200, (loaded, failed)
