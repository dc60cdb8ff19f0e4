"""Domain types for sampled responses, sentence segmentation, and dataset ingestion.

A sample set is one prompt with n >= 2 sampled responses. The first response
is the anchor (the one whose uncertainty is scored); the rest serve as
reference evidence. Everything here is immutable after construction and safe
to share across worker threads.
"""

from __future__ import annotations

import json
import logging
import math
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)


class DatasetError(Exception):
    """Raised when a dataset file cannot be parsed into sample sets."""


@dataclass(frozen=True)
class SampleSet:
    """One prompt with its sampled responses; responses[0] is the anchor."""

    prompt_id: str
    prompt: str
    responses: tuple[str, ...]
    factuality: float | None = None

    def __post_init__(self) -> None:
        if len(self.responses) < 2:
            raise ValueError(
                f"sample set {self.prompt_id!r} needs at least 2 responses, "
                f"got {len(self.responses)}"
            )
        for i, r in enumerate(self.responses):
            if not r.strip():
                raise ValueError(
                    f"sample set {self.prompt_id!r}: response {i} is empty"
                )
        if self.factuality is not None and not (
            math.isfinite(self.factuality) and 0.0 <= self.factuality <= 1.0
        ):
            raise ValueError(
                f"sample set {self.prompt_id!r}: factuality must lie in [0, 1]"
            )

    @property
    def anchor(self) -> str:
        return self.responses[0]

    @property
    def references(self) -> tuple[str, ...]:
        return self.responses[1:]


@dataclass(frozen=True)
class Sentence:
    """A sentence with its position inside a sample set."""

    response_index: int
    sentence_index: int
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("sentence text must be non-empty")


@dataclass(frozen=True)
class TextUnit:
    """A scored text segment: either a whole sentence or one atomic fact."""

    unit_id: str
    origin: Sentence
    role: str  # "sentence" | "atomic_fact"
    text: str

    def __post_init__(self) -> None:
        if self.role not in ("sentence", "atomic_fact"):
            raise ValueError(f"unknown unit role {self.role!r}")
        if not self.text.strip():
            raise ValueError("unit text must be non-empty")


_TERMINALS = ".!?"
_CLOSERS = "\"')]»’”"
_OPENERS = "\"'([«‘“"

# Tokens that end in a period without ending a sentence. Checked lowercase.
_ABBREVIATIONS = frozenset({
    "dr.", "mr.", "mrs.", "ms.", "prof.", "rev.", "gen.", "sen.", "gov.",
    "sgt.", "capt.", "col.", "lt.", "st.", "jr.", "sr.", "hon.",
    "vs.", "etc.", "cf.", "al.", "ca.", "approx.",
    "inc.", "ltd.", "co.", "corp.", "dept.", "univ.", "assn.",
    "jan.", "feb.", "mar.", "apr.", "jun.", "jul.", "aug.",
    "sep.", "sept.", "oct.", "nov.", "dec.",
    "no.", "nos.", "vol.", "pp.", "fig.", "figs.", "ed.", "eds.",
    "ph.d.", "b.sc.", "m.sc.",
})

# "A.", "U.S.", "e.g.", "p.m." -- alternating letter/period tokens are
# initials or abbreviations, never sentence ends.
_INITIALS_RE = re.compile(r"(?:[^\W\d_]\.)+", re.UNICODE)


def split_sentences(text: str) -> list[str]:
    """Split text into sentences.

    Boundaries are terminal punctuation (. ! ?) plus any closing quotes or
    brackets, followed by whitespace and an uppercase or opening character.
    A period does not split after a stop-listed abbreviation or an initial.
    Newlines always act as boundaries. Empty input yields an empty list.

    No characters other than inter-sentence whitespace are dropped, so
    joining the result with single spaces and collapsing whitespace
    reproduces the whitespace-collapsed input.
    """
    sentences: list[str] = []
    for block in text.split("\n"):
        block = block.strip()
        if block:
            sentences.extend(_split_block(block))
    return sentences


def _split_block(block: str) -> list[str]:
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(block)
    while i < n:
        if block[i] not in _TERMINALS:
            i += 1
            continue
        j = i + 1
        while j < n and block[j] in _TERMINALS:
            j += 1
        while j < n and block[j] in _CLOSERS:
            j += 1
        k = j
        while k < n and block[k].isspace():
            k += 1
        if k == j or k == n:
            # No whitespace after the punctuation (e.g. "3.5"), or end of
            # block; the tail is closed out below.
            i = j
            continue
        nxt = block[k]
        if not (nxt.isupper() or nxt in _OPENERS):
            i = j
            continue
        if block[i] == "." and j - i == 1 and _is_abbreviation(block, i):
            i = j
            continue
        sentences.append(block[start:j])
        start = k
        i = k
    tail = block[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _is_abbreviation(block: str, period_index: int) -> bool:
    w = period_index
    while w > 0 and not block[w - 1].isspace():
        w -= 1
    token = block[w : period_index + 1].lstrip(_OPENERS).lower()
    return token in _ABBREVIATIONS or _INITIALS_RE.fullmatch(token) is not None


def segment_sentences(text: str, response_index: int = 0) -> list[Sentence]:
    """Segment one response into ordered Sentence records."""
    return [
        Sentence(response_index=response_index, sentence_index=i, text=t)
        for i, t in enumerate(split_sentences(text))
    ]


def _canonical(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def load_dataset(path: str | Path) -> list[SampleSet]:
    """Load line-delimited sample records.

    Each "\n"-ended line is a UTF-8 JSON object with fields prompt_id
    (string), prompt (string), responses (array of strings) and optionally
    factuality (number in [0, 1]). Text is NFC-normalized on ingestion. Any
    malformed line raises DatasetError naming the line; a record with fewer
    than two responses is skipped with a logged diagnostic.
    """
    samples: list[SampleSet] = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            # ValueError covers bad UTF-8, bad JSON and over-long integers;
            # deep nesting exhausts json's recursion limit.
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise DatasetError(f"line {lineno}: invalid JSON ({e})") from e
            if not isinstance(obj, dict):
                raise DatasetError(f"line {lineno}: record is not an object")
            samples_or_none = _parse_record(obj, lineno)
            if samples_or_none is not None:
                samples.append(samples_or_none)
    return samples


def _parse_record(obj: dict, lineno: int) -> SampleSet | None:
    for field in ("prompt_id", "prompt", "responses"):
        if field not in obj:
            raise DatasetError(f"line {lineno}: missing field '{field}'")
    prompt_id = obj["prompt_id"]
    prompt = obj["prompt"]
    responses = obj["responses"]
    if not isinstance(prompt_id, str) or not prompt_id:
        raise DatasetError(f"line {lineno}: field 'prompt_id' must be a non-empty string")
    if not isinstance(prompt, str):
        raise DatasetError(f"line {lineno}: field 'prompt' must be a string")
    if not isinstance(responses, list) or not all(
        isinstance(r, str) for r in responses
    ):
        raise DatasetError(f"line {lineno}: field 'responses' must be an array of strings")
    cleaned = tuple(_canonical(r).strip() for r in responses)
    if any(not r for r in cleaned):
        raise DatasetError(f"line {lineno}: field 'responses' contains an empty response")
    if len(cleaned) < 2:
        logger.warning(
            "line %d: record %r rejected, needs >= 2 responses (got %d)",
            lineno, prompt_id, len(cleaned),
        )
        return None
    factuality = None
    if "factuality" in obj:
        raw = obj["factuality"]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise DatasetError(f"line {lineno}: field 'factuality' must be a number")
        # Checked before float(): an int too large for a float would overflow.
        if not 0.0 <= raw <= 1.0:
            raise DatasetError(f"line {lineno}: field 'factuality' must lie in [0, 1]")
        factuality = float(raw)
    return SampleSet(
        prompt_id=prompt_id,
        prompt=_canonical(prompt),
        responses=cleaned,
        factuality=factuality,
    )
