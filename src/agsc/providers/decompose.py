"""Atomic-fact decomposition: chat prompt, response parsing, rule fallback.

The primary decomposer is a chat-completion endpoint prompted few-shot to
emit one fact per line. If it fails, a deterministic rule-based splitter
takes over so the pipeline always produces at least one fact per sentence.
"""

from __future__ import annotations

import logging
import re
from typing import Sequence

from .base import DecomposerProvider, ProviderError, share_turn, waiting_on

logger = logging.getLogger(__name__)

_SYSTEM_PROMPT = (
    "You split a single sentence into independent, self-contained atomic "
    "facts. Each fact must stand alone without pronouns that need outside "
    "context. Reply with one fact per line, each line starting with '- '. "
    "Output nothing else."
)

_FEW_SHOT: list[tuple[str, str]] = [
    (
        "Sentence: Marie Curie was born in Warsaw and won two Nobel Prizes.\n"
        "Topic: Tell me about Marie Curie.",
        "- Marie Curie was born in Warsaw\n- Marie Curie won two Nobel Prizes",
    ),
    (
        "Sentence: The bridge, which opened in 1937, spans the strait.\n"
        "Topic: Describe the Golden Gate Bridge.",
        "- The bridge opened in 1937\n- The bridge spans the strait",
    ),
    (
        "Sentence: He retired in 2004.\nTopic: Tell me about the engineer.",
        "- He retired in 2004",
    ),
]


def build_decompose_messages(sentence: str, prompt_context: str) -> list[dict]:
    """Assemble the few-shot chat messages for one sentence."""
    messages = [{"role": "system", "content": _SYSTEM_PROMPT}]
    for user, assistant in _FEW_SHOT:
        messages.append({"role": "user", "content": user})
        messages.append({"role": "assistant", "content": assistant})
    messages.append(
        {
            "role": "user",
            "content": f"Sentence: {sentence}\nTopic: {prompt_context}",
        }
    )
    return messages


def parse_fact_lines(text: str) -> list[str]:
    """Parse a chat completion into fact strings, one per non-empty line.

    A leading "- " bullet is stripped; other leading markers ("* ", "1. ")
    are tolerated the same way.
    """
    facts = []
    for line in text.splitlines():
        line = line.strip()
        line = re.sub(r"^(?:[-*•]|\d+[.)])\s+", "", line)
        if line:
            facts.append(line)
    return facts


# Coordinating conjunctions and comma-led relative clauses mark clause
# boundaries; the matched connective itself is dropped.
_CLAUSE_SPLIT = re.compile(
    r",?\s+\b(?:and|but|or)\b\s+|,\s+\b(?:who|whom|whose|which|where)\b\s+"
)


def split_facts_rule_based(sentence: str) -> list[str]:
    """Deterministic fallback splitter.

    Splits on coordinating conjunctions and comma-introduced relative
    clauses. A sentence with no split point is returned unchanged as a
    single fact.
    """
    pieces = [p.strip().strip(",;") for p in _CLAUSE_SPLIT.split(sentence)]
    pieces = [p for p in pieces if any(c.isalnum() for c in p)]
    if len(pieces) <= 1:
        return [sentence]
    return pieces


def checked_facts(answer) -> list[str]:
    """A decomposer's answer as a list of facts: it must be a non-empty
    list of strings that are not blank, or ValueError is raised. Each fact
    must encode as UTF-8, as dataset text must: a JSON escape can name a
    lone surrogate, which no cache or report line can carry."""
    if not (isinstance(answer, list) and answer
            and all(isinstance(f, str) and f.strip() for f in answer)):
        raise ValueError(f"expected a non-empty list of non-blank strings, got {answer!r}")
    for fact in answer:
        try:
            fact.encode("utf-8")
        except UnicodeEncodeError as e:
            raise ValueError(f"fact {fact!r} is not valid Unicode ({e.reason})") from None
    return list(answer)


class RuleBasedDecomposer:
    """DecomposerProvider backed by the rule-based splitter; never fails."""

    def decompose(self, sentence: str, prompt_context: str) -> list[str]:
        return split_facts_rule_based(sentence)


class ResilientDecomposer:
    """Wraps a primary decomposer with the rule-based fallback.

    decompose() reports whether the fallback fired so the pipeline can
    record the degradation in its report. decompose_all() runs up to
    max_in_flight of those calls at once.
    """

    def __init__(self, primary: DecomposerProvider, max_in_flight: int = 1):
        self._primary = primary
        self._max_in_flight = max_in_flight

    def decompose(self, sentence: str, prompt_context: str) -> tuple[list[str], bool]:
        """The primary's facts, or the rule-based split if the primary
        fails or its answer is not one checked_facts accepts."""
        try:
            with waiting_on(self._primary):
                answer = self._primary.decompose(sentence, prompt_context)
        except ProviderError as e:
            logger.warning("decomposer failed (%s); using rule-based fallback", e)
            return split_facts_rule_based(sentence), True
        try:
            return checked_facts(answer), False
        except ValueError as e:
            logger.warning("decomposer returned no facts (%s); using rule-based fallback", e)
            return split_facts_rule_based(sentence), True

    def decompose_all(
        self, sentences: Sequence[str], prompt_context: str
    ) -> list[tuple[list[str], bool]]:
        """decompose() for each sentence, in sentence order, at most
        max_in_flight at once (share_turn); each falls back on its own."""
        return share_turn(
            lambda s: self.decompose(s, prompt_context), sentences, self._max_in_flight
        )
