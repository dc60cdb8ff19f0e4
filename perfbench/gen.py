"""Seeded synthetic corpus for the benchmark: a marker world.

Every anchor sentence carries one marker word that the scripted NLI rule
in world.py reads from the hypothesis:

    alpha  -> entailed      (keep, uncertainty ~ 0)
    omega  -> contradicted  (keep, uncertainty ~ 1)
    zeta   -> neutral, gap 0      (skip)
    theta  -> neutral, gap > 0.1  (decompose into one alpha and one omega fact)

The marker mix is allotted per anchor by largest remainder and then
shuffled, so every prompt carries close to the stated shares. Filler words come from three
planted themes per prompt, which gives the hashed embeddings clusters for
the BIC scan to find. Each sentence carries a unique "entry p-r-s" tag, so
no NLI pair, embedded text or decomposed sentence repeats inside a corpus
and a fresh cache sees only misses.

Standard library only: the generator runs before the program is imported.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MARKERS = ("alpha", "omega", "zeta", "theta")

_THEMES = (
    ("harbor", "lantern", "pier", "tide", "rope", "gull", "dock", "sail"),
    ("meadow", "clover", "hedge", "lark", "barley", "stile", "brook", "hay"),
    ("castle", "rampart", "moat", "banner", "keep", "tower", "gate", "herald"),
    ("market", "stall", "copper", "spice", "ledger", "scale", "vendor", "coin"),
    ("forest", "fern", "oak", "moss", "acorn", "thicket", "owl", "bark"),
    ("temple", "incense", "bell", "pillar", "altar", "scroll", "monk", "shrine"),
    ("bridge", "girder", "cable", "span", "rivet", "arch", "pylon", "deck"),
    ("island", "coral", "lagoon", "palm", "reef", "shell", "dune", "kelp"),
    ("mill", "wheel", "grain", "sluice", "flour", "millstone", "sack", "weir"),
    ("glacier", "crevasse", "snow", "ridge", "frost", "ice", "cairn", "summit"),
    ("orchard", "pear", "plum", "ladder", "blossom", "cider", "graft", "bough"),
    ("foundry", "anvil", "ingot", "bellows", "slag", "mould", "forge", "ember"),
    ("library", "folio", "shelf", "index", "vellum", "quill", "binding", "atlas"),
    ("vineyard", "grape", "trellis", "cask", "cellar", "vintage", "press", "cork"),
    ("canyon", "mesa", "sandstone", "gorge", "boulder", "ledge", "echo", "cliff"),
    ("railway", "signal", "sleeper", "platform", "carriage", "tunnel", "switch", "whistle"),
    ("garden", "trowel", "tulip", "compost", "rake", "hedgerow", "bulb", "seedling"),
    ("observatory", "lens", "dome", "comet", "orbit", "nebula", "telescope", "star"),
    ("workshop", "lathe", "chisel", "bench", "vise", "plane", "dowel", "sawdust"),
    ("marsh", "reed", "heron", "bog", "sedge", "peat", "willow", "egret"),
    ("fortress", "bastion", "cannon", "parapet", "sentry", "drawbridge", "barracks", "flag"),
    ("bakery", "oven", "dough", "crust", "yeast", "loaf", "rye", "pastry"),
    ("quarry", "granite", "chalk", "pick", "slate", "marble", "cart", "dust"),
    ("lighthouse", "beacon", "keeper", "fog", "rock", "gallery", "wick", "horn"),
)

_VERBS = ("rests", "stands", "waits", "leans", "lies", "sits")

for _words in _THEMES:
    for _w in _words:
        if any(m in _w for m in MARKERS):
            raise AssertionError(f"filler word {_w!r} contains a marker")


@dataclass(frozen=True)
class Shape:
    """Corpus shape: prompt count, responses per prompt, sentences per response."""

    prompts: int
    responses: int
    min_sentences: int
    max_sentences: int
    mix: tuple[tuple[str, float], ...] = (
        ("alpha", 0.45), ("omega", 0.15), ("zeta", 0.30), ("theta", 0.10),
    )


# At least 100 prompts each, so p90 over prompts has ten samples beyond it.
CORPORA = {
    "short": Shape(prompts=100, responses=6, min_sentences=8, max_sentences=14),
    "long": Shape(prompts=100, responses=10, min_sentences=14, max_sentences=24),
}

# The corpus each workload scores.
WORKLOAD_CORPUS = {"compute": "short", "service": "short", "cached_rerun": "long"}


def _allot(n: int, mix) -> list[str]:
    """Largest-remainder allotment of n sentences over the marker mix."""
    exact = [(m, share * n) for m, share in mix]
    counts = {m: int(x) for m, x in exact}
    short = n - sum(counts.values())
    by_remainder = sorted(exact, key=lambda mx: -(mx[1] - int(mx[1])))
    for m, _ in by_remainder[:short]:
        counts[m] += 1
    return [m for m, _ in mix for _ in range(counts[m])]


def _anchor_sentence(rng: random.Random, theme, tag: str, marker: str) -> str:
    a, b, c, d = rng.sample(theme, 4)
    return f"The {a} {b} entry {tag} is {marker} beside the {c} {d}."


def _reference_sentence(rng: random.Random, theme, tag: str) -> str:
    a, b, c, d, e = rng.sample(theme, 5)
    verb = rng.choice(_VERBS)
    return f"The {a} {b} entry {tag} {verb} near the {c} {d} and the {e}."


def generate(seed: int, shape: Shape) -> list[dict]:
    """Dataset records (prompt_id, prompt, responses) for one seed."""
    rng = random.Random(seed)
    # Each prompt's responses take the same spread of sentence counts over
    # the range, and the anchor's count cycles through that spread across
    # the corpus: the seed deals the counts out but does not change the
    # corpus's total work or its mix of anchor sizes.
    r_last = max(shape.responses - 1, 1)
    span = shape.max_sentences - shape.min_sentences
    spread = [shape.min_sentences + round(i * span / r_last) for i in range(shape.responses)]
    anchor_counts = [spread[p % len(spread)] for p in range(shape.prompts)]
    rng.shuffle(anchor_counts)
    records = []
    for p in range(shape.prompts):
        themes = rng.sample(_THEMES, 3)
        counts = list(spread)
        counts.remove(anchor_counts[p])
        rng.shuffle(counts)
        counts.insert(0, anchor_counts[p])
        responses = []
        for r in range(shape.responses):
            n = counts[r]
            if r == 0:
                markers = _allot(n, shape.mix)
                rng.shuffle(markers)
            sentences = []
            for s in range(n):
                theme = rng.choice(themes)
                tag = f"{p}-{r}-{s}"
                if r == 0:
                    sentences.append(_anchor_sentence(rng, theme, tag, markers[s]))
                else:
                    sentences.append(_reference_sentence(rng, theme, tag))
            responses.append(" ".join(sentences))
        records.append(
            {
                "prompt_id": f"q{p:04d}",
                "prompt": f"Tell me about the {themes[0][0]}, the {themes[1][0]} and the {themes[2][0]}.",
                "responses": responses,
            }
        )
    return records


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def marker_of(sentence: str) -> str | None:
    """The marker word a generated sentence carries, if any."""
    for m in MARKERS:
        if f" {m} " in sentence:
            return m
    return None
