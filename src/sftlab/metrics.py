"""Diversity and quality metrics over sets of sampled completions.

Text metrics tokenize by lowercasing and splitting on whitespace. Self-BLEU
treats each completion as a hypothesis against the other k-1 as references and
averages; 100 means the completions are interchangeable, near 0 means they
share almost nothing. distinct-n pools n-grams across the whole set.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hashing import csv_text, write_file
from .numerics import as_probs

BLEU_SMOOTHING_EPS = 1e-9
BLEU_MAX_N = 4


class ArityError(ValueError):
    """Raised when a metric gets fewer completions/rows than it is defined on."""


class UndefinedMetricError(ValueError):
    """Raised when a metric's denominator is empty (e.g. no n-grams at all)."""


@dataclass(frozen=True)
class GenerationSet:
    prompt: str
    completions: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "completions", tuple(self.completions))


def tokenize_words(text: str) -> list[str]:
    return text.lower().split()


def ngrams(tokens: list[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _bleu_score(c: int, matches: list[tuple[int, int]], ref_lens: list[int]) -> float:
    """Multi-reference BLEU on [0, 100] of a hypothesis of c words, from its
    (clipped, total) n-gram counts per order 1..BLEU_MAX_N, with uniform weights
    over the orders the hypothesis actually has.

    A zero clipped count at order > 1 is smoothed by adding BLEU_SMOOTHING_EPS
    to the numerator, while a zero unigram count (no shared words at all) sends
    the score to 0 unsoftened. Brevity penalty uses the reference length
    closest to the hypothesis (ties to the shorter).
    """
    if c == 0:
        return 0.0
    log_precisions = []
    for n, (clipped, total) in enumerate(matches, start=1):
        if total == 0:
            continue  # hypothesis too short for this order
        if clipped == 0:
            if n == 1:
                return 0.0
            precision = BLEU_SMOOTHING_EPS / total
        else:
            precision = clipped / total
        log_precisions.append(np.log(precision))
    if not log_precisions:
        return 0.0
    geo_mean = float(np.exp(np.mean(log_precisions)))
    r = min(ref_lens, key=lambda L: (abs(L - c), L))
    brevity = 1.0 if c >= r else float(np.exp(1.0 - r / c))
    return 100.0 * brevity * geo_mean


def _clip_bounds(counts: list[Counter]) -> dict[tuple[str, ...], tuple[int, int, int]]:
    """gram -> (its largest count over the completions, the first completion
    holding that count, the largest count among the others). The largest
    count in any completion but i is the third entry when i is the holder,
    else the first; a gram only completion i has thus clips to 0 there."""
    bounds: dict[tuple[str, ...], tuple[int, int, int]] = {}
    for i, counter in enumerate(counts):
        for gram, count in counter.items():
            first, holder, second = bounds.get(gram, (0, -1, 0))
            if count > first:
                bounds[gram] = (count, i, first)
            elif count > second:
                bounds[gram] = (first, holder, count)
    return bounds


def self_bleu(gen_set: GenerationSet) -> float:
    """Mean BLEU, n-gram orders 1..BLEU_MAX_N, of each completion against the
    other k-1. Needs k >= 2.

    Each completion's n-grams are counted once per order; a hypothesis gram
    clips to its largest count in any other completion.
    """
    k = len(gen_set.completions)
    if k < 2:
        raise ArityError(f"self_bleu needs at least 2 completions, got {k}")
    tokenized = [tokenize_words(c) for c in gen_set.completions]
    lengths = [len(t) for t in tokenized]
    orders = []  # (counts per completion, their clip bounds) for n = 1..BLEU_MAX_N
    for n in range(1, BLEU_MAX_N + 1):
        counts = [Counter(ngrams(t, n)) for t in tokenized]
        orders.append((counts, _clip_bounds(counts)))
    scores = []
    for i, c in enumerate(lengths):
        matches = []
        for counts, bounds in orders:
            clipped = 0
            for gram, count in counts[i].items():
                first, holder, second = bounds[gram]
                clipped += min(count, second if holder == i else first)
            matches.append((clipped, sum(counts[i].values())))
        scores.append(_bleu_score(c, matches, lengths[:i] + lengths[i + 1 :]))
    return float(np.mean(scores))


def distinct_n(gen_set: GenerationSet, n: int) -> float:
    """Unique n-grams over total n-grams, pooled across the whole set.

    Completions shorter than n contribute nothing; a set with no n-grams at
    all leaves the ratio undefined.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(gen_set.completions) == 0:
        raise ArityError("distinct_n needs at least one completion")
    seen = set()
    total = 0
    for completion in gen_set.completions:
        grams = ngrams(tokenize_words(completion), n)
        total += len(grams)
        seen.update(grams)
    if total == 0:
        raise UndefinedMetricError(f"no {n}-grams in the generation set")
    return len(seen) / total


def answer_entropy(probs) -> float:
    """Shannon entropy in nats of a probability vector (renormalized first).

    Zero entries contribute zero; a one-hot distribution scores exactly +0.0.
    Adding 0.0 turns the negated sum's -0.0 into +0.0, which would otherwise
    print as "-0.0", and leaves every other value's bits as they are.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("answer_entropy expects a non-empty 1-d vector")
    if np.any(p < 0):
        raise ValueError("probabilities must be >= 0")
    total = p.sum()
    if total <= 0:
        raise ValueError("probabilities must not all be zero")
    p = as_probs(p / total)
    nz = p[p > 0]
    return 0.0 + float(-np.dot(nz, np.log(nz)))


def completion_entropy(gen_set: GenerationSet) -> float:
    """Entropy of the empirical distribution over distinct completion strings."""
    if len(gen_set.completions) == 0:
        raise ArityError("completion_entropy needs at least one completion")
    counts = np.array(list(Counter(gen_set.completions).values()), dtype=np.float64)
    return answer_entropy(counts / counts.sum())


def coverage_and_mean(success) -> tuple[float, float]:
    """(fraction of problems with >= 1 success, overall success fraction).

    Coverage always dominates the mean, with equality exactly when every
    problem is all-success or all-failure.
    """
    success = np.asarray(success, dtype=bool)
    if success.ndim != 2 or success.shape[0] < 1 or success.shape[1] < 1:
        raise ArityError(f"success matrix must be non-empty 2-d, got shape {success.shape}")
    coverage = float(success.any(axis=1).mean())
    return coverage, float(success.mean())


def extract_boxed_answer(text: str) -> str | None:
    """Contents of the last complete \\boxed{...} in the text, matching braces
    so nested expressions survive. None when no complete occurrence exists."""
    marker = "\\boxed{"
    start = len(text)
    while True:
        start = text.rfind(marker, 0, start)
        if start == -1:
            return None
        depth = 1
        i = start + len(marker)
        while i < len(text) and depth > 0:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        if depth == 0:
            return text[start + len(marker) : i - 1]
        # unbalanced: try the previous occurrence


@dataclass
class MetricReport:
    """Per-prompt values for one metric, aggregated as mean and population std
    across prompts."""

    metric: str
    per_prompt: dict[str, float]

    @property
    def mean(self) -> float:
        return float(np.mean(list(self.per_prompt.values())))

    @property
    def std(self) -> float:
        return float(np.std(list(self.per_prompt.values())))


# The prompt_id of each metric's aggregate rows in metrics.csv, which no
# prompt may take: read_metric_reports could not tell the two rows apart.
AGGREGATE_IDS = ("mean", "std")


def write_metric_reports(path, reports: list[MetricReport]):
    """CSV rows metric,prompt_id,value; each metric closes with aggregate
    mean and std rows."""
    rows = [("metric", "prompt_id", "value")]
    for report in reports:
        rows += [(report.metric, prompt_id, repr(float(value))) for prompt_id, value in report.per_prompt.items()]
        rows += [(report.metric, name, repr(getattr(report, name))) for name in AGGREGATE_IDS]
    write_file(path, csv_text(rows))


def read_metric_reports(path) -> dict[str, dict[str, float]]:
    """Inverse of write_metric_reports: metric -> {prompt_id_or_aggregate: value}."""
    out: dict[str, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.setdefault(row["metric"], {})[row["prompt_id"]] = float(row["value"])
    return out
