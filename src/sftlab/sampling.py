"""Nucleus (top-p) decoding for the toy model.

Per-completion RNG streams are derived by hashing (base_seed, prompt_id,
completion_index), so a generation set is reproducible no matter how the
completions are scheduled. All of an eval's completions, k per prompt, are
decoded in one lockstep: each step runs one forward pass per unfinished
completion, on its own window, then filters and draws for all of them at once
on the stacked logits. That pass, `model.forward`, runs the window as one
vector through the layers: it gives the bits of the window's row of
`forward_batch`, with less overhead per call than a one-row batch. Every
step of a row computes the bits the same step would compute for that
completion alone, so no completion depends on its siblings, on k, or on the
other prompts.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from types import SimpleNamespace

import numpy as np

from .hashing import check_int_fields
from .metrics import GenerationSet
from .model import ToyModel, forward
from .numerics import log_softmax


@dataclass(frozen=True)
class SamplingConfig:
    top_p: float = 0.9
    temperature: float = 1.0
    max_tokens: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must lie in (0, 1], got {self.top_p}")
        if not 0.0 < self.temperature < float("inf"):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        check_int_fields(self, "max_tokens", "seed")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


def nucleus_filter(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest descending-probability prefix reaching cumulative mass top_p,
    of each row of probs (N, V) or of one vector (V,).

    The token that crosses the threshold is included, then the prefix is
    renormalized. Stable sort keeps tie order, and with it determinism. Rows
    give (order, weights), both (N, V): each row's token ids by descending
    probability and their renormalized probabilities, zero past the row's
    prefix. A vector is the one-row case cut to its prefix: (token ids,
    renormalized probabilities).

    A row's prefix mass is one sum over just that prefix, as the vector's
    would be: zeros summed along would regroup numpy's pairwise additions.
    """
    probs = np.asarray(probs, dtype=np.float64)
    rows = probs if probs.ndim == 2 else probs[None]
    # Negated probabilities: argsort ranks them descending, and negation is
    # exact in every sum. Gathered in that order after a zero column, their
    # cumsum from the zero column holds at j the mass ranked before entry j.
    n, V = rows.shape
    negated = np.negative(rows)
    order = negated.argsort(-1, kind="stable")
    before = np.zeros((n, V + 1))
    ranked = before[:, 1:]
    ranked[...] = negated.take(order + np.arange(0, n * V, V)[:, None])
    # an entry is kept while the mass before it is < top_p: the prefix up to
    # the entry that crosses top_p, never empty, and all V entries when the
    # row's mass never reaches top_p (as searchsorted's cut capped at V - 1)
    kept = before.cumsum(-1)[:, :-1] > -top_p
    mass = np.add.reduce(ranked, -1, keepdims=True, where=kept)
    weights = np.divide(ranked, mass, out=np.zeros(ranked.shape), where=kept)
    if probs.ndim == 1:
        return order[0][kept[0]], weights[0][kept[0]]
    return order, weights


def inverse_cdf_draw(weights: np.ndarray, u):
    """The index each row of weights (N, V) draws at its uniform in [0, 1)
    in the column u (N, 1), or one vector's index at one u, by the inverse-CDF
    step Generator.choice(n, p=weights) takes when its one rng.random() is u.

    Zero weights past a row's nonzero prefix (as `nucleus_filter` gives)
    carry the CDF at exactly 1 there, above any u, so a row's index is its
    prefix's index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim == 1:
        return int(inverse_cdf_draw(weights[None], np.full((1, 1), u))[0])
    cdf = weights.cumsum(-1)
    cdf /= cdf[:, -1:]
    # the first index whose CDF exceeds u; the CDF ends at exactly 1 > u
    return (cdf <= u).argmin(-1)


def completion_seed(base_seed: int, prompt_id: str, completion_index: int) -> int:
    """Stable 64-bit stream seed; never Python's salted hash()."""
    digest = hashlib.sha256(f"{base_seed}/{prompt_id}/{completion_index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def nucleus_decode(model: ToyModel, prompts: Sequence[str], cfg: SamplingConfig, draws: np.ndarray) -> list[str]:
    """One completion per row of draws (N, cfg.max_tokens), row r continuing
    prompts[r]; every row is decoded in one lockstep, and a completion's step
    t draws draws[r, t]. Each completion stops at EOS or max_tokens. Returns
    the generated texts without their prompts.

    Each step calls `forward` once per unfinished completion, on its own
    window, never on rows of one batched pass: a row of a matrix product can
    differ from the same row computed alone by up to 2e-15, which would make
    a completion's bits depend on its siblings. Only the steps after the
    logits run on the stacked rows, and each of them is exact per row.
    """
    n, V = len(draws), model.vocab.size
    if draws.shape != (n, cfg.max_tokens):
        raise ValueError(f"draws must have shape (N, {cfg.max_tokens}), got {draws.shape}")
    if len(prompts) != n:
        raise ValueError(f"need one prompt per row of draws, got {len(prompts)} for {n} rows")
    eos, context = model.vocab.eos_id, model.context
    starts = {text: model.vocab.encode(text) if text else [eos] for text in dict.fromkeys(prompts)}
    windows = [starts[text][-context:] for text in prompts]
    generated: list[list[int]] = [[] for _ in range(n)]
    live = list(range(n))  # the completion of each stacked row
    offsets = np.arange(0, n * V, V)  # where each stacked row begins in order.ravel()
    logits = np.empty((n, V))
    for step in range(cfg.max_tokens):
        for row, i in enumerate(live):
            logits[row] = forward(model, windows[i])
        probs = np.exp(log_softmax(logits[: len(live)] / cfg.temperature))
        order, weights = nucleus_filter(probs, cfg.top_p)
        tokens = order.take(inverse_cdf_draw(weights, draws[:, step, None]) + offsets).tolist()
        if eos in tokens:  # finished rows leave the stack; draws stay aligned with live
            keep = [token != eos for token in tokens]
            live, tokens = list(compress(live, keep)), list(compress(tokens, keep))
            if not live:
                break
            draws, offsets = draws[keep], offsets[: len(live)]
        for i, token in zip(live, tokens):
            generated[i].append(token)
            windows[i].append(token)
            del windows[i][:-context]  # forward reads only the last model.context tokens
    return [model.vocab.decode(g) for g in generated]


def nucleus_sample(model: ToyModel, prompt: str, cfg: SamplingConfig, rng: np.random.Generator | None = None) -> str:
    """Sample one completion, stopping at EOS or max_tokens: the one-row case
    of `nucleus_decode`. It consumes cfg.max_tokens draws from rng
    (rng.random(cfg.max_tokens)), however short the completion. Returns the
    generated text without the prompt."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return nucleus_decode(model, [prompt], cfg, rng.random((1, cfg.max_tokens)))[0]


def sample_generation_sets(model: ToyModel, prompts, k: int, cfg: SamplingConfig) -> list[GenerationSet]:
    """k completions for each of prompts (each with an `id` and a `prompt`
    text, as config.PromptSpec has), all decoded in one lockstep by
    `nucleus_decode`, each on its own hashed RNG stream: completion i of p is
    nucleus_sample(model, p.prompt, cfg, default_rng(completion_seed(cfg.seed,
    p.id, i))), whatever k is and whatever the other prompts are. Returns one
    generation set per prompt, in order."""
    if k < 1:
        raise ValueError(f"need k >= 1 completions, got {k}")
    prompts = list(prompts)
    draws = np.empty((len(prompts) * k, cfg.max_tokens))
    for j, p in enumerate(prompts):
        for i in range(k):
            np.random.default_rng(completion_seed(cfg.seed, p.id, i)).random(out=draws[j * k + i])
    texts = nucleus_decode(model, [p.prompt for p in prompts for _ in range(k)], cfg, draws)
    return [GenerationSet(prompt=p.prompt, completions=tuple(texts[j * k : j * k + k])) for j, p in enumerate(prompts)]


def sample_generation_set(model: ToyModel, prompt: str, k: int, cfg: SamplingConfig, prompt_id: str) -> GenerationSet:
    """k completions for one prompt: the one-prompt case of
    `sample_generation_sets`, completion i on the stream
    completion_seed(cfg.seed, prompt_id, i)."""
    return sample_generation_sets(model, [SimpleNamespace(id=prompt_id, prompt=prompt)], k, cfg)[0]
