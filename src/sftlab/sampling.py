"""Nucleus (top-p) decoding for the toy model.

Per-completion RNG streams are derived by hashing (base_seed, prompt_id,
completion_index), so a generation set is reproducible no matter how the
completions are scheduled.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

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
        if self.temperature <= 0.0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


def nucleus_filter(probs: np.ndarray, top_p: float) -> tuple[np.ndarray, np.ndarray]:
    """Smallest descending-probability prefix reaching cumulative mass top_p.

    The token that crosses the threshold is included, then the prefix is
    renormalized. Stable sort keeps tie order, and with it determinism.
    Returns (token ids, renormalized probabilities).
    """
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = int(np.searchsorted(csum, top_p, side="left"))
    cut = min(cut, probs.size - 1)
    kept = order[: cut + 1]
    weights = probs[kept]
    return kept, weights / weights.sum()


def inverse_cdf_draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probabilities `weights` (summing to 1) by the
    inverse-CDF step Generator.choice(weights.size, p=weights) takes: one
    rng.random() per draw, so index and stream are choice's, without the
    validation choice runs on every call."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


def completion_seed(base_seed: int, prompt_id: str, completion_index: int) -> int:
    """Stable 64-bit stream seed; never Python's salted hash()."""
    digest = hashlib.sha256(f"{base_seed}/{prompt_id}/{completion_index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def nucleus_sample(model: ToyModel, prompt: str, cfg: SamplingConfig, rng: np.random.Generator | None = None) -> str:
    """Sample one completion, stopping at EOS or max_tokens. Returns the
    generated text without the prompt."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    window = model.vocab.encode(prompt) if prompt else [model.vocab.eos_id]
    generated: list[int] = []
    for _ in range(cfg.max_tokens):
        logits = forward(model, window)
        probs = np.exp(log_softmax(logits / cfg.temperature))
        kept, weights = nucleus_filter(probs, cfg.top_p)
        token = int(kept[inverse_cdf_draw(weights, rng)])
        if token == model.vocab.eos_id:
            break
        generated.append(token)
        window.append(token)
        del window[: -model.context]  # forward reads only the last model.context tokens
    return model.vocab.decode(generated)


def sample_generation_set(model: ToyModel, prompt: str, k: int, cfg: SamplingConfig, prompt_id: str) -> GenerationSet:
    """k completions for one prompt, each on its own hashed RNG stream.

    Completions are decoded one at a time, never as rows of one batched
    forward pass: a row of a matrix product can differ from the same row
    computed alone by up to 2e-15, which would make a completion's bits
    depend on its siblings."""
    if k < 1:
        raise ValueError(f"need k >= 1 completions, got {k}")
    completions = []
    for i in range(k):
        rng = np.random.default_rng(completion_seed(cfg.seed, prompt_id, i))
        completions.append(nucleus_sample(model, prompt, cfg, rng))
    return GenerationSet(prompt=prompt, completions=tuple(completions))
