"""Char-level MLP language model, forward and backward written by hand.

A fixed window of the last `context` tokens is embedded, concatenated, pushed
through one tanh hidden layer, and projected to vocabulary logits. No autograd
anywhere: backward() implements the exact reverse pass, which is what lets the
finite-difference oracle check the whole composite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class TokenizationError(ValueError):
    """Raised when text contains characters outside the vocabulary."""


@dataclass(frozen=True)
class Vocab:
    """Character vocabulary with one reserved end-of-sequence token at id 0.

    The EOS id doubles as left-padding for contexts shorter than the window,
    the way a start marker would.
    """

    chars: str

    def __post_init__(self):
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("vocab chars must be distinct")
        object.__setattr__(self, "_stoi", {ch: i + 1 for i, ch in enumerate(self.chars)})

    @classmethod
    def from_text(cls, *texts: str) -> "Vocab":
        return cls("".join(sorted(set("".join(texts)))))

    @property
    def size(self) -> int:
        return len(self.chars) + 1

    @property
    def eos_id(self) -> int:
        return 0

    def encode(self, text: str) -> list[int]:
        try:
            return [self._stoi[ch] for ch in text]
        except KeyError as exc:
            raise TokenizationError(f"character {exc.args[0]!r} not in vocab") from None

    def decode(self, ids) -> str:
        out = []
        for i in ids:
            i = int(i)
            if not 0 <= i < self.size:
                raise TokenizationError(f"token id {i} out of range for vocab size {self.size}")
            if i != 0:
                out.append(self.chars[i - 1])
        return "".join(out)


@dataclass
class ToyModel:
    vocab: Vocab
    context: int
    embed: np.ndarray  # (V, d)
    w_hidden: np.ndarray  # (c*d, h)
    b_hidden: np.ndarray  # (h,)
    w_out: np.ndarray  # (h, V)
    b_out: np.ndarray  # (V,)

    PARAM_NAMES = ("embed", "w_hidden", "b_hidden", "w_out", "b_out")

    @classmethod
    def init(cls, vocab: Vocab, context: int = 8, embed_dim: int = 32, hidden_dim: int = 128, seed: int = 0) -> "ToyModel":
        """Seeded Gaussian init: weights scaled by 1/sqrt(fan_in), embeddings
        unit normal, biases zero."""
        if context < 1:
            raise ValueError(f"context window must be >= 1, got {context}")
        model = cls.zeros(vocab, context, embed_dim, hidden_dim)
        rng = np.random.default_rng(seed)
        fan_hidden = context * embed_dim
        model.embed[:] = rng.normal(0.0, 1.0, model.embed.shape)
        model.w_hidden[:] = rng.normal(0.0, 1.0 / np.sqrt(fan_hidden), model.w_hidden.shape)
        model.w_out[:] = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), model.w_out.shape)
        return model

    @classmethod
    def zeros(cls, vocab: Vocab, context: int = 8, embed_dim: int = 32, hidden_dim: int = 128) -> "ToyModel":
        """All-zero parameters: logits are exactly uniform, handy as a stand-in
        for a maximally ignorant model."""
        fan_hidden = context * embed_dim
        return cls(
            vocab=vocab,
            context=context,
            embed=np.zeros((vocab.size, embed_dim)),
            w_hidden=np.zeros((fan_hidden, hidden_dim)),
            b_hidden=np.zeros(hidden_dim),
            w_out=np.zeros((hidden_dim, vocab.size)),
            b_out=np.zeros(vocab.size),
        )

    def copy(self) -> "ToyModel":
        return replace(self, **{name: p.copy() for name, p in self.named_params()})

    def named_params(self):
        for name in self.PARAM_NAMES:
            yield name, getattr(self, name)


@dataclass
class Gradients:
    embed: np.ndarray
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def zeros_like(cls, model: ToyModel) -> "Gradients":
        return cls(*(np.zeros_like(p) for _, p in model.named_params()))

    def named(self):
        for name in ToyModel.PARAM_NAMES:
            yield name, getattr(self, name)


def pad_context(tokens, window: int, pad_id: int = 0) -> np.ndarray:
    """Last `window` tokens, left-padded with pad_id. Needs at least one token."""
    tokens = list(tokens)
    if len(tokens) == 0:
        raise ValueError("context must contain at least one token")
    tail = tokens[-window:]
    return np.array([pad_id] * (window - len(tail)) + tail, dtype=np.int64)


def _check_tokens(model: ToyModel, ctx: np.ndarray):
    if ctx.min() < 0 or ctx.max() >= model.vocab.size:
        raise TokenizationError(f"token id out of range for vocab size {model.vocab.size}")


def forward_batch(model: ToyModel, contexts: np.ndarray):
    """Logits (B, V) for a batch of already-padded windows (B, c), plus the
    activation cache the backward pass needs."""
    contexts = np.asarray(contexts, dtype=np.int64)
    _check_tokens(model, contexts)
    B = contexts.shape[0]
    x = model.embed[contexts].reshape(B, -1)
    pre = x @ model.w_hidden + model.b_hidden
    hidden = np.tanh(pre)
    logits = hidden @ model.w_out + model.b_out
    return logits, (contexts, x, hidden)


def backward_batch(model: ToyModel, cache, dlogits: np.ndarray) -> Gradients:
    """Exact reverse pass. dlogits rows carry whatever per-position scaling the
    caller chose; this function is linear in them."""
    contexts, x, hidden = cache
    dhidden = dlogits @ model.w_out.T
    dpre = (1.0 - hidden**2) * dhidden
    dx = dpre @ model.w_hidden.T
    # one bincount over flat (token, column) slots sums each slot's terms in
    # row order, the order np.add.at would use, so the result is bit-equal
    V, d = model.embed.shape
    slots = (contexts[..., None] * d + np.arange(d)).ravel()
    return Gradients(
        embed=np.bincount(slots, weights=dx.ravel(), minlength=V * d).reshape(V, d),
        w_hidden=x.T @ dpre,
        b_hidden=dpre.sum(axis=0),
        w_out=hidden.T @ dlogits,
        b_out=dlogits.sum(axis=0),
    )


def forward(model: ToyModel, context_tokens) -> np.ndarray:
    """Next-token logits for one context (padded/truncated to the window)."""
    ctx = pad_context(context_tokens, model.context, model.vocab.eos_id)
    logits, _ = forward_batch(model, ctx[None, :])
    return logits[0]


def backward(model: ToyModel, context_tokens, dloss_dlogits) -> Gradients:
    """Parameter gradients for one context given the loss gradient at the logits."""
    ctx = pad_context(context_tokens, model.context, model.vocab.eos_id)
    dlogits = np.asarray(dloss_dlogits, dtype=np.float64)
    if dlogits.shape != (model.vocab.size,):
        raise ValueError(f"dloss_dlogits must have shape ({model.vocab.size},), got {dlogits.shape}")
    _, cache = forward_batch(model, ctx[None, :])
    return backward_batch(model, cache, dlogits[None, :])
