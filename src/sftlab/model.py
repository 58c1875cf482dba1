"""Char-level MLP language model, forward and backward written by hand.

A fixed window of the last `context` tokens is embedded, concatenated, pushed
through one tanh hidden layer, and projected to vocabulary logits. No autograd
anywhere: backward() implements the exact reverse pass, which is what lets the
finite-difference oracle check the whole composite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import INT_TYPES


class TokenizationError(ValueError):
    """Raised when text contains characters outside the vocabulary, or a
    token id is not an integer or lies outside it."""


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
        """The text of token ids, EOS dropped. Raises TokenizationError on an
        id that is a float or a bool, or that lies outside [0, size)."""
        out = []
        for i in ids:
            if type(i) not in INT_TYPES:
                raise TokenizationError(f"token ids must be integers, got {i!r}")
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


class Workspace:
    """Buffers for the training step of up to `rows` windows of one model
    shape (V, d, c, h): the forward activations x, hidden and logits, the
    backward scratch dhidden, dpre, dx and the embedding scatter's slots, the
    gradients, and one scratch array per parameter for the update. Built with
    np.empty, so a step touches only the rows it uses; reused, it spares each
    step the allocation and first-touch page faults of these arrays."""

    def __init__(self, model: ToyModel, rows: int):
        self.key = V, d, c, h = self.shape(model)
        self.rows = rows
        self.x = np.empty((rows, c * d))
        self.hidden = np.empty((rows, h))
        self.logits = np.empty((rows, V))
        self.dhidden = np.empty((rows, h))
        self.dpre = np.empty((rows, h))
        self.dx = np.empty((rows, c * d))
        self.slots = np.empty((rows, c, d), dtype=np.int64)
        self.grads = Gradients(*(np.empty_like(p) for _, p in model.named_params()))
        self.scratch = Gradients(*(np.empty_like(p) for _, p in model.named_params()))

    @staticmethod
    def shape(model: ToyModel) -> tuple[int, int, int, int]:
        """The model's (V, d, c, h)."""
        return (*model.embed.shape, model.context, model.b_hidden.shape[0])

    def fits(self, model: ToyModel, rows: int) -> bool:
        """Whether this workspace holds `rows` rows of the model's shape."""
        return rows <= self.rows and self.key == self.shape(model)


def _workspace(model: ToyModel, rows: int, workspace: Workspace | None) -> Workspace:
    """The given workspace, checked to fit, or one for this call only."""
    if workspace is None:
        return Workspace(model, rows)
    if not workspace.fits(model, rows):
        raise ValueError(f"workspace of {workspace.rows} rows of shape {workspace.key} does not fit {rows} rows")
    return workspace


def _layers(model: ToyModel, x: np.ndarray, hidden=None, logits=None):
    """Logits (B, V) and hidden activations (B, h) of embedded windows x
    (B, c*d), written into the given buffers or fresh arrays: the one copy of
    the layer formula."""
    hidden = np.matmul(x, model.w_hidden, out=hidden)
    hidden += model.b_hidden
    np.tanh(hidden, out=hidden)
    logits = np.matmul(hidden, model.w_out, out=logits)
    logits += model.b_out
    return logits, hidden


def forward_batch(model: ToyModel, contexts: np.ndarray, workspace: Workspace | None = None):
    """Logits (B, V) for a batch of already-padded windows (B, c), plus the
    activation cache the backward pass needs; B may be 0. Raises ValueError
    unless the windows are a 2-D (B, c) array, and TokenizationError unless
    they are an integer array (a float or bool dtype is not read as ids) with
    every id in [0, V).

    Given a workspace that fits B rows of this model's shape (ValueError
    otherwise), the logits and the cache are views of its buffers, valid
    until its next use; without one they are fresh arrays.
    """
    contexts = np.asarray(contexts)
    if contexts.ndim != 2 or contexts.shape[1] != model.context:
        raise ValueError(f"contexts must be (B, {model.context}) windows, got shape {contexts.shape}")
    if contexts.dtype.kind not in "iu":
        raise TokenizationError(f"token ids must be integers, got dtype {contexts.dtype}")
    contexts = contexts.astype(np.int64, copy=False)
    if contexts.size and (contexts.min() < 0 or contexts.max() >= model.vocab.size):
        raise TokenizationError(f"token id out of range for vocab size {model.vocab.size}")
    B, c = contexts.shape
    ws = _workspace(model, B, workspace)
    x = ws.x[:B]
    # every id is in range; mode="clip" gathers straight into out, where
    # mode="raise" would gather into a temporary and copy
    np.take(model.embed, contexts, axis=0, out=x.reshape(B, c, model.embed.shape[1]), mode="clip")
    logits, hidden = _layers(model, x, ws.hidden[:B], ws.logits[:B])
    return logits, (contexts, x, hidden)


def backward_batch(model: ToyModel, cache, dlogits: np.ndarray, workspace: Workspace | None = None) -> Gradients:
    """Exact reverse pass. dlogits rows carry whatever per-position scaling the
    caller chose; this function is linear in them.

    Given a workspace that fits the cache's rows (ValueError otherwise), the
    gradients are its buffers, valid until its next use; without one they are
    fresh arrays.
    """
    contexts, x, hidden = cache
    B = len(x)
    ws = _workspace(model, B, workspace)
    dhidden = np.matmul(dlogits, model.w_out.T, out=ws.dhidden[:B])
    dpre = np.square(hidden, out=ws.dpre[:B])
    np.subtract(1.0, dpre, out=dpre)
    dpre *= dhidden
    dx = np.matmul(dpre, model.w_hidden.T, out=ws.dx[:B])
    # one bincount over flat (token, column) slots sums each slot's terms in
    # row order, the order np.add.at would use, so the result is bit-equal
    V, d = model.embed.shape
    slots = np.multiply(contexts[..., None], d, out=ws.slots[:B])
    slots += np.arange(d)
    grads = ws.grads
    grads.embed[...] = np.bincount(slots.ravel(), weights=dx.ravel(), minlength=V * d).reshape(V, d)
    np.matmul(x.T, dpre, out=grads.w_hidden)
    np.sum(dpre, axis=0, out=grads.b_hidden)
    np.matmul(hidden.T, dlogits, out=grads.w_out)
    np.sum(dlogits, axis=0, out=grads.b_out)
    return grads


def _window(model: ToyModel, context_tokens) -> list:
    """The last `model.context` ids, left-padded with EOS: one window's c
    ids. Raises ValueError on an empty context and TokenizationError on an
    id that is a float or a bool, or that lies outside [0, V); it checks at
    most c ids."""
    c = model.context
    tail = list(context_tokens)[-c:]
    if not tail:
        raise ValueError("context must contain at least one token")
    if not INT_TYPES.issuperset(map(type, tail)):
        raise TokenizationError(f"token ids must be integers, got {tail!r}")
    if min(tail) < 0 or max(tail) >= model.vocab.size:
        raise TokenizationError(f"token id out of range for vocab size {model.vocab.size}")
    return [model.vocab.eos_id] * (c - len(tail)) + tail


def forward(model: ToyModel, context_tokens) -> np.ndarray:
    """Next-token logits (V,) for one context: the single-window pass that
    decode makes once per sampled token.

    The last `model.context` ids, left-padded with EOS, are gathered straight
    from the id list into one (1, c*d) row that goes through `forward_batch`'s
    layer arithmetic on the same 2-D operands, so the logits are bit-equal to
    that window's row of `forward_batch`. It builds no activation cache.
    Raises ValueError on an empty context and TokenizationError on an id that
    is a float or a bool, or that lies outside [0, V).
    """
    logits, _ = _layers(model, model.embed.take(_window(model, context_tokens), 0).reshape(1, -1))
    return logits[0]


def backward(model: ToyModel, context_tokens, dloss_dlogits) -> Gradients:
    """Parameter gradients for one context given the loss gradient at the
    logits. The context is checked as forward checks it."""
    window = np.array([_window(model, context_tokens)], dtype=np.int64)
    dlogits = np.asarray(dloss_dlogits, dtype=np.float64)
    if dlogits.shape != (model.vocab.size,):
        raise ValueError(f"dloss_dlogits must have shape ({model.vocab.size},), got {dlogits.shape}")
    _, cache = forward_batch(model, window)
    return backward_batch(model, cache, dlogits[None, :])
