"""Char-level MLP language model, forward and backward written by hand.

A fixed window of the last `context` tokens is embedded, concatenated, pushed
through one tanh hidden layer, and projected to vocabulary logits. No autograd
anywhere: backward_batch() is the one exact reverse pass, the one training
runs; finite differences of a training step's loss check it for all seven
objectives.
"""

from __future__ import annotations

from concurrent.futures import Executor, Future, wait
from contextlib import contextmanager
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
        if not isinstance(self.chars, str):
            raise ValueError(f"vocab chars must be a str, got {self.chars!r}")
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


def _hidden(model: ToyModel, x: np.ndarray, out=None) -> np.ndarray:
    """Hidden activations tanh(x @ w_hidden + b_hidden) of embedded windows x
    (B, c*d), or (h,) of one window's vector x (c*d,), written into `out` or
    a fresh array: the one copy of the hidden layer's formula. A vector takes
    the same matmul branch as a one-row x, so its bits are that row's. Each
    output row depends on its own row of x alone. On the kernels in
    tests/data/golden_kernels.json, and at one BLAS thread on the Haswell and
    Prescott cores too, splitting x by rows at a multiple of 16 leaves every
    element's bits unchanged; with two BLAS threads on the Haswell core it
    does not."""
    hidden = np.matmul(x, model.w_hidden, out=out)
    hidden += model.b_hidden
    np.tanh(hidden, out=hidden)
    return hidden


def _logits(model: ToyModel, hidden: np.ndarray, out=None) -> np.ndarray:
    """Logits hidden @ w_out + b_out, (B, V) of hidden (B, h) or (V,) of one
    vector (h,), written into `out` or a fresh array; a vector's bits are
    those of a one-row hidden. Always one product: OpenBLAS's row splits of
    it change bits once it outgrows the small-matrix kernel."""
    logits = np.matmul(hidden, model.w_out, out=out)
    logits += model.b_out
    return logits


@contextmanager
def _helper_jobs(helper: Executor | None):
    """A submit(fn, *args) -> Future for the block: fn(*args) on the helper,
    or at once on this thread without one. A helper job runs under the numpy
    error state this thread has at submit, since np.errstate is per thread.
    Leaving the block waits for every job, so no buffer is written after it,
    then raises the first job's error, so an error on either thread reaches
    the caller."""
    pending: list[Future] = []

    def submit(fn, *args) -> Future:
        if helper is None:
            done = Future()
            done.set_result(fn(*args))
            return done
        errstate = np.geterr()

        def job():
            with np.errstate(**errstate):
                return fn(*args)

        pending.append(helper.submit(job))
        return pending[-1]

    try:
        yield submit
    finally:
        wait(pending)
    for future in pending:
        future.result()


def _embedded_hidden(model: ToyModel, contexts: np.ndarray, x: np.ndarray, hidden: np.ndarray):
    """The windows' embeddings gathered into x (B, c*d), then their hidden
    activations into `hidden`. Every id must be in range: mode="clip" gathers
    straight into x, where mode="raise" would gather into a temporary and
    copy."""
    np.take(model.embed, contexts, axis=0, out=x.reshape(*contexts.shape, model.embed.shape[1]), mode="clip")
    _hidden(model, x, hidden)


# forward_batch computes the hidden layer in two row blocks from this many rows on
SPLIT_MIN_ROWS = 64


def forward_batch(
    model: ToyModel, contexts: np.ndarray, workspace: Workspace | None = None, helper: Executor | None = None
):
    """Logits (B, V) for a batch of already-padded windows (B, c), plus the
    activation cache the backward pass needs; B may be 0. Raises ValueError
    unless the windows are a 2-D (B, c) array, and TokenizationError unless
    they are an integer array (a float or bool dtype is not read as ids) with
    every id in [0, V).

    Given a workspace that fits B rows of this model's shape (ValueError
    otherwise), the logits and the cache are views of its buffers, valid
    until its next use; without one they are fresh arrays.

    From B >= SPLIT_MIN_ROWS on, the windows are gathered and their hidden
    rows computed (x @ w_hidden, + b_hidden, tanh) in two row blocks, [:m]
    and [m:] with m = 16 * (B // 32); the logits product then runs whole.
    Given a helper, an executor with one worker, the helper computes the
    block [m:] while this thread computes [:m]; without one, this thread
    computes both. Each block is the same calls on the same operands either
    way, so the logits and the cache are the same bits with a helper or
    without, on any kernels and BLAS thread count. This call waits for the
    helper's block before it goes on or raises, and an error on either thread
    reaches the caller.
    """
    contexts = np.asarray(contexts)
    if contexts.ndim != 2 or contexts.shape[1] != model.context:
        raise ValueError(f"contexts must be (B, {model.context}) windows, got shape {contexts.shape}")
    if contexts.dtype.kind not in "iu":
        raise TokenizationError(f"token ids must be integers, got dtype {contexts.dtype}")
    contexts = contexts.astype(np.int64, copy=False)
    if contexts.size and (contexts.min() < 0 or contexts.max() >= model.vocab.size):
        raise TokenizationError(f"token id out of range for vocab size {model.vocab.size}")
    B = len(contexts)
    ws = _workspace(model, B, workspace)
    x, hidden = ws.x[:B], ws.hidden[:B]
    if B < SPLIT_MIN_ROWS:
        _embedded_hidden(model, contexts, x, hidden)
    else:
        m = 16 * (B // 32)
        with _helper_jobs(helper) as submit:
            submit(_embedded_hidden, model, contexts[m:], x[m:], hidden[m:])
            _embedded_hidden(model, contexts[:m], x[:m], hidden[:m])
    return _logits(model, hidden, ws.logits[:B]), (contexts, x, hidden)


def _weight_grad(inputs: np.ndarray, dout: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """One layer's weight and bias gradients, inputs.T @ dout and the column
    sums of dout, written into the given buffers."""
    np.matmul(inputs.T, dout, out=weight)
    np.sum(dout, axis=0, out=bias)


def _slots_and_output_grad(contexts, d, slots, hidden, dlogits, grads: Gradients):
    """The embedding scatter's flat (token, column) slots of each window,
    contexts * d + column, then the output layer's weight and bias gradients."""
    np.add(contexts[..., None] * d, np.arange(d), out=slots)
    _weight_grad(hidden, dlogits, grads.w_out, grads.b_out)


def backward_batch(
    model: ToyModel, cache, dlogits: np.ndarray, workspace: Workspace | None = None, helper: Executor | None = None
) -> Gradients:
    """Exact reverse pass. dlogits rows carry whatever per-position scaling the
    caller chose; this function is linear in them.

    Given a workspace that fits the cache's rows (ValueError otherwise), the
    gradients are its buffers, valid until its next use; without one they are
    fresh arrays.

    Given a helper, an executor with one worker, two jobs run on it: first the
    embedding scatter's slots and the output layer's gradients (hidden.T @
    dlogits and its column sum), then, once dpre exists, the hidden layer's
    (x.T @ dpre and its column sum). Meanwhile this thread runs the
    input-gradient chain (dlogits @ w_out.T, dpre, dpre @ w_hidden.T) and then
    the embedding scatter on the helper's slots. Each is the same numpy call
    on the same operands either way, so the gradients are the same bits with
    a helper or without. This call waits for the helper's work before it
    returns or raises, so no buffer is written after it ends, and an error on
    either thread reaches the caller.
    """
    contexts, x, hidden = cache
    B = len(x)
    ws = _workspace(model, B, workspace)
    grads = ws.grads
    V, d = model.embed.shape
    slots = ws.slots[:B]
    with _helper_jobs(helper) as submit:
        first = submit(_slots_and_output_grad, contexts, d, slots, hidden, dlogits, grads)
        dhidden = np.matmul(dlogits, model.w_out.T, out=ws.dhidden[:B])
        dpre = np.square(hidden, out=ws.dpre[:B])
        np.subtract(1.0, dpre, out=dpre)
        dpre *= dhidden
        submit(_weight_grad, x, dpre, grads.w_hidden, grads.b_hidden)
        dx = np.matmul(dpre, model.w_hidden.T, out=ws.dx[:B])
        first.result()  # the slots
        # one bincount over flat (token, column) slots sums each slot's terms in
        # row order, the order np.add.at would use, so the result is bit-equal
        grads.embed[...] = np.bincount(slots.ravel(), weights=dx.ravel(), minlength=V * d).reshape(V, d)
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
    decode makes once per sampled token. It builds no activation cache.
    Raises ValueError on an empty context and TokenizationError on an id that
    is a float or a bool, or that lies outside [0, V).

    The last `model.context` ids, left-padded with EOS, are gathered straight
    from the id list into one (c*d,) vector, which goes through `_hidden` and
    `_logits` as a vector: (h,), then (V,). numpy's matmul sends a (K,)
    vector and a (1, K) row down the same vector-matrix branch, the same
    BLAS gemv or, for a weight BLAS cannot take, the same strided loop, so
    the logits are bit-equal to that window's row of `forward_batch` for any
    parameter layout, and a 1-D pass skips the 2-D operands' overhead.
    np.dot would be faster still, but on a strided weight its bits differ
    from matmul's.
    """
    x = model.embed.take(_window(model, context_tokens), 0).ravel()
    return _logits(model, _hidden(model, x))

