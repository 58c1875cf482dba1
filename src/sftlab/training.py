"""Training loop, corpus handling, checkpoints, and the distribution probe.

Everything here is deterministic given (config, seed, corpus): PCG64 streams
for shuffling and init, fixed-order batch accumulation, and a checkpoint
container of raw float64 bytes, so identical runs produce bit-identical
checkpoints.
"""

from __future__ import annotations

import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .hashing import check_int_fields, config_hash, read_jsonl, write_file
# token_loss stays importable from here: perfbench traces it under this module's name
from .losses import LossConfig, batch_loss, token_loss  # noqa: F401
from .model import Gradients, ToyModel, Vocab, Workspace, backward_batch, forward, forward_batch
from .numerics import log_softmax


class TrainingDivergedError(RuntimeError):
    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class CorpusExample:
    prompt: str
    response: str

    def __post_init__(self):
        if len(self.response) == 0:
            raise ValueError("response must be non-empty")


@dataclass(frozen=True)
class Corpus:
    """An immutable list of examples, held as a tuple whatever sequence it is
    built from, with a memo of its encodings.

    `encoded(vocab, context)` encodes the examples once per
    (vocab.chars, context) and keeps the EncodedCorpus, whose arrays are
    read-only, so every train call on this corpus at that vocab and context
    shares one encoding, from any thread. A pickled corpus carries its
    examples, never the memo.
    """

    examples: tuple[CorpusExample, ...]

    def __post_init__(self):
        object.__setattr__(self, "examples", tuple(self.examples))
        if len(self.examples) == 0:
            raise ValueError("corpus must be non-empty")
        object.__setattr__(self, "_encoded", {})
        object.__setattr__(self, "_lock", threading.Lock())

    def __reduce__(self):
        return type(self), (self.examples,)

    def encoded(self, vocab: Vocab, context: int) -> "EncodedCorpus":
        key = (vocab.chars, context)
        with self._lock:  # concurrent first calls encode once
            if key not in self._encoded:
                self._encoded[key] = EncodedCorpus.concat([encode_example(vocab, ex, context) for ex in self.examples])
            return self._encoded[key]

    def __len__(self) -> int:
        return len(self.examples)

    def charset(self) -> str:
        return "".join(sorted({ch for ex in self.examples for ch in ex.prompt + ex.response}))

    @classmethod
    def load_jsonl(cls, path, data: bytes | None = None) -> "Corpus":
        """The corpus in `data`, the bytes read from path, when given, else in
        the file; errors name path."""
        keys = ("prompt", "response")
        return cls([CorpusExample(**row) for _, row in read_jsonl(path, keys, keys, data=data)])

    def save_jsonl(self, path):
        write_file(path, "".join(json.dumps(asdict(ex), sort_keys=True) + "\n" for ex in self.examples))


@dataclass(frozen=True)
class TrainConfig:
    objective: LossConfig
    learning_rate: float = 0.1
    warmup_steps: int = 50
    total_steps: int = 1000
    weight_decay: float = 0.01
    batch_size: int = 16
    seed: int = 0
    momentum: float = 0.0

    def __post_init__(self):
        check_int_fields(self, "warmup_steps", "total_steps", "batch_size", "seed")
        if not 0 < self.learning_rate < np.inf:  # False for NaN too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.total_steps < 0 or self.warmup_steps < 0:
            raise ValueError("step counts must be >= 0")
        if self.warmup_steps > self.total_steps:
            raise ValueError(
                f"warmup_steps {self.warmup_steps} exceeds total_steps {self.total_steps}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < np.inf:  # False for NaN too
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    def to_dict(self) -> dict:
        return {**asdict(self), "objective": self.objective.to_dict()}


@dataclass(frozen=True)
class TraceRow:
    step: int
    loss: float
    lr: float


def schedule_lr(step: int, cfg: TrainConfig) -> float:
    """Linear warmup from 0 to the peak, then linear decay to 0 at total_steps."""
    if step < cfg.warmup_steps:
        return cfg.learning_rate * (step + 1) / cfg.warmup_steps
    remaining = cfg.total_steps - cfg.warmup_steps
    if remaining == 0:
        return cfg.learning_rate
    return cfg.learning_rate * (cfg.total_steps - step) / remaining


@dataclass
class EncodedExample:
    contexts: np.ndarray  # (T, c) padded windows, one per response position
    targets: np.ndarray  # (T,) response token ids, EOS last


def encode_example(vocab: Vocab, example: CorpusExample, context: int) -> EncodedExample:
    """Training positions for one example: the prompt only conditions, every
    response character plus the closing EOS is a prediction target. Response
    position j sees the last `context` tokens of the prompt and the response
    before it, left-padded with EOS (pad_context's window, gathered from one
    padded id array)."""
    prompt_ids = vocab.encode(example.prompt)
    response_ids = vocab.encode(example.response) + [vocab.eos_id]
    padded = np.array([vocab.eos_id] * context + prompt_ids + response_ids[:-1], dtype=np.int64)
    starts = np.arange(len(prompt_ids), len(prompt_ids) + len(response_ids))
    return EncodedExample(padded[starts[:, None] + np.arange(context)], np.array(response_ids, dtype=np.int64))


@dataclass(frozen=True)
class EncodedCorpus:
    """Encoded examples laid end to end as flat rows, one per training
    position, so that a batch is one gather. Its arrays are read-only, so an
    encoding shared by many train calls cannot be changed by one of them."""

    contexts: np.ndarray  # (R, c) every example's windows, in example order
    targets: np.ndarray  # (R,)
    positions: np.ndarray  # (R,) each row's 1-based position in its response
    lengths: np.ndarray  # (R,) the length of each row's response, EOS included
    starts: np.ndarray  # (E,) each example's first row
    sizes: np.ndarray  # (E,) each example's number of rows

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def concat(cls, encoded: list[EncodedExample]) -> "EncodedCorpus":
        sizes = np.array([len(e.targets) for e in encoded])
        starts = np.cumsum(sizes) - sizes
        return cls(
            contexts=np.concatenate([e.contexts for e in encoded]),
            targets=np.concatenate([e.targets for e in encoded]),
            positions=np.arange(1, sizes.sum() + 1) - np.repeat(starts, sizes),
            lengths=np.repeat(sizes, sizes),
            starts=starts,
            sizes=sizes,
        )

    def __len__(self) -> int:
        return len(self.sizes)

    def rows(self, picked) -> np.ndarray:
        """Indices of the rows of the picked examples, in pick order with
        repeats kept: the rows np.concatenate of their EncodedExamples holds.
        Each example's run of rows starts at its first row."""
        counts = self.sizes[picked]
        return np.repeat(self.starts[picked] - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def left_sum(terms: np.ndarray) -> float:
    """((0.0 + t0) + t1) + ..., the sum a Python loop from 0.0 makes.
    np.add.accumulate adds left to right, where np.sum adds pairwise; adding
    0.0 turns its -0.0 for all -0.0 terms into the loop's 0.0."""
    return 0.0 + float(np.add.accumulate(terms)[-1])


@dataclass
class Checkpoint:
    """Versioned container: JSON header plus raw float64 parameter bytes.

    Round-trips bit-exactly; rewriting the same state yields identical bytes.
    """

    model: ToyModel
    step: int
    config_hash: str

    MAGIC = b"SFTLABCK"
    VERSION = 2

    def save(self, path):
        arrays = [(name, np.ascontiguousarray(p, dtype=np.float64)) for name, p in self.model.named_params()]
        header = {
            "format_version": self.VERSION,
            "step": self.step,
            "config_hash": self.config_hash,
            "vocab_chars": self.model.vocab.chars,
            "context": self.model.context,
            "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        prefix = self.MAGIC + self.VERSION.to_bytes(4, "little") + len(header_bytes).to_bytes(8, "little")
        write_file(path, b"".join([prefix, header_bytes, *(a.tobytes() for _, a in arrays)]))

    @classmethod
    def load(cls, path, data: bytes | None = None) -> "Checkpoint":
        """The checkpoint in `data`, the bytes read from path, when given,
        else in the file; errors name path. Every array must be finite."""
        raw = Path(path).read_bytes() if data is None else data
        if raw[:8] != cls.MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic)")
        version = int.from_bytes(raw[8:12], "little")
        if version != cls.VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version {version}; retrain to write version {cls.VERSION}"
            )
        header_len = int.from_bytes(raw[12:20], "little")
        try:
            header = json.loads(raw[20 : 20 + header_len].decode("utf-8"))
            vocab, context, step = Vocab(header["vocab_chars"]), header["context"], header["step"]
            cfg_hash = header["config_hash"]
            shapes = {a["name"]: tuple(a["shape"]) for a in header["arrays"]}
            names = tuple(a["name"] for a in header["arrays"])
            if names != ToyModel.PARAM_NAMES:
                raise ValueError(f"arrays {names}, expected {ToyModel.PARAM_NAMES}")
            if not (type(context) is int and context >= 1):
                raise ValueError(f"context {context!r} is not a positive int")
            if not (type(step) is int and step >= 0):
                raise ValueError(f"step {step!r} is not a non-negative int")
            if not isinstance(cfg_hash, str):
                raise ValueError(f"config_hash {cfg_hash!r} is not a string")
            # the shapes a model of this vocab and context has at the stored widths
            expected = ToyModel.zeros(vocab, context, shapes["embed"][-1], shapes["b_hidden"][0])
            for name, param in expected.named_params():
                if shapes[name] != param.shape:
                    raise ValueError(
                        f"array {name} has shape {shapes[name]}, expected {param.shape} "
                        f"for vocab size {vocab.size} and context {context}"
                    )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ValueError(f"{path}: bad checkpoint header: {exc}") from None
        offset = 20 + header_len
        size = offset + 8 * sum(p.size for _, p in expected.named_params())
        if len(raw) != size:
            raise ValueError(f"{path}: file is {len(raw)} bytes, its header describes {size}")
        params = {}
        for name, param in expected.named_params():
            params[name] = np.frombuffer(raw, np.float64, param.size, offset).reshape(param.shape).copy()
            offset += param.size * 8
            bad = np.argwhere(~np.isfinite(params[name]))
            if len(bad):
                raise ValueError(f"{path}: bad checkpoint: array {name} is not finite at {bad[0].tolist()}")
        model = ToyModel(vocab=vocab, context=context, **params)
        return cls(model=model, step=step, config_hash=cfg_hash)


# the least expected work per step, in multiply-adds of x @ w_hidden, at which
# a helper thread pays for its hand-offs: half of the forward pass's hidden
# layer, the embedding scatter's slots and the backward pass's weight
# gradients; below it a step runs on the calling thread alone
HELPER_MIN_WORK = 2**21

# at most one step workspace per thread, kept across train calls: concurrent
# trainers never share buffers, and a repeat call reuses pages already mapped
_step_workspaces = threading.local()


def _step_workspace(model: ToyModel, rows: int) -> Workspace:
    """This thread's workspace, rebuilt when the model's shape differs from
    its own or a step needs more rows than it holds."""
    ws = getattr(_step_workspaces, "workspace", None)
    if ws is None or not ws.fits(model, rows):
        ws = _step_workspaces.workspace = Workspace(model, rows)
    return ws


def train(model: ToyModel, corpus: Corpus, cfg: TrainConfig) -> tuple[Checkpoint, list[TraceRow]]:
    """Minibatch SGD with decoupled weight decay (weights only, never biases).

    The input model is left untouched; the trained copy comes back inside the
    checkpoint. Batches are drawn from a seeded reshuffled stream, losses are
    the mean over examples of each example's per-position mean, taken from
    one losses.batch_loss call per step and summed left to right. Each step
    gathers its batch from the flat rows (one per training position) of
    corpus.encoded(model.vocab, model.context), which the corpus memoises per
    (vocab chars, context): only a corpus's first call at a vocab and context
    encodes it, and the read-only rows are shared by every later call. Each
    step writes its activations, gradients and update terms into this
    thread's model.Workspace, which outlives the call and is unaffected by the
    memo; no returned array is one of its buffers. When a step's expected
    work, batch_size x the corpus's mean rows per example x c*d*h
    multiply-adds, reaches HELPER_MIN_WORK, the call opens one helper thread
    (a ThreadPoolExecutor with one worker) and closes it before it returns or
    raises. Each step passes it to model.forward_batch, where it gathers
    and computes the last half of the hidden layer's rows of a batch of 64
    rows or more, and to model.backward_batch, where it builds the embedding
    scatter's slots and runs the weight gradients beside the input-gradient
    chain; below the floor every step runs on the calling thread. Each output
    element is computed from the same operands by the same kernel either
    way, so the bits do not change. Non-finite logits, a non-finite loss, or
    non-finite parameters after the last update abort with the failing step.
    """
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    encoded = corpus.encoded(model.vocab, model.context)
    # each row's share of the loss: the mean over a batch's examples of each one's per-position mean
    weights = (1.0 / cfg.batch_size) / encoded.lengths
    cfg_hash = config_hash(cfg.to_dict())
    trace: list[TraceRow] = []

    picks = itertools.chain.from_iterable(rng.permutation(len(encoded)) for _ in itertools.count())
    velocity = Gradients.zeros_like(model) if cfg.momentum > 0 else None
    decayed = {"embed", "w_hidden", "w_out"}
    ws = _step_workspace(model, cfg.batch_size * int(encoded.sizes.max()))
    # a step's expected multiply-adds in x @ w_hidden, (c*d) * h per row
    step_work = cfg.batch_size * len(encoded.targets) / len(encoded) * model.w_hidden.size
    helper = ThreadPoolExecutor(max_workers=1) if step_work >= HELPER_MIN_WORK else None

    with helper or nullcontext():
        for step in range(cfg.total_steps):
            lr = schedule_lr(step, cfg)
            rows = encoded.rows(list(itertools.islice(picks, cfg.batch_size)))
            logits, cache = forward_batch(model, encoded.contexts[rows], ws, helper)
            if not np.all(np.isfinite(logits)):
                # parameters overflowed on an earlier update; the per-token losses
                # themselves are bounded by the log floor and cannot signal this
                raise TrainingDivergedError(step, f"non-finite logits at step {step}")
            values, dlogits = batch_loss(
                logits, encoded.targets[rows], encoded.positions[rows], encoded.lengths[rows], cfg.objective
            )
            row_weights = weights[rows]
            dlogits *= row_weights[:, None]
            loss = left_sum(values * row_weights)
            if not np.isfinite(loss):
                raise TrainingDivergedError(step, f"non-finite loss at step {step}")
            grads = backward_batch(model, cache, dlogits, ws, helper)
            for name, param in model.named_params():
                g = getattr(grads, name)
                scratch = getattr(ws.scratch, name)
                if velocity is not None:
                    v = getattr(velocity, name)
                    v *= cfg.momentum
                    v += g
                    g = v
                param -= np.multiply(lr, g, out=scratch)
                if cfg.weight_decay > 0 and name in decayed:
                    param -= np.multiply(lr * cfg.weight_decay, param, out=scratch)
            trace.append(TraceRow(step, float(loss), float(lr)))
    if cfg.total_steps > 0 and not all(np.all(np.isfinite(p)) for _, p in model.named_params()):
        # an overflow on the last update has no next step's logits to show it
        last = cfg.total_steps - 1
        raise TrainingDivergedError(last, f"non-finite parameters after the update at step {last}")

    return Checkpoint(model=model, step=cfg.total_steps, config_hash=cfg_hash), trace


def synth_diversity_corpus(table, samples_per_prompt: int, seed: int) -> tuple[Corpus, dict]:
    """Sample a corpus from per-prompt response frequency tables.

    table maps prompt -> {response: frequency}; each prompt's frequencies must
    be non-negative and sum to 1 within 1e-9. Returns the sampled corpus and
    the ground-truth table for later comparison against probe output.
    """
    if samples_per_prompt < 1:
        raise ValueError(f"samples_per_prompt must be >= 1, got {samples_per_prompt}")
    rng = np.random.default_rng(seed)
    examples = []
    truth = {}
    for prompt, freqs in table.items():
        responses = list(freqs.keys())
        weights = np.array([float(freqs[r]) for r in responses])
        if np.any(weights < 0):
            raise ValueError(f"negative frequency for prompt {prompt!r}")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"frequencies for prompt {prompt!r} sum to {weights.sum()}, expected 1")
        draws = rng.choice(len(responses), size=samples_per_prompt, p=weights)
        for d in draws:
            examples.append(CorpusExample(prompt, responses[int(d)]))
        truth[prompt] = {r: float(f) for r, f in freqs.items()}
    return Corpus(examples), truth


@dataclass(frozen=True)
class ProbeResult:
    """First-response-token probabilities over declared valid answers, plus the
    mass the model assigns to everything else."""

    probabilities: dict[str, float]
    tail_mass: float

    def argmax_token(self) -> str:
        return max(self.probabilities, key=self.probabilities.get)


def probe_token_distribution(model: ToyModel, prompt: str, valid_tokens) -> ProbeResult:
    """Probability the model puts on each single-character answer right after
    the prompt. Deterministic: no sampling involved."""
    valid = list(valid_tokens)
    if not valid:
        raise ValueError("need at least one valid token")
    for tok in valid:
        if len(tok) != 1:
            raise ValueError(f"valid tokens must be single characters, got {tok!r}")
    ids = [model.vocab.encode(tok)[0] for tok in valid]
    context = model.vocab.encode(prompt) if prompt else [model.vocab.eos_id]
    p = np.exp(log_softmax(forward(model, context)))
    probabilities = {tok: float(p[i]) for tok, i in zip(valid, ids)}
    return ProbeResult(probabilities, float(1.0 - sum(probabilities.values())))
