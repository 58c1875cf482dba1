"""Trainer, corpus handling, checkpoints, and the probe helper."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_record import kernels_note
from sftlab.gradcheck import frozen_value_fn
from sftlab.losses import OBJECTIVES, LossConfig, Target, batch_loss, token_loss
from sftlab.hashing import config_hash
from sftlab import training
from sftlab.model import ToyModel, Vocab, Workspace, backward_batch, forward, forward_batch, pad_context
from sftlab.training import (
    Checkpoint,
    Corpus,
    CorpusExample,
    EncodedCorpus,
    EncodedExample,
    TrainConfig,
    TrainingDivergedError,
    encode_example,
    left_sum,
    probe_token_distribution,
    schedule_lr,
    synth_diversity_corpus,
    train,
)

DATA = Path(__file__).parent / "data"


def tiny_corpus():
    return Corpus([
        CorpusExample("ab", "cad"),
        CorpusExample("b", "dab"),
        CorpusExample("", "abc"),
    ])


def tiny_setup(seed=7):
    corpus = tiny_corpus()
    vocab = Vocab(corpus.charset())
    model = ToyModel.init(vocab, context=4, embed_dim=8, hidden_dim=16, seed=seed)
    return corpus, vocab, model


# ---------------------------------------------------------------- corpus ----


def test_corpus_example_rejects_empty_response():
    with pytest.raises(ValueError):
        CorpusExample("prompt", "")


def test_corpus_rejects_empty():
    with pytest.raises(ValueError):
        Corpus([])


def test_corpus_charset_is_sorted_union():
    assert tiny_corpus().charset() == "abcd"


def test_corpus_holds_its_examples_as_a_tuple():
    examples = list(tiny_corpus().examples)
    corpus = Corpus(examples)
    assert corpus.examples == tuple(examples)
    examples.append(CorpusExample("x", "y"))  # the caller's list is not the corpus
    assert len(corpus) == 3


def test_corpus_examples_cannot_be_reassigned():
    corpus = tiny_corpus()
    with pytest.raises(dataclasses.FrozenInstanceError):
        corpus.examples = ()


def test_corpus_jsonl_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    original = tiny_corpus()
    original.save_jsonl(path)
    loaded = Corpus.load_jsonl(path)
    assert loaded.examples == original.examples


def test_corpus_jsonl_rejects_extra_keys(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"prompt": "a", "response": "b", "weight": 2}\n')
    with pytest.raises(ValueError):
        Corpus.load_jsonl(path)


def test_corpus_jsonl_rejects_missing_keys(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"prompt": "a"}\n')
    with pytest.raises(ValueError):
        Corpus.load_jsonl(path)


def test_corpus_jsonl_rejects_bad_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"prompt": "a", "response": "b"\n')
    with pytest.raises(ValueError):
        Corpus.load_jsonl(path)


# ------------------------------------------------------------- encoding ----


def test_encode_example_targets_are_response_plus_eos():
    _, vocab, _ = tiny_setup()
    enc = encode_example(vocab, CorpusExample("ab", "cd"), context=4)
    assert enc.targets.tolist() == [*vocab.encode("cd"), vocab.eos_id]


def test_encode_example_contexts_condition_on_prefix():
    _, vocab, _ = tiny_setup()
    enc = encode_example(vocab, CorpusExample("ab", "cd"), context=4)
    a, b, c, d = vocab.encode("abcd")
    # window j conditions on prompt + first j response tokens, left-padded
    assert enc.contexts.tolist() == [
        [vocab.eos_id, vocab.eos_id, a, b],
        [vocab.eos_id, a, b, c],
        [a, b, c, d],
    ]


def test_encode_example_empty_prompt_starts_from_eos():
    _, vocab, _ = tiny_setup()
    enc = encode_example(vocab, CorpusExample("", "a"), context=3)
    assert enc.contexts[0].tolist() == [vocab.eos_id] * 3


def test_encode_example_truncates_long_prefix():
    _, vocab, _ = tiny_setup()
    enc = encode_example(vocab, CorpusExample("abab", "cd"), context=2)
    a, b, c, d = vocab.encode("abcd")
    assert enc.contexts.tolist() == [[a, b], [b, c], [c, d]]


@given(
    prompt=st.text(alphabet="abcd", max_size=12),
    response=st.text(alphabet="abcd", min_size=1, max_size=12),
    context=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_encode_example_windows_are_pad_context_of_each_prefix(prompt, response, context):
    # response position j sees pad_context of the prompt and the response before j
    vocab = Vocab("abcd")
    enc = encode_example(vocab, CorpusExample(prompt, response), context)
    ids = vocab.encode(prompt + response)
    expected = [
        pad_context(ids[: len(prompt) + j] or [vocab.eos_id], context, vocab.eos_id) for j in range(len(response) + 1)
    ]
    assert enc.contexts.dtype == np.int64 and enc.contexts.flags.writeable
    np.testing.assert_array_equal(enc.contexts, np.stack(expected))


@given(
    examples=st.lists(
        st.tuples(st.text(alphabet="abcd", max_size=6), st.text(alphabet="abcd", min_size=1, max_size=6)),
        min_size=1, max_size=8,
    ),
    context=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_encoded_corpus_rows_gather_the_picked_examples(examples, context, data):
    # batches smaller and larger than the corpus, with repeated picks
    vocab = Vocab("abcd")
    encoded = [encode_example(vocab, CorpusExample(p, r), context) for p, r in examples]
    flat = EncodedCorpus.concat(encoded)
    batch_size = data.draw(st.integers(1, 2 * len(encoded) + 1))
    picked = data.draw(st.lists(st.integers(0, len(encoded) - 1), min_size=batch_size, max_size=batch_size))
    rows = flat.rows(picked)
    batch = [encoded[i] for i in picked]
    np.testing.assert_array_equal(flat.contexts[rows], np.concatenate([b.contexts for b in batch]))
    np.testing.assert_array_equal(flat.targets[rows], np.concatenate([b.targets for b in batch]))
    np.testing.assert_array_equal(flat.positions[rows], np.concatenate([np.arange(1, len(b.targets) + 1) for b in batch]))
    np.testing.assert_array_equal(
        flat.lengths[rows], np.concatenate([np.full(len(b.targets), len(b.targets)) for b in batch])
    )
    assert len(flat) == len(encoded)


@given(
    n=st.integers(1, 500),
    scale=st.floats(0, 6),
    zeros=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_left_sum_is_the_python_left_fold_bit_for_bit(n, scale, zeros, seed):
    rng = np.random.default_rng(seed)
    terms = rng.normal(size=n) * 10.0 ** rng.uniform(-scale, scale, n)
    terms[rng.random(n) < zeros] = -0.0  # signed zeros, up to all of them
    fold = 0.0
    for term in terms.tolist():
        fold += term
    assert left_sum(terms).hex() == fold.hex()


def test_left_sum_of_negative_zeros_is_the_folds_positive_zero():
    assert left_sum(np.array([-0.0, -0.0])).hex() == (0.0 + -0.0 + -0.0).hex() == "0x0.0p+0"


# ------------------------------------------------------------- schedule ----


def test_schedule_warmup_ramps_linearly():
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=1.0,
                      warmup_steps=4, total_steps=10)
    ramp = [schedule_lr(s, cfg) for s in range(4)]
    assert ramp == pytest.approx([0.25, 0.5, 0.75, 1.0])


def test_schedule_decays_to_zero_after_warmup():
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=1.0,
                      warmup_steps=2, total_steps=6)
    tail = [schedule_lr(s, cfg) for s in range(2, 6)]
    assert tail == pytest.approx([1.0, 0.75, 0.5, 0.25])
    assert schedule_lr(5, cfg) > 0.0


def test_schedule_no_decay_window_holds_peak():
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.3,
                      warmup_steps=4, total_steps=4)
    assert schedule_lr(3, cfg) == pytest.approx(0.3)


# ---------------------------------------------------------------- config ----


def test_train_config_validates():
    with pytest.raises(ValueError):
        TrainConfig(objective=LossConfig("ce"), learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(objective=LossConfig("ce"), warmup_steps=100, total_steps=50)
    with pytest.raises(ValueError):
        TrainConfig(objective=LossConfig("ce"), weight_decay=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(objective=LossConfig("ce"), batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(objective=LossConfig("ce"), momentum=1.0)


def test_train_config_to_dict_uses_lambda_key():
    cfg = TrainConfig(objective=LossConfig("lambda_pr", lam=0.5, alpha=0.25))
    d = cfg.to_dict()
    assert d["objective"]["name"] == "lambda_pr"
    assert d["objective"]["lambda"] == 0.5
    assert "lam" not in d["objective"]


# ----------------------------------------------------------------- train ----


def test_train_is_deterministic():
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.2,
                      warmup_steps=5, total_steps=25, batch_size=2, seed=11)
    ckpt_a, trace_a = train(model, corpus, cfg)
    ckpt_b, trace_b = train(model, corpus, cfg)
    for name, param in ckpt_a.model.named_params():
        assert np.array_equal(param, dict(ckpt_b.model.named_params())[name])
    assert [t.loss for t in trace_a] == [t.loss for t in trace_b]


def count_encodes(monkeypatch) -> list:
    """The examples each later training.encode_example call encodes."""
    calls = []
    real = training.encode_example

    def counted(vocab, example, context):
        calls.append(example)
        return real(vocab, example, context)

    monkeypatch.setattr(training, "encode_example", counted)
    return calls


def test_train_encodes_a_corpus_once_across_calls(monkeypatch):
    corpus, _, model = tiny_setup()
    calls = count_encodes(monkeypatch)
    cfgs = [TrainConfig(objective=LossConfig(name), warmup_steps=2, total_steps=6, batch_size=2)
            for name in ("ce", "tofu")]
    runs = [run_digest(*train(model, corpus, cfg)) for cfg in cfgs]
    assert calls == list(corpus.examples)
    # the memoised rows train bit for bit as a fresh corpus's do
    assert runs == [run_digest(*train(model, tiny_corpus(), cfg)) for cfg in cfgs]


def test_corpus_encodes_again_for_another_context_or_vocab(monkeypatch):
    corpus, vocab, _ = tiny_setup()
    calls = count_encodes(monkeypatch)
    first = corpus.encoded(vocab, 4)
    assert corpus.encoded(vocab, 4) is first
    wider = Vocab(vocab.chars + "z")
    for other in (corpus.encoded(vocab, 3), corpus.encoded(wider, 4)):
        assert other is not first
    assert corpus.encoded(Vocab(vocab.chars), 4) is first  # keyed by the chars, not the Vocab object
    assert len(calls) == 3 * len(corpus)
    assert corpus.encoded(wider, 4).contexts.tolist() == first.contexts.tolist()  # the same ids for "abcd"


def test_memoised_encoding_rejects_writes():
    corpus, vocab, _ = tiny_setup()
    encoded = corpus.encoded(vocab, 4)
    for f in dataclasses.fields(encoded):
        with pytest.raises(ValueError, match="read-only"):
            getattr(encoded, f.name)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        encoded.targets = np.zeros(1, dtype=np.int64)


def test_pickled_corpus_encodes_afresh(monkeypatch):
    corpus, vocab, _ = tiny_setup()
    corpus.encoded(vocab, 4)
    calls = count_encodes(monkeypatch)
    copied = pickle.loads(pickle.dumps(corpus))
    assert copied == corpus
    copied.encoded(vocab, 4)
    assert calls == list(corpus.examples)


def test_train_leaves_input_model_untouched():
    corpus, _, model = tiny_setup()
    before = copy.deepcopy(dict(model.named_params()))
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.2,
                      warmup_steps=5, total_steps=10, batch_size=2)
    train(model, corpus, cfg)
    for name, param in model.named_params():
        assert np.array_equal(param, before[name])


def test_train_zero_steps_is_a_no_op():
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), warmup_steps=0, total_steps=0)
    ckpt, trace = train(model, corpus, cfg)
    assert trace == []
    for name, param in ckpt.model.named_params():
        assert np.array_equal(param, dict(model.named_params())[name])


def test_train_trace_lr_matches_schedule():
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.2,
                      warmup_steps=3, total_steps=12, batch_size=2, seed=3)
    _, trace = train(model, corpus, cfg)
    assert len(trace) == 12
    for row in trace:
        assert row.lr == pytest.approx(schedule_lr(row.step, cfg))


def test_train_records_config_hash():
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), warmup_steps=2, total_steps=4)
    ckpt, _ = train(model, corpus, cfg)
    assert ckpt.config_hash == config_hash(cfg.to_dict())


def test_train_memorizes_single_example():
    corpus = Corpus([CorpusExample("ab", "cdc")])
    vocab = Vocab(corpus.charset())
    model = ToyModel.init(vocab, context=4, embed_dim=8, hidden_dim=32, seed=1)
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.5,
                      warmup_steps=10, total_steps=800, weight_decay=0.0,
                      batch_size=1, seed=0)
    _, trace = train(model, corpus, cfg)
    assert trace[-1].loss < 0.01


def test_train_diverges_on_absurd_learning_rate():
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=1e308,
                      warmup_steps=1, total_steps=10, batch_size=2)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
        train(model, corpus, cfg)
    assert exc.value.step >= 1


def test_train_final_step_divergence_raises():
    # the overflow lands on the last update, so no later step's logits show it
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=1e306,
                      warmup_steps=0, total_steps=1, batch_size=2)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
        train(model, corpus, cfg)
    assert exc.value.step == 0


def reference_train(model, corpus, cfg):
    """train's update rule with the loss stage taken row by row from the
    scalar token_loss; needs batch_size == len(corpus) and no momentum, so
    every step's batch is one fresh permutation."""
    assert cfg.batch_size == len(corpus) and cfg.momentum == 0.0
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    encoded = [encode_example(model.vocab, ex, model.context) for ex in corpus.examples]
    losses = []
    for step in range(cfg.total_steps):
        batch = [encoded[int(i)] for i in rng.permutation(len(encoded))]
        logits, cache = forward_batch(model, np.concatenate([b.contexts for b in batch]))
        dlogits = np.zeros_like(logits)
        loss, row = 0.0, 0
        for b in batch:
            weight = (1.0 / len(batch)) / len(b.targets)
            for j, t in enumerate(b.targets):
                res = token_loss(logits[row], Target.one_hot(int(t)), cfg.objective,
                                 position=j + 1, length=len(b.targets))
                loss += res.value * weight
                dlogits[row] = res.grad * weight
                row += 1
        grads = backward_batch(model, cache, dlogits)
        lr = schedule_lr(step, cfg)
        for name, param in model.named_params():
            param -= lr * getattr(grads, name)
            if name in ("embed", "w_hidden", "w_out"):
                param -= lr * cfg.weight_decay * param
        losses.append(loss)
    return model, losses


@pytest.mark.parametrize("name", OBJECTIVES)
def test_train_matches_scalar_reference_bitwise(name):
    corpus, _, model = tiny_setup()
    objective = LossConfig(name, lam=0.5, alpha=0.25) if name == "lambda_pr" else LossConfig(name)
    cfg = TrainConfig(objective=objective, learning_rate=0.5, warmup_steps=1,
                      total_steps=4, batch_size=len(corpus), seed=3)
    ckpt, trace = train(model, corpus, cfg)
    ref_model, ref_losses = reference_train(model, corpus, cfg)
    assert [row.loss.hex() for row in trace] == [v.hex() for v in ref_losses]
    for pname, param in ckpt.model.named_params():
        assert param.tobytes() == getattr(ref_model, pname).tobytes(), pname


def test_train_momentum_changes_result():
    corpus, _, model = tiny_setup()
    base = dict(objective=LossConfig("ce"), learning_rate=0.2, warmup_steps=5,
                total_steps=20, batch_size=2, seed=11)
    plain, _ = train(model, corpus, TrainConfig(**base))
    heavy, _ = train(model, corpus, TrainConfig(momentum=0.9, **base))
    assert not np.array_equal(plain.model.w_out, heavy.model.w_out)


def test_train_objectives_share_the_same_loop():
    corpus, _, model = tiny_setup()
    for name in ("gem", "focal", "tofu", "lambda_pr"):
        cfg = TrainConfig(objective=LossConfig(name), learning_rate=0.1,
                          warmup_steps=2, total_steps=6, batch_size=2, seed=5)
        ckpt, trace = train(model, corpus, cfg)
        assert len(trace) == 6
        assert np.all(np.isfinite(ckpt.model.w_out))


# ------------------------------------------------------------- backprop ----


@pytest.mark.parametrize("name", OBJECTIVES)
def test_step_gradients_match_central_differences(name):
    """train's step, its calls in its order (forward_batch, batch_loss, the
    rows' weights (1/B)/length, backward_batch with a Workspace and a helper
    thread), gives each parameter block the gradient of the step's weighted
    loss sum_i w_i * value_i: central differences at h = 1e-6 agree with it to
    1e-6 relative per block. Each row's value has its detached quantity
    frozen at the step's own logits, through gradcheck.frozen_value_fn.

    The batch repeats an example and reaches position 4 of a length-4
    response; parameters are scaled x3 so that the detached factors are far
    from 1, and lambda_pr at lambda 0.8 drops some rows and discounts later
    positions."""
    corpus = Corpus([
        CorpusExample("ab", "cad"),
        CorpusExample("h", "f"),
        CorpusExample("", "gh"),
        CorpusExample("ce", "eb"),
        CorpusExample("fa", "d"),
    ])
    model = ToyModel.init(Vocab(corpus.charset()), context=4, embed_dim=6, hidden_dim=10, seed=11)
    for _, param in model.named_params():
        param *= 3.0
    cfg = LossConfig(name, lam=0.8, alpha=0.6) if name == "lambda_pr" else LossConfig(name)
    encoded = corpus.encoded(model.vocab, model.context)
    picks = [3, 0, 4, 0, 1]
    rows = encoded.rows(picks)
    contexts, targets, positions, lengths = (a[rows] for a in (encoded.contexts, encoded.targets, encoded.positions, encoded.lengths))
    row_weights = ((1.0 / len(picks)) / encoded.lengths)[rows]
    with ThreadPoolExecutor(max_workers=1) as helper:
        ws = Workspace(model, len(rows))
        logits, cache = forward_batch(model, contexts, ws, helper)
        values, dlogits = batch_loss(logits, targets, positions, lengths, cfg)
        dlogits *= row_weights[:, None]
        grads = backward_batch(model, cache, dlogits, ws, helper)
    frozen = [frozen_value_fn(cfg, z0, Target.one_hot(k), i, m)
              for z0, k, i, m in zip(logits, targets.tolist(), positions.tolist(), lengths.tolist())]
    np.testing.assert_allclose([f(z0[None])[0] for f, z0 in zip(frozen, logits)], values, rtol=1e-12)
    if name == "lambda_pr":
        assert 0 < np.count_nonzero(values == 0.0) < len(rows)  # some rows dropped, some kept

    def weighted_loss():
        z = forward_batch(model, contexts)[0]
        return sum(w * f(z[i : i + 1])[0] for i, (w, f) in enumerate(zip(row_weights, frozen)))

    h = 1e-6
    for pname, param in model.named_params():
        flat = param.reshape(-1)  # a view of the parameter, which is contiguous
        fd = np.empty(flat.size)
        for j, base in enumerate(flat.tolist()):
            flat[j] = base + h
            up = weighted_loss()
            flat[j] = base - h
            down = weighted_loss()
            flat[j] = base
            fd[j] = (up - down) / (2 * h)
        grad = getattr(grads, pname).reshape(-1)
        assert np.linalg.norm(fd - grad) <= 1e-6 * np.linalg.norm(grad), pname


# -------------------------------------------------------- step workspace ----


def word_corpus(seed=0, examples=64):
    """Lowercase words and spaces (V = 28 with EOS), responses of 4 to 44
    characters: the longest example has 45 rows."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz "))
    lengths = np.linspace(4, 44, examples).round().astype(int)
    return Corpus([
        CorpusExample("".join(rng.choice(letters, 12)), "".join(rng.choice(letters, n)))
        for n in lengths
    ])


def readme_run(objective="ce", batch_size=16, steps=4, dims=(8, 32, 128), corpus=None):
    """Model, corpus and config of a train call at README dims (c8 d32 h128,
    B=16, V=28) unless other dims are given."""
    corpus = corpus or word_corpus()
    c, d, h = dims
    model = ToyModel.init(Vocab(corpus.charset()), context=c, embed_dim=d, hidden_dim=h, seed=3)
    cfg = TrainConfig(objective=LossConfig(objective), learning_rate=0.1, warmup_steps=1,
                      total_steps=steps, batch_size=batch_size, seed=5)
    return model, corpus, cfg


def run_digest(ckpt, trace):
    digest = hashlib.sha256()
    for name, param in ckpt.model.named_params():
        digest.update(name.encode())
        digest.update(param.tobytes())
    return digest.hexdigest(), [repr(row.loss) for row in trace]


def in_fresh_thread(fn):
    """fn() run on a new thread, which starts with no step workspace."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join()
    return out[0]


def test_reused_workspace_trains_bit_equal_to_a_fresh_one():
    # README dims, then sweep dims, then a batch that grows the workspace,
    # then README dims again, all on this thread's one workspace
    runs = [readme_run(), readme_run(dims=(4, 16, 32)), readme_run(batch_size=24), readme_run()]
    first_ckpt, first_trace = train(*runs[0])
    first = run_digest(first_ckpt, first_trace)
    assert first == in_fresh_thread(lambda: run_digest(*train(*runs[0])))
    for run in runs[1:]:
        assert run_digest(*train(*run)) == in_fresh_thread(lambda: run_digest(*train(*run)))
    # no returned array is a view of the workspace the later calls wrote
    assert run_digest(first_ckpt, first_trace) == first


def test_concurrent_trainers_each_use_their_own_workspace():
    runs = {name: readme_run(name, steps=24) for name in ("ce", "tofu")}
    expected = {name: run_digest(*train(*run)) for name, run in runs.items()}
    got = {}
    start = threading.Barrier(len(runs))

    def work(name):
        start.wait()
        got[name] = run_digest(*train(*runs[name]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two trainers' steps finely
    try:
        workers = [threading.Thread(target=work, args=(name,)) for name in runs]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_concurrent_first_calls_encode_a_corpus_once(monkeypatch):
    # more trainers than cores race to the first encoding of one corpus
    names = ("ce", "tofu", "gem", "focal")
    expected = {name: run_digest(*train(*readme_run(name))) for name in names}
    corpus = word_corpus()
    calls = count_encodes(monkeypatch)
    got = {}
    start = threading.Barrier(len(names))

    def work(name):
        start.wait()
        got[name] = run_digest(*train(*readme_run(name, corpus=corpus)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(name,)) for name in names]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == expected
    assert calls == list(corpus.examples)


def count_helpers(monkeypatch) -> list:
    """The keyword arguments of each helper executor train opens from now on."""
    made = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, **kwargs):
            made.append(kwargs)
            super().__init__(**kwargs)

    monkeypatch.setattr(training, "ThreadPoolExecutor", Counted)
    return made


@pytest.mark.parametrize("dims, helpers", [((4, 16, 32), 0), ((8, 32, 128), 1)], ids=["c4_d16_h32", "readme"])
def test_only_a_step_above_the_floor_gets_a_helper(monkeypatch, dims, helpers):
    # batch 16 x about 24 rows per example: 0.8M multiply-adds a step at c4
    # d16 h32, under the 2**21 floor, and 12.6M at README dims
    made = count_helpers(monkeypatch)
    train(*readme_run(dims=dims))
    assert made == [{"max_workers": 1}] * helpers


@pytest.mark.parametrize("name", OBJECTIVES)
@pytest.mark.parametrize("dims", [(4, 16, 32), (8, 32, 128)], ids=["c4_d16_h32", "readme"])
def test_helper_trains_bit_equal_to_the_calling_thread_alone(monkeypatch, name, dims):
    run = readme_run(name, dims=dims, steps=3)
    got = {}
    for floor in (0, math.inf):  # a helper on every step, then on none
        monkeypatch.setattr(training, "HELPER_MIN_WORK", floor)
        made = count_helpers(monkeypatch)
        got[floor] = run_digest(*train(*run))
        assert len(made) == (floor == 0)
    assert got[0] == got[math.inf]


def test_train_leaves_no_thread_behind(monkeypatch):
    made = count_helpers(monkeypatch)
    before = threading.active_count()
    train(*readme_run())
    assert threading.active_count() == before
    model, corpus, cfg = readme_run()
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train(model, corpus, dataclasses.replace(cfg, learning_rate=1e308))
    assert threading.active_count() == before
    assert len(made) == 2  # both calls ran above the floor, with a helper


def test_repeat_train_call_makes_almost_no_page_faults():
    resource = pytest.importorskip("resource")
    run = readme_run()
    for _ in range(2):
        train(*run)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(*run)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # a step that allocated its activations and gradients afresh faults
    # their pages in again: about 2500 faults for this call
    assert faults < 100


# ------------------------------------------------------------ checkpoint ----


def test_checkpoint_round_trip(tmp_path):
    corpus, vocab, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), warmup_steps=2,
                      total_steps=8, batch_size=2)
    ckpt, _ = train(model, corpus, cfg)
    path = tmp_path / "model.bin"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.config_hash == ckpt.config_hash
    assert loaded.model.vocab.chars == vocab.chars
    for name, param in ckpt.model.named_params():
        assert np.array_equal(param, dict(loaded.model.named_params())[name])


def test_checkpoint_save_is_byte_stable(tmp_path):
    corpus, _, model = tiny_setup()
    cfg = TrainConfig(objective=LossConfig("ce"), warmup_steps=2,
                      total_steps=8, batch_size=2)
    ckpt, _ = train(model, corpus, cfg)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    ckpt.save(p1)
    Checkpoint.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(ValueError):
        Checkpoint.load(path)


def test_checkpoint_rejects_version_1(tmp_path):
    header = json.dumps({
        "format_version": 1, "step": 0, "config_hash": "0" * 64, "rng_state": {},
        "vocab_chars": "ab", "context": 2, "arrays": [],
    }).encode("utf-8")
    path = tmp_path / "v1.bin"
    path.write_bytes(Checkpoint.MAGIC + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little") + header)
    with pytest.raises(ValueError, match="version 1; retrain"):
        Checkpoint.load(path)


def saved_checkpoint(tmp_path):
    corpus, _, model = tiny_setup()
    ckpt, _ = train(model, corpus, TrainConfig(objective=LossConfig("ce"), warmup_steps=1, total_steps=2))
    path = tmp_path / "model.bin"
    ckpt.save(path)
    return path


def rewrite_header(path, edit):
    """Apply edit(header) to a saved checkpoint's JSON header, keeping its arrays."""
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[12:20], "little")
    header = json.loads(raw[20 : 20 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:12] + len(header_bytes).to_bytes(8, "little") + header_bytes + raw[20 + header_len :])


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(ValueError, match="header describes") as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


def test_checkpoint_rejects_truncated_arrays(tmp_path):
    path = saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="header describes") as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


def test_checkpoint_rejects_vocab_that_disagrees_with_embed_rows(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h.update(vocab_chars=h["vocab_chars"][:-1]))
    with pytest.raises(ValueError, match="array embed has shape") as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


def test_checkpoint_rejects_unknown_array_name(tmp_path):
    path = saved_checkpoint(tmp_path)
    rewrite_header(path, lambda h: h["arrays"][0].update(name="embedding"))
    with pytest.raises(ValueError, match="expected \\('embed'") as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [("context", True), ("context", 0), ("step", "abc"), ("step", -3), ("step", 1.0), ("config_hash", 7),
     ("vocab_chars", ["xy", "z"])],
)
def test_checkpoint_rejects_mistyped_header_fields(tmp_path, field, value):
    """A bool is no context (True would load as a context-1 model), a step is
    a non-negative int, a config hash a string and the vocab chars a str
    (["xy", "z"] would load as a size-3 vocab whose id 1 decodes to "xy")."""
    path = tmp_path / "model.bin"
    Checkpoint(ToyModel.zeros(Vocab("ab"), 1, 2, 3), 0, "0" * 64).save(path)  # arrays of context 1, vocab size 3
    rewrite_header(path, lambda h: h.update({field: value}))
    with pytest.raises(ValueError, match="bad checkpoint header") as info:
        Checkpoint.load(path)
    assert str(path) in str(info.value)


# --------------------------------------------------------------- golden ----


def test_train_matches_golden_regression():
    """Bit-exact replay of a short frozen run.

    Catches silent changes to batching order, update rules, or RNG use.
    The fixture was produced by this same code path and reviewed by hand;
    regenerate tests/data/golden_train.json deliberately if the trainer's
    behavior is intentionally changed.
    """
    golden = json.loads((DATA / "golden_train.json").read_text())
    corpus, vocab, model = tiny_setup()
    assert vocab.chars == golden["vocab_chars"]
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.2,
                      warmup_steps=5, total_steps=25, weight_decay=0.01,
                      batch_size=2, seed=11)
    ckpt, trace = train(model, corpus, cfg)
    assert repr(trace[0].loss) == golden["first_loss"], kernels_note()
    assert repr(trace[-1].loss) == golden["final_loss"], kernels_note()
    logits = forward(ckpt.model, vocab.encode("ab"))
    assert [repr(float(v)) for v in logits] == golden["logits_after_ab"], kernels_note()
    assert ckpt.config_hash == golden["config_hash"]


def golden_zoo_record(name):
    """One objective's entry of tests/data/golden_train_zoo.json: the sha256
    of its trained parameters and the repr of every step's loss.

    Batches of 7 over a 4-example corpus, so every batch wraps across a
    reshuffle and repeats an example; gem runs with momentum, lambda_pr with a
    position discount. The fixture was written by this function; regenerate it
    with {name: golden_zoo_record(name) for name in OBJECTIVES} only when the
    trainer's behavior is meant to change.
    """
    corpus = Corpus([*tiny_corpus().examples, CorpusExample("dc", "b")])
    model = ToyModel.init(Vocab(corpus.charset()), context=4, embed_dim=8, hidden_dim=16, seed=7)
    objective = LossConfig(name, lam=0.5, alpha=0.25) if name == "lambda_pr" else LossConfig(name)
    cfg = TrainConfig(objective=objective, learning_rate=0.3, warmup_steps=3, total_steps=10,
                      batch_size=7, seed=19, momentum=0.5 if name == "gem" else 0.0)
    ckpt, trace = train(model, corpus, cfg)
    digest = hashlib.sha256()
    for pname, param in ckpt.model.named_params():
        digest.update(pname.encode())
        digest.update(param.tobytes())
    return {"params_sha256": digest.hexdigest(), "losses": [repr(row.loss) for row in trace]}


@pytest.mark.parametrize("name", OBJECTIVES)
def test_train_matches_golden_zoo_regression(name):
    """Bit-exact replay of every objective on batches that wrap, repeat
    examples and, for gem, carry momentum: what golden_train.json and the
    scalar reference (one fresh permutation per step, no momentum) miss."""
    golden = json.loads((DATA / "golden_train_zoo.json").read_text())
    assert golden_zoo_record(name) == golden[name], kernels_note()


# ------------------------------------------------------- synth and probe ----


def test_synth_corpus_validates_frequencies():
    with pytest.raises(ValueError):
        synth_diversity_corpus({"q": {"a": 0.9, "b": 0.2}}, 10, seed=0)
    with pytest.raises(ValueError):
        synth_diversity_corpus({"q": {"a": -0.5, "b": 1.5}}, 10, seed=0)
    with pytest.raises(ValueError):
        synth_diversity_corpus({"q": {"a": 1.0}}, 0, seed=0)


def test_synth_corpus_is_deterministic_and_skewed():
    table = {"q": {"a": 0.6, "b": 0.2, "c": 0.1, "d": 0.06, "e": 0.04}}
    one, truth = synth_diversity_corpus(table, 400, seed=9)
    two, _ = synth_diversity_corpus(table, 400, seed=9)
    assert one.examples == two.examples
    assert truth == table
    counts = {a: 0 for a in table["q"]}
    for ex in one.examples:
        assert ex.prompt == "q"
        counts[ex.response] += 1
    assert counts["a"] > counts["b"] > counts["c"]


def test_probe_on_zero_model_is_uniform():
    vocab = Vocab("abcd")
    model = ToyModel.zeros(vocab, context=3, embed_dim=4, hidden_dim=4)
    result = probe_token_distribution(model, "", ["a", "b"])
    assert result.probabilities["a"] == pytest.approx(0.2)
    assert result.probabilities["b"] == pytest.approx(0.2)
    assert result.tail_mass == pytest.approx(0.6)


def test_probe_rejects_multichar_tokens():
    vocab = Vocab("abcd")
    model = ToyModel.zeros(vocab, context=3, embed_dim=4, hidden_dim=4)
    with pytest.raises(ValueError):
        probe_token_distribution(model, "", ["ab"])


def test_probe_argmax_token():
    vocab = Vocab("abcd")
    model = ToyModel.init(vocab, context=3, embed_dim=4, hidden_dim=4, seed=2)
    result = probe_token_distribution(model, "a", ["a", "b", "c"])
    top = result.argmax_token()
    assert top in ("a", "b", "c")
    assert result.probabilities[top] == max(result.probabilities.values())
