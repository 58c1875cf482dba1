"""Trainer, corpus handling, checkpoints, and the probe helper."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sftlab.losses import OBJECTIVES, LossConfig, Target, token_loss
from sftlab.hashing import config_hash
from sftlab.model import ToyModel, Vocab, backward_batch, forward, forward_batch, pad_context
from sftlab.training import (
    Checkpoint,
    Corpus,
    CorpusExample,
    EncodedExample,
    TrainConfig,
    TrainingDivergedError,
    encode_example,
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
    assert repr(trace[0].loss) == golden["first_loss"]
    assert repr(trace[-1].loss) == golden["final_loss"]
    logits = forward(ckpt.model, vocab.encode("ab"))
    assert [repr(float(v)) for v in logits] == golden["logits_after_ab"]
    assert ckpt.config_hash == golden["config_hash"]


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
