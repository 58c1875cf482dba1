"""Nucleus filter and the hashed-stream generation sampler."""

from types import SimpleNamespace

import numpy as np
import pytest

from sftlab import sampling
from sftlab.model import TokenizationError, ToyModel, Vocab, forward
from sftlab.numerics import log_softmax
from sftlab.sampling import (
    SamplingConfig,
    completion_seed,
    inverse_cdf_draw,
    nucleus_filter,
    nucleus_sample,
    sample_generation_set,
    sample_generation_sets,
)


def make_model(seed=3):
    vocab = Vocab("abcd")
    return ToyModel.init(vocab, context=4, embed_dim=6, hidden_dim=8, seed=seed)


def reference_nucleus(probs, top_p):
    """The nucleus of one probability vector, one scalar step at a time:
    the stable descending order, the crossing index by searchsorted, and the
    prefix renormalized by its own sum."""
    order = np.argsort(-probs, kind="stable")
    cut = min(int(np.searchsorted(np.cumsum(probs[order]), top_p, side="left")), probs.size - 1)
    kept = order[: cut + 1]
    return kept, probs[kept] / probs[kept].sum()


def reference_sample(model, prompt, cfg, rng):
    """One completion decoded alone, a token per loop, each drawn by
    Generator.choice from reference_nucleus."""
    window = model.vocab.encode(prompt) if prompt else [model.vocab.eos_id]
    generated = []
    for _ in range(cfg.max_tokens):
        probs = np.exp(log_softmax(forward(model, window) / cfg.temperature))
        kept, weights = reference_nucleus(probs, cfg.top_p)
        token = int(kept[rng.choice(kept.size, p=weights)])
        if token == model.vocab.eos_id:
            break
        generated.append(token)
        window.append(token)
    return model.vocab.decode(generated)


def decode_grid():
    """(model, cfg) pairs: random models with output weights scaled 0.1-30
    and the all-ties zero model, at every temperature in {1e-4, 0.3, 1, 5}
    and top_p in {1e-9, 0.3, 0.9, 1.0}."""
    vocab = Vocab("abcdefg ")
    models = []
    for seed, scale in ((1, 0.1), (2, 3.0), (3, 30.0)):
        model = ToyModel.init(vocab, context=3, embed_dim=4, hidden_dim=6, seed=seed)
        model.w_out *= scale
        models.append(model)
    models.append(ToyModel.zeros(vocab, context=3, embed_dim=4, hidden_dim=6))
    for model in models:
        for temperature in (1e-4, 0.3, 1.0, 5.0):
            for top_p in (1e-9, 0.3, 0.9, 1.0):
                yield model, SamplingConfig(top_p=top_p, temperature=temperature, max_tokens=6, seed=11)


def test_sampling_config_validates():
    with pytest.raises(ValueError):
        SamplingConfig(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(top_p=1.2)
    with pytest.raises(ValueError):
        SamplingConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(max_tokens=0)


@pytest.mark.parametrize("max_tokens", [2.5, True, "8"])
def test_sampling_config_rejects_non_int_max_tokens(max_tokens):
    # 2.5 and True would construct, and 2.5 would fail the decode with TypeError
    with pytest.raises(ValueError, match="max_tokens must be an int"):
        SamplingConfig(max_tokens=max_tokens)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf")])
def test_sampling_config_rejects_non_finite_temperature(temperature):
    # nan would construct and fail the first decode step as "logits must be
    # finite"; inf would sample uniformly
    with pytest.raises(ValueError, match="temperature must be finite"):
        SamplingConfig(temperature=temperature)


# -------------------------------------------------------------- nucleus ----


def test_nucleus_tiny_top_p_is_greedy():
    probs = np.array([0.1, 0.6, 0.3])
    kept, weights = nucleus_filter(probs, 1e-9)
    assert kept.tolist() == [1]
    assert weights.tolist() == [1.0]


def test_nucleus_includes_crossing_token():
    probs = np.array([0.5, 0.3, 0.2])
    kept, weights = nucleus_filter(probs, 0.6)
    assert kept.tolist() == [0, 1]
    assert weights == pytest.approx([0.625, 0.375])


def test_nucleus_exact_boundary_keeps_reaching_token_only():
    probs = np.array([0.5, 0.5])
    kept, _ = nucleus_filter(probs, 0.5)
    assert kept.tolist() == [0]


def test_nucleus_full_top_p_keeps_everything():
    probs = np.array([0.05, 0.2, 0.3, 0.45])
    kept, weights = nucleus_filter(probs, 1.0)
    assert sorted(kept.tolist()) == [0, 1, 2, 3]
    assert weights.sum() == pytest.approx(1.0)
    assert weights == pytest.approx(probs[kept])


def test_nucleus_renormalizes():
    probs = np.array([0.4, 0.35, 0.15, 0.1])
    kept, weights = nucleus_filter(probs, 0.8)
    assert weights.sum() == pytest.approx(1.0)
    # ordering of kept mass is preserved
    assert weights[0] > weights[1]


def test_nucleus_ties_resolve_in_index_order():
    probs = np.full(4, 0.25)
    kept, _ = nucleus_filter(probs, 0.5)
    assert kept.tolist() == [0, 1]


# ----------------------------------------------------------------- draw ----


def test_nucleus_filter_rows_match_the_scalar_filter():
    # each row's order, weights and zero tail against the one-vector
    # reference, bit for bit; V up to 300 puts prefixes across numpy's
    # 128-entry pairwise-sum blocks, and 48 rows of 300 put the rows across
    # its 8192-element iteration buffer
    rng = np.random.default_rng(7)
    for trial in range(400):
        if trial % 100 == 0:
            N, V = 48, 300
        else:
            N, V = int(rng.integers(1, 9)), int(rng.integers(2, 300 if trial % 4 == 0 else 40))
        if trial % 3 == 0:
            levels = rng.integers(1, 4, size=(N, V)).astype(np.float64)
            probs = levels / levels.sum(-1, keepdims=True)
        else:
            probs = rng.dirichlet(np.full(V, (0.05, 1.0)[trial % 2]), size=N)
        top_p = (1e-9, 0.3, 0.9, 1.0, float(rng.uniform(0.05, 1.0)))[trial % 5]
        order, weights = nucleus_filter(probs, top_p)
        assert order.shape == weights.shape == (N, V)
        for row in range(N):
            kept, expected = reference_nucleus(probs[row], top_p)
            assert order[row, : kept.size].tolist() == kept.tolist(), (trial, row)
            assert weights[row, : kept.size].tobytes() == expected.tobytes(), (trial, row)
            assert not weights[row, kept.size :].any()


def test_inverse_cdf_draw_is_generator_choice():
    # rows of nucleus weights of every kept size 1-28, zero past the nucleus,
    # with exact ties (equal levels, uniform) and single kept tokens (tiny
    # top_p): each row's index at u must be choice's index on a stream whose
    # one rng.random() gives u, and so must the one-vector case
    rng = np.random.default_rng(2024)
    sizes, tied = set(), 0
    rows, us, expected = [], [], []
    for trial in range(2000):
        V = int(rng.integers(1, 29))
        kind = trial % 4
        if kind == 0:
            probs = rng.dirichlet(np.ones(V))
        elif kind == 1:
            levels = rng.integers(1, 4, size=V).astype(np.float64)
            probs = levels / levels.sum()
        elif kind == 2:
            probs = np.full(V, 1.0 / V)
        else:
            probs = rng.dirichlet(np.full(V, 0.05))
        top_p = (1.0, 1e-9, float(rng.uniform(0.05, 1.0)))[trial % 3]
        _, weights = reference_nucleus(probs, top_p)
        sizes.add(weights.size)
        tied += len(set(weights.tolist())) < weights.size
        seed = int(rng.integers(1 << 62))
        u = np.random.default_rng(seed).random()
        choice = np.random.default_rng(seed).choice(weights.size, p=weights)
        assert inverse_cdf_draw(weights, u) == choice, (trial, weights)
        rows.append(np.pad(weights, (0, 28 - weights.size)))
        us.append(u)
        expected.append(choice)
    assert inverse_cdf_draw(np.array(rows), np.array(us)[:, None]).tolist() == expected
    assert sizes == set(range(1, 29))
    assert tied >= 100


def test_generator_random_n_is_n_scalar_draws():
    # a completion's draws come from one rng.random(max_tokens) call
    for seed in range(200):
        block = np.random.default_rng(seed).random(64)
        one_at_a_time = np.random.default_rng(seed)
        assert block.tobytes() == np.array([one_at_a_time.random() for _ in range(64)]).tobytes()


# ---------------------------------------------------------------- seeds ----


def test_completion_seed_is_stable():
    assert completion_seed(0, "p0", 1) == completion_seed(0, "p0", 1)


def test_completion_seed_separates_streams():
    seeds = {
        completion_seed(0, "p0", 0),
        completion_seed(0, "p0", 1),
        completion_seed(0, "p1", 0),
        completion_seed(1, "p0", 0),
    }
    assert len(seeds) == 4
    for s in seeds:
        assert 0 <= s < 2**64


# --------------------------------------------------------------- sample ----


def test_sample_is_deterministic():
    model = make_model()
    cfg = SamplingConfig(top_p=0.9, max_tokens=16, seed=5)
    assert nucleus_sample(model, "ab", cfg) == nucleus_sample(model, "ab", cfg)


def test_sample_respects_max_tokens():
    model = make_model()
    cfg = SamplingConfig(top_p=1.0, max_tokens=3, seed=0)
    for i in range(20):
        rng = np.random.default_rng(i)
        assert len(nucleus_sample(model, "a", cfg, rng)) <= 3


def test_sample_stops_at_eos():
    # the zero model is exactly uniform, so greedy top-p resolves the tie in
    # token-id order and picks EOS immediately
    vocab = Vocab("abcd")
    model = ToyModel.zeros(vocab, context=3, embed_dim=4, hidden_dim=4)
    cfg = SamplingConfig(top_p=1e-9, max_tokens=50, seed=0)
    assert nucleus_sample(model, "a", cfg) == ""


def test_sample_low_temperature_is_greedy():
    model = make_model()
    cfg = SamplingConfig(top_p=1.0, temperature=1e-4, max_tokens=8, seed=0)
    outs = {nucleus_sample(model, "b", cfg, np.random.default_rng(i)) for i in range(6)}
    assert len(outs) == 1


def test_sample_rejects_unknown_prompt_chars():
    model = make_model()
    with pytest.raises(TokenizationError):
        nucleus_sample(model, "xyz", SamplingConfig())


# ------------------------------------------------------- generation sets ----


def test_generation_set_is_deterministic():
    model = make_model()
    cfg = SamplingConfig(top_p=0.95, max_tokens=12, seed=7)
    one = sample_generation_set(model, "ab", 5, cfg, "p0")
    two = sample_generation_set(model, "ab", 5, cfg, "p0")
    assert one.completions == two.completions
    assert one.prompt == "ab"


def test_generation_set_streams_do_not_depend_on_k():
    model = make_model()
    cfg = SamplingConfig(top_p=0.95, max_tokens=12, seed=7)
    small = sample_generation_set(model, "ab", 3, cfg, "p0")
    large = sample_generation_set(model, "ab", 5, cfg, "p0")
    assert large.completions[:3] == small.completions


def test_generation_set_completions_are_their_streams_decoded_alone():
    # completion i of a k=64 set is nucleus_sample on stream i, whatever its
    # siblings do, and the scalar reference decoder gives the same text
    for model, cfg in decode_grid():
        gs = sample_generation_set(model, "ab", 64, cfg, "p3")
        for i, completion in enumerate(gs.completions):
            stream = completion_seed(cfg.seed, "p3", i)
            assert completion == nucleus_sample(model, "ab", cfg, np.random.default_rng(stream)), (cfg, i)
            if i < 8:
                assert completion == reference_sample(model, "ab", cfg, np.random.default_rng(stream)), (cfg, i)


def test_generation_set_calls_forward_once_per_sampled_token(monkeypatch):
    # a completion takes one forward call per token it draws, its EOS
    # included; a decode that batched or cached the forward pass would not
    model = make_model()
    cfg = SamplingConfig(top_p=0.9, max_tokens=10, seed=4)
    calls = []

    def counted(m, window):
        calls.append(len(window))
        return forward(m, window)

    monkeypatch.setattr(sampling, "forward", counted)
    for k in (1, 5, 64):
        calls.clear()
        gs = sample_generation_set(model, "ab", k, cfg, "p0")
        assert len(calls) == sum(min(len(c) + 1, cfg.max_tokens) for c in gs.completions)
    lengths = {len(c) for c in gs.completions}
    assert cfg.max_tokens in lengths and min(lengths) < cfg.max_tokens - 1


def joint_prompts(context):
    """Prompts with one text under two ids, an empty prompt and a prompt
    longer than the context window."""
    return [
        SimpleNamespace(id="p0", prompt="ab"),
        SimpleNamespace(id="twin", prompt="ab"),
        SimpleNamespace(id="empty", prompt=""),
        SimpleNamespace(id="long", prompt="abcdefg " * context),
        SimpleNamespace(id="p4", prompt="g"),
    ]


def test_joint_decode_gives_each_prompt_its_set_decoded_alone():
    # every prompt's set from one lockstep equals that prompt's set decoded
    # alone, bit for bit, at each k and in any prompt order
    order = np.random.default_rng(5)
    for n, (model, cfg) in enumerate(decode_grid()):
        prompts = joint_prompts(model.context)
        for k in (1, 5, 64) if n % 8 == 0 else (5,):
            alone = {p.id: sample_generation_set(model, p.prompt, k, cfg, p.id) for p in prompts}
            for shuffled in (prompts, [prompts[i] for i in order.permutation(len(prompts))]):
                joint = sample_generation_sets(model, shuffled, k, cfg)
                assert [s.prompt for s in joint] == [p.prompt for p in shuffled]
                assert {p.id: s for p, s in zip(shuffled, joint)} == alone, (cfg, k)


def test_joint_decode_matches_alone_past_numpy_buffer_size():
    # 5 prompts x 64 completions x V=28 puts more than numpy's 8192-element
    # iteration buffer into each stacked step
    vocab = Vocab("abcdefghijklmnopqrstuvwxyz ")
    model = ToyModel.init(vocab, context=8, embed_dim=8, hidden_dim=16, seed=9)
    model.w_out *= 4.0
    cfg = SamplingConfig(top_p=0.95, max_tokens=12, seed=2)
    prompts = joint_prompts(model.context)
    joint = sample_generation_sets(model, prompts, 64, cfg)
    assert len(prompts) * 64 * vocab.size > 8192
    for p, s in zip(prompts, joint):
        assert s == sample_generation_set(model, p.prompt, 64, cfg, p.id), p.id


def test_joint_decode_calls_forward_once_per_sampled_token(monkeypatch):
    # the same count when several prompts share the one lockstep
    model = make_model()
    cfg = SamplingConfig(top_p=0.9, max_tokens=10, seed=4)
    calls = []

    def counted(m, window):
        calls.append(len(window))
        return forward(m, window)

    monkeypatch.setattr(sampling, "forward", counted)
    prompts = [SimpleNamespace(id=f"p{i}", prompt=text) for i, text in enumerate(["ab", "", "dcbadcba", "ab"])]
    for k in (1, 5, 64):
        calls.clear()
        sets = sample_generation_sets(model, prompts, k, cfg)
        assert len(calls) == sum(min(len(c) + 1, cfg.max_tokens) for s in sets for c in s.completions)
    assert sample_generation_sets(model, [], 3, cfg) == []


def test_generation_set_prompt_id_separates_streams():
    model = make_model()
    cfg = SamplingConfig(top_p=1.0, max_tokens=12, seed=7)
    a = sample_generation_set(model, "ab", 4, cfg, "p0")
    b = sample_generation_set(model, "ab", 4, cfg, "p1")
    assert a.completions != b.completions


def test_generation_set_requires_positive_k():
    model = make_model()
    with pytest.raises(ValueError):
        sample_generation_set(model, "ab", 0, SamplingConfig(), "p0")
