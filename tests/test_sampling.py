"""Nucleus filter and the hashed-stream generation sampler."""

import numpy as np
import pytest

from sftlab.model import TokenizationError, ToyModel, Vocab
from sftlab.sampling import (
    SamplingConfig,
    completion_seed,
    inverse_cdf_draw,
    nucleus_filter,
    nucleus_sample,
    sample_generation_set,
)


def make_model(seed=3):
    vocab = Vocab("abcd")
    return ToyModel.init(vocab, context=4, embed_dim=6, hidden_dim=8, seed=seed)


def test_sampling_config_validates():
    with pytest.raises(ValueError):
        SamplingConfig(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(top_p=1.2)
    with pytest.raises(ValueError):
        SamplingConfig(temperature=0.0)
    with pytest.raises(ValueError):
        SamplingConfig(max_tokens=0)


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


def test_inverse_cdf_draw_is_generator_choice():
    # nucleus weight vectors of every kept size 1-28, with exact ties (equal
    # levels, uniform) and single kept tokens (tiny top_p); index and stream
    # state after the draw must both be choice's
    rng = np.random.default_rng(2024)
    sizes, tied = set(), 0
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
        kept, weights = nucleus_filter(probs, top_p)
        sizes.add(kept.size)
        tied += len(set(weights.tolist())) < weights.size
        seed = int(rng.integers(1 << 62))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert inverse_cdf_draw(weights, ours) == theirs.choice(weights.size, p=weights), (trial, weights)
        assert ours.bit_generator.state == theirs.bit_generator.state
    assert sizes == set(range(1, 29))
    assert tied >= 100


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
