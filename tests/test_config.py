"""Strict config loading, path resolution, and canonical hashing."""

import json

import pytest

from sftlab.config import (
    ConfigError,
    load_experiment_config,
    load_probe_spec,
    load_prompts,
    load_sweep_spec,
    parse_model,
    parse_objective,
    parse_sampling,
    parse_train,
    resolve_output_dir,
)
from sftlab.hashing import canonical_json, config_hash, content_hash
from sftlab.losses import LossConfig


def write_corpus(path):
    path.write_text('{"prompt": "ab", "response": "cd"}\n')
    return path


def write_prompts(path):
    path.write_text('{"id": "p0", "prompt": "ab"}\n')
    return path


# ---------------------------------------------------------- sub-parsers ----


def test_parse_objective_defaults():
    cfg = parse_objective({"name": "tofu"})
    assert cfg.objective == "tofu"
    assert cfg.gamma == 3.0
    assert cfg.resolved_beta() == 0.8


def test_parse_objective_lambda_json_key_maps_to_lam():
    cfg = parse_objective({"name": "lambda_pr", "lambda": 0.5, "alpha": 0.25})
    assert cfg.lam == 0.5
    assert cfg.alpha == 0.25


def test_parse_objective_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_objective({"name": "ce", "galma": 2.0})


def test_parse_objective_requires_name():
    with pytest.raises(ConfigError):
        parse_objective({"gamma": 2.0})


def test_parse_objective_checks_consumed_hyperparameters():
    assert parse_objective({"name": "ce", "gamma": -1}).gamma == -1.0
    for bad in ({"name": "tofu", "gamma": -1}, {"name": "lambda_pr", "alpha": 0.0},
                {"name": "lambda_pr", "lambda": 1.5}):
        with pytest.raises(ConfigError):
            parse_objective(bad)


def test_parse_objective_wraps_value_errors():
    with pytest.raises(ConfigError):
        parse_objective({"name": "nope"})
    with pytest.raises(ConfigError):
        parse_objective({"name": "ce", "beta": 1.5})
    with pytest.raises(ConfigError):
        parse_objective({"name": "focal", "gamma": "wide"})


def test_parse_model_defaults_and_bounds():
    spec = parse_model({})
    assert (spec.context, spec.embed_dim, spec.hidden_dim) == (8, 32, 128)
    assert spec.vocab is None
    with pytest.raises(ConfigError):
        parse_model({"context": 0})
    with pytest.raises(ConfigError):
        parse_model({"hidden": 4})


def test_parse_train_wraps_validation():
    cfg = parse_train({"total_steps": 100, "warmup_steps": 10}, LossConfig("ce"))
    assert cfg.total_steps == 100
    with pytest.raises(ConfigError):
        parse_train({"learning_rate": -1}, LossConfig("ce"))
    with pytest.raises(ConfigError):
        parse_train({"extra": 1}, LossConfig("ce"))


def test_parse_sampling_wraps_validation():
    assert parse_sampling({"top_p": 0.5}).top_p == 0.5
    with pytest.raises(ConfigError):
        parse_sampling({"top_p": 2.0})
    with pytest.raises(ConfigError):
        parse_sampling({"topp": 0.5})


# ------------------------------------------------------------ path rules ----


def test_resolve_output_dir_uses_env_root(monkeypatch, tmp_path):
    from pathlib import Path

    monkeypatch.setenv("SFTLAB_OUT_ROOT", str(tmp_path))
    assert resolve_output_dir("runs/a") == tmp_path / "runs" / "a"
    monkeypatch.delenv("SFTLAB_OUT_ROOT")
    assert resolve_output_dir("runs/a") == Path("runs/a")


def test_resolve_output_dir_absolute_ignores_root(monkeypatch):
    monkeypatch.setenv("SFTLAB_OUT_ROOT", "/somewhere/else")
    assert str(resolve_output_dir("/abs/out")) == "/abs/out"


# ----------------------------------------------------- experiment config ----


def experiment_payload(tmp_path, **overrides):
    write_corpus(tmp_path / "corpus.jsonl")
    payload = {
        "objective": {"name": "ce"},
        "train": {"total_steps": 20, "warmup_steps": 2},
        "corpus": "corpus.jsonl",
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    return payload


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_load_experiment_config_happy_path(tmp_path):
    path = write_config(tmp_path, experiment_payload(tmp_path))
    cfg = load_experiment_config(path)
    assert cfg.train.total_steps == 20
    assert cfg.corpus == tmp_path / "corpus.jsonl"
    # loading twice hashes identically
    assert config_hash(cfg.to_dict()) == config_hash(load_experiment_config(path).to_dict())


def test_load_experiment_config_rejects_unknown_top_key(tmp_path):
    path = write_config(tmp_path, experiment_payload(tmp_path, extra=1))
    with pytest.raises(ConfigError):
        load_experiment_config(path)


def test_load_experiment_config_requires_objective(tmp_path):
    payload = experiment_payload(tmp_path)
    del payload["objective"]
    with pytest.raises(ConfigError):
        load_experiment_config(write_config(tmp_path, payload))


def test_load_experiment_config_missing_corpus_file(tmp_path):
    payload = experiment_payload(tmp_path, corpus="absent.jsonl")
    with pytest.raises(ConfigError):
        load_experiment_config(write_config(tmp_path, payload))


def test_load_experiment_config_relative_corpus_resolves_against_config(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    write_corpus(sub / "corpus.jsonl")
    payload = {
        "objective": {"name": "ce"},
        "corpus": "corpus.jsonl",
        "output_dir": str(tmp_path / "out"),
    }
    cfg = load_experiment_config(write_config(sub, payload))
    assert cfg.corpus == sub / "corpus.jsonl"


def test_load_experiment_config_missing_file():
    with pytest.raises(ConfigError):
        load_experiment_config("/nonexistent/exp.json")


def test_load_experiment_config_bad_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment_config(path)


# ----------------------------------------------------------- sweep spec ----


def sweep_payload(tmp_path, **overrides):
    write_corpus(tmp_path / "corpus.jsonl")
    write_prompts(tmp_path / "prompts.jsonl")
    payload = {
        "objectives": ["tofu"],
        "gammas": [1.0, 3.0],
        "betas": [0.7, 0.9],
        "seeds": [0, 1],
        "train": {"total_steps": 10, "warmup_steps": 1},
        "corpus": "corpus.jsonl",
        "prompts": "prompts.jsonl",
        "output_dir": str(tmp_path / "sweep"),
    }
    payload.update(overrides)
    return payload


def test_load_sweep_spec_happy_path(tmp_path):
    spec = load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path), "sweep.json"))
    assert spec.gammas == (1.0, 3.0)
    assert spec.betas == (0.7, 0.9)
    assert spec.seeds == (0, 1)
    assert spec.samples_per_prompt == 8
    assert spec.metrics == ("self_bleu", "distinct_1", "distinct_2", "entropy")


def test_load_sweep_spec_rejects_unknown_objective(tmp_path):
    payload = sweep_payload(tmp_path, objectives=["warp"])
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, payload, "sweep.json"))


def test_load_sweep_spec_checks_each_cell(tmp_path):
    ok = sweep_payload(tmp_path, objectives=["ce", "lambda_pr"], gammas=[-1.0])
    assert load_sweep_spec(write_config(tmp_path, ok, "ok.json")).gammas == (-1.0,)
    bad = sweep_payload(tmp_path, objectives=["ce", "tofu"], gammas=[-1.0])
    with pytest.raises(ConfigError, match="tofu"):
        load_sweep_spec(write_config(tmp_path, bad, "bad.json"))


def test_load_sweep_spec_rejects_unknown_metric(tmp_path):
    payload = sweep_payload(tmp_path, metrics=["bleu_self"])
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, payload, "sweep.json"))


def test_load_sweep_spec_rejects_empty_grid(tmp_path):
    payload = sweep_payload(tmp_path, gammas=[])
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, payload, "sweep.json"))


def test_load_sweep_spec_bounds(tmp_path):
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path, workers=0), "s.json"))
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path, samples_per_prompt=0), "s.json"))


# ----------------------------------------------------------- probe spec ----


def probe_payload(tmp_path, **overrides):
    write_corpus(tmp_path / "pre.jsonl")
    write_corpus(tmp_path / "sft.jsonl")
    payload = {
        "pretrain": {"corpus": "pre.jsonl", "train": {"total_steps": 10, "warmup_steps": 1}},
        "sft": {
            "corpus": "sft.jsonl",
            "train": {"total_steps": 10, "warmup_steps": 1},
            "objectives": [{"name": "ce"}, {"name": "tofu", "gamma": 3.0, "beta": 0.8}],
        },
        "probe": {"prompt": "q", "valid_tokens": ["a", "b"]},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "probe"),
    }
    payload.update(overrides)
    return payload


def test_load_probe_spec_happy_path(tmp_path):
    spec = load_probe_spec(write_config(tmp_path, probe_payload(tmp_path), "probe.json"))
    assert spec.prompt == "q"
    assert spec.valid_tokens == ("a", "b")
    assert [o.objective for o in spec.sft_objectives] == ["ce", "tofu"]
    assert spec.pretrain.objective.objective == "ce"


def test_load_probe_spec_rejects_multichar_tokens(tmp_path):
    payload = probe_payload(tmp_path)
    payload["probe"]["valid_tokens"] = ["ab"]
    with pytest.raises(ConfigError):
        load_probe_spec(write_config(tmp_path, payload, "probe.json"))


def test_load_probe_spec_collapses_repeated_tokens(tmp_path):
    payload = probe_payload(tmp_path)
    payload["probe"]["valid_tokens"] = ["b", "a", "b"]
    assert load_probe_spec(write_config(tmp_path, payload, "probe.json")).valid_tokens == ("b", "a")


def test_load_probe_spec_requires_objectives(tmp_path):
    payload = probe_payload(tmp_path)
    payload["sft"]["objectives"] = []
    with pytest.raises(ConfigError):
        load_probe_spec(write_config(tmp_path, payload, "probe.json"))


# -------------------------------------------------------------- prompts ----


def test_load_prompts_happy_path(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(
        '{"id": "p0", "prompt": "ab", "answer": "cd"}\n'
        "\n"
        '{"id": "p1", "prompt": "b"}\n'
    )
    prompts = load_prompts(path)
    assert [p.id for p in prompts] == ["p0", "p1"]
    assert prompts[0].answer == "cd"
    assert prompts[1].answer is None


def test_load_prompts_rejects_duplicates(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "p0", "prompt": "a"}\n{"id": "p0", "prompt": "b"}\n')
    with pytest.raises(ConfigError):
        load_prompts(path)


@pytest.mark.parametrize("prompt_id", ["mean", "std"])
def test_load_prompts_rejects_aggregate_row_ids(tmp_path, prompt_id):
    path = tmp_path / "p.jsonl"
    path.write_text(f'{{"id": "p0", "prompt": "a"}}\n{{"id": "{prompt_id}", "prompt": "b"}}\n')
    with pytest.raises(ConfigError, match="reserved"):
        load_prompts(path)


def test_load_prompts_rejects_unknown_key(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "p0", "prompt": "a", "gold": "b"}\n')
    with pytest.raises(ConfigError):
        load_prompts(path)


def test_load_prompts_rejects_empty(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("\n")
    with pytest.raises(ConfigError):
        load_prompts(path)


# -------------------------------------------------------------- hashing ----


def test_canonical_json_sorts_and_compacts():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_config_hash_key_order_invariant():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_config_hash_integral_floats_normalize():
    assert config_hash({"x": 3.0}) == config_hash({"x": 3})
    assert config_hash({"x": 3.5}) != config_hash({"x": 3})


def test_config_hash_tuple_equals_list():
    assert config_hash({"x": (1, 2)}) == config_hash({"x": [1, 2]})


def test_config_hash_rejects_non_finite():
    with pytest.raises(ValueError):
        config_hash({"x": float("nan")})
    with pytest.raises(ValueError):
        config_hash({"x": float("inf")})


def test_config_hash_preserves_floats_beyond_exact_int_range():
    big = 2.0**53
    assert config_hash({"x": big}) != config_hash({"x": int(big)})


def test_content_hash_is_over_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"payload")
    b.write_bytes(b"payload")
    assert content_hash(a) == content_hash(b)
    b.write_bytes(b"payload2")
    assert content_hash(a) != content_hash(b)


def test_load_sweep_spec_collapses_repeated_grid_values(tmp_path):
    payload = sweep_payload(tmp_path, objectives=["tofu", "ce", "tofu"], gammas=[3.0, 1, 3], betas=[0.7, 0.7])
    spec = load_sweep_spec(write_config(tmp_path, payload, "sweep.json"))
    assert (spec.objectives, spec.gammas, spec.betas) == (("tofu", "ce"), (3.0, 1.0), (0.7,))
    assert [label for label, _ in spec.cells()] == ["tofu_g3_b0.7", "tofu_g1_b0.7", "ce_g3_b0.7", "ce_g1_b0.7"]


@pytest.mark.parametrize("grid", [{"gammas": [float("inf")]}, {"gammas": "3"}, {"objectives": "tofu"}])
def test_load_sweep_spec_rejects_malformed_grid(tmp_path, grid):
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path, **grid), "sweep.json"))


# ------------------------------------------------ typed record fields ----


def test_parse_records_convert_numbers_to_the_field_type():
    train = parse_train({"total_steps": 20.0, "warmup_steps": 2, "learning_rate": 1}, LossConfig("ce"))
    assert (train.total_steps, type(train.total_steps)) == (20, int)
    assert (train.learning_rate, type(train.learning_rate)) == (1.0, float)
    assert parse_objective({"name": "gem", "beta": None}).beta is None
    assert parse_model({"vocab": None, "context": 2}) == parse_model({"context": 2.0})
    assert parse_sampling({"seed": 10**30}).seed == 10**30


@pytest.mark.parametrize(
    "parse, data",
    [
        (parse_sampling, {"top_p": 10**400}),
        (parse_objective, {"name": "ce", "gamma": float("inf")}),
    ],
)
def test_parse_records_reject_non_finite_numbers(parse, data):
    with pytest.raises(ConfigError):
        parse(data)


def test_train_config_hash_is_pinned():
    # literals computed before the config records were declared once
    lambda_pr = parse_objective({"name": "lambda_pr", "gamma": 2.0, "beta": 0.9, "lambda": 0.5, "alpha": 0.25})
    train = parse_train(
        {"learning_rate": 0.05, "warmup_steps": 3, "total_steps": 40, "weight_decay": 0.0,
         "batch_size": 4, "seed": 11, "momentum": 0.9},
        lambda_pr,
    )
    assert config_hash(train.to_dict()) == "636735c4cf79b6e6a78c16b5eabe61f3fd861a5dd90f1be76bccb5b12d81eb17"
    tofu = parse_objective({"name": "tofu", "gamma": 1.5, "beta": 0.6})
    train = parse_train(
        {"learning_rate": 0.2, "warmup_steps": 0, "total_steps": 7, "weight_decay": 0.02,
         "batch_size": 3, "seed": 2, "momentum": 0.5},
        tofu,
    )
    assert config_hash(train.to_dict()) == "a629e37f5e0c0688d724e55d6cde1a81e4bdf2e543028167de579caddb8a57c9"


def test_seeds_collapse_repeats_and_reject_bools(tmp_path):
    payload = sweep_payload(tmp_path, seeds=[3, 0, 3, 0.0])
    assert load_sweep_spec(write_config(tmp_path, payload, "sweep.json")).seeds == (3, 0)
    for bad in ([True], [0, False], [1.5]):
        with pytest.raises(ConfigError):
            load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path, seeds=bad), "sweep.json"))


def test_load_sweep_spec_collapses_repeated_metrics(tmp_path):
    payload = sweep_payload(tmp_path, metrics=["entropy", "distinct_1", "entropy"])
    assert load_sweep_spec(write_config(tmp_path, payload, "sweep.json")).metrics == ("entropy", "distinct_1")


@pytest.mark.parametrize(
    "overrides",
    [{"metrics": ["self_bleu"], "samples_per_prompt": 1}, {"metrics": ["coverage"]}, {"metrics": "entropy"}],
)
def test_load_sweep_spec_checks_the_eval_request(tmp_path, overrides):
    # write_prompts gives a prompt without an answer, which coverage needs
    with pytest.raises(ConfigError):
        load_sweep_spec(write_config(tmp_path, sweep_payload(tmp_path, **overrides), "sweep.json"))
