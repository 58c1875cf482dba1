"""Strict loading of experiment, sweep, and probe config files.

Configs are JSON trees. Unknown keys are rejected everywhere (a typo must not
silently become a default), referenced input paths must name files at load time,
and every value error surfaces as ConfigError so the CLI can map it to the
usage exit code. Relative input paths resolve against the config file's
directory; relative output paths resolve against SFTLAB_OUT_ROOT when set.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .hashing import RunInput, check_int_fields, read_jsonl, read_parsed
from .losses import LossConfig
from .metrics import AGGREGATE_IDS
from .model import Vocab
from .sampling import SamplingConfig
from .training import Corpus, TrainConfig

OUTPUT_ROOT_ENV = "SFTLAB_OUT_ROOT"

DEFAULT_EVAL_METRICS = ("self_bleu", "distinct_1", "distinct_2", "entropy")
KNOWN_METRICS = ("self_bleu", "distinct_1", "distinct_2", "entropy", "coverage")


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing value, out-of-range number,
    missing input file."""


def _check_keys(data: dict, allowed: set[str], where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _require(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return data[key]


_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number"}


def _typed(value, hint, where: str):
    """`value` checked against a field type: a string for str, a JSON number
    (never a bool) for float and int, finite, and integral for int (20.0 reads
    as 20); null only where the type is `| None`."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is str and isinstance(value, str):
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}, got {value!r}")


def _parse_record(cls, data: dict, where: str, check=None, **given):
    """Build the config record `cls` from a config-file object.

    The keys are the fields' names (or their `file_key` metadata), less the
    fields passed in `given`. An absent key keeps the field's default; a
    present one must match the field's type (see _typed). Every failure,
    the record's own __post_init__ check and `check(record)` included, is a
    ConfigError.
    """
    hints = typing.get_type_hints(cls)
    declared = {f.metadata.get("file_key", f.name): f for f in fields(cls) if f.name not in given}
    _check_keys(data, set(declared), where)
    values = dict(given)
    for key, f in declared.items():
        if key in data:
            values[f.name] = _typed(data[key], hints[f.name], f"{where}.{key}")
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {key!r} in {where}")
    try:
        record = cls(**values)
        if check is not None:
            check(record)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return record


def parse_objective(data: dict, where: str = "objective") -> LossConfig:
    # params() range-checks the hyperparameters this objective consumes
    return _parse_record(LossConfig, data, where, check=LossConfig.params)


@dataclass(frozen=True)
class ModelSpec:
    context: int = 8
    embed_dim: int = 32
    hidden_dim: int = 128
    vocab: str | None = None

    def __post_init__(self):
        check_int_fields(self, "context", "embed_dim", "hidden_dim")
        if min(self.context, self.embed_dim, self.hidden_dim) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.vocab is not None:
            Vocab(self.vocab)  # rejects repeated characters

    def chars(self, corpus: Corpus) -> str:
        """The model's vocab chars: the pinned vocab, else the corpus charset."""
        return self.vocab if self.vocab is not None else corpus.charset()


def parse_model(data: dict, where: str = "model") -> ModelSpec:
    return _parse_record(ModelSpec, data, where)


def parse_train(data: dict, objective: LossConfig, where: str = "train", **given) -> TrainConfig:
    return _parse_record(TrainConfig, data, where, objective=objective, **given)


def parse_sampling(data: dict, where: str = "sampling", **given) -> SamplingConfig:
    return _parse_record(SamplingConfig, data, where, **given)


def resolve_output_dir(raw) -> Path:
    """Relative output paths land under $SFTLAB_OUT_ROOT when it is set."""
    path = Path(raw)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _output_dir(data: dict, where: str) -> Path:
    return resolve_output_dir(_typed(_require(data, "output_dir", where), str, "output_dir"))


def _input_path(raw, base_dir: Path, where: str) -> Path:
    """An input file's path string, relative ones resolved against base_dir."""
    path = Path(_typed(raw, str, where))
    if not path.is_absolute():
        path = base_dir / path
    if not path.is_file():
        raise ConfigError(f"{where}: path {path} is not a file")
    return path


def _load_json(path) -> tuple[dict, Path]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data, path.parent


def _list_of(data: dict, key: str, default: list, kind: type) -> tuple:
    """A list of `kind` values (see _typed), repeats collapsed, first kept."""
    raw = data.get(key, default)
    if not isinstance(raw, list):
        raise ConfigError(f"{key} must be a list, got {raw!r}")
    return tuple(dict.fromkeys(_typed(v, kind, key) for v in raw))


def _parse_seeds(data, where: str) -> tuple[int, ...]:
    seeds = _list_of(data, "seeds", [0], int)
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"{where}: seeds must be a non-empty list of ints >= 0, got {list(seeds)}")
    return seeds


@dataclass(frozen=True)
class ExperimentConfig:
    """One train run: the inputs that produce its checkpoint, and where it goes.
    The run trains on `corpus.parsed`, the Corpus the loader parsed, and its
    run.json records `corpus.sha256`, the sha256 of the bytes parsed."""

    train: TrainConfig
    model: ModelSpec
    corpus: RunInput
    output_dir: Path

    def to_dict(self) -> dict:
        return {"train": self.train.to_dict(), "model": asdict(self.model)}


def load_experiment_config(path) -> ExperimentConfig:
    data, base = _load_json(path)
    # the objective key is the train config's objective field
    _check_keys(data, {"objective"} | {f.name for f in fields(ExperimentConfig)}, str(path))
    objective = parse_objective(_require(data, "objective", str(path)))
    train = parse_train(data.get("train", {}), objective)
    model = parse_model(data.get("model", {}))
    corpus = _input_path(_require(data, "corpus", str(path)), base, "corpus")
    cfg = ExperimentConfig(train, model, read_parsed(corpus, Corpus.load_jsonl), _output_dir(data, str(path)))
    if cfg.model.vocab is not None:
        check_encodable(cfg.model.vocab, {"corpus": cfg.corpus.parsed.charset()})
    return cfg


def sweep_label(objective: str, gamma: float, beta: float) -> str:
    return f"{objective}_g{gamma:g}_b{beta:g}"


def _positive_int(data: dict, key: str, default: int) -> int:
    value = _typed(data.get(key, default), int, key)
    if value < 1:
        raise ConfigError(f"{key} must be >= 1")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """A sweep. Its corpus and prompts files are each read once, at load:
    every task trains on `corpus.parsed` and evaluates on `prompts.parsed`
    (a tuple of PromptSpec), and every run.json records their sha256s."""

    objectives: tuple[str, ...]
    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    seeds: tuple[int, ...]
    train: TrainConfig  # objective field is a placeholder, replaced per cell
    model: ModelSpec
    sampling: SamplingConfig
    corpus: RunInput
    prompts: RunInput
    samples_per_prompt: int
    metrics: tuple[str, ...]
    workers: int
    output_dir: Path

    def cells(self) -> list[tuple[str, LossConfig]]:
        """(label, loss config) of every grid cell, in objective, gamma, beta order."""
        return [
            (sweep_label(*cell), LossConfig(*cell))
            for cell in itertools.product(self.objectives, self.gammas, self.betas)
        ]


def load_sweep_spec(path) -> SweepSpec:
    data, base = _load_json(path)
    _check_keys(data, {f.name for f in fields(SweepSpec)}, str(path))
    objectives = _list_of(data, "objectives", ["tofu"], str)
    gammas = _list_of(data, "gammas", [3.0], float)
    betas = _list_of(data, "betas", [0.8], float)
    if not gammas or not betas or not objectives:
        raise ConfigError("sweep grid must be non-empty")
    labelled = {}
    for cell in itertools.product(objectives, gammas, betas):
        name, gamma, beta = cell
        try:
            LossConfig(*cell).params()
        except ValueError as exc:
            raise ConfigError(f"sweep cell ({name!r}, gamma {gamma:g}, beta {beta:g}): {exc}") from None
        # each label names one run directory and one summary column
        other = labelled.setdefault(sweep_label(*cell), cell)
        if other != cell:
            raise ConfigError(
                f"sweep cells {other} and {cell} share the label {sweep_label(*cell)}; "
                "give gammas and betas that differ in their first 6 significant digits"
            )
    samples = _positive_int(data, "samples_per_prompt", 8)
    model = parse_model(data.get("model", {}))
    corpus_path = _input_path(_require(data, "corpus", str(path)), base, "corpus")
    prompts_path = _input_path(_require(data, "prompts", str(path)), base, "prompts")
    # a request no cell could evaluate fails here, before any cell trains
    prompts = read_parsed(prompts_path, load_prompts)
    metrics = validate_eval_request(_list_of(data, "metrics", list(DEFAULT_EVAL_METRICS), str), samples, prompts.parsed)
    corpus = read_parsed(corpus_path, Corpus.load_jsonl)
    texts = {"corpus": corpus.parsed.charset(), **{f"prompt {p.id!r}": p.prompt for p in prompts.parsed}}
    check_encodable(model.chars(corpus.parsed), texts)
    return SweepSpec(
        objectives=objectives,
        gammas=gammas,
        betas=betas,
        seeds=_parse_seeds(data, str(path)),
        # each task's seed replaces both seeds, so a spec may not name them
        train=parse_train(data.get("train", {}), LossConfig("ce"), seed=0),
        model=model,
        sampling=parse_sampling(data.get("sampling", {}), seed=0),
        corpus=corpus,
        prompts=prompts,
        samples_per_prompt=samples,
        metrics=metrics,
        workers=_positive_int(data, "workers", 1),
        output_dir=_output_dir(data, str(path)),
    )


@dataclass(frozen=True)
class ProbeSpec:
    """A probe run. Each corpus file is read once, at load: every run trains
    on its `parsed` Corpus, and run.json records its `sha256`."""

    pretrain_corpus: RunInput
    pretrain: TrainConfig
    sft_corpus: RunInput
    sft_base: TrainConfig
    sft_objectives: tuple[LossConfig, ...]
    model: ModelSpec
    prompt: str
    valid_tokens: tuple[str, ...]
    seeds: tuple[int, ...]
    output_dir: Path


def load_probe_spec(path) -> ProbeSpec:
    data, base = _load_json(path)
    _check_keys(data, {"pretrain", "sft", "model", "probe", "seeds", "output_dir"}, str(path))
    pre = _require(data, "pretrain", str(path))
    _check_keys(pre, {"corpus", "train", "objective"}, "pretrain")
    pre_objective = parse_objective(pre.get("objective", {"name": "ce"}), "pretrain.objective")
    sft = _require(data, "sft", str(path))
    _check_keys(sft, {"corpus", "train", "objectives"}, "sft")
    raw_objectives = _require(sft, "objectives", "sft")
    if not isinstance(raw_objectives, list) or not raw_objectives:
        raise ConfigError("sft.objectives must be a non-empty list")
    probe = _require(data, "probe", str(path))
    _check_keys(probe, {"prompt", "valid_tokens"}, "probe")
    _require(probe, "valid_tokens", "probe")
    valid_tokens = _list_of(probe, "valid_tokens", [], str)
    if not valid_tokens or any(len(t) != 1 for t in valid_tokens):
        raise ConfigError("probe.valid_tokens must be single characters")
    # both paths are checked before either file is read
    paths = (
        _input_path(_require(pre, "corpus", "pretrain"), base, "pretrain.corpus"),
        _input_path(_require(sft, "corpus", "sft"), base, "sft.corpus"),
    )
    pretrain_corpus, sft_corpus = (read_parsed(p, Corpus.load_jsonl) for p in paths)
    return ProbeSpec(
        pretrain_corpus=pretrain_corpus,
        # each seed of `seeds` replaces both train seeds, so a spec may not name them
        pretrain=parse_train(pre.get("train", {}), pre_objective, "pretrain.train", seed=0),
        sft_corpus=sft_corpus,
        sft_base=parse_train(sft.get("train", {}), LossConfig("ce"), "sft.train", seed=0),
        sft_objectives=tuple(
            parse_objective(o, f"sft.objectives[{i}]") for i, o in enumerate(raw_objectives)
        ),
        model=parse_model(data.get("model", {})),
        prompt=_typed(_require(probe, "prompt", "probe"), str, "probe.prompt"),
        valid_tokens=valid_tokens,
        seeds=_parse_seeds(data, str(path)),
        output_dir=_output_dir(data, str(path)),
    )


@dataclass(frozen=True)
class PromptSpec:
    id: str
    prompt: str
    answer: str | None = None


def load_prompts(path, data: bytes | None = None) -> tuple[PromptSpec, ...]:
    """Eval prompt file: JSONL rows of strings {"id", "prompt", optional "answer"},
    parsed from `data` when given (the bytes read from path), else from the
    file. Ids are unique and none is one of metrics.AGGREGATE_IDS."""
    prompts: dict[str, PromptSpec] = {}
    for where, row in read_jsonl(path, ("id", "prompt", "answer"), ("id", "prompt"), ConfigError, data):
        if row["id"] in prompts:
            raise ConfigError(f"{where}: duplicate prompt id {row['id']!r}")
        if row["id"] in AGGREGATE_IDS:
            raise ConfigError(f"{where}: prompt id {row['id']!r} is reserved for the aggregate rows of metrics.csv")
        prompts[row["id"]] = PromptSpec(**row)
    if not prompts:
        raise ConfigError(f"{path}: no prompts")
    return tuple(prompts.values())


def check_encodable(chars: str, texts: dict[str, str]):
    """ConfigError naming the first of `texts` ({where: text}) with a
    character outside the vocab chars, which the model cannot encode."""
    for where, text in texts.items():
        missing = sorted(set(text) - set(chars))
        if missing:
            raise ConfigError(f"{where} has characters {missing} outside the model vocab {chars!r}")


def validate_eval_request(metrics, samples: int, prompts: tuple[PromptSpec, ...]) -> tuple[str, ...]:
    """The metric names to compute, repeats collapsed (first kept). Raises
    ConfigError for an unknown name or one the samples and prompts cannot
    support."""
    metrics = tuple(dict.fromkeys(metrics))
    for m in metrics:
        if m not in KNOWN_METRICS:
            raise ConfigError(f"unknown metric {m!r}, expected one of {KNOWN_METRICS}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if "self_bleu" in metrics and samples < 2:
        raise ConfigError("self_bleu needs at least 2 samples per prompt")
    if "coverage" in metrics and any(p.answer is None for p in prompts):
        raise ConfigError("coverage requested but some prompts carry no answer key")
    return metrics
