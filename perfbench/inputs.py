"""Seeded input generation for the sftlab benchmark.

Everything sftlab sees in a benchmark run is written here, as files, from the
workload seed: the word corpus, the eval prompts with answer keys, one train
config per objective, the config of the checkpoint that decode samples from,
and the sweep spec (the gradcheck battery alone runs at a fixed seed). The
same (workload, seed) always writes the same bytes.

The seed changes which words, prompts and shuffles appear, never how much work
there is: response lengths come from a fixed multiset, and every
train op runs whole epochs, so each train op covers the same positions on
every seed.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sftlab.config import KNOWN_METRICS
from sftlab.losses import OBJECTIVES

PROMPTS_PER_CORPUS = 8
RESPONSES_PER_PROMPT = 8  # 64 examples: an epoch is 4 steps at B=16, 8 at B=8
LEXICON_SIZE = 160
# The README's traffic: a lowercase vocab (V=28 with space and EOS) and
# responses of a few words, here 4 to 44 characters.
LETTERS = string.ascii_lowercase
CHARS = "".join(sorted(set(LETTERS + " ")))
MIN_RESPONSE, MAX_RESPONSE = 4, 44
TRAIN_STEPS = 4  # steps per timed train op: one epoch
SWEEP_STEPS = 8  # steps per sweep cell: one epoch
SWEEP_SAMPLES = 4
# The gradcheck battery draws its own trials, and their vocab sizes set its
# cost, so it runs at one fixed seed: every run checks the same trials.
GRADCHECK_SEED = 0

# Workload name -> sweep objectives; the workloads differ in nothing else.
# `ce` ignores gamma and beta, so the `default` grid trains four bit-identical
# `ce` cells per seed; every cell of the `alias_free` grid is distinct.
SWEEP_OBJECTIVES = {
    "default": ("ce", "tofu"),
    "alias_free": ("tofu", "naive_tempered_focal"),
}


@dataclass(frozen=True)
class Size:
    ckpt_steps: int  # steps of the ce checkpoint that decode samples from
    eval_prompts: int
    eval_samples: int
    eval_max_tokens: int
    sweep_max_tokens: int
    gradcheck_trials: int
    min_rounds: int


FULL = Size(
    ckpt_steps=64,
    eval_prompts=4,
    eval_samples=64,
    eval_max_tokens=64,
    sweep_max_tokens=16,
    gradcheck_trials=10,
    min_rounds=3,
)
# The smoke test's size: every code path, a fraction of a second of work each.
TINY = Size(
    ckpt_steps=16,
    eval_prompts=2,
    eval_samples=16,
    eval_max_tokens=32,
    sweep_max_tokens=8,
    gradcheck_trials=2,
    min_rounds=1,
)


def _lexicon(rng: np.random.Generator) -> list[str]:
    words = set()
    while len(words) < LEXICON_SIZE:
        length = int(rng.integers(2, 8))
        words.add("".join(LETTERS[i] for i in rng.integers(len(LETTERS), size=length)))
    return sorted(words)


def _text(rng: np.random.Generator, lexicon: list[str], length: int) -> str:
    """Words from the lexicon cut to exactly `length` characters, no edge spaces."""
    text = ""
    while len(text) < length:
        text += ("" if not text else " ") + lexicon[int(rng.integers(len(lexicon)))]
    text = text[:length]
    if text.endswith(" "):
        text = text[:-1] + lexicon[0][0]
    return text


def _write_jsonl(path: Path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_json(path: Path, data):
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def input_files(out_dir: Path) -> dict:
    """Paths of the files write_inputs writes."""
    return {
        "corpus": out_dir / "corpus.jsonl",
        "prompts": out_dir / "prompts.jsonl",
        "train": {o: out_dir / f"train_{o}.json" for o in OBJECTIVES},
        "ckpt": out_dir / "ckpt.json",
        "eval": out_dir / "eval.json",
        "sweep": out_dir / "sweep.json",
        "gradcheck": out_dir / "gradcheck.json",
    }


def write_inputs(out_dir: Path, workload: str, size: Size, seed: int):
    """Write every input file for one (workload, seed) into out_dir. Output
    directories named in the configs are absolute paths under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    train_seed, sample_seed, sweep_seed = (int(s) for s in rng.integers(1 << 30, size=3))
    lexicon = _lexicon(rng)

    # Every prompt gets one response length from each of RESPONSES_PER_PROMPT
    # equal bands, so any subset of prompts has nearly the same length mix.
    lengths = np.rint(
        np.linspace(MIN_RESPONSE, MAX_RESPONSE, PROMPTS_PER_CORPUS * RESPONSES_PER_PROMPT)
    ).astype(int)
    prompts = [_text(rng, lexicon, 12) for _ in range(PROMPTS_PER_CORPUS)]
    corpus = [
        {"prompt": prompts[p], "response": _text(rng, lexicon, int(lengths[band * PROMPTS_PER_CORPUS + p]))}
        for p in range(PROMPTS_PER_CORPUS)
        for band in range(RESPONSES_PER_PROMPT)
    ]
    _write_jsonl(out_dir / "corpus.jsonl", corpus)
    _write_jsonl(
        out_dir / "prompts.jsonl",
        [
            {"id": f"p{i}", "prompt": prompts[i], "answer": lexicon[int(rng.integers(len(lexicon)))]}
            for i in range(size.eval_prompts)
        ],
    )

    full_model = {"context": 8, "embed_dim": 32, "hidden_dim": 128, "vocab": CHARS}
    train = {"total_steps": TRAIN_STEPS, "warmup_steps": 1, "learning_rate": 0.1, "batch_size": 16, "seed": train_seed}
    for objective in OBJECTIVES:
        _write_json(
            out_dir / f"train_{objective}.json",
            {
                "objective": {"name": objective},
                "model": full_model,
                "train": train,
                "corpus": "corpus.jsonl",
                "output_dir": str(out_dir / "runs" / objective),
            },
        )
    _write_json(
        out_dir / "ckpt.json",
        {
            "objective": {"name": "ce"},
            "model": full_model,
            # a high rate, so that 64 steps bring every seed's checkpoint close to
            # the corpus's word lengths, which set the cost of scoring its samples
            "train": {**train, "total_steps": size.ckpt_steps, "warmup_steps": 8, "learning_rate": 0.3},
            "corpus": "corpus.jsonl",
            "output_dir": str(out_dir / "ckpt"),
        },
    )
    _write_json(
        out_dir / "eval.json",
        {
            "sampling": {"top_p": 0.9, "temperature": 1.0, "max_tokens": size.eval_max_tokens, "seed": sample_seed},
            "samples": size.eval_samples,
            "metrics": list(KNOWN_METRICS),
        },
    )
    _write_json(
        out_dir / "sweep.json",
        {
            "objectives": list(SWEEP_OBJECTIVES[workload]),
            "gammas": [1.0, 3.0],
            "betas": [0.7, 0.9],
            "seeds": [sweep_seed, sweep_seed + 1],
            "model": {"context": 4, "embed_dim": 16, "hidden_dim": 32, "vocab": CHARS},
            "train": {"total_steps": SWEEP_STEPS, "warmup_steps": 2, "learning_rate": 0.1, "batch_size": 8},
            "sampling": {"top_p": 0.9, "temperature": 1.0, "max_tokens": size.sweep_max_tokens},
            "corpus": "corpus.jsonl",
            "prompts": "prompts.jsonl",
            "samples_per_prompt": SWEEP_SAMPLES,
            "metrics": ["self_bleu", "distinct_1", "entropy", "coverage"],
            "workers": 2,
            "output_dir": str(out_dir / "sweep"),
        },
    )
    _write_json(out_dir / "gradcheck.json", {"trials": size.gradcheck_trials, "seed": GRADCHECK_SEED})
