"""End-to-end eval against a frozen fixture."""

import json
from pathlib import Path

from kernel_record import RECORD, kernels_note
from sftlab.config import KNOWN_METRICS
from sftlab.harness import run_eval
from sftlab.losses import LossConfig
from sftlab.model import ToyModel, Vocab
from sftlab.sampling import SamplingConfig
from sftlab.training import Corpus, CorpusExample, TrainConfig, train

GOLDEN_EVAL = Path(__file__).parent / "data" / "golden_eval"

CORPUS = Corpus([
    CorpusExample("cat ", "sat on the mat"),
    CorpusExample("cat ", "ran on a mat"),
    CorpusExample("dog ", "sat on a mat"),
    CorpusExample("dog ", "ran to the cat"),
    CorpusExample("the ", "cat sat"),
    CorpusExample("the ", "dog ran"),
    CorpusExample("a ", "cat on the mat"),
    CorpusExample("a ", "dog on a mat"),
])
PROMPTS = [
    {"id": "p0", "prompt": "cat ", "answer": "sat on the mat"},
    {"id": "p1", "prompt": "the ", "answer": "dog ran"},
    {"id": "p2", "prompt": "a ", "answer": "dog on a mat"},
]


def test_eval_matches_golden_outputs(tmp_path):
    """Bit-exact replay of a k=64 eval with every known metric.

    Catches any change to the decode loop's arithmetic or RNG use and to the
    metric values. The checkpoint is trained here from a fixed seed; the
    fixture files were written by run_eval before its decode loop and
    self-BLEU were rewritten for speed, and the rewrite must keep them.
    """
    model = ToyModel.init(Vocab.from_text(CORPUS.charset()), context=6, embed_dim=12, hidden_dim=24, seed=5)
    cfg = TrainConfig(objective=LossConfig("ce"), learning_rate=0.3, warmup_steps=4, total_steps=150,
                      batch_size=4, seed=2)
    ckpt, _ = train(model, CORPUS, cfg)
    ckpt.save(tmp_path / "checkpoint.bin")
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("".join(json.dumps(p) + "\n" for p in PROMPTS))
    out = tmp_path / "eval"
    run_eval(tmp_path / "checkpoint.bin", prompts, SamplingConfig(top_p=0.9, max_tokens=24, seed=3), out,
             samples=64, metrics=KNOWN_METRICS)
    for name in ("generations.jsonl", "metrics.csv"):
        assert (out / name).read_bytes() == (GOLDEN_EVAL / name).read_bytes(), f"{name}: {kernels_note()}"


def test_golden_failure_message_says_whether_the_kernels_match_the_record():
    recorded = json.loads(RECORD.read_text())
    assert "match" in kernels_note(recorded)
    other = kernels_note({**recorded, "openblas_core": "Prescott"})
    assert "differ" in other and "Prescott" in other and str(recorded) in other
