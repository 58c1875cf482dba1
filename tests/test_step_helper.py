"""The training step's helper thread: the forward pass's split hidden layer,
the backward pass's helper-built scatter slots, errors and numpy error state
across the two threads, all checked bit for bit against one thread alone."""

import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from kernel_record import kernels_note
from sftlab import model as model_module, training
from sftlab.model import SPLIT_MIN_ROWS, ToyModel, Vocab, Workspace, backward_batch, forward_batch
from sftlab.training import Corpus, CorpusExample, TrainConfig, train
from sftlab.losses import LossConfig

DIMS = {"readme": (8, 32, 128), "c8_d16_h64": (8, 16, 64)}


def dims_model(dims, seed=3) -> ToyModel:
    context, embed_dim, hidden_dim = dims
    return ToyModel.init(Vocab("abcdefghijklmnopqrstuvwxyz"), context, embed_dim, hidden_dim, seed=seed)


class Counted(ThreadPoolExecutor):
    """A one-worker helper that counts the jobs submitted to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.jobs = 0

    def submit(self, fn, *args, **kwargs):
        self.jobs += 1
        return super().submit(fn, *args, **kwargs)


def cache_bytes(logits, cache) -> tuple:
    contexts, x, hidden = cache
    return logits.tobytes(), contexts.tobytes(), x.tobytes(), hidden.tobytes()


@pytest.mark.parametrize("dims", DIMS.values(), ids=DIMS.keys())
def test_forward_batch_with_a_helper_is_bit_equal_at_every_batch_size(dims):
    # every B from 0 to 720: below SPLIT_MIN_ROWS nothing goes to the helper,
    # from it on the helper computes rows [16 * (B // 32):]; on the recorded
    # kernels both equal the layer formula applied to the whole batch at once
    m = dims_model(dims)
    contexts = np.random.default_rng(0).integers(0, m.vocab.size, (720, m.context))
    serial_ws, split_ws = Workspace(m, 720), Workspace(m, 720)
    with Counted() as helper:
        for rows in range(721):
            jobs = helper.jobs
            serial = cache_bytes(*forward_batch(m, contexts[:rows], serial_ws))
            split = cache_bytes(*forward_batch(m, contexts[:rows], split_ws, helper))
            assert split == serial, rows
            assert helper.jobs - jobs == (rows >= SPLIT_MIN_ROWS), rows
            x = m.embed[contexts[:rows]].reshape(rows, m.w_hidden.shape[0])
            hidden = np.tanh(x @ m.w_hidden + m.b_hidden)
            whole = (hidden @ m.w_out + m.b_out).tobytes(), contexts[:rows].tobytes(), x.tobytes(), hidden.tobytes()
            assert serial == whole, (rows, kernels_note())


@pytest.mark.parametrize("dims", DIMS.values(), ids=DIMS.keys())
@pytest.mark.parametrize("rows", [0, 63, 64, 363, 720])
def test_backward_batch_with_helper_built_slots_is_bit_equal(dims, rows):
    m = dims_model(dims)
    rng = np.random.default_rng(rows)
    contexts = rng.integers(0, m.vocab.size, (rows, m.context))
    dlogits = rng.normal(size=(rows, m.vocab.size))
    got = {}
    with ThreadPoolExecutor(max_workers=1) as helper:
        for side in (None, helper):
            ws = Workspace(m, rows)
            ws.slots.fill(-1)  # stale slots would fail bincount or move terms
            _, cache = forward_batch(m, contexts, ws, side)
            grads = backward_batch(m, cache, dlogits, ws, side)
            got[side is None] = ({name: g.tobytes() for name, g in grads.named()}, ws.slots.tobytes())
    assert got[False] == got[True]


def test_an_error_in_the_helpers_half_reaches_the_caller_after_the_helper_ends(monkeypatch):
    # the helper's half sleeps and then fails: forward_batch must raise its
    # error, and only once the helper's job has ended
    m = dims_model(DIMS["readme"])
    real = model_module._embedded_hidden
    helper_jobs = []

    def failing_off_the_caller(model, contexts, x, hidden):
        if threading.current_thread() is threading.main_thread():
            return real(model, contexts, x, hidden)
        helper_jobs.append("started")
        time.sleep(0.05)
        helper_jobs.append("ended")
        raise RuntimeError("helper half failed")

    monkeypatch.setattr(model_module, "_embedded_hidden", failing_off_the_caller)
    contexts = np.zeros((100, m.context), dtype=np.int64)
    with ThreadPoolExecutor(max_workers=1) as helper:
        with pytest.raises(RuntimeError, match="helper half failed"):
            forward_batch(m, contexts, None, helper)
        assert helper_jobs == ["started", "ended"]


def test_train_whose_helper_fails_raises_and_leaves_no_thread_behind(monkeypatch):
    real = model_module._embedded_hidden

    def failing_off_the_caller(model, contexts, x, hidden):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper half failed")
        return real(model, contexts, x, hidden)

    monkeypatch.setattr(model_module, "_embedded_hidden", failing_off_the_caller)
    monkeypatch.setattr(training, "HELPER_MIN_WORK", 0)  # a helper on every step
    rng = np.random.default_rng(0)
    corpus = Corpus([CorpusExample("ab", "".join(rng.choice(list("abcd"), 30))) for _ in range(8)])
    m = ToyModel.init(Vocab("abcd"), context=4, embed_dim=8, hidden_dim=16, seed=0)
    cfg = TrainConfig(LossConfig("ce"), total_steps=2, warmup_steps=0, batch_size=4)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="helper half failed"):
        train(m, corpus, cfg)
    assert threading.active_count() == before


def test_backward_helper_jobs_run_under_the_callers_numpy_error_state():
    # np.errstate is per thread: the helper's weight gradients must ignore an
    # overflow the caller ignores, and give the inf one thread gives
    m = dims_model(DIMS["readme"])
    rows = 363
    contexts = np.random.default_rng(1).integers(0, m.vocab.size, (rows, m.context))
    dlogits = np.full((rows, m.vocab.size), 1e308)
    got = {}
    with ThreadPoolExecutor(max_workers=1) as helper, warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in (None, helper):
            _, cache = forward_batch(m, contexts)
            with np.errstate(all="ignore"):
                grads = backward_batch(m, cache, dlogits, None, side)
            got[side is None] = {name: g.tobytes() for name, g in grads.named()}
    assert got[False] == got[True]
    assert np.isinf(grads.w_out).any()


def test_forward_helper_half_runs_under_the_callers_numpy_error_state():
    m = dims_model(DIMS["readme"])
    m.w_hidden *= 1e308
    contexts = np.random.default_rng(1).integers(0, m.vocab.size, (363, m.context))
    with np.errstate(all="ignore"):
        assert np.isinf(m.embed[contexts].reshape(363, -1) @ m.w_hidden).any()  # x @ w_hidden overflows
    got = {}
    with ThreadPoolExecutor(max_workers=1) as helper, warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in (None, helper):
            with np.errstate(all="ignore"):
                got[side is None] = cache_bytes(*forward_batch(m, contexts, None, side))
    assert got[False] == got[True]
