"""Toy-model tests: vocab round trips, padding, the single-window and batch
forward passes, and the hand-written batch backward pass."""

import re
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sftlab.losses import LossConfig, Target, token_loss
from sftlab.model import (
    Gradients,
    TokenizationError,
    ToyModel,
    Vocab,
    Workspace,
    backward_batch,
    forward,
    forward_batch,
    pad_context,
)


@pytest.fixture
def vocab():
    return Vocab("abcde")


@pytest.fixture
def model(vocab):
    return ToyModel.init(vocab, context=4, embed_dim=6, hidden_dim=10, seed=0)


class TestVocab:
    def test_eos_reserved_at_zero(self, vocab):
        assert vocab.eos_id == 0
        assert vocab.size == 6
        assert vocab.encode("a") == [1]

    def test_round_trip(self, vocab):
        ids = vocab.encode("badcab")
        assert vocab.decode(ids) == "badcab"

    def test_decode_skips_eos(self, vocab):
        assert vocab.decode([0, 1, 0, 2]) == "ab"

    def test_unknown_char(self, vocab):
        with pytest.raises(TokenizationError):
            vocab.encode("abz")

    def test_decode_rejects_out_of_range(self, vocab):
        with pytest.raises(TokenizationError):
            vocab.decode([6])

    @pytest.mark.parametrize(
        "ids", [[2.7], [1, 2.0], [True], [1, np.bool_(True)], np.array([2.5, 1.0]), np.array([True, False])],
        ids=["float", "integral_float", "bool", "numpy_bool", "float_array", "bool_array"],
    )
    def test_decode_rejects_non_integer_ids(self, vocab, ids):
        # read through int(), [2.7, True] would decode to 'ba'
        with pytest.raises(TokenizationError, match="must be integers"):
            vocab.decode(ids)

    def test_decode_takes_numpy_integer_ids(self, vocab):
        assert vocab.decode(np.array([2, 0, 1], dtype=np.int32)) == vocab.decode([2, 0, 1]) == "ba"

    def test_duplicate_chars_rejected(self):
        with pytest.raises(ValueError):
            Vocab("aba")

    def test_from_text_sorts_and_dedups(self):
        v = Vocab.from_text("cab", "bad")
        assert v.chars == "abcd"


class TestPadding:
    def test_left_pad(self):
        np.testing.assert_array_equal(pad_context([3, 4], 4), [0, 0, 3, 4])

    def test_truncates_to_window(self):
        np.testing.assert_array_equal(pad_context([1, 2, 3, 4, 5], 3), [3, 4, 5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_context([], 4)


class TestForward:
    def test_zeros_model_is_uniform(self, vocab):
        m = ToyModel.zeros(vocab, context=3, embed_dim=4, hidden_dim=5)
        logits = forward(m, vocab.encode("ab"))
        np.testing.assert_array_equal(logits, np.zeros(vocab.size))

    def test_shapes_and_determinism(self, model, vocab):
        ctx = np.array([[0, 1, 2, 3], [2, 2, 0, 1]])
        logits, cache = forward_batch(model, ctx)
        assert logits.shape == (2, vocab.size)
        logits2, _ = forward_batch(model, ctx)
        np.testing.assert_array_equal(logits, logits2)

    def test_batch_rows_match_single_calls(self, model):
        ctx = np.array([[0, 1, 2, 3], [2, 2, 0, 1]])
        logits, _ = forward_batch(model, ctx)
        for i in range(2):
            np.testing.assert_allclose(forward(model, ctx[i]), logits[i], atol=0)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
    def test_forward_bits_equal_padded_batch_row(self, scale):
        # the single-window pass against the padded window's forward_batch
        # row, byte for byte, on README dims with nonzero biases
        vocab = Vocab("abcdefghijklmnopqrstuvwxyz ")
        model = ToyModel.init(vocab, context=8, embed_dim=32, hidden_dim=128, seed=3)
        rng = np.random.default_rng(int(scale * 10))
        model.w_out *= scale
        model.b_hidden[:] = rng.normal(size=model.b_hidden.shape)
        model.b_out[:] = rng.normal(size=model.b_out.shape)
        c = model.context
        for _ in range(1000):
            ids = rng.integers(0, vocab.size, int(rng.integers(1, 2 * c + 1)))
            for window in (ids.tolist(), ids, ids.astype(np.int32)):
                expected = forward_batch(model, pad_context(window, c)[None])[0][0]
                assert forward(model, window).tobytes() == expected.tobytes(), window

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("c, d, h, V", [(1, 1, 1, 2), (3, 5, 7, 11), (4, 16, 32, 28), (5, 3, 130, 29), (8, 32, 128, 28)])
    def test_forward_vector_bits_equal_batch_row_in_every_layout(self, c, d, h, V, layout):
        # the (c*d,) vector pass against the one-row batch, byte for byte,
        # with w_hidden and w_out in C order, F order or as strided views
        # (which no BLAS call takes, so both go through numpy's own loop)
        vocab = Vocab("abcdefghijklmnopqrstuvwxyz .,"[: V - 1])
        model = ToyModel.init(vocab, context=c, embed_dim=d, hidden_dim=h, seed=c + d)
        rng = np.random.default_rng(h * V)
        model.b_hidden[:] = rng.normal(size=h)
        model.b_out[:] = rng.normal(size=V)
        for name in ("w_hidden", "w_out"):
            w = getattr(model, name)
            if layout == "F":
                w = np.asfortranarray(w)
            elif layout == "strided":
                wide = np.zeros((2 * w.shape[0], 3 * w.shape[1]))
                wide[::2, ::3] = w
                w = wide[::2, ::3]
            setattr(model, name, w)
        for _ in range(100):
            window = rng.integers(0, V, int(rng.integers(1, 2 * c + 1))).tolist()
            expected = forward_batch(model, pad_context(window, c)[None])[0][0]
            logits = forward(model, window)
            assert logits.shape == (V,)
            assert logits.tobytes() == expected.tobytes(), window

    @pytest.mark.parametrize(
        "make",
        [lambda: [3, 1, 2], lambda: (3, 1, 2), lambda: np.array([3, 1, 2], dtype=np.int32), lambda: iter([3, 1, 2]),
         lambda: [5, 4, 2.5, 0, 3, 1, 2]],
        ids=["list", "tuple", "int32", "generator", "longer_than_c"],
    )
    def test_forward_takes_every_id_sequence(self, model, make):
        # only the last c ids are read, so a bad id before them is never seen
        expected = forward(model, [0, 3, 1, 2])
        assert forward(model, make()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "make, error",
        [(lambda: (3, 2.0), TokenizationError), (lambda: np.array([1, -1], dtype=np.int32), TokenizationError),
         (lambda: iter([1, 6]), TokenizationError), (lambda: iter([]), ValueError), (lambda: (), ValueError),
         (lambda: [1, 2, 3, 4, 5, 6], TokenizationError), (lambda: np.array(2), TypeError),
         (lambda: np.array([[1, 2]]), TokenizationError)],
        ids=["tuple_float", "int32_negative", "generator_out_of_range", "empty_generator", "empty_tuple",
             "longer_than_c_ends_out_of_range", "zero_dim_array", "two_dim_array"],
    )
    def test_forward_rejects_bad_windows(self, model, make, error):
        # the exact class: TokenizationError is a ValueError too
        with pytest.raises(error) as raised:
            forward(model, make())
        assert raised.type is error

    def test_out_of_range_tokens_rejected(self, model):
        with pytest.raises(TokenizationError):
            forward_batch(model, np.array([[0, 1, 2, 99]]))

    @pytest.mark.parametrize("window", [[0, 1, -1], [2, 6], [1, 6, 0, 0, 0]], ids=["negative", "vocab_size", "first_of_window"])
    def test_forward_rejects_out_of_range_ids(self, model, window):
        with pytest.raises(TokenizationError, match="out of range"):
            forward(model, window)

    def test_forward_rejects_empty_context(self, model):
        with pytest.raises(ValueError, match="at least one token"):
            forward(model, [])

    @pytest.mark.parametrize(
        "window",
        [[2.7], [1, 2.0], [True], [1, np.bool_(True)], np.array([2.5, 1.0]), np.array([True, False])],
        ids=["float", "integral_float", "bool", "numpy_bool", "float_array", "bool_array"],
    )
    def test_forward_rejects_non_integer_ids(self, model, window):
        # cast to int64, [2.7] would read as id 2 and [True] as id 1
        with pytest.raises(TokenizationError, match="must be integers"):
            forward(model, window)

    @pytest.mark.parametrize(
        "windows",
        [np.array([[0, 0, 0, 2.7]]), np.array([[0, 0, 1.0, 2.0]]), np.array([[True, False, False, True]]),
         [[0, 0, 0, 2.5]]],
        ids=["float", "integral_float", "bool", "float_list"],
    )
    def test_forward_batch_rejects_non_integer_ids(self, model, windows):
        # cast to int64, window [0, 0, 0, 2.7] would read as [0, 0, 0, 2]
        with pytest.raises(TokenizationError, match="must be integers"):
            forward_batch(model, windows)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_forward_batch_takes_every_integer_dtype(self, model, dtype):
        windows = np.array([[0, 1, 2, 3], [5, 4, 0, 1]])
        expected, _ = forward_batch(model, windows)
        logits, (contexts, _, _) = forward_batch(model, windows.astype(dtype))
        assert logits.tobytes() == expected.tobytes() and contexts.dtype == np.int64

    @pytest.mark.parametrize(
        "shape", [(2, 3), (2, 5), (1, 1, 4), (4,)], ids=["narrow", "wide", "three_d", "one_d"]
    )
    def test_forward_batch_rejects_windows_not_b_by_c(self, model, shape):
        # a (2, 3) batch on a c=4 model used to die inside matmul, and a
        # (1, 1, 4) array was read as one window
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            forward_batch(model, np.zeros(shape, dtype=np.int64))

    def test_forward_batch_of_no_windows(self, model):
        logits, cache = forward_batch(model, np.zeros((0, model.context), dtype=np.int64))
        assert logits.shape == (0, model.vocab.size)
        grads = backward_batch(model, cache, np.zeros((0, model.vocab.size)))
        for name, grad in grads.named():
            assert grad.shape == getattr(model, name).shape and not grad.any(), name

    def test_init_seed_reproducible(self, vocab):
        a = ToyModel.init(vocab, seed=5)
        b = ToyModel.init(vocab, seed=5)
        c = ToyModel.init(vocab, seed=6)
        np.testing.assert_array_equal(a.embed, b.embed)
        assert not np.array_equal(a.embed, c.embed)

    def test_copy_is_deep(self, model):
        clone = model.copy()
        clone.embed[0, 0] += 1.0
        assert model.embed[0, 0] != clone.embed[0, 0]


class TestBackward:
    def test_linear_in_dlogits(self, model):
        ctx = np.array([[0, 1, 2, 3]])
        _, cache = forward_batch(model, ctx)
        rng = np.random.default_rng(0)
        d1 = rng.normal(size=(1, model.vocab.size))
        d2 = rng.normal(size=(1, model.vocab.size))
        g1 = backward_batch(model, cache, d1)
        g2 = backward_batch(model, cache, d2)
        g12 = backward_batch(model, cache, d1 + 2.0 * d2)
        for (_, a), (_, b), (_, c) in zip(g1.named(), g2.named(), g12.named()):
            np.testing.assert_allclose(c, a + 2.0 * b, atol=1e-12)

    def test_batch_gradient_is_sum_of_rows(self, model):
        ctx = np.array([[0, 1, 2, 3], [2, 2, 0, 1]])
        _, cache = forward_batch(model, ctx)
        rng = np.random.default_rng(1)
        d = rng.normal(size=(2, model.vocab.size))
        both = backward_batch(model, cache, d)
        parts = []
        for i in range(2):
            _, ci = forward_batch(model, ctx[i : i + 1])
            parts.append(backward_batch(model, ci, d[i : i + 1]))
        for name, total in both.named():
            np.testing.assert_allclose(
                total, getattr(parts[0], name) + getattr(parts[1], name), atol=1e-12
            )

    def test_shared_token_accumulates_embedding_grad(self, model):
        # token 2 appears twice in the window; its embedding row must receive
        # both contributions (the scatter-add, not a last-write-wins assign)
        ctx = np.array([[2, 2, 0, 1]])
        _, cache = forward_batch(model, ctx)
        d = np.ones((1, model.vocab.size))
        grads = backward_batch(model, cache, d)
        assert np.abs(grads.embed[2]).sum() > 0

    def test_workspace_gives_the_fresh_arrays_bit_for_bit(self, model):
        ws = Workspace(model, 5)
        for buf in (ws.x, ws.hidden, ws.logits, ws.dhidden, ws.dpre, ws.dx, *(g for _, g in ws.grads.named())):
            buf.fill(np.nan)  # stale contents must not reach any output
        rng = np.random.default_rng(2)
        for rows in (3, 5, 2, 0):
            ctx = rng.integers(0, model.vocab.size, (rows, model.context))
            d = rng.normal(size=(rows, model.vocab.size))
            logits, cache = forward_batch(model, ctx)
            grads = backward_batch(model, cache, d)
            ws_logits, ws_cache = forward_batch(model, ctx, ws)
            ws_grads = backward_batch(model, ws_cache, d, ws)
            assert ws_logits.tobytes() == logits.tobytes()
            for name, grad in grads.named():
                assert getattr(ws_grads, name).tobytes() == grad.tobytes(), (rows, name)

    @pytest.mark.parametrize("rows", [0, 1, 363])
    @pytest.mark.parametrize("with_workspace", [False, True], ids=["fresh", "workspace"])
    def test_helper_gives_the_serial_gradients_bit_for_bit(self, rows, with_workspace):
        readme = ToyModel.init(Vocab("abcdefghijklmnopqrstuvwxyz"), context=8, embed_dim=32, hidden_dim=128, seed=3)
        rng = np.random.default_rng(rows)
        ctx = rng.integers(0, readme.vocab.size, (rows, readme.context))
        d = rng.normal(size=(rows, readme.vocab.size))
        grads = {}
        with ThreadPoolExecutor(max_workers=1) as helper:
            for side in (None, helper):
                ws = Workspace(readme, rows) if with_workspace else None
                _, cache = forward_batch(readme, ctx, ws)
                grads[side is None] = {name: g.tobytes() for name, g in backward_batch(readme, cache, d, ws, side).named()}
        assert grads[True] == grads[False]

    @pytest.mark.parametrize("failing", ["helper", "caller", None])
    def test_helper_work_ends_before_backward_returns_or_raises(self, model, monkeypatch, failing):
        # every job on the helper sleeps first, so a call that did not wait for
        # it would end while the helper still writes the gradients
        if failing == "caller":
            def boom(*args, **kwargs):
                raise RuntimeError("caller failed")

            monkeypatch.setattr(np, "bincount", boom)  # the embedding scatter, on the calling thread
        futures = []

        class SlowHelper(ThreadPoolExecutor):
            def submit(self, fn, *args):
                def slow():
                    time.sleep(0.05)
                    if failing == "helper":
                        raise RuntimeError("helper failed")
                    return fn(*args)

                futures.append(super().submit(slow))
                return futures[-1]

        ws = Workspace(model, 3)
        _, cache = forward_batch(model, np.array([[0, 1, 2, 3], [2, 2, 0, 1], [4, 3, 2, 1]]), ws)
        with SlowHelper(max_workers=1) as helper:
            if failing is None:
                backward_batch(model, cache, np.ones((3, model.vocab.size)), ws, helper)
            else:
                with pytest.raises(RuntimeError, match=f"{failing} failed"):
                    backward_batch(model, cache, np.ones((3, model.vocab.size)), ws, helper)
            assert len(futures) == 2 and all(f.done() for f in futures)
            written = {name: g.tobytes() for name, g in ws.grads.named()}
            time.sleep(0.1)
            assert {name: g.tobytes() for name, g in ws.grads.named()} == written

    def test_workspace_that_does_not_fit_is_rejected(self, model, vocab):
        ctx = np.zeros((3, model.context), dtype=np.int64)
        _, cache = forward_batch(model, ctx)
        other = ToyModel.init(vocab, context=4, embed_dim=6, hidden_dim=12)
        for ws in (Workspace(model, 2), Workspace(other, 3)):
            with pytest.raises(ValueError, match="does not fit 3 rows"):
                forward_batch(model, ctx, ws)
            with pytest.raises(ValueError, match="does not fit 3 rows"):
                backward_batch(model, cache, np.zeros((3, model.vocab.size)), ws)

    def test_untouched_embedding_rows_get_zero_grad(self, model):
        window = np.array([[0, 1, 1, 1]])  # the context [1, 1, 1], left-padded with EOS
        logits, cache = forward_batch(model, window)
        grads = backward_batch(model, cache, token_loss(logits[0], Target.one_hot(2), LossConfig("ce")).grad[None])
        # rows 2..5 never appear in the window
        np.testing.assert_array_equal(grads.embed[2:], np.zeros_like(grads.embed[2:]))
        assert np.abs(grads.embed[1]).sum() > 0  # used row
        assert np.abs(grads.embed[0]).sum() > 0  # padding row is used too


class TestGradients:
    def test_zeros_like_shapes(self, model):
        g = Gradients.zeros_like(model)
        for (name, param), (gname, grad) in zip(model.named_params(), g.named()):
            assert name == gname and param.shape == grad.shape
            assert not np.any(grad)
