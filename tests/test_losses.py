"""Loss zoo tests: frozen hand-derived values, algebraic reductions, error
paths, the batched kernel pinned to the scalar oracle, and the soft-target
loss as the expectation of the one-hot rows."""

import json
from dataclasses import replace

import numpy as np
import pytest

from sftlab.gradcheck import FD_SPEC, fd_gradient, frozen_value_fn, rel_error
from sftlab.losses import (
    OBJECTIVES,
    DropThresholdError,
    FocalConfig,
    LossConfig,
    PrConfig,
    Target,
    TofuConfig,
    batch_loss,
    ce,
    drop_threshold,
    expected_loss,
    focal,
    focal_scaling,
    gem,
    lambda_pr,
    naive_tempered_focal,
    pr_weight,
    scaled_ce,
    token_loss,
    tofu,
)

UNIFORM3 = np.zeros(3)
Z_04 = np.array([0.0, np.log(4.0)])  # p = [0.2, 0.8]


class TestTarget:
    @pytest.mark.parametrize("build", [Target, Target.one_hot], ids=["constructor", "one_hot"])
    def test_takes_a_non_negative_integer(self, build):
        assert build(np.int64(2)).index == 2 and type(build(np.int64(2)).index) is int
        for bad in (-1, 1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="target index must be"):
                build(bad)

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_oracle_range_checks_the_index(self, name):
        with pytest.raises(ValueError, match="target index 3 out of range for vocab 3"):
            token_loss(UNIFORM3, Target.one_hot(3), LossConfig(name))


class TestCrossEntropy:
    def test_uniform_value_and_gradient(self):
        res = ce(UNIFORM3, Target.one_hot(0))
        assert abs(res.value - np.log(3.0)) < 1e-15
        np.testing.assert_allclose(res.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_hand_case(self):
        res = ce(Z_04, Target.one_hot(1))
        assert abs(res.value + np.log(0.8)) < 1e-12
        np.testing.assert_allclose(res.grad, [0.2, -0.2], atol=1e-12)

    def test_soft_target(self):
        q = np.array([0.25, 0.75])
        res = expected_loss(Z_04, q, LossConfig("ce"))
        l = np.log([0.2, 0.8])
        assert abs(res.value + np.dot(q, l)) < 1e-12
        np.testing.assert_allclose(res.grad, np.array([0.2, 0.8]) - q, atol=1e-12)


class TestScaledCe:
    def test_hand_case_seventeenths(self):
        res = scaled_ce(Z_04, Target.one_hot(1), 0.5)
        np.testing.assert_allclose(res.grad, [1 / 17, -1 / 17], atol=1e-12)
        assert abs(res.value - (-0.5 * np.log(16.0 / 17.0))) < 1e-12

    def test_beta_one_reduces_to_ce(self):
        base = ce(Z_04, Target.one_hot(0))
        res = scaled_ce(Z_04, Target.one_hot(0), 1.0)
        assert abs(res.value - base.value) < 1e-12
        np.testing.assert_allclose(res.grad, base.grad, atol=1e-12)

    def test_uniform_fixed_point_any_beta(self):
        for beta in (0.5, 0.7, 1.0):
            res = scaled_ce(UNIFORM3, Target.one_hot(0), beta)
            np.testing.assert_allclose(res.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)


class TestGem:
    def test_gradient_equals_scaled_ce(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(0, 2.0, 5)
            k = int(rng.integers(5))
            beta = float(rng.uniform(0.3, 1.0))
            np.testing.assert_allclose(
                gem(z, Target.one_hot(k), beta).grad,
                scaled_ce(z, Target.one_hot(k), beta).grad,
                atol=1e-12,
            )

    def test_uniform_fixed_point(self):
        res = gem(UNIFORM3, Target.one_hot(0), 0.7)
        np.testing.assert_allclose(res.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_beta_one_value_is_ce_value(self):
        # at beta=1 the extra term is sum p*l = -H, a constant offset from CE
        res = gem(Z_04, Target.one_hot(1), 1.0)
        l = np.log([0.2, 0.8])
        expected = -l[1] + float(np.dot([0.2, 0.8], l))
        assert abs(res.value - expected) < 1e-12

    def test_soft_target_supported(self):
        q = np.array([0.4, 0.6])
        res = expected_loss(Z_04, q, LossConfig("gem", beta=0.7))
        expected = expected_loss(Z_04, q, LossConfig("scaled_ce", beta=0.7)).grad
        np.testing.assert_allclose(res.grad, expected, atol=1e-12)


class TestFocalScaling:
    def test_endpoints(self):
        for gamma in (0.0, 1.0, 2.0, 3.0, 5.0):
            assert focal_scaling(0.0, gamma) == 1.0
        for gamma in (1.0, 2.0, 5.0):
            assert focal_scaling(1.0, gamma) == 0.0
        grid = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(focal_scaling(grid, 0.0), np.ones(11))

    def test_hand_values(self):
        expected_third = (2 / 3) ** 3 + (4 / 9) * np.log(3.0)
        assert abs(focal_scaling(1 / 3, 3.0) - expected_third) < 1e-12
        assert abs(focal_scaling(0.5, 1.0) - (0.5 + 0.5 * np.log(2.0))) < 1e-12

    def test_interior_maximum_for_gamma_ge_1(self):
        p = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        for gamma in (1.0, 2.0, 3.0, 5.0):
            g = focal_scaling(p, gamma)
            k = int(np.argmax(g))
            assert 0 < k < p.size - 1
            assert g[k] > 1.0  # rises above the CE weighting before decaying

    def test_rejects_negative_gamma_and_bad_p(self):
        with pytest.raises(ValueError):
            focal_scaling(0.5, -1.0)
        with pytest.raises(ValueError):
            focal_scaling(1.5, 2.0)

    @pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan], ids=["inf", "minus_inf", "nan"])
    def test_rejects_non_finite_gamma(self, gamma):
        # gamma = inf once gave focal the value 0.0 and an all-NaN gradient
        for call in (lambda: focal_scaling(0.5, gamma), lambda: FocalConfig(gamma), lambda: TofuConfig(gamma)):
            with pytest.raises(ValueError, match="finite"):
                call()
        for name in ("focal", "tofu", "naive_tempered_focal"):
            with pytest.raises(ValueError, match="finite"):
                token_loss(np.array([0.3, -0.2, 0.1]), Target.one_hot(1), LossConfig(name, gamma=gamma))


class TestFocal:
    def test_gamma_zero_is_ce(self):
        base = ce(Z_04, Target.one_hot(1))
        res = focal(Z_04, Target.one_hot(1), FocalConfig(0.0))
        assert abs(res.value - base.value) < 1e-12
        np.testing.assert_allclose(res.grad, base.grad, atol=1e-12)

    def test_uniform_hand_case(self):
        res = focal(UNIFORM3, Target.one_hot(0), FocalConfig(3.0))
        g = focal_scaling(1 / 3, 3.0)
        np.testing.assert_allclose(res.grad, g * np.array([-2 / 3, 1 / 3, 1 / 3]), atol=1e-12)

    def test_confident_target_releases(self):
        z = np.array([0.0, 40.0])
        res = focal(z, Target.one_hot(1), FocalConfig(2.0))
        assert abs(res.value) < 1e-12
        np.testing.assert_allclose(res.grad, [0.0, 0.0], atol=1e-12)

    def test_soft_target_not_proportional_to_ce(self):
        z = np.array([0.5, -1.0, 1.5])
        q = np.array([0.5, 0.3, 0.2])
        fg = expected_loss(z, q, LossConfig("focal", gamma=3.0)).grad
        cg = expected_loss(z, q, LossConfig("ce")).grad
        ratios = fg / cg
        assert ratios.max() - ratios.min() > 1e-3

    def test_soft_target_closed_form(self):
        z = np.array([0.5, -1.0, 1.5])
        q = np.array([0.5, 0.3, 0.2])
        l = np.log(np.exp(z) / np.exp(z).sum())
        p = np.exp(l)
        gvec = focal_scaling(p, 3.0)
        expected = p * float(np.dot(q, gvec)) - q * gvec
        np.testing.assert_allclose(
            expected_loss(z, q, LossConfig("focal", gamma=3.0)).grad, expected, atol=1e-12
        )


class TestLambdaPr:
    def test_drop_threshold_identity_config(self):
        assert abs(drop_threshold(PrConfig(1.0, 0.5, 1, 1)) - 1.0) < 1e-12

    def test_drop_threshold_in_unit_interval(self):
        delta = drop_threshold(PrConfig(0.5, 0.5, 1, 2))
        r = 0.5**0.5
        assert abs(delta - 0.5 * r / (1 - 0.5 * r)) < 1e-12
        assert 0.0 < delta <= 1.0

    def test_drop_threshold_rejects_alpha_zero(self):
        # lam < 1 drives delta to exactly 0; lam = 1 makes it 0/0 (reported inf)
        with pytest.raises(DropThresholdError) as err:
            PrConfig(0.5, 0.0, 1, 1)
        assert err.value.delta == 0.0
        with pytest.raises(DropThresholdError):
            PrConfig(1.0, 0.0, 1, 1)

    def test_uniform_hand_case(self):
        res = lambda_pr(UNIFORM3, Target.one_hot(0), PrConfig(1.0, 0.5, 1, 1))
        np.testing.assert_allclose(res.grad, 0.5 * np.array([-2 / 3, 1 / 3, 1 / 3]), atol=1e-12)
        assert abs(res.value - 0.5 * np.log(3.0)) < 1e-12

    def test_alpha_one_weight_is_p_hat(self):
        res = lambda_pr(Z_04, Target.one_hot(1), PrConfig(1.0, 1.0, 1, 1))
        np.testing.assert_allclose(res.grad, 0.8 * np.array([0.2, -0.2]), atol=1e-12)

    def test_dropped_token_contributes_nothing(self):
        # lam=0.5, alpha=0.25, L=1: delta = 0.125/0.625 = 0.2 < 0.8
        res = lambda_pr(Z_04, Target.one_hot(1), PrConfig(0.5, 0.25, 1, 1))
        assert res.value == 0.0
        np.testing.assert_array_equal(res.grad, [0.0, 0.0])

    def test_position_discount(self):
        w1 = pr_weight(0.1, PrConfig(0.5, 0.5, 1, 4))
        w4 = pr_weight(0.1, PrConfig(0.5, 0.5, 4, 4))
        assert w4 == pytest.approx(w1 * 0.5 ** (3 / 4), rel=1e-12)

    @pytest.mark.parametrize("position, length", [(1.5, 2), (1, 2.0), (True, 1)])
    def test_rejects_non_integer_position_and_length(self, position, length):
        with pytest.raises(ValueError, match="integers"):
            PrConfig(0.5, 0.5, position, length)


class TestTofu:
    def test_hand_case_factor_on_raw_probability(self):
        res = tofu(Z_04, Target.one_hot(1), TofuConfig(3.0, 0.5))
        g = focal_scaling(0.8, 3.0)
        np.testing.assert_allclose(res.grad, g * np.array([1 / 17, -1 / 17]), atol=1e-12)

    def test_gamma_zero_beta_one_is_ce(self):
        base = ce(Z_04, Target.one_hot(0))
        res = tofu(Z_04, Target.one_hot(0), TofuConfig(0.0, 1.0))
        assert abs(res.value - base.value) < 1e-12
        np.testing.assert_allclose(res.grad, base.grad, atol=1e-12)

    def test_gamma_zero_any_beta_matches_gem_gradient(self):
        res = tofu(UNIFORM3, Target.one_hot(0), TofuConfig(0.0, 0.6))
        np.testing.assert_allclose(res.grad, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_beta_one_matches_focal(self):
        res = tofu(Z_04, Target.one_hot(1), TofuConfig(2.0, 1.0))
        expected = focal(Z_04, Target.one_hot(1), FocalConfig(2.0))
        np.testing.assert_allclose(res.grad, expected.grad, atol=1e-12)


class TestNaiveTemperedFocal:
    def test_beta_one_matches_focal(self):
        res = naive_tempered_focal(Z_04, Target.one_hot(1), TofuConfig(2.0, 1.0))
        expected = focal(Z_04, Target.one_hot(1), FocalConfig(2.0))
        assert abs(res.value - expected.value) < 1e-12
        np.testing.assert_allclose(res.grad, expected.grad, atol=1e-12)

    def test_uniform_is_temper_invariant(self):
        res = naive_tempered_focal(UNIFORM3, Target.one_hot(2), TofuConfig(3.0, 0.5))
        g = focal_scaling(1 / 3, 3.0)
        np.testing.assert_allclose(res.grad, g * np.array([1 / 3, 1 / 3, -2 / 3]), atol=1e-12)

    def test_factor_saturates_earlier_than_tofu(self):
        # p_hat = 0.8 tempers to 16/17; the naive factor g(16/17, 3) collapses
        # far below tofu's g(0.8, 3), which is the over-amplification pitfall
        # run in reverse: the naive variant stops pushing too early.
        naive_factor = focal_scaling(16 / 17, 3.0)
        tofu_factor = focal_scaling(0.8, 3.0)
        assert naive_factor < tofu_factor
        res_naive = naive_tempered_focal(Z_04, Target.one_hot(1), TofuConfig(3.0, 0.5))
        res_tofu = tofu(Z_04, Target.one_hot(1), TofuConfig(3.0, 0.5))
        np.testing.assert_allclose(res_naive.grad, naive_factor * np.array([1 / 17, -1 / 17]), atol=1e-12)
        assert np.abs(res_naive.grad).max() < np.abs(res_tofu.grad).max()


class TestGradientStructure:
    def test_gradients_sum_to_zero_every_objective(self):
        rng = np.random.default_rng(11)
        cfgs = [
            LossConfig("ce"),
            LossConfig("scaled_ce", beta=0.7),
            LossConfig("gem", beta=0.7),
            LossConfig("focal", gamma=2.0),
            LossConfig("lambda_pr", lam=0.8, alpha=0.5),
            LossConfig("tofu", gamma=3.0, beta=0.8),
            LossConfig("naive_tempered_focal", gamma=3.0, beta=0.8),
        ]
        for cfg in cfgs:
            for _ in range(20):
                z = rng.normal(0, 3.0, 6)
                k = int(rng.integers(6))
                grad = token_loss(z, Target.one_hot(k), cfg).grad
                assert abs(grad.sum()) < 1e-9

    def test_negative_gradient_raises_target_logit(self):
        rng = np.random.default_rng(13)
        for name in ("ce", "scaled_ce", "gem", "focal", "tofu"):
            cfg = LossConfig(name, gamma=2.0, beta=0.8)
            z = rng.normal(0, 1.0, 4)
            k = int(rng.integers(4))
            grad = token_loss(z, Target.one_hot(k), cfg).grad
            assert -grad[k] > 0.0


class TestLossConfig:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            LossConfig("hinge")

    def test_beta_defaults(self):
        assert LossConfig("gem").resolved_beta() == 0.7
        assert LossConfig("tofu").resolved_beta() == 0.8
        assert LossConfig("scaled_ce").resolved_beta() == 0.8
        assert LossConfig("naive_tempered_focal").resolved_beta() == 0.8
        assert LossConfig("ce").resolved_beta() == 1.0
        assert LossConfig("gem", beta=0.9).resolved_beta() == 0.9

    def test_rejects_out_of_range_beta(self):
        with pytest.raises(ValueError):
            LossConfig("gem", beta=1.5)

    def test_params_checks_only_consumed_hyperparameters(self):
        assert LossConfig("ce", gamma=-1.0, lam=0.0).params() is None
        assert LossConfig("gem", gamma=-1.0, alpha=0.0).params() == 0.7
        assert LossConfig("lambda_pr", gamma=-1.0).params() == PrConfig(1.0, 0.5, 1, 1)
        assert LossConfig("lambda_pr", lam=0.5).params(3, 4) == PrConfig(0.5, 0.5, 3, 4)
        for cfg in (LossConfig("focal", gamma=-1.0), LossConfig("tofu", gamma=-1.0),
                    LossConfig("lambda_pr", alpha=0.0), LossConfig("lambda_pr", lam=1.5)):
            with pytest.raises(ValueError):
                cfg.params()


@pytest.mark.parametrize("name", OBJECTIVES)
def test_scalar_oracle_rejects_rows_naming_their_shape(name):
    # batch_loss takes (N, V) rows; the scalar oracle takes one vector
    with pytest.raises(ValueError, match=r"\(3, 4\)"):
        token_loss(np.zeros((3, 4)), Target.one_hot(0), LossConfig(name))


def test_key_is_json_and_resolves_the_default_beta():
    assert LossConfig("tofu").key() == LossConfig("tofu", beta=0.8).key()
    assert LossConfig("tofu", gamma=1.0).key() != LossConfig("tofu", gamma=3.0).key()
    assert LossConfig("ce", gamma=-1.0, beta=0.7, lam=0.0).key() == LossConfig("ce").key()
    key = LossConfig("lambda_pr", lam=0.5).key()
    assert json.loads(json.dumps(key)) == key


# The hyperparameters each objective ignores (the complement of the README's
# loss-zoo column), and values to vary them to.
UNCONSUMED = {
    "ce": {"gamma", "beta", "lam", "alpha"},
    "scaled_ce": {"gamma", "lam", "alpha"},
    "gem": {"gamma", "lam", "alpha"},
    "focal": {"beta", "lam", "alpha"},
    "lambda_pr": {"gamma", "beta"},
    "tofu": {"lam", "alpha"},
    "naive_tempered_focal": {"lam", "alpha"},
}
VARIED = {"gamma": (0.5, 2.0), "beta": (0.6, 1.0), "lam": (0.5, 0.9), "alpha": (0.3, 1.0)}


@pytest.mark.parametrize("name", OBJECTIVES)
def test_batch_loss_ignores_hyperparameters_outside_key(name):
    """A sweep trains one cell per distinct key(), so varying a hyperparameter
    that key() leaves out must not change batch_loss by a bit."""
    rows = random_rows(np.random.default_rng(5), 16, 7, 3.0)
    base = LossConfig(name)
    values, grads = batch_loss(*rows, base)
    for field, alternatives in VARIED.items():
        for value in alternatives:
            cfg = replace(base, **{field: value})
            assert (cfg.key() == base.key()) == (field in UNCONSUMED[name]), cfg
            if cfg.key() == base.key():
                other_values, other_grads = batch_loss(*rows, cfg)
                assert other_values.tobytes() == values.tobytes(), cfg
                assert other_grads.tobytes() == grads.tobytes(), cfg


# (gamma, beta) and (lam, alpha) grids for the kernel test. lam=0.3,
# alpha=0.2 puts the drop threshold near 0.08 for short responses; lam=0.65
# gives position discounts where numpy's pow and Python's round differently.
GAMMAS = (0.0, 0.5, 1.0, 3.0)
BETAS = (0.5, 0.7, 0.9, 1.0)
PR_PAIRS = ((1.0, 0.5), (0.5, 0.5), (0.5, 0.25), (0.3, 0.2), (0.65, 0.5))


def kernel_configs(name):
    if name == "lambda_pr":
        return [LossConfig(name, lam=lam, alpha=alpha) for lam, alpha in PR_PAIRS]
    gammas = GAMMAS if name in ("focal", "tofu", "naive_tempered_focal") else (3.0,)
    betas = BETAS if name in ("scaled_ce", "gem", "tofu", "naive_tempered_focal") else (None,)
    return [LossConfig(name, gamma=g, beta=b) for g in gammas for b in betas]


def random_rows(rng, n, vocab, scale):
    """Logits at the given scale, targets half on the argmax (so p_hat can
    saturate to 1), and 1-based positions within response lengths up to 44."""
    z = rng.normal(0.0, scale, (n, vocab))
    targets = rng.integers(vocab, size=n)
    targets[::2] = z[::2].argmax(axis=1)
    lengths = rng.integers(1, 45, size=n)
    positions = np.array([rng.integers(1, m + 1) for m in lengths])
    return z, targets, positions, lengths


def oracle_rows(z, targets, positions, lengths, cfg):
    return [
        token_loss(z[i], Target.one_hot(int(targets[i])), cfg, position=int(positions[i]), length=int(lengths[i]))
        for i in range(len(targets))
    ]


def oracle_error(z, targets, positions, lengths, cfg):
    try:
        oracle_rows(z, targets, positions, lengths, cfg)
    except ValueError as exc:
        return type(exc)
    return None


class TestBatchLoss:
    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_rows_match_token_loss_bitwise(self, name):
        rng = np.random.default_rng(17)
        dropped = 0
        for cfg in kernel_configs(name):
            for vocab in (2, 3, 7, 28, 64):
                for scale in (0.1, 1.0, 30.0, 200.0):  # 200 drives entries to LOG_FLOOR
                    rows = random_rows(rng, 8, vocab, scale)
                    values, grads = batch_loss(*rows, cfg)
                    assert values.shape == (8,) and grads.shape == (8, vocab)
                    for i, res in enumerate(oracle_rows(*rows, cfg)):
                        assert float(values[i]).hex() == float(res.value).hex(), (cfg, vocab, scale, i)
                        assert grads[i].tobytes() == res.grad.tobytes(), (cfg, vocab, scale, i)
                    dropped += int(np.sum(~grads.any(axis=1)))
        if name == "lambda_pr":
            assert dropped > 0  # the grid reaches rows over the drop threshold

    @pytest.mark.parametrize(
        "cfg, edit",
        [
            (LossConfig(name), "nonfinite") for name in OBJECTIVES
        ] + [
            (LossConfig(name), edit) for name in ("ce", "tofu", "lambda_pr") for edit in ("target_high", "target_low")
        ] + [
            (LossConfig(name, gamma=-1.0), None) for name in ("focal", "tofu", "naive_tempered_focal")
        ] + [
            (LossConfig("lambda_pr"), "position_high"),
            (LossConfig("lambda_pr"), "position_zero"),
            (LossConfig("lambda_pr", lam=0.5, alpha=0.0), None),
            (LossConfig("lambda_pr", lam=1.0, alpha=0.0), None),
            (LossConfig("lambda_pr", lam=4.0, alpha=0.5), None),
            (LossConfig("lambda_pr", lam=0.0), None),
            (LossConfig("lambda_pr", alpha=1.5), None),
        ],
    )
    def test_errors_match_token_loss(self, cfg, edit):
        z, targets, positions, lengths = random_rows(np.random.default_rng(5), 6, 5, 1.0)
        lengths[:] = 1
        positions[:] = 1
        if edit == "nonfinite":
            z[3, 2] = np.inf
        elif edit == "target_high":
            targets[4] = 5
        elif edit == "target_low":
            targets[4] = -1
        elif edit == "position_high":
            positions[2] = 2
        elif edit == "position_zero":
            positions[2] = 0
        expected = oracle_error(z, targets, positions, lengths, cfg)
        assert expected is not None
        with pytest.raises(ValueError) as err:
            batch_loss(z, targets, positions, lengths, cfg)
        assert type(err.value) is expected

    def test_rejects_mismatched_shapes(self):
        z = np.zeros((3, 4))
        one = np.ones(3, dtype=np.int64)
        with pytest.raises(ValueError):
            batch_loss(z[0], one, one, one, LossConfig("ce"))
        with pytest.raises(ValueError):
            batch_loss(np.zeros((3, 1)), one, one, one, LossConfig("ce"))
        with pytest.raises(ValueError):
            batch_loss(z, one[:2], one, one, LossConfig("ce"))

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_zero_rows_give_empty_values_and_grads(self, name):
        none = np.zeros(0, dtype=np.int64)
        for columns in ((none, none, none), ([], [], [])):
            values, grads = batch_loss(np.zeros((0, 5)), *columns, LossConfig(name))
            assert values.shape == (0,) and grads.shape == (0, 5)

    @pytest.mark.parametrize("name", OBJECTIVES)
    @pytest.mark.parametrize(
        "column, bad",
        [(0, 1.7), (0, 1.0), (0, True), (1, 1.5), (1, 1.0), (1, np.bool_(True)), (2, 2.0), (2, True)],
        ids=["target_float", "target_integral_float", "target_bool", "position_float",
             "position_integral_float", "position_bool", "length_integral_float", "length_bool"],
    )
    def test_non_integer_targets_positions_and_lengths_rejected(self, name, column, bad):
        # cast to int64, target 1.7 would read as 1 and True as 1
        columns = [[1], [1], [2]]
        columns[column] = [bad]
        z = np.array([[0.3, -1.2, 0.5]])
        with pytest.raises(ValueError, match="integer") as kernel_error:
            batch_loss(z, *columns, LossConfig(name))
        with pytest.raises(ValueError, match="integer") as oracle_error:
            target, position, length = (c[0] for c in columns)
            token_loss(z[0], Target.one_hot(target), LossConfig(name), position=position, length=length)
        assert type(kernel_error.value) is type(oracle_error.value)


def log_probs(z, beta=1.0):
    """log softmax(z / beta), written out here for the closed forms."""
    s = z / beta - (z / beta).max()
    return s - np.log(np.exp(s).sum())


def closed_form(cfg, z, q):
    """The soft-target value and gradient of ce, scaled_ce, gem and focal,
    with p = softmax(z), p_beta = softmax(z / beta), g = focal_scaling(p)."""
    l, beta = log_probs(z), cfg.resolved_beta()
    lb, p = log_probs(z, beta), np.exp(l)
    if cfg.objective == "ce":
        return -np.dot(q, l), p - q
    if cfg.objective == "scaled_ce":
        return -beta * np.dot(q, lb), np.exp(lb) - q
    if cfg.objective == "gem":
        return -np.dot(q, l) + np.dot(np.exp(lb), l), np.exp(lb) - q
    g = focal_scaling(p, cfg.gamma)
    return -np.dot(q, (1.0 - p) ** cfg.gamma * l), p * np.dot(q, g) - q * g


def expected_loss_trials(name, seed, count):
    """(z, q, cfg) draws over the kernel test's configs, vocab sizes 2-64,
    logit scales up to 20 and Dirichlet targets."""
    rng = np.random.default_rng(seed)
    configs = kernel_configs(name)
    for _ in range(count):
        vocab = int(rng.choice([2, 3, 7, 28, 64]))
        z = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0, 20.0])), vocab)
        yield z, rng.dirichlet(np.ones(vocab)), configs[rng.integers(len(configs))]


class TestExpectedLoss:
    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_one_hot_q_is_token_loss(self, name):
        for z, _, cfg in expected_loss_trials(name, 3, 30):
            for k in range(z.size):
                got = expected_loss(z, np.eye(z.size)[k], cfg)
                want = token_loss(z, Target.one_hot(k), cfg)
                assert got.value == want.value, (cfg, z.size, k)
                assert np.array_equal(got.grad, want.grad), (cfg, z.size, k)

    @pytest.mark.parametrize("name", ["ce", "scaled_ce", "gem", "focal"])
    def test_dirichlet_q_matches_the_closed_form(self, name):
        # held to 1e-12 of sum_k |q_k v_k|, v_k the value at one-hot k; the
        # gradient to 1e-12 of sum_k q_k max|G_k|, G_k the gradient there
        for z, q, cfg in expected_loss_trials(name, 4, 200):
            rows = [token_loss(z, Target.one_hot(k), cfg) for k in range(z.size)]
            value, grad = closed_form(cfg, z, q)
            got = expected_loss(z, q, cfg)
            assert abs(got.value - value) <= 1e-12 * sum(abs(qk * r.value) for qk, r in zip(q, rows)), cfg
            scale = sum(qk * np.abs(r.grad).max() for qk, r in zip(q, rows))
            assert np.abs(got.grad - grad).max() <= 1e-12 * scale, cfg

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_gradient_matches_finite_differences_of_the_expected_value(self, name):
        for z, q, cfg in expected_loss_trials(name, 5, 40):
            frozen = [frozen_value_fn(cfg, z, Target.one_hot(k)) for k in range(z.size)]
            numeric = fd_gradient(lambda rows: sum(qk * f(rows) for qk, f in zip(q, frozen)), z)
            analytic = expected_loss(z, q, cfg).grad
            assert rel_error(numeric, analytic, FD_SPEC.norm_floor) <= FD_SPEC.tolerance, (cfg, z, q)

    @pytest.mark.parametrize(
        "z, q, match",
        [
            (np.zeros(3), [0.5, 0.5], "length 2, expected 3"),
            (np.zeros(3), [0.5, 0.3, 0.3], "sum to 1"),
            (np.zeros((2, 3)), [0.2, 0.3, 0.5], r"\(2, 3\)"),
        ],
        ids=["q_wrong_length", "q_not_summing_to_1", "z_not_a_vector"],
    )
    def test_rejects_inputs(self, z, q, match):
        with pytest.raises(ValueError, match=match):
            expected_loss(z, q, LossConfig("ce"))
