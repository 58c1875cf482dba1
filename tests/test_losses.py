"""Loss zoo tests: frozen hand-derived values, algebraic reductions, error
paths, and the batched kernel pinned to the scalar oracle."""

import numpy as np
import pytest

from sftlab.losses import (
    OBJECTIVES,
    DropThresholdError,
    FocalConfig,
    LossConfig,
    PrConfig,
    Target,
    TofuConfig,
    UnsupportedTargetError,
    batch_loss,
    ce,
    drop_threshold,
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
    def test_needs_exactly_one_spec(self):
        with pytest.raises(ValueError):
            Target()
        with pytest.raises(ValueError):
            Target(index=0, dist=np.array([1.0, 0.0]))

    def test_dense_one_hot(self):
        np.testing.assert_array_equal(Target.one_hot(1).dense(3), [0.0, 1.0, 0.0])

    def test_dense_range_checks(self):
        with pytest.raises(ValueError):
            Target.one_hot(3).dense(3)
        with pytest.raises(ValueError):
            Target.soft([0.5, 0.5]).dense(3)

    def test_soft_validates_distribution(self):
        with pytest.raises(ValueError):
            Target.soft([0.5, 0.6])


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
        res = ce(Z_04, Target.soft(q))
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
        res = gem(Z_04, Target.soft(q), 0.7)
        expected = scaled_ce(Z_04, Target.soft(q), 0.7).grad
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
        fg = focal(z, Target.soft(q), FocalConfig(3.0)).grad
        cg = ce(z, Target.soft(q)).grad
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
            focal(z, Target.soft(q), FocalConfig(3.0)).grad, expected, atol=1e-12
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

    def test_soft_target_rejected(self):
        with pytest.raises(UnsupportedTargetError):
            lambda_pr(Z_04, Target.soft([0.5, 0.5]), PrConfig(1.0, 0.5, 1, 1))


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

    def test_soft_target_rejected(self):
        with pytest.raises(UnsupportedTargetError):
            tofu(Z_04, Target.soft([0.5, 0.5]), TofuConfig(3.0, 0.8))


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

    def test_soft_target_rejected(self):
        with pytest.raises(UnsupportedTargetError):
            naive_tempered_focal(Z_04, Target.soft([0.5, 0.5]), TofuConfig(3.0, 0.8))


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
