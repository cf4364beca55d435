"""Both training algorithms, optimizers, and progressive precision."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitbranch import core, datasets, gemm, nn, quant, train


def one_layer_qnn(rng, n_in=4, n_out=3, m_bits=8, k_bits=8):
    model = nn.init_mlp([n_in, n_out], rng, m_bits=m_bits, k_bits=k_bits)
    cfg = train.TrainConfig(algorithm="qnn", learn_t=False)
    return model, cfg, train.init_grad_state(model, cfg)


class TestLoss:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((5, 4))
        loss, grad = train.softmax_cross_entropy(logits, np.array([0, 1, 2, 3, 0]))
        assert loss == pytest.approx(math.log(4))
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = core.make_rng(0)
        logits = rng.uniform(-2, 2, (3, 4))
        labels = np.array([1, 3, 0])
        _, grad = train.softmax_cross_entropy(logits, labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                lp, lm = logits.copy(), logits.copy()
                lp[i, j] += h
                lm[i, j] -= h
                fd = (train.softmax_cross_entropy(lp, labels)[0]
                      - train.softmax_cross_entropy(lm, labels)[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, abs=1e-8)


class TestOptimizer:
    def test_sgd_zero_grad_is_noop(self):
        gs = train.GradState(params={"w0": np.array([0.5])})
        gs.grads["w0"] = np.zeros(1)
        train.optimizer_update(gs, "sgd", 0.1)
        assert gs.params["w0"][0] == 0.5

    def test_sgd_hand_step(self):
        gs = train.GradState(params={"w0": np.array([0.5])})
        gs.grads["w0"] = np.array([1.0])
        train.optimizer_update(gs, "sgd", 0.1)
        assert gs.params["w0"][0] == pytest.approx(0.4)

    def test_adam_first_step_magnitude_is_lr(self):
        for g in (1e-4, 1.0, 1e4):
            gs = train.GradState(params={"w0": np.array([0.0])})
            gs.grads["w0"] = np.array([g])
            train.optimizer_update(gs, "adam", 0.01)
            assert abs(gs.params["w0"][0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_matches_frozen_formula(self):
        # the moments are updated in place, with the rounding of the
        # expressions they replaced
        rng = core.make_rng(12)
        params = {"w0": rng.uniform(-1, 1, (3, 4)), "ta0": np.array(0.7)}
        gs = train.GradState(params={k: v.copy() for k, v in params.items()})
        m1 = {k: np.zeros_like(v) for k, v in params.items()}
        m2 = {k: np.zeros_like(v) for k, v in params.items()}
        for step in range(1, 6):
            grads = {k: rng.normal(0, 3, v.shape) for k, v in params.items()}
            gs.grads = dict(grads)
            train.optimizer_update(gs, "adam", 0.01)
            for k, g in grads.items():
                m1[k] = 0.9 * m1[k] + (1 - 0.9) * g
                m2[k] = 0.999 * m2[k] + (1 - 0.999) * g * g
                mhat = m1[k] / (1 - 0.9 ** step)
                vhat = m2[k] / (1 - 0.999 ** step)
                p = params[k] - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
                params[k] = np.clip(p, -1.0, 1.0) if k.startswith("w") else np.maximum(p, 1e-6)
                np.testing.assert_array_equal(gs.params[k], params[k])
                np.testing.assert_array_equal(gs.m1[k], m1[k])
                np.testing.assert_array_equal(gs.m2[k], m2[k])

    def test_update_clamps_masters(self):
        gs = train.GradState(params={"w0": np.array([0.99, -0.99])})
        gs.grads["w0"] = np.array([-5.0, 5.0])
        train.optimizer_update(gs, "sgd", 1.0)
        np.testing.assert_array_equal(gs.params["w0"], [1.0, -1.0])

    def test_unknown_kind(self):
        gs = train.GradState(params={"w0": np.zeros(1)})
        gs.grads["w0"] = np.ones(1)
        with pytest.raises(core.ConfigError):
            train.optimizer_update(gs, "rmsprop", 0.1)

    def test_auto_rule(self):
        rng = core.make_rng(1)
        low = nn.init_mlp([2, 2], rng, m_bits=2, k_bits=2)
        high = nn.init_mlp([2, 2], rng, m_bits=8, k_bits=3)
        cfg = train.TrainConfig(optimizer="auto")
        assert train.resolve_optimizer(low, cfg) == "adam"
        assert train.resolve_optimizer(high, cfg) == "sgd"
        assert train.resolve_optimizer(low, train.TrainConfig(optimizer="sgd")) == "sgd"


class TestAlg2:
    def test_zero_net_loss_and_zero_weight_grad(self):
        rng = core.make_rng(2)
        model = nn.init_mlp([4, 3], rng, m_bits=2, k_bits=2)
        cfg = train.TrainConfig(algorithm="qnn")
        gs = train.init_grad_state(model, cfg)
        gs.params["w0"] = np.zeros((3, 4))
        x = np.zeros((6, 4))
        loss = train.train_step_alg2(model, (x, np.array([0, 1, 2, 0, 1, 2])), cfg, gs)
        assert loss == pytest.approx(math.log(3))
        np.testing.assert_array_equal(gs.grads["w0"], np.zeros((3, 4)))

    def test_ste_mask_blocks_saturated_weights(self):
        rng = core.make_rng(3)
        model, cfg, gs = one_layer_qnn(rng, m_bits=None, k_bits=2)
        gs.params["w0"][0, 0] = 1.0  # master at the clamp edge stays inside
        w = gs.params["w0"]
        x = rng.uniform(-1, 1, (5, 4))
        train.train_step_alg2(model, (x, np.array([0, 1, 2, 0, 1])), cfg, gs)
        # saturate one master beyond the clamp window and re-run
        w2 = w.copy()
        w2[0, 0] = 1.5
        gs2 = train.GradState(params={"w0": w2, "ta0": np.array(1.0),
                                      "tw0": np.array(1.0)})
        train.train_step_alg2(model, (x, np.array([0, 1, 2, 0, 1])), cfg, gs2)
        assert gs2.grads["w0"][0, 0] == 0.0

    def test_fine_grid_step_close_to_float_step(self):
        rng = core.make_rng(4)
        x = rng.uniform(-0.9, 0.9, (16, 4))
        y = rng.integers(0, 3, 16)
        quant_model, cfg, gs_q = one_layer_qnn(core.make_rng(5), m_bits=8, k_bits=8)
        float_model, _, gs_f = one_layer_qnn(core.make_rng(5), m_bits=None, k_bits=None)
        train.train_step_alg2(quant_model, (x, y), cfg, gs_q)
        train.train_step_alg2(float_model, (x, y), cfg, gs_f)
        scale = np.max(np.abs(gs_f.grads["w0"]))
        np.testing.assert_allclose(gs_q.grads["w0"], gs_f.grads["w0"],
                                   atol=0.02 * scale)

    @pytest.mark.parametrize("grid,step", [("linear", 1 / 127), ("odd", 2 / 255)])
    def test_gradients_match_finite_differences_at_cell_centers(self, grid, step):
        # masters sit on 8-bit grid points (cell centers); stepping by
        # exactly one cell width turns the staircase into a smooth central
        # difference of the underlying loss
        rng = core.make_rng(6)
        model, cfg, gs = one_layer_qnn(rng, n_in=4, n_out=3, m_bits=8, k_bits=8)
        cfg = train.TrainConfig(algorithm="qnn", learn_t=False, grid=grid)
        if grid == "linear":
            gs.params["w0"] = rng.integers(-100, 101, size=(3, 4)) / 127.0
        else:
            gs.params["w0"] = (2 * rng.integers(-100, 101, size=(3, 4)) + 1) / 255.0
        x = rng.uniform(-0.95, 0.95, (8, 4))
        y = rng.integers(0, 3, 8)
        train.train_step_alg2(model, (x, y), cfg, gs)
        analytic = gs.grads["w0"].copy()

        def loss_at(w):
            probe = train.GradState(params={"w0": w, "ta0": np.array(1.0),
                                            "tw0": np.array(1.0)})
            logits, _ = train.forward_qnn(model, x, probe, cfg)
            return train.softmax_cross_entropy(logits, y)[0]

        floor = 1e-2 * np.max(np.abs(analytic))
        checked = 0
        for i in range(3):
            for j in range(4):
                if abs(analytic[i, j]) < floor:
                    continue
                wp, wm = gs.params["w0"].copy(), gs.params["w0"].copy()
                wp[i, j] += step
                wm[i, j] -= step
                fd = (loss_at(wp) - loss_at(wm)) / (2 * step)
                assert abs(fd - analytic[i, j]) / abs(analytic[i, j]) < 1e-3
                checked += 1
        assert checked >= 6

    def test_threshold_gradient_from_saturation(self):
        rng = core.make_rng(7)
        model = nn.init_mlp([4, 3], rng, m_bits=None, k_bits=4)
        cfg = train.TrainConfig(algorithm="qnn", learn_t=True)
        gs = train.init_grad_state(model, cfg)
        gs.params["w0"] = np.full((3, 4), 2.0)  # all saturated at t = 1
        x = rng.uniform(-1, 1, (5, 4))
        train.train_step_alg2(model, (x, rng.integers(0, 3, 5)), cfg, gs)
        assert "tw0" in gs.grads and gs.grads["tw0"] != 0.0

    def test_divergence_raises(self):
        rng = core.make_rng(8)
        model, cfg, gs = one_layer_qnn(rng)
        x = np.full((2, 4), np.nan)
        with pytest.raises(core.DivergenceError):
            train.train_step_alg2(model, (x, np.array([0, 1])), cfg, gs)

    def test_nan_master_weight_raises(self):
        # the odd quantizer would give the NaN master a finite code
        rng = core.make_rng(8)
        model, cfg, gs = one_layer_qnn(rng)
        gs.params["w0"][0, 0] = np.nan
        x = rng.uniform(-1, 1, (2, gs.params["w0"].shape[1]))
        with pytest.raises(core.DivergenceError, match="non-finite master weights"):
            train.train_step_alg2(model, (x, np.array([0, 1])), cfg, gs)


class TestAlg1:
    def make_mbbn(self, seed=9, dims=(4, 3), m_bits=2, k_bits=2):
        rng = core.make_rng(seed)
        model = nn.init_mlp(list(dims), rng, m_bits=m_bits, k_bits=k_bits, flavor="mbbn")
        cfg = train.TrainConfig(algorithm="mbbn")
        return model, cfg, train.init_grad_state(model, cfg)

    def test_zero_net_loss_is_log_classes(self):
        model, cfg, gs = self.make_mbbn()
        gs.params["w0"] = np.zeros_like(gs.params["w0"])
        loss = train.train_step_alg1(model, (np.zeros((4, 4)), np.array([0, 1, 2, 0])),
                                     cfg, gs)
        assert loss == pytest.approx(math.log(3))

    def test_nan_batch_raises(self):
        model, cfg, gs = self.make_mbbn()
        x = core.make_rng(1).uniform(-1, 1, (4, 4))
        x[1, 2] = np.nan
        with pytest.raises(core.DivergenceError, match="non-finite activations"):
            train.train_step_alg1(model, (x, np.array([0, 1, 2, 0])), cfg, gs)

    def test_branch_sum_equals_encoded_gemm(self):
        # the float branch accumulation and the packed kernel share the
        # same algebra and must agree exactly
        model, cfg, gs = self.make_mbbn(seed=10, dims=(6, 4), m_bits=3, k_bits=2)
        rng = core.make_rng(11)
        x = rng.uniform(-1, 1, (5, 6))
        logits, caches = train.forward_mbbn(model, x, gs, cfg)
        zhat = logits / caches[0]["scale"]
        x_digits = quant.odd_code_digits(quant.quantize_odd(x, 3).codes, 3).reshape(3, 5, 6)
        w_digits = quant.binarize(gs.params["w0"]).astype(np.int64)  # (K, out, in)
        place = lambda d: np.tensordot(np.left_shift(1, np.arange(len(d))), d, axes=1)
        acc = gemm.encoded_gemm(gemm.encode_codes(place(x_digits), 3),
                                gemm.encode_codes(place(w_digits), 2))
        np.testing.assert_array_equal(np.rint(zhat).astype(np.int64), acc)

    def test_scale_line_gradient_factor(self):
        # gradient reaching the accumulator is the loss gradient times
        # r / ((2^M - 1)(2^K - 1)), checked through the weight gradients
        model, cfg, gs = self.make_mbbn(seed=12, dims=(4, 3), m_bits=2, k_bits=2)
        rng = core.make_rng(13)
        x = rng.uniform(-1, 1, (6, 4))
        y = rng.integers(0, 3, 6)
        logits, _ = train.forward_mbbn(model, x, gs, cfg)
        _, g_a = train.softmax_cross_entropy(logits, y)
        scale = 1.0 / 9.0
        x_digits = quant.odd_code_digits(quant.quantize_odd(x, 2).codes, 2)
        recon_x = np.tensordot([1.0, 2.0], x_digits.reshape(2, 6, 4), axes=1)
        expected_branch0 = (g_a * scale).T @ recon_x  # 2^(k-1) = 1 for k = 1
        expected = expected_branch0 * quant.binarize_grad_mask(gs.params["w0"][0])
        train.train_step_alg1(model, (x, y), cfg, gs)
        np.testing.assert_allclose(gs.grads["w0"][0], expected, rtol=1e-12)

    def test_two_layer_backward_wiring(self):
        # step-by-step reconstruction of the two-layer backward from public
        # pieces; catches transposed matmuls, plane-order and scale mixups
        model, cfg, gs = self.make_mbbn(seed=17, dims=(3, 2, 2), m_bits=2, k_bits=2)
        rng = core.make_rng(18)
        x = rng.uniform(-1, 1, (4, 3))
        y = rng.integers(0, 2, 4)

        logits, caches = train.forward_mbbn(model, x, gs, cfg)
        _, g_logits = train.softmax_cross_entropy(logits, y)
        scale = 1.0 / 9.0

        # layer 1 (output): gradient reaching its accumulator
        g_zhat1 = g_logits * scale
        # planes feeding layer 1 come from encoding a_0 with 2 bits
        a0 = caches[0]["a"]
        g_common = g_zhat1 @ caches[1]["recon_w"]
        g_planes = np.stack([g_common, 2.0 * g_common])
        dphi1 = quant.encoder_derivative(a0, 2, 1)
        dphi2 = quant.encoder_derivative(a0, 2, 2)
        g_a0 = (1 * g_planes[0] * dphi1 + 2 * g_planes[1] * dphi2) / 3.0
        # layer 0 weight-branch gradients from its own accumulator grad
        g_zhat0 = g_a0 * scale
        g_b0 = g_zhat0.T @ caches[0]["recon_x"]
        w0 = gs.params["w0"]
        expected_w0 = np.stack([
            g_b0 * quant.binarize_grad_mask(w0[0]),
            2.0 * g_b0 * quant.binarize_grad_mask(w0[1])])

        train.train_step_alg1(model, (x, y), cfg, gs)
        np.testing.assert_allclose(gs.grads["w0"], expected_w0, rtol=1e-12)

    def test_saturated_master_gets_zero_gradient(self):
        model, cfg, gs = self.make_mbbn(seed=14)
        gs.params["w0"][0, 0, 0] = 1.5
        rng = core.make_rng(15)
        x = rng.uniform(-1, 1, (5, 4))
        train.train_step_alg1(model, (x, rng.integers(0, 3, 5)), cfg, gs)
        assert gs.grads["w0"][0, 0, 0] == 0.0

    def test_moons_training_learns(self):
        x, y = datasets.make_moons(512, noise=0.1, seed=0)
        (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=0)
        cfg = train.TrainConfig(algorithm="mbbn", epochs=50, batch_size=64,
                                seed=0, optimizer="adam", lr=0.01)
        model = nn.init_mlp([2, 16, 16, 2], core.make_rng(0), m_bits=2, k_bits=2,
                            flavor="mbbn")
        res = train.train_model(model, (xt, yt), cfg, val_set=(xv, yv))
        assert res.history[-1]["train_acc"] >= 0.85
        # training runs the deployed integer product, so nothing is lost
        dec = train.export_model(res.model, res.grad_state, "decomposed")
        assert nn.accuracy(dec, xt, yt) == res.history[-1]["train_acc"]

    def test_cell_edges_digitized_like_quantize_odd(self):
        # mbbn activations are lattice-valued and land on cell edges, where
        # the sign-of-sine digits and the deployed quantizer disagree
        model, cfg, gs = self.make_mbbn(seed=19, dims=(5, 3), m_bits=2, k_bits=2)
        x = np.array([[0.0, 2 / 3, -2 / 3, 1.0, -1.0],
                      [-0.0, -2 / 3, 2 / 3, 1 / 3, -1 / 3]])
        logits, caches = train.forward_mbbn(model, x, gs, cfg)
        np.testing.assert_array_equal(caches[0]["recon_x"], quant.quantize_odd(x, 2).codes)
        quantized = train.export_model(model, gs, "quantized")
        np.testing.assert_array_equal(logits, nn.model_forward(quantized, x))

    def test_two_point_toy_loss_decreases(self):
        model, cfg, gs = self.make_mbbn(seed=16, dims=(2, 8, 2), m_bits=2, k_bits=2)
        x = np.array([[0.6, -0.4], [-0.6, 0.4]])
        y = np.array([0, 1])
        losses = []
        for _ in range(50):
            losses.append(train.train_step_alg1(model, (x, y), cfg, gs))
            train.optimizer_update(gs, "adam", 0.01)
        assert np.mean(losses[-10:]) < np.mean(losses[:10])


class TestTrainLoop:
    def test_deterministic_runs(self):
        x, y = datasets.make_moons(128, seed=0)
        cfg = train.TrainConfig(epochs=5, batch_size=32, seed=3)
        runs = []
        for _ in range(2):
            model = nn.init_mlp([2, 8, 2], core.make_rng(42), m_bits=2, k_bits=2)
            res = train.train_model(model, (x, y), cfg)
            runs.append(res.grad_state.params["w0"].copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_masters_stay_clamped(self):
        x, y = datasets.make_moons(96, seed=1)
        model = nn.init_mlp([2, 8, 2], core.make_rng(1), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=3, batch_size=16, seed=0, lr=0.5, optimizer="sgd")
        res = train.train_model(model, (x, y), cfg)
        for name, p in res.grad_state.params.items():
            if name.startswith("w"):
                assert np.all(np.abs(p) <= 1.0)

    def test_loss_decreases_on_moons(self):
        x, y = datasets.make_moons(256, seed=2)
        model = nn.init_mlp([2, 16, 2], core.make_rng(5), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=20, batch_size=32, seed=0)
        res = train.train_model(model, (x, y), cfg)
        assert res.history[-1]["loss"] < res.history[0]["loss"]
        assert res.history[-1]["train_acc"] > 0.7

    def test_non_finite_val_set_diverges_with_state(self):
        # the epoch's validation forward, outside any step, quantizes NaN
        x, y = datasets.make_moons(64, seed=4)
        vx = np.full((8, 2), np.nan)
        model = nn.init_mlp([2, 4, 2], core.make_rng(7), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=2, batch_size=32, seed=0)
        with pytest.raises(core.DivergenceError, match="non-finite activations") as exc:
            train.train_model(model, (x, y), cfg, val_set=(vx, y[:8]))
        assert exc.value.model is model and exc.value.grad_state.step == 2

    def test_log_csv_schema(self, tmp_path):
        x, y = datasets.make_moons(64, seed=3)
        model = nn.init_mlp([2, 4, 2], core.make_rng(6), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=2, batch_size=32, seed=0)
        log = tmp_path / "log.csv"
        res = train.train_model(model, (x, y), cfg)
        train.write_log(res.history, str(log))
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,train_acc,val_acc"
        assert len(lines) == 3


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        x, y = datasets.make_moons(64, seed=4)
        model = nn.init_mlp([2, 4, 2], core.make_rng(7), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=2, batch_size=32, seed=0)
        res = train.train_model(model, (x, y), cfg)
        path = tmp_path / "ckpt.bbm"
        train.save_checkpoint(str(path), res.model, res.grad_state, cfg)
        back_model, back_gs = train.load_checkpoint(str(path))
        assert back_gs.step == res.grad_state.step
        assert set(back_gs.params) == set(res.grad_state.params)
        # f32 storage: values match to float32 precision
        np.testing.assert_allclose(back_gs.params["w0"].ravel(),
                                   res.grad_state.params["w0"].ravel(), atol=1e-7)


@pytest.fixture(scope="module")
def checkpoint_files(tmp_path_factory):
    """(model bytes, sidecar bytes) of a short qnn run."""
    x, y = datasets.make_moons(64, seed=4)
    model = nn.init_mlp([2, 4, 2], core.make_rng(7), m_bits=2, k_bits=2)
    cfg = train.TrainConfig(epochs=2, batch_size=32, seed=0)
    res = train.train_model(model, (x, y), cfg)
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.bbm"
    train.save_checkpoint(str(path), res.model, res.grad_state, cfg)
    return path.read_bytes(), path.with_name("ckpt.bbm.opt").read_bytes()


def load_with_sidecar(folder, files, sidecar):
    path = folder / "ckpt.bbm"
    path.write_bytes(files[0])
    (folder / "ckpt.bbm.opt").write_bytes(sidecar)
    return train.load_checkpoint(str(path))


class TestCorruptSidecar:
    def test_intact_sidecar_loads(self, checkpoint_files, tmp_path):
        _, gs = load_with_sidecar(tmp_path, checkpoint_files, checkpoint_files[1])
        assert gs.step == 4 and set(gs.params) == {"w0", "w1", "ta0", "ta1", "tw0", "tw1"}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, checkpoint_files, tmp_path_factory, data):
        blob = checkpoint_files[1]
        cut = data.draw(st.integers(0, len(blob) - 1))
        folder = tmp_path_factory.mktemp("cut")
        with pytest.raises(core.FormatError, match=re.escape(str(folder / "ckpt.bbm.opt"))):
            load_with_sidecar(folder, checkpoint_files, blob[:cut])

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes(self, checkpoint_files, tmp_path_factory, junk):
        folder = tmp_path_factory.mktemp("junk")
        with pytest.raises(core.FormatError, match="after the last tensor"):
            load_with_sidecar(folder, checkpoint_files, checkpoint_files[1] + junk)

    @pytest.mark.parametrize("header,error", [
        (b"{not json\n", "undecodable header"), (b"{}\n", "int 'step'"),
        (b'{"params":[1],"step":4}\n', "list of names"), (b"{}", "no end"),
    ], ids=["not_json", "empty", "param_not_name", "no_newline"])
    def test_bad_header(self, checkpoint_files, tmp_path, header, error):
        with pytest.raises(core.FormatError, match=error):
            load_with_sidecar(tmp_path, checkpoint_files, train.OPT_MAGIC + header)

    def test_bad_magic(self, checkpoint_files, tmp_path):
        with pytest.raises(core.FormatError, match="bad magic"):
            load_with_sidecar(tmp_path, checkpoint_files, b"#bitbranch-model-v1\n")


class TestProgressive:
    def test_masters_copied_and_bits_decremented(self):
        model = nn.init_mlp([2, 4, 2], core.make_rng(8), m_bits=8, k_bits=8,
                            quantize_input=True)
        low = train.progressive_init(model)
        assert low.specs[0].m_bits == 7 and low.specs[0].k_bits == 7
        np.testing.assert_array_equal(low.weights[0], model.weights[0])

    def test_full_precision_layers_stay_full_precision(self):
        model = nn.init_mlp([2, 4, 2], core.make_rng(8), m_bits=8, k_bits=8)
        low = train.progressive_init(model)
        assert low.specs[0].m_bits is None and low.specs[0].k_bits == 7

    def test_floor_at_one_bit(self):
        model = nn.init_mlp([2, 2], core.make_rng(9), m_bits=1, k_bits=1,
                            quantize_input=True)
        low = train.progressive_init(model)
        assert low.specs[0].m_bits == 1 and low.specs[0].k_bits == 1

    def test_schedule_produces_expected_checkpoints(self):
        x, y = datasets.make_moons(64, seed=5)
        model = nn.init_mlp([2, 4, 2], core.make_rng(10), m_bits=8, k_bits=8)
        cfg = train.TrainConfig(epochs=1, batch_size=32, seed=0)
        results = train.progressive_schedule(model, (x, y), cfg, from_bits=8, to_bits=4)
        assert len(results) == 5  # 8, 7, 6, 5, 4

    @pytest.mark.parametrize("from_bits,to_bits", [(3, 0), (1, 0), (2, -1), (2, 3)])
    def test_schedule_rejects_bad_bit_range(self, from_bits, to_bits):
        # bits step down from from_bits to to_bits >= 1; 0 bits is no grid
        model = nn.init_mlp([2, 4, 2], core.make_rng(10), m_bits=2, k_bits=2)
        x, y = datasets.make_moons(16, seed=5)
        with pytest.raises(core.ConfigError):
            train.progressive_schedule(model, (x, y), train.TrainConfig(epochs=1), from_bits,
                                       to_bits)

    def test_export_stages_agree(self):
        x, y = datasets.make_moons(96, seed=6)
        model = nn.init_mlp([2, 8, 2], core.make_rng(11), m_bits=2, k_bits=2)
        cfg = train.TrainConfig(epochs=3, batch_size=32, seed=0)
        res = train.train_model(model, (x, y), cfg)
        quantized = train.export_model(res.model, res.grad_state, "quantized")
        decomposed = train.export_model(res.model, res.grad_state, "decomposed")
        lq = nn.model_forward(quantized, x)
        ld = nn.model_forward(decomposed, x)
        np.testing.assert_allclose(lq, ld, atol=1e-6)

    def test_mbbn_export_decomposed_matches_training_forward_shape(self):
        rng = core.make_rng(12)
        model = nn.init_mlp([2, 6, 2], rng, m_bits=2, k_bits=2, flavor="mbbn")
        cfg = train.TrainConfig(algorithm="mbbn", epochs=2, batch_size=16, seed=0)
        x, y = datasets.make_moons(64, seed=7)
        res = train.train_model(model, (x, y), cfg)
        dec = train.export_model(res.model, res.grad_state, "decomposed")
        logits = nn.model_forward(dec, x)
        assert logits.shape == (64, 2)
