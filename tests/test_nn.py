"""Layer forwards, stage transitions, and the model file format."""

import numpy as np
import pytest

from bitbranch import core, gemm, nn, quant


def naive_conv2d(x, w, stride=1, padding=0):
    """Independent 7-loop convolution oracle."""
    b, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    assert c == ic
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, oc, oh, ow))
    for n in range(b):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    s = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                s += x[n, ci, i * stride + u, j * stride + v] * w[o, ci, u, v]
                    out[n, o, i, j] = s
    return out


def quantized_model_pair(rng, dims=(2, 16, 16, 2), bits=2):
    model = nn.init_mlp(list(dims), rng, m_bits=bits, k_bits=bits)
    quantized = nn.quantize_model(model)
    return quantized, nn.decompose_model(quantized)


class TestDenseForward:
    def test_float_identity(self):
        spec = nn.dense(3, 3)
        x = core.make_rng(0).uniform(-1, 1, (4, 3))
        np.testing.assert_array_equal(nn.dense_forward(x, spec, np.eye(3), "float"), x)

    def test_quantized_matches_decomposed(self):
        rng = core.make_rng(1)
        spec = nn.dense(8, 5, m_bits=2, k_bits=2)
        w = rng.uniform(-1, 1, (5, 8))
        x = rng.uniform(-1, 1, (6, 8))
        wq = quant.quantize_odd(w, 2)
        we = gemm.encode_codes(wq.codes, 2)
        yq = nn.dense_forward(x, spec, wq, "quantized")
        yd = nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)
        np.testing.assert_allclose(yq, yd, atol=1e-6)

    @pytest.mark.parametrize("k_bits", [None, 2])
    def test_conv_output_flattens_in_chw_order(self, k_bits):
        # a conv output reaches a dense layer as (B, C, H, W), C * H * W = in_features
        rng = core.make_rng(23)
        spec = nn.dense(2 * 3 * 4, 5, m_bits=None if k_bits is None else 2, k_bits=k_bits)
        w = rng.uniform(-1, 1, (5, 24))
        x = rng.uniform(-1, 1, (6, 2, 3, 4))[:, :, :, ::-1]  # not C-contiguous
        # quantize_model keeps a layer without K in float
        wq = w if k_bits is None else quant.quantize_odd(w, 2)
        for stage, weight in (("float", w), ("quantized", wq)):
            np.testing.assert_array_equal(nn.dense_forward(x, spec, weight, stage),
                                          nn.dense_forward(x.reshape(6, 24), spec, weight, stage))
        for bad in ((6, 2, 3, 5), (6, 24, 1), (6, 1, 2, 3, 4)):
            with pytest.raises(core.ShapeError, match="does not match in_features=24"):
                nn.dense_forward(np.zeros(bad), spec, w, "float")

    def test_four_branch_two_bit_scale(self):
        # 2-bit inputs and weights: output is the branch sum times 1/9
        spec = nn.dense(2, 1, m_bits=2, k_bits=2)
        x = np.array([[1 / 3, -1.0]])
        w = np.array([[1.0, -1 / 3]])
        we = gemm.encode_codes(quant.quantize_odd(w, 2).codes, 2)
        y = nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)
        # codes (1, -3) . (3, -1) = 6, scaled by 1/9
        assert y[0, 0] == pytest.approx(6 / 9)

    def test_stage_form_mismatch(self):
        spec = nn.dense(2, 2, m_bits=2, k_bits=2)
        with pytest.raises(core.StageError):
            nn.dense_forward(np.zeros((1, 2)), spec, np.eye(2), "quantized")

    def test_follows_bn_skips_scale(self):
        rng = core.make_rng(2)
        spec = nn.dense(6, 3, m_bits=2, k_bits=2, follows_bn=True)
        w = rng.uniform(-1, 1, (3, 6))
        x = rng.uniform(-1, 1, (4, 6))
        wq = quant.quantize_odd(w, 2)
        acc = nn.dense_forward(x, spec, wq, "quantized")
        xc = quant.quantize_odd(x, 2).codes
        np.testing.assert_array_equal(acc, xc @ wq.codes.T)


class TestConv2dForward:
    def test_pointwise_identity(self):
        spec = nn.conv2d(2, 2, 1, 1)
        x = core.make_rng(3).uniform(-1, 1, (2, 2, 4, 4))
        w = np.eye(2).reshape(2, 2, 1, 1)
        np.testing.assert_allclose(nn.conv2d_forward(x, spec, w, "float"), x, rtol=1e-15)

    def test_ones_kernel_on_constant(self):
        spec = nn.conv2d(1, 1, 3, 3)
        x = np.full((1, 1, 5, 5), 0.5)
        w = np.ones((1, 1, 3, 3))
        out = nn.conv2d_forward(x, spec, w, "float")
        np.testing.assert_allclose(out, np.full((1, 1, 3, 3), 4.5), rtol=1e-15)

    def test_im2col_matches_naive_conv(self):
        rng = core.make_rng(4)
        for stride, padding in ((1, 0), (2, 1), (1, 2)):
            spec = nn.conv2d(2, 3, 3, 3, stride=stride, padding=padding)
            x = rng.uniform(-1, 1, (2, 2, 6, 6))
            w = rng.uniform(-1, 1, (3, 2, 3, 3))
            got = nn.conv2d_forward(x, spec, w, "float")
            np.testing.assert_allclose(got, naive_conv2d(x, w, stride, padding), atol=1e-10)

    def test_decomposed_matches_quantized_patch_oracle(self):
        # valid convolution: patches hold only real samples, so the naive
        # loop over dequantized grids is an exact oracle
        rng = core.make_rng(5)
        spec = nn.conv2d(2, 3, 3, 3, m_bits=3, k_bits=3)
        x = rng.uniform(-1, 1, (1, 2, 6, 6))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        wq = quant.quantize_odd(w, 3)
        we = gemm.encode_codes(wq.codes.reshape(3, -1), 3)
        got = nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)
        xq_val = quant.dequantize(quant.quantize_odd(x, 3))
        wq_val = quant.dequantize(wq)
        np.testing.assert_allclose(got, naive_conv2d(xq_val, wq_val), atol=1e-10)

    def test_padded_stage_equivalence(self):
        rng = core.make_rng(6)
        spec = nn.conv2d(1, 2, 3, 3, padding=1, m_bits=2, k_bits=2)
        x = rng.uniform(-1, 1, (2, 1, 5, 5))
        w = rng.uniform(-1, 1, (2, 1, 3, 3))
        wq = quant.quantize_odd(w, 2)
        we = gemm.encode_codes(wq.codes.reshape(2, -1), 2)
        yq = nn.conv2d_forward(x, spec, wq, "quantized")
        yd = nn.model_forward(nn.ModelState("decomposed", [spec], [we]), x)
        np.testing.assert_allclose(yq, yd, atol=1e-6)

    def test_bad_geometry(self):
        spec = nn.conv2d(1, 1, 7, 7)
        with pytest.raises(core.ShapeError):
            nn.conv2d_forward(np.zeros((1, 1, 4, 4)), spec, np.zeros((1, 1, 7, 7)), "float")


@pytest.mark.parametrize("kind", ["dense", "conv2d"])
def test_no_per_layer_decomposed_forward(kind):
    if kind == "dense":
        spec, x, forward = nn.dense(4, 3, m_bits=2, k_bits=2), np.zeros((2, 4)), nn.dense_forward
    else:
        spec, x = nn.conv2d(2, 3, 3, 3, m_bits=2, k_bits=2), np.zeros((1, 2, 4, 4))
        forward = nn.conv2d_forward
    we = gemm.encode_codes(np.ones((3, spec.reduction_len()), dtype=np.int64), 2)
    with pytest.raises(core.StageError, match="model_forward"):
        forward(x, spec, we, "decomposed")


class TestBatchnorm:
    def test_identity_params(self):
        x = core.make_rng(7).uniform(-1, 1, (3, 4))
        out = nn.batchnorm_forward(x, np.ones(4), np.zeros(4), np.zeros(4), np.ones(4), 0.0)
        np.testing.assert_allclose(out, x, rtol=1e-15)

    def test_zero_mean_output(self):
        x = core.make_rng(8).uniform(-1, 1, (50, 3))
        out = nn.batchnorm_forward(x, np.ones(3), np.zeros(3), x.mean(0), np.ones(3), 0.0)
        np.testing.assert_allclose(out.mean(0), 0.0, atol=1e-12)

    def test_matches_scalar_formula(self):
        rng = core.make_rng(9)
        x = rng.uniform(-1, 1, (2, 3, 4, 4))
        gamma, beta = rng.uniform(0.5, 2, 3), rng.uniform(-1, 1, 3)
        mean, var = rng.uniform(-0.5, 0.5, 3), rng.uniform(0.1, 2, 3)
        eps = 1e-5
        got = nn.batchnorm_forward(x, gamma, beta, mean, var, eps)
        for c in range(3):
            expected = (x[:, c] - mean[c]) / np.sqrt(var[c] + eps) * gamma[c] + beta[c]
            np.testing.assert_allclose(got[:, c], expected, rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(core.ShapeError):
            nn.batchnorm_forward(np.zeros((2, 3)), np.ones(3), np.zeros(2),
                                 np.zeros(3), np.ones(3))


class TestNonFiniteInput:
    """Both stages refuse to quantize non-finite activations, with one message."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["dense", "conv2d"])
    def test_stages_raise_the_same_error(self, kind, bad):
        rng = core.make_rng(30)
        if kind == "dense":
            spec = nn.dense(4, 3, m_bits=2, k_bits=2)
            x = rng.uniform(-1, 1, (5, 4))
            x[2, 1] = bad
        else:
            spec = nn.conv2d(2, 3, 3, 3, padding=1, m_bits=2, k_bits=2)
            x = rng.uniform(-1, 1, (1, 2, 5, 5))
            x[0, 1, 4, 4] = bad
        quantized = nn.quantize_model(
            nn.ModelState("float", [spec], [rng.uniform(-1, 1, spec.weight_shape())]))
        decomposed = nn.decompose_model(quantized)
        messages = []
        for model in (quantized, decomposed):
            with pytest.raises(core.DomainError) as exc:
                nn.model_forward(model, x)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{kind} ")
        assert "non-finite values cannot be quantized" in messages[0]

    def test_quantized_input_mlp(self):
        # NaN and +inf rows used to give finite logits on the quantized stage
        model = nn.init_mlp([4, 3, 2], core.make_rng(31), m_bits=2, k_bits=2,
                            quantize_input=True)
        quantized = nn.quantize_model(model)
        x = np.array([[np.nan, 0.1, 0.2, 0.3], [np.inf, 0.1, 0.2, 0.3]])
        for m in (quantized, nn.decompose_model(quantized)):
            with pytest.raises(core.DomainError, match="dense 4->3 layer input: 2 non-finite"):
                nn.model_forward(m, x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("flavor,grid", [("qnn", "odd"), ("qnn", "linear"), ("mbbn", "odd")])
    def test_quantize_model_names_the_layer(self, flavor, grid, bad):
        # a NaN weight used to become the code -2^63 with only a RuntimeWarning
        specs = [nn.dense(4, 3, m_bits=2, k_bits=2), nn.act_layer("htanh"),
                 nn.conv2d(3, 2, 1, 1, m_bits=2, k_bits=2)]
        rng = core.make_rng(33)
        lead = (2,) if flavor == "mbbn" else ()
        weights = [rng.uniform(-1, 1, lead + specs[0].weight_shape()), None,
                   rng.uniform(-1, 1, lead + specs[2].weight_shape())]
        weights[2][(0,) * weights[2].ndim] = bad
        model = nn.ModelState("float", specs, weights, flavor=flavor)
        with pytest.raises(core.DomainError,
                           match=r"conv2d 3->2 1x1 layer weight: 1 non-finite values"):
            nn.quantize_model(model, grid)

    def test_full_precision_layer_passes_non_finite_through(self):
        model = nn.quantize_model(nn.init_mlp([4, 3], core.make_rng(32), m_bits=2, k_bits=2))
        assert model.specs[0].m_bits is None
        out = nn.model_forward(model, np.array([[np.nan, 0.1, 0.2, 0.3]]))
        assert np.all(np.isnan(out))


class TestModelForward:
    def test_empty_model_is_identity(self):
        m = nn.ModelState(stage="float", specs=[], weights=[])
        x = core.make_rng(10).uniform(-1, 1, (3, 5))
        np.testing.assert_array_equal(nn.model_forward(m, x), x)

    def test_single_activation_layer(self):
        m = nn.ModelState(stage="float", specs=[nn.act_layer("htanh")], weights=[None])
        x = np.array([[2.0, -3.0, 0.25]])
        np.testing.assert_array_equal(nn.model_forward(m, x), [[1.0, -1.0, 0.25]])


class TestStageTransitions:
    def test_one_bit_planes_are_weight_signs(self):
        rng = core.make_rng(11)
        model = nn.init_mlp([4, 3], rng, m_bits=1, k_bits=1)
        dec = nn.decompose_model(nn.quantize_model(model))
        w = model.weights[0]
        enc = dec.weights[0]
        np.testing.assert_array_equal(gemm.decode_codes(enc),
                                      np.where(w > 0, 1, -1))

    def test_two_layer_mlp_stage_equivalence(self):
        rng = core.make_rng(12)
        quantized, decomposed = quantized_model_pair(rng)
        x = rng.uniform(-1, 1, (100, 2))
        lq = nn.model_forward(quantized, x)
        ld = nn.model_forward(decomposed, x)
        np.testing.assert_allclose(lq, ld, atol=1e-6)
        np.testing.assert_array_equal(np.argmax(lq, 1), np.argmax(ld, 1))

    def test_zero_code_decomposition_error(self):
        model = nn.ModelState(
            stage="quantized",
            specs=[nn.dense(2, 2, m_bits=3, k_bits=3)],
            weights=[quant.quantize_linear(np.zeros((2, 2)), 3)])
        with pytest.raises(core.DecompositionError):
            nn.decompose_model(model)

    def test_decompose_requires_quantized_stage(self):
        model = nn.init_mlp([2, 2], core.make_rng(13), m_bits=1, k_bits=1)
        with pytest.raises(core.StageError):
            nn.decompose_model(model)

    def test_linear_grid_inference_quantizes_both_sides(self):
        rng = core.make_rng(19)
        spec = nn.dense(4, 3, m_bits=3, k_bits=3)
        w = rng.uniform(-1, 1, (3, 4))
        x = rng.uniform(-1, 1, (5, 4))
        wq = quant.quantize_linear(w, 3)
        got = nn.dense_forward(x, spec, wq, "quantized")
        expected = quant.dequantize(quant.quantize_linear(x, 3)) @ quant.dequantize(wq).T
        np.testing.assert_allclose(got, expected, rtol=1e-15)


class TestModelFile:
    @pytest.mark.parametrize("stage", ["float", "quantized", "decomposed"])
    def test_round_trip_bit_exact(self, tmp_path, stage):
        rng = core.make_rng(14)
        model = nn.init_mlp([2, 16, 3], rng, m_bits=2, k_bits=2)
        if stage != "float":
            model = nn.quantize_model(model)
        if stage == "decomposed":
            model = nn.decompose_model(model)
        path = tmp_path / "m.bbm"
        nn.save_model(model, str(path))
        back = nn.load_model(str(path))
        x = rng.uniform(-1, 1, (10, 2))
        np.testing.assert_array_equal(nn.model_forward(back, x),
                                      nn.model_forward(
                                          nn.load_model(str(path)), x))
        # reserializing the loaded model is byte-identical
        path2 = tmp_path / "m2.bbm"
        nn.save_model(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_decomposed_outputs_survive_round_trip(self, tmp_path):
        rng = core.make_rng(15)
        _, decomposed = quantized_model_pair(rng, bits=3)
        path = tmp_path / "d.bbm"
        nn.save_model(decomposed, str(path))
        back = nn.load_model(str(path))
        x = rng.uniform(-1, 1, (20, 2))
        np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                      nn.model_forward(back, x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bbm"
        path.write_bytes(b"not a model\n")
        with pytest.raises(IOError):
            nn.load_model(str(path))

    def test_batchnorm_payload(self, tmp_path):
        rng = core.make_rng(16)
        bn = {"gamma": rng.uniform(0.5, 2, 4).astype(np.float32).astype(np.float64),
              "beta": np.zeros(4), "mean": np.zeros(4), "var": np.ones(4)}
        model = nn.ModelState(stage="float",
                              specs=[nn.dense(4, 4), nn.batchnorm(4)],
                              weights=[np.eye(4), bn])
        path = tmp_path / "bn.bbm"
        nn.save_model(model, str(path))
        back = nn.load_model(str(path))
        np.testing.assert_array_equal(back.weights[1]["gamma"], bn["gamma"])


class TestConvModelContainer:
    def make_conv_model(self, bits=2):
        rng = core.make_rng(20)
        specs = [nn.conv2d(1, 4, 3, 3, stride=2, m_bits=None, k_bits=bits),
                 nn.act_layer("htanh"),
                 nn.conv2d(4, 3, 2, 2, m_bits=bits, k_bits=bits)]
        weights = [rng.uniform(-1, 1, (4, 1, 3, 3)), None,
                   rng.uniform(-1, 1, (3, 4, 2, 2))]
        return nn.ModelState(stage="float", specs=specs, weights=weights)

    def test_stage_equivalence_through_container(self):
        model = self.make_conv_model()
        quantized = nn.quantize_model(model)
        decomposed = nn.decompose_model(quantized)
        x = core.make_rng(21).uniform(-1, 1, (4, 1, 7, 7))
        lq = nn.model_forward(quantized, x)
        ld = nn.model_forward(decomposed, x)
        np.testing.assert_allclose(lq, ld, atol=1e-6)

    def test_file_round_trip(self, tmp_path):
        model = self.make_conv_model(bits=3)
        decomposed = nn.decompose_model(nn.quantize_model(model))
        path = tmp_path / "conv.bbm"
        nn.save_model(decomposed, str(path))
        back = nn.load_model(str(path))
        x = core.make_rng(22).uniform(-1, 1, (2, 1, 7, 7))
        np.testing.assert_array_equal(nn.model_forward(decomposed, x),
                                      nn.model_forward(back, x))


class TestCompressionAccounting:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_ratio_is_32_over_k(self, bits):
        # reduction lengths are multiples of 64 so plane padding vanishes
        rng = core.make_rng(17)
        model = nn.init_mlp([64, 32, 64, 4], rng, m_bits=bits, k_bits=bits)
        float_bytes = nn.weight_payload_bytes(model)
        dec = nn.decompose_model(nn.quantize_model(model))
        dec_bytes = nn.weight_payload_bytes(dec)
        assert abs(float_bytes / dec_bytes - 32 / bits) / (32 / bits) < 0.05

    def test_compression_ratio_helper(self):
        rng = core.make_rng(18)
        model = nn.init_mlp([64, 64], rng, m_bits=2, k_bits=2)
        dec = nn.decompose_model(nn.quantize_model(model))
        assert nn.compression_ratio(dec) == pytest.approx(16.0)
