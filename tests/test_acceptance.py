"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives a one-line verdict per
criterion. Criteria with runtime budgets assert them.
"""

import functools
import math
import time

import numpy as np
import pytest

from bitbranch import bench, bitops, core, datasets, gemm, nn, quant, train
from bitbranch.cli import main as cli_main

MOONS = dict(n=512, noise=0.1, seed=0)
DIMS = [2, 16, 16, 2]
TRAIN_CFG = dict(epochs=200, batch_size=64, seed=0, optimizer="adam", lr=0.05)


def _train(model, data, val, **overrides):
    target_acc = overrides.pop("target_acc", None)
    cfg = train.TrainConfig(**{**TRAIN_CFG, **overrides})
    return train.train_model(model, data, cfg, val_set=val, target_acc=target_acc)


def test_01_decomposition_exactness():
    """All 64 (M, K) pairs, 50 triples each, zero tolerance, under 30 s."""
    t0 = time.monotonic()
    rng = core.make_rng(0)
    lengths = [1, 63, 64, 65, 130, 1000]
    checked = 0
    for m_bits in range(1, 9):
        for k_bits in range(1, 9):
            for i in range(50):
                n = lengths[i % len(lengths)]
                p = int(rng.integers(1, 17))
                q = int(rng.integers(1, 17))
                xc = rng.integers(0, 1 << m_bits, size=(p, n)) * 2 - ((1 << m_bits) - 1)
                wc = rng.integers(0, 1 << k_bits, size=(q, n)) * 2 - ((1 << k_bits) - 1)
                acc = gemm.encoded_gemm(gemm.encode_codes(xc, m_bits),
                                        gemm.encode_codes(wc, k_bits))
                assert np.array_equal(acc, xc @ wc.T), (m_bits, k_bits, p, n, q)
                checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 3200
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 01 decomposition-exactness: PASS ({elapsed:.1f}s, 3200 gemms)")


def test_02_encoding_scheme_equivalence():
    """{0,1}-polynomial equals the scaled {-1,+1} product, exhaustively."""
    t0 = time.monotonic()
    worst = 0.0
    for m_bits in range(1, 5):
        ml = (1 << m_bits) - 1
        for k_bits in range(1, 5):
            kl = (1 << k_bits) - 1
            for cx in range(-ml, ml + 1, 2):
                for cw in range(-kl, kl + 1, 2):
                    poly = gemm.zero_one_product(cx / ml, cw / kl, m_bits, k_bits)
                    direct = (cx * cw) / (ml * kl)
                    worst = max(worst, abs(poly - direct))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12, worst
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 02 encoding-scheme-equivalence: PASS (worst diff {worst:.2e})")


def test_03_encoder_fidelity():
    """Trig encoder equals the canonical path off boundaries; table anchors hold."""
    rng = core.make_rng(1)
    for m_bits in (1, 2, 3, 4):
        x = rng.uniform(-1, 1, 100000)
        edges = quant.encoder_boundaries(m_bits)
        keep = np.min(np.abs(x[:, None] - edges[None, :]), axis=1) > 1e-6
        x = x[keep]
        trig = quant.mbit_encoder_digits(x, m_bits)
        canon = quant.odd_code_digits(quant.quantize_odd(x, m_bits).codes, m_bits)
        matches = np.all(trig == canon, axis=0)
        assert matches.all(), f"M={m_bits}: {(~matches).sum()} mismatches"

    # 2-bit lookup rows, high digit first, including interval closures
    anchors = [(-0.9, -3, (-1, -1)), (-1 / 3, -1, (-1, 1)), (1 / 3, 1, (1, -1)),
               (0.9, 3, (1, 1)), (-2 / 3, -3, (-1, -1)), (0.0, -1, (-1, 1)),
               (2 / 3, 3, (1, 1))]
    for x_val, code, state in anchors:
        q = quant.quantize_odd(np.array([x_val]), 2)
        assert q.codes[0] == code, f"x={x_val}"
        digits = quant.odd_code_digits(q.codes, 2)
        assert (digits[1][0], digits[0][0]) == state, f"x={x_val}"
    print("\nACCEPTANCE 03 encoder-fidelity: PASS (4x ~1e5 samples + 7 anchors)")


def test_04_analytic_speedup():
    """Speed model reproduces the published 2-bit figure at stated constants."""
    got = bench.speedup_model(2, 2, bench.SpeedModelParams(
        gamma=1.91, beta=0.955, register_bits=64, n=8192))
    assert abs(got - 15.13) <= 0.01, got
    print(f"\nACCEPTANCE 04 analytic-speedup: PASS (S_22 = {got:.4f})")


def test_05_measured_speedup():
    """Packed 1-bit dot beats the scalar float baseline by >= 5x; ordering holds.

    The ordering is timed on prepared packed calls at 64 x 8192 x 64, where
    the popcount work sets their times: at 1 x 8192 x 1 a call is mostly its
    fixed cost of about 10 us, and the three times are nearly equal.
    """
    rows = bench.bench_gemm([(1, 8192, 1)], [(1, 1)], repeats=11, seed=0)
    speedup = next(r["speedup_vs_scalar"] for r in rows if r["kernel"] == "packed")
    assert speedup >= 5.0, rows
    rng = core.make_rng(0)
    a, b = rng.uniform(-1, 1, (64, 8192)), rng.uniform(-1, 1, (64, 8192))
    calls = [functools.partial(gemm.encoded_gemm, gemm.encode_matrix(a, bits),
                               gemm.prepare_weight(gemm.encode_matrix(b, bits), bits))
             for bits in (1, 2, 3)]
    ns = dict(zip((1, 4, 9), bench._medians_ns(calls, repeats=11)))
    for small, big in ((1, 4), (4, 9)):
        assert ns[small] <= ns[big] * 1.10, ns
    print(f"\nACCEPTANCE 05 measured-speedup: PASS (1-bit {speedup:.1f}x at 1x8192x1; "
          f"{ns[1] / 1e3:.0f}/{ns[4] / 1e3:.0f}/{ns[9] / 1e3:.0f} us for 1/2/3 bits at "
          "64x8192x64)")


def test_06_gradient_correctness():
    """Encoder derivatives vs finite differences, then end-to-end STE check."""
    # (a) every (M, m): cosine surrogate vs central differences of the
    # pre-sign sine at 100 interior points
    h = 1e-6
    for m_bits in range(1, 9):
        levels = (1 << m_bits) - 1
        xs = np.linspace(-0.95, 0.95, 100)
        for m in range(1, m_bits + 1):
            c = levels / (1 << m)
            sgn = 1.0 if m == m_bits else -1.0
            fd = (sgn * np.sin(c * math.pi * (xs + h))
                  - sgn * np.sin(c * math.pi * (xs - h))) / (2 * h)
            got = quant.encoder_derivative(xs, m_bits, m)
            err = np.abs(got - fd) / np.maximum(np.abs(fd), 1e-12)
            mask = np.abs(fd) > 1e-6  # skip cosine zeros where rel error is undefined
            assert np.all(err[mask] < 1e-5), (m_bits, m, err[mask].max())

    # (b) one-layer 8-bit net: masters on grid points, finite differences
    # with a one-cell step against the straight-through gradients
    rng = core.make_rng(2)
    model = nn.init_mlp([4, 3], rng, m_bits=8, k_bits=8)
    cfg = train.TrainConfig(algorithm="qnn", learn_t=False, grid="odd")
    gs = train.init_grad_state(model, cfg)
    step = 2 / 255
    gs.params["w0"] = (2 * rng.integers(-100, 101, size=(3, 4)) + 1) / 255.0
    x = rng.uniform(-0.95, 0.95, (8, 4))
    y = rng.integers(0, 3, 8)
    train.train_step_alg2(model, (x, y), cfg, gs)
    analytic = gs.grads["w0"]

    def loss_at(w):
        probe = train.GradState(params={"w0": w, "ta0": np.array(1.0),
                                        "tw0": np.array(1.0)})
        logits, _ = train.forward_qnn(model, x, probe, cfg)
        return train.softmax_cross_entropy(logits, y)[0]

    floor = 1e-2 * np.max(np.abs(analytic))
    checked = 0
    worst = 0.0
    for i in range(3):
        for j in range(4):
            if abs(analytic[i, j]) < floor:
                continue
            wp, wm = gs.params["w0"].copy(), gs.params["w0"].copy()
            wp[i, j] += step
            wm[i, j] -= step
            fd = (loss_at(wp) - loss_at(wm)) / (2 * step)
            rel = abs(fd - analytic[i, j]) / abs(analytic[i, j])
            worst = max(worst, rel)
            assert rel < 1e-3, (i, j, rel)
            checked += 1
    assert checked >= 6
    print(f"\nACCEPTANCE 06 gradient-correctness: PASS "
          f"(36 encoder planes; end-to-end worst rel err {worst:.1e})")


def test_07_stage_equivalence():
    """Trained 2-bit model: quantized and decomposed logits agree everywhere."""
    x, y = datasets.make_moons(**MOONS)
    (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=0)
    model = nn.init_mlp(DIMS, core.make_rng(0), m_bits=2, k_bits=2)
    res = _train(model, (xt, yt), (xv, yv), epochs=50)
    quantized = train.export_model(res.model, res.grad_state, "quantized")
    decomposed = train.export_model(res.model, res.grad_state, "decomposed")
    probe = core.make_rng(3).uniform(-1, 1, (1000, 2))
    lq = nn.model_forward(quantized, probe)
    ld = nn.model_forward(decomposed, probe)
    max_diff = float(np.max(np.abs(lq - ld)))
    assert max_diff <= 1e-6, max_diff
    agree = np.mean(np.argmax(lq, 1) == np.argmax(ld, 1))
    assert agree == 1.0, agree
    print(f"\nACCEPTANCE 07 stage-equivalence: PASS "
          f"(1000 inputs, max |diff| {max_diff:.2e}, argmax agree 100%)")


def test_08_desk_scale_training():
    """2-bit training lands within 5 points of float; warm start beats cold."""
    t0 = time.monotonic()
    x, y = datasets.make_moons(**MOONS)
    (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=0)

    float_res = _train(nn.init_mlp(DIMS, core.make_rng(0)), (xt, yt), (xv, yv))
    float_acc = float_res.history[-1]["train_acc"]
    assert float_acc >= 0.95, float_acc

    q_res = _train(nn.init_mlp(DIMS, core.make_rng(0), m_bits=2, k_bits=2),
                   (xt, yt), (xv, yv))
    q_acc = q_res.history[-1]["train_acc"]
    assert q_acc >= float_acc - 0.05, (q_acc, float_acc)
    assert len(q_res.history) <= 200

    # cold start vs progressive initialization, same seed and target
    target = float_acc - 0.05
    cold = _train(nn.init_mlp(DIMS, core.make_rng(0), m_bits=2, k_bits=2),
                  (xt, yt), (xv, yv), target_acc=target)
    cold_epochs = len(cold.history)
    assert cold.history[-1]["train_acc"] >= target

    stage_cfg = train.TrainConfig(**{**TRAIN_CFG, "epochs": 30})
    high = nn.init_mlp(DIMS, core.make_rng(0), m_bits=8, k_bits=8)
    stages = train.progressive_schedule(high, (xt, yt), stage_cfg,
                                        from_bits=8, to_bits=3, val_set=(xv, yv))
    warm_model = train.progressive_init(stages[-1].model)
    assert warm_model.specs[2].m_bits == 2 and warm_model.specs[0].k_bits == 2
    warm = _train(warm_model, (xt, yt), (xv, yv), target_acc=target)
    warm_epochs = len(warm.history)
    assert warm.history[-1]["train_acc"] >= target
    assert warm_epochs < cold_epochs, (warm_epochs, cold_epochs)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 08 desk-scale-training: PASS "
          f"(float {float_acc:.3f}, 2-bit {q_acc:.3f}, warm {warm_epochs} "
          f"vs cold {cold_epochs} epochs, {elapsed:.0f}s)")


def test_09_compression_accounting():
    """Decomposed weight payloads shrink by 32/K within 5 percent."""
    rng = core.make_rng(4)
    for k_bits in (1, 2, 4, 8):
        model = nn.init_mlp([64, 32, 64, 4], rng, m_bits=k_bits, k_bits=k_bits)
        float_bytes = nn.weight_payload_bytes(model)
        dec = nn.decompose_model(nn.quantize_model(model))
        ratio = float_bytes / nn.weight_payload_bytes(dec)
        assert abs(ratio - 32 / k_bits) / (32 / k_bits) < 0.05, (k_bits, ratio)
    print("\nACCEPTANCE 09 compression-accounting: PASS (K in {1,2,4,8})")


def test_10_cli_determinism(tmp_path):
    """Identical flags and seed produce byte-identical model files and logs."""
    outputs = []
    for tag in ("run1", "run2"):
        d = tmp_path / tag
        d.mkdir()
        ckpt, log = d / "ckpt.bbm", d / "log.csv"
        rc = cli_main(["train", "--dataset", "moons", "--arch", "mlp:2-16-16-2",
                       "--M", "2", "--K", "2", "--epochs", "5", "--seed", "0",
                       "--n", "256", "--out", str(ckpt), "--log", str(log)])
        assert rc == 0
        qout, dout = d / "q.bbm", d / "d.bbm"
        assert cli_main(["quantize", "--model", str(ckpt), "--out", str(qout),
                         "--M", "2", "--K", "2"]) == 0
        assert cli_main(["decompose", "--model", str(qout), "--out", str(dout)]) == 0
        outputs.append(tuple(p.read_bytes() for p in
                             (ckpt, d / "ckpt.bbm.opt", log, qout, dout)))
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10 determinism: PASS (5 artifacts byte-identical)")


def test_11_mbbn_training_is_its_deployment():
    """mbbn, M,K in {1,2,3}: training forward and every exported stage, same logits."""
    x, y = datasets.make_moons(256, noise=0.1, seed=1)
    (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=1)
    for m_bits in (1, 2, 3):
        for k_bits in (1, 2, 3):
            model = nn.init_mlp(DIMS, core.make_rng(m_bits * 10 + k_bits), m_bits=m_bits,
                                k_bits=k_bits, flavor="mbbn")
            cfg = train.TrainConfig(algorithm="mbbn", epochs=15, batch_size=64, seed=2)
            res = train.train_model(model, (xt, yt), cfg)
            reference = train.training_forward(model, xv, res.grad_state, cfg)
            for stage in ("float", "quantized", "decomposed"):
                deployed = train.export_model(model, res.grad_state, stage)
                logits = nn.model_forward(deployed, xv)
                assert np.array_equal(logits, reference), (m_bits, k_bits, stage)
    print("\nACCEPTANCE 11 mbbn-training-is-deployment: PASS "
          "(9 (M, K) pairs x 3 exported stages, logits bit-identical)")
