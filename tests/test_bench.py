"""Analytic speedup model and the micro-benchmark harness."""

import math

import numpy as np
import pytest

from bitbranch import bench, core, gemm


class TestSpeedupModel:
    def test_two_bit_default_constants(self):
        got = bench.speedup_model(2, 2, bench.SpeedModelParams())
        assert abs(got - 15.13) <= 0.01

    def test_one_bit_value(self):
        # direct evaluation: 8192 * 1.91 / (1.91 + 2 * 128) = 60.667...
        got = bench.speedup_model(1, 1, bench.SpeedModelParams())
        assert got == pytest.approx(8192 * 1.91 / (1.91 + 256), rel=1e-12)
        assert got == pytest.approx(60.667, abs=0.001)

    def test_formula_against_independent_evaluation(self):
        p = bench.SpeedModelParams(gamma=2.5, beta=0.7, register_bits=128, n=1000)
        for m in (1, 3, 8):
            for k in (2, 5):
                mk = m * k
                expected = (1000 * 2.5) / (mk * (2.5 + 2 * math.ceil(1000 / 128))
                                           + (mk - 1) * 0.7)
                assert bench.speedup_model(m, k, p) == pytest.approx(expected, rel=1e-12)

    def test_monotone_nonincreasing_in_mk(self):
        grid = bench.speedup_grid(bench.SpeedModelParams())
        entries = [(m * k, grid[m - 1, k - 1]) for m in range(1, 9) for k in range(1, 9)]
        for mk_a, s_a in entries:
            for mk_b, s_b in entries:
                if mk_a < mk_b:
                    assert s_a >= s_b

    def test_param_validation(self):
        with pytest.raises(core.ConfigError):
            bench.SpeedModelParams(gamma=0.0)
        with pytest.raises(core.ConfigError):
            bench.SpeedModelParams(register_bits=48)
        with pytest.raises(core.ConfigError):
            bench.speedup_model(0, 2, bench.SpeedModelParams())


class TestBenchHarness:
    def test_zero_repeats_empty_report(self):
        assert bench.bench_gemm([(1, 64, 1)], [(1, 1)], repeats=0) == []

    def test_rows_and_schema(self):
        rows = bench.bench_gemm([(2, 128, 2)], [(1, 1), (2, 2)], repeats=3)
        kernels = [r["kernel"] for r in rows]
        assert kernels[0] == "scalar_float" and kernels[1] == "blas_float"
        assert kernels[2:] == ["packed", "blas_codes"] * 2
        for row in rows:
            assert set(bench.CSV_FIELDS) <= set(row)
        coded = [r for r in rows if r["kernel"] in ("packed", "blas_codes")]
        assert [(r["M"], r["K"]) for r in coded] == [(1, 1), (1, 1), (2, 2), (2, 2)]
        assert all(r["median_ns"] > 0 for r in coded)

    def test_csv_and_plot_outputs(self, tmp_path):
        rows = bench.bench_gemm([(1, 256, 1)], [(1, 1), (1, 2)], repeats=3)
        csv_path = tmp_path / "bench.csv"
        bench.write_csv(rows, str(csv_path))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "kernel,M,K,P,N,Q,median_ns,speedup_vs_scalar"
        assert len(lines) == 7  # header, scalar_float, blas_float, packed + blas_codes twice
        dat_path = tmp_path / "bars.dat"
        bench.write_plot_data(rows, str(dat_path))
        body = [l for l in dat_path.read_text().splitlines() if l and not l.startswith("#")]
        assert body[0].startswith("1 1 ")

    def test_weight_prepared_once_per_precision(self, monkeypatch):
        # the timed packed calls get a prepared weight, as a model's plan does
        prepared = []
        real = gemm.prepare_weight

        def counting(w, x_bits, *args):
            prepared.append((x_bits, w.bits))
            return real(w, x_bits, *args)

        monkeypatch.setattr(gemm, "prepare_weight", counting)
        rows = bench.bench_gemm([(2, 128, 2)], [(1, 1), (2, 3)], repeats=2)
        assert [r["kernel"] for r in rows].count("packed") == 2
        assert prepared == [(1, 1), (2, 3)]

    def test_scalar_baseline_matches_blas(self):
        rng = core.make_rng(0)
        a = rng.uniform(-1, 1, (3, 50))
        b = rng.uniform(-1, 1, (4, 50))
        got = np.array(bench.scalar_gemm(a, b))
        np.testing.assert_allclose(got, a @ b.T, rtol=1e-12)
