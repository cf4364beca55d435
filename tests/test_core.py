"""Matmul, RNG determinism, rounding, and serialization round trips."""

import numpy as np
import pytest

from bitbranch import core


def matmul_oracle(a, b):
    """Brute-force triple loop, independent of the library path."""
    p, n = a.shape
    n2, q = b.shape
    assert n == n2
    out = np.zeros((p, q))
    for i in range(p):
        for j in range(q):
            s = 0.0
            for k in range(n):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(core.matmul_f(np.eye(2), a), a)

    def test_hand_dot(self):
        out = core.matmul_f(np.array([[1.0, 2.0, 3.0]]), np.array([[4.0], [5.0], [6.0]]))
        assert out[0, 0] == 32.0

    def test_against_triple_loop(self):
        rng = core.make_rng(3)
        a = rng.uniform(-1, 1, (5, 7))
        b = rng.uniform(-1, 1, (7, 3))
        np.testing.assert_allclose(core.matmul_f(a, b), matmul_oracle(a, b), rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(core.ShapeError):
            core.matmul_f(np.zeros((2, 3)), np.zeros((4, 2)))


class TestRng:
    def test_frozen_stream(self):
        # golden values pin the generator choice; a silent algorithm swap
        # would break reproducibility of every seeded artifact
        got = core.make_rng(7).uniform(-1, 1, 4)
        np.testing.assert_allclose(got, [-0.062365026088134, -0.147708327521631,
                                         -0.274036598332798, -0.525292181983572],
                                   atol=1e-15)


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, 0.49, -0.49])
        np.testing.assert_array_equal(core.round_half_away(x),
                                      [1.0, -1.0, 2.0, -2.0, 3.0, 0.0, -0.0])


class TestSerialization:
    def test_round_trip(self):
        rng = core.make_rng(5)
        t = rng.uniform(-1, 1, (3, 4, 2)).astype(np.float32).astype(np.float64)
        buf = core.tensor_to_bytes(t)
        back, used = core.tensor_from_bytes(buf)
        assert used == len(buf)
        np.testing.assert_array_equal(back, t)

    def test_header_layout(self):
        buf = core.tensor_to_bytes(np.zeros((2, 3)))
        assert buf[:8] == (2).to_bytes(8, "little")
        assert buf[8:16] == (2).to_bytes(8, "little")
        assert buf[16:24] == (3).to_bytes(8, "little")
        assert len(buf) == 24 + 4 * 6

    def test_reserialization_identical(self):
        rng = core.make_rng(9)
        t = rng.uniform(-1, 1, (8,))
        b1 = core.tensor_to_bytes(t)
        t2, _ = core.tensor_from_bytes(b1)
        assert core.tensor_to_bytes(t2) == b1
