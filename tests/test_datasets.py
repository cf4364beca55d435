"""Synthetic generators and the image-grid binary format."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bitbranch import core, datasets
from bitbranch.cli import main


class TestGenerators:
    @pytest.mark.parametrize("name", ["moons", "spirals", "blobs"])
    def test_in_unit_box_and_deterministic(self, name):
        gen = datasets.GENERATORS[name]
        x1, y1 = gen(200, seed=5)
        x2, y2 = gen(200, seed=5)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert x1.shape == (200, 2)
        assert np.all(x1 >= -1.0) and np.all(x1 <= 1.0)

    def test_seeds_differ(self):
        a, _ = datasets.make_moons(100, seed=0)
        b, _ = datasets.make_moons(100, seed=1)
        assert not np.allclose(a, b)

    def test_moons_separable_by_eye(self):
        x, y = datasets.make_moons(400, noise=0.05, seed=3)
        # class means are well separated on the second axis
        assert abs(x[y == 0, 1].mean() - x[y == 1, 1].mean()) > 0.5

    def test_split_deterministic_and_disjoint(self):
        x, y = datasets.make_moons(100, seed=4)
        (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=0)
        assert len(xt) == 75 and len(xv) == 25
        (xt2, _), _ = datasets.split(x, y, 0.25, seed=0)
        np.testing.assert_array_equal(xt, xt2)


class TestGridFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.uniform(-1, 1, (5, 1, 4, 4)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 3, 5)
        path = tmp_path / "toy.grid"
        datasets.save_grid(str(path), images, labels)
        back_images, back_labels = datasets.load_grid(str(path))
        np.testing.assert_array_equal(back_images, images)
        np.testing.assert_array_equal(back_labels, labels)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("cut") / "toy.grid"
        datasets.save_grid(str(path), np.zeros((3, 2, 2, 2)), np.arange(3))
        blob = path.read_bytes()
        path.write_bytes(blob[:data.draw(st.integers(len(datasets.GRID_MAGIC), len(blob) - 1))])
        with pytest.raises(core.FormatError, match="truncated payload"):
            datasets.load_grid(str(path))

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes(self, tmp_path_factory, junk):
        path = tmp_path_factory.mktemp("junk") / "toy.grid"
        datasets.save_grid(str(path), np.zeros((3, 2, 2, 2)), np.arange(3))
        path.write_bytes(path.read_bytes() + junk)
        with pytest.raises(core.FormatError, match=f"{len(junk)} bytes after the labels"):
            datasets.load_grid(str(path))

    @pytest.mark.parametrize("damage", ["cut", "junk"])
    def test_cli_exit_2(self, tmp_path, capsys, damage):
        path = tmp_path / "toy.grid"
        datasets.save_grid(str(path), np.zeros((4, 1, 2, 2)), np.arange(4) % 2)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5] if damage == "cut" else blob + b"\0\0\0")
        argv = ["train", "--dataset", f"grid:{path}", "--arch", "mlp:4-2", "--epochs", "1",
                "--out", str(tmp_path / "m.bbm")]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.grid"
        path.write_bytes(b"nope")
        with pytest.raises(IOError):
            datasets.load_grid(str(path))

    def test_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            datasets.save_grid(str(tmp_path / "x.grid"), np.zeros((2, 4, 4)), np.zeros(2))
