"""The model file: pinned bytes, the decomposed payload layout, and corrupt files."""

import hashlib
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bitbranch import core, datasets, gemm, nn, train
from bitbranch.cli import main

# sha256 of the files save_model writes for golden_models(); recorded before
# the decomposed payload writer was vectorized, and unchanged by it
GOLDEN_SHA256 = {
    "float": "df57d0b38d6fa2984116a3aa6e261bbfd306e0963f3e5201b5c426b80a1ce849",
    "quantized": "cf956f3e4668a487d476ffc5e219eb8e89a26147ded901627052974c4861a88a",
    "decomposed": "f34d31ad3ad7d3c21483c93c6c5f3194a0132e08bb0e7529e1361ba831ac3f92",
}


def golden_models():
    """Fixed-seed conv2d + batchnorm + dense model in all three stages.

    The reduction lengths 27 and 100 are not multiples of 64, and neither
    are the plane lengths rows*cols = 108 and 700, so plane words straddle
    row boundaries in the file.
    """
    rng = core.make_rng(20261018)
    specs = [nn.conv2d(3, 4, 3, 3, padding=1, m_bits=2, k_bits=3), nn.batchnorm(4),
             nn.act_layer("htanh"),
             nn.dense(100, 7, m_bits=3, k_bits=2, follows_bn=True), nn.batchnorm(7),
             nn.dense(7, 3)]
    return all_stages(nn.ModelState("float", specs, random_weights(specs, rng)))


def random_weights(specs, rng):
    """Uniform weights in [-1, 1] per dense or conv layer, random batchnorm statistics."""
    weights = []
    for spec in specs:
        if spec.kind == "batchnorm":
            f = spec.in_features
            weights.append({"gamma": rng.uniform(0.5, 2, f), "beta": rng.uniform(-1, 1, f),
                            "mean": rng.uniform(-1, 1, f), "var": rng.uniform(0.5, 2, f)})
        elif spec.kind in ("dense", "conv2d"):
            weights.append(rng.uniform(-1, 1, spec.weight_shape()))
        else:
            weights.append(None)
    return weights


def all_stages(float_model):
    """A float model, quantized and decomposed."""
    quantized = nn.quantize_model(float_model)
    return {"float": float_model, "quantized": quantized,
            "decomposed": nn.decompose_model(quantized)}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for stage, model in golden_models().items():
        paths[stage] = folder / f"{stage}.bbm"
        nn.save_model(model, str(paths[stage]))
    return paths


def payload_of(blob):
    return blob[blob.index(b"\n", len(nn.MODEL_MAGIC)) + 1:]


def reference_payload(enc):
    """Per-row writer: each plane's rows laid end to end, LSB-first, zero padded."""
    n = enc.rows * enc.cols
    out = b""
    for m in range(enc.bits):
        plane = 0
        for r in range(enc.rows):
            row = int.from_bytes(enc.words[r, m].astype("<u8").tobytes(), "little")
            plane |= (row & ((1 << enc.cols) - 1)) << (r * enc.cols)
        out += struct.pack("<Q", n) + plane.to_bytes(8 * (-(-n // 64)), "little")
    return out


def one_layer_file(path, enc):
    model = nn.ModelState(stage="decomposed", specs=[nn.dense(enc.cols, enc.rows, 1, enc.bits)],
                          weights=[enc])
    nn.save_model(model, str(path))
    return path.read_bytes()


class TestGoldenBytes:
    @pytest.mark.parametrize("stage", sorted(GOLDEN_SHA256))
    def test_digest_pinned(self, golden_files, stage):
        blob = golden_files[stage].read_bytes()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[stage]

    @pytest.mark.parametrize("stage", sorted(GOLDEN_SHA256))
    def test_load_save_reproduces_bytes(self, golden_files, tmp_path, stage):
        again = tmp_path / "again.bbm"
        nn.save_model(nn.load_model(str(golden_files[stage])), str(again))
        assert again.read_bytes() == golden_files[stage].read_bytes()


class TestDecomposedPayload:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 70), cols=st.integers(1, 200), bits=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_writer_and_round_trips(self, tmp_path_factory, rows, cols, bits,
                                                    seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << bits, size=(rows, cols)) * 2 - ((1 << bits) - 1)
        enc = gemm.encode_codes(codes, bits)
        path = tmp_path_factory.mktemp("payload") / "m.bbm"
        assert payload_of(one_layer_file(path, enc)) == reference_payload(enc)
        back = nn.load_model(str(path)).weights[0]
        assert (back.bits, back.rows, back.cols) == (bits, rows, cols)
        assert back.words.dtype == np.uint64 and back.words.flags.c_contiguous
        np.testing.assert_array_equal(back.words, enc.words)
        tail = cols % 64
        if tail:
            assert not np.any(back.words[:, :, -1] >> np.uint64(tail))


    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 70), cols=st.integers(1, 200), bits=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_pad_bits_in_the_file_are_dropped(self, tmp_path_factory, rows, cols, bits, seed):
        # a writer may leave ones past rows*cols in each plane's last word
        n = rows * cols
        assume(n % 64)
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << bits, size=(rows, cols)) * 2 - ((1 << bits) - 1)
        enc = gemm.encode_codes(codes, bits)
        folder = tmp_path_factory.mktemp("pad")
        canon = one_layer_file(folder / "canon.bbm", enc)
        payload = payload_of(canon)
        planes = np.frombuffer(payload, dtype="<u8").reshape(bits, -1).copy()
        planes[:, -1] |= ~np.uint64((1 << (n % 64)) - 1)
        (folder / "pads.bbm").write_bytes(canon[:len(canon) - len(payload)] + planes.tobytes())
        back = nn.load_model(str(folder / "pads.bbm"))
        np.testing.assert_array_equal(back.weights[0].words, enc.words)
        if cols % 64:
            assert not np.any(back.weights[0].words[:, :, -1] >> np.uint64(cols % 64))
        nn.save_model(back, str(folder / "again.bbm"))
        assert (folder / "again.bbm").read_bytes() == canon


class TestCorruptFiles:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_at_any_offset(self, golden_files, tmp_path_factory, data):
        blob = golden_files["decomposed"].read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1))
        path = tmp_path_factory.mktemp("cut") / "m.bbm"
        path.write_bytes(blob[:cut])
        with pytest.raises(core.FormatError):
            nn.load_model(str(path))

    @settings(max_examples=50, deadline=None)
    @given(junk=st.binary(min_size=1, max_size=16))
    def test_trailing_bytes(self, golden_files, tmp_path_factory, junk):
        path = tmp_path_factory.mktemp("junk") / "m.bbm"
        path.write_bytes(golden_files["decomposed"].read_bytes() + junk)
        with pytest.raises(core.FormatError, match="after the last payload"):
            nn.load_model(str(path))

    @pytest.mark.parametrize("header", [b"{not json\n", b"\xff\xfe\n"])
    def test_undecodable_header(self, golden_files, tmp_path, header):
        blob = golden_files["decomposed"].read_bytes()
        path = tmp_path / "m.bbm"
        path.write_bytes(nn.MODEL_MAGIC + header + payload_of(blob))
        with pytest.raises(core.FormatError, match="undecodable header"):
            nn.load_model(str(path))

    def test_plane_length_must_be_rows_times_cols(self, tmp_path):
        enc = gemm.encode_codes(np.ones((3, 5), dtype=np.int64), 2)
        path = tmp_path / "m.bbm"
        blob = one_layer_file(path, enc)
        at = len(blob) - len(payload_of(blob))
        assert blob[at:at + 8] == struct.pack("<Q", 15)
        path.write_bytes(blob[:at] + struct.pack("<Q", 16) + blob[at + 8:])
        with pytest.raises(core.FormatError, match="rows\\*cols = 15"):
            nn.load_model(str(path))

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "m.bbm"
        path.write_bytes(b"not a model\n")
        with pytest.raises(core.FormatError, match="bad magic"):
            nn.load_model(str(path))

    @pytest.mark.parametrize("edit,error", [
        (lambda h: {}, "'stage' is missing"),
        (lambda h: [h], "'stage' is missing"),
        (lambda h: {**h, "layers": 3}, "'layers' is missing or not a list"),
        (lambda h: {**h, "weights": h["weights"][:-1]}, "5 weight entries for 6 layers"),
        (lambda h: {**h, "layers": [{k: v for k, v in h["layers"][0].items() if k != "in"}]
                    + h["layers"][1:]}, "lacks the key 'in'"),
        (lambda h: {**h, "weights": [{}] + h["weights"][1:]}, "lacks the key 'form'"),
        (lambda h: {**h, "stage": "bogus"}, "unknown stage 'bogus'"),
        (lambda h: {**h, "flavor": "zzz"}, "unknown flavor 'zzz'"),
    ], ids=["empty", "not_object", "layers_mistyped", "weights_count", "layer_key",
            "weight_key", "stage_value", "flavor_value"])
    def test_header_schema(self, golden_files, tmp_path, capsys, edit, error):
        blob = golden_files["decomposed"].read_bytes()
        line = blob[len(nn.MODEL_MAGIC):len(blob) - len(payload_of(blob))]
        header = edit(json.loads(line))
        path = tmp_path / "m.bbm"
        path.write_bytes(nn.MODEL_MAGIC + json.dumps(header).encode() + b"\n" + payload_of(blob))
        with pytest.raises(core.FormatError, match=error):
            nn.load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("stage,key,value,error", [
        ("decomposed", "form", "bogus", "weight form 'bogus' does not fit a conv2d layer"),
        ("decomposed", "form", "batchnorm", "weight form 'batchnorm' does not fit"),
        ("decomposed", "bits", "2", "'bits' must be an int 1..8, got '2'"),
        ("decomposed", "bits", 9, "'bits' must be an int 1..8, got 9"),
        ("decomposed", "bits", True, "'bits' must be an int 1..8, got True"),
        ("decomposed", "rows", 4.0, "'rows' must be an int >= 0, got 4.0"),
        ("decomposed", "cols", None, "'cols' must be an int >= 0, got None"),
        ("decomposed", "rows", 5, "weight of shape (5, 27), expected (4, 27)"),
        ("quantized", "bits", 0, "'bits' must be an int 1..8, got 0"),
        ("quantized", "grid", "even", "grid 'odd' or 'linear'"),
        ("quantized", "shape", [4, 3, 3, "3"], "'shape' must be an int >= 0, got '3'"),
        ("quantized", "shape", [4, 27], "weight of shape (4, 27), expected (4, 3, 3, 3)"),
        ("float", "shape", 108, "'shape' must be a list of ints, got 108"),
        ("float", "shape", [4, 3, 9], "weight of shape (4, 3, 9), expected (4, 3, 3, 3)"),
    ])
    def test_weight_entry_values(self, golden_files, tmp_path, capsys, stage, key, value, error):
        blob = golden_files[stage].read_bytes()
        line = blob[len(nn.MODEL_MAGIC):len(blob) - len(payload_of(blob))]
        header = json.loads(line)
        header["weights"][0][key] = value
        path = tmp_path / "m.bbm"
        path.write_bytes(nn.MODEL_MAGIC + json.dumps(header).encode() + b"\n" + payload_of(blob))
        with pytest.raises(core.FormatError, match=re.escape(error)):
            nn.load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("layer,key,value,error", [
        (0, "kernel", [3], "'kernel' must be a list of 2 ints, got [3]"),
        (0, "kernel", 3, "'kernel' must be a list of 2 ints, got 3"),
        (0, "kernel", [3, 0], "'kernel' must be an int >= 1, got 0"),
        (0, "in", None, "'in' must be an int >= 1, got None"),
        (0, "out", 4.0, "'out' must be an int >= 1, got 4.0"),
        (0, "stride", 0, "'stride' must be an int >= 1, got 0"),
        (0, "padding", -1, "'padding' must be an int >= 0, got -1"),
        (0, "M", 9, "'M' must be an int 1..8, got 9"),
        (0, "M", "2", "'M' must be an int 1..8, got '2'"),
        (0, "K", True, "'K' must be an int 1..8, got True"),
        (0, "r", "x", "'r' must be a finite number, got 'x'"),
        (0, "r", float("nan"), "'r' must be a finite number, got nan"),
        (0, "follows_bn", "yes", "'follows_bn' must be true or false, got 'yes'"),
        (0, "kind", "pool", "unknown layer kind 'pool'"),
        (1, "features", 4.0, "'features' must be an int >= 1, got 4.0"),
        (1, "eps", -1.0, "'eps' must be a finite number >= 0, got -1.0"),
        (2, "act", "relu", "unknown activation 'relu'"),
    ])
    def test_layer_spec_values(self, golden_files, tmp_path, capsys, layer, key, value, error):
        blob = golden_files["decomposed"].read_bytes()
        line = blob[len(nn.MODEL_MAGIC):len(blob) - len(payload_of(blob))]
        header = json.loads(line)
        header["layers"][layer][key] = value
        path = tmp_path / "m.bbm"
        path.write_bytes(nn.MODEL_MAGIC + json.dumps(header).encode() + b"\n" + payload_of(blob))
        with pytest.raises(core.FormatError, match=re.escape(error)):
            nn.load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 2
        assert error in capsys.readouterr().err

    def test_payload_shape_must_match_header(self, tmp_path):
        # a header that fits the spec over a float payload of another shape
        model = nn.ModelState("float", [nn.dense(3, 2)], [np.zeros((2, 3))])
        path = tmp_path / "m.bbm"
        nn.save_model(model, str(path))
        blob = path.read_bytes()
        payload = payload_of(blob)
        bad = core.tensor_to_bytes(np.zeros((3, 2)))
        assert len(bad) == len(payload)
        path.write_bytes(blob[:len(blob) - len(payload)] + bad)
        with pytest.raises(core.FormatError, match=re.escape("weight of shape (3, 2), "
                                                             "expected (2, 3)")):
            nn.load_model(str(path))

    @pytest.mark.parametrize("rank,dims,error", [
        (2, (0, 2**62), "are too large"),  # a zero dim passes the length check
        (2, (2**62, 0), "are too large"),
        (33, (0,) * 33, "rank 33 exceeds 32"),
    ])
    def test_tensor_header_bounds(self, tmp_path, capsys, rank, dims, error):
        model = nn.ModelState("float", [nn.dense(3, 2)], [np.zeros((2, 3))])
        path = tmp_path / "m.bbm"
        nn.save_model(model, str(path))
        blob = path.read_bytes()
        bad = struct.pack("<Q", rank) + struct.pack(f"<{rank}Q", *dims)
        path.write_bytes(blob[:len(blob) - len(payload_of(blob))] + bad)
        with pytest.raises(core.FormatError, match=re.escape(error)):
            nn.load_model(str(path))
        assert main(["inspect", "--model", str(path)]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["cut", "junk"])
    def test_cli_exit_2(self, golden_files, tmp_path, capsys, damage):
        blob = golden_files["decomposed"].read_bytes()
        path = tmp_path / "m.bbm"
        path.write_bytes(blob[:-5] if damage == "cut" else blob + b"\0\0\0\0")
        assert main(["inspect", "--model", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_signalling_nan_weight_loads_quietly_and_is_rejected(tmp_path):
    # one flipped exponent bit of a float32 weight can make a signalling NaN,
    # which must load as a NaN without a warning and fail quantization by name
    path = tmp_path / "m.bbm"
    nn.save_model(nn.ModelState("float", [nn.dense(2, 3, 2, 2)], [np.zeros((3, 2))]), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4] + struct.pack("<I", 0x7F800001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = nn.load_model(str(path))
        w = model.weights[0]
        assert np.isnan(w[2, 1]) and np.count_nonzero(np.isnan(w)) == 1
        with pytest.raises(core.DomainError,
                           match=re.escape("dense 2->3 layer weight: 1 non-finite values")):
            nn.quantize_model(model)


# what a forward may raise on a model that loaded from a damaged file
TYPED_ERRORS = (core.ShapeError, core.ConfigError, core.EncodingError, core.DomainError,
                core.StageError, core.DecompositionError, core.FormatError)


@pytest.fixture(scope="module")
def flip_targets(tmp_path_factory):
    """name -> (files of one save, the file to damage, its loader, a forward input).

    An MLP and a conv net that runs end to end, each in all three stages,
    and an mbbn checkpoint: its model file and its .opt sidecar.
    """
    folder = tmp_path_factory.mktemp("flip")
    rng = core.make_rng(5)
    conv = [nn.conv2d(3, 4, 3, 3, padding=1, m_bits=2, k_bits=2), nn.batchnorm(4),
            nn.act_layer("htanh"), nn.conv2d(4, 5, 3, 3, stride=2, padding=1, m_bits=3, k_bits=2)]
    nets = {"mlp": (nn.init_mlp([8, 6, 3], rng, m_bits=2, k_bits=2, quantize_input=True),
                    rng.uniform(-1, 1, (5, 8))),
            "conv": (nn.ModelState("float", conv, random_weights(conv, rng)),
                     rng.uniform(-1, 1, (2, 3, 5, 5)))}
    targets = {}
    for net, (model, x) in nets.items():
        for stage, m in all_stages(model).items():
            nn.save_model(m, str(folder / "m.bbm"))
            targets[f"{net}-{stage}"] = ({"m.bbm": (folder / "m.bbm").read_bytes()}, "m.bbm",
                                         nn.load_model, x)
    x, y = datasets.make_moons(64, seed=4)
    model = nn.init_mlp([2, 4, 2], rng, m_bits=2, k_bits=2, flavor="mbbn")
    cfg = train.TrainConfig(algorithm="mbbn", epochs=1, batch_size=32, seed=0)
    res = train.train_model(model, (x, y), cfg)
    train.save_checkpoint(str(folder / "c.bbm"), res.model, res.grad_state, cfg)
    files = {name: (folder / name).read_bytes() for name in ("c.bbm", "c.bbm.opt")}
    for name in files:
        targets["mbbn-" + name] = (files, name, lambda p: train.load_checkpoint(p)[0], x[:5])
    return targets


class TestBitFlips:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_flipped_bit(self, flip_targets, tmp_path_factory, data):
        # a damaged file raises FormatError on load, or loads a model whose
        # forward gives outputs or a typed error
        files, damaged, load, x = flip_targets[data.draw(st.sampled_from(sorted(flip_targets)))]
        bit = data.draw(st.integers(0, 8 * len(files[damaged]) - 1))
        folder = tmp_path_factory.mktemp("flip")
        for name, blob in files.items():
            if name == damaged:
                blob = bytearray(blob)
                blob[bit // 8] ^= 1 << (bit % 8)
            (folder / name).write_bytes(blob)
        try:
            model = load(str(folder / min(files)))  # the model file sorts before .opt
        except core.FormatError:
            return
        try:
            with np.errstate(all="ignore"):  # flipped exponents make inf and NaN weights
                out = nn.model_forward(model, x)
        except TYPED_ERRORS:
            return
        assert isinstance(out, np.ndarray) and out.shape[0] == len(x)
