"""Quantized layer forwards, model decomposition, and the model container.

A model is an ordered list of layer specs plus one weight entry per layer,
and lives in exactly one stage:

* ``float``       weights are real tensors; reference semantics.
* ``quantized``   weights are integer code grids; each dense/conv input
                  is quantized once, on the fly, and the codes are
                  multiplied exactly on BLAS (``gemm.code_matmul``).
* ``decomposed``  weights are packed {-1,+1} bit planes; the forward pass
                  runs on the xnor/popcount kernel and is value-identical
                  to the quantized stage. It runs only in ``model_forward``:
                  a model's first forward compiles it into an integer plan
                  (see below), and ``dense_forward``/``conv2d_forward`` take
                  the float and quantized stages only.

Convolution is lowered to patch extraction followed by the same GEMM as
dense layers: im2col of the activation in the float stage and of its codes
in the quantized stage, a gather of code bytes in the decomposed stage, or
after a fold a direct conv of packed pixels.
``gemm`` picks the C or the numpy kernel; this module does not know which
one runs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bitops, core, gemm, quant
from .core import ConfigError, DecompositionError, DomainError, FormatError, ShapeError, StageError

MODEL_MAGIC = b"#bitbranch-model-v1\n"

STAGES = ("float", "quantized", "decomposed")

FLAVORS = ("qnn", "mbbn")


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # dense | conv2d | batchnorm | activation
    in_features: int = 0
    out_features: int = 0
    kernel: tuple[int, int] = (0, 0)
    stride: int = 1
    padding: int = 0
    m_bits: int | None = None  # activation bits; None = full precision
    k_bits: int | None = None  # weight bits; None = full precision
    follows_bn: bool = False
    r: float = 1.0
    act: str = ""  # activation kind, for kind == "activation"
    eps: float = 1e-5  # batchnorm epsilon

    def weight_shape(self) -> tuple | None:
        if self.kind == "dense":
            return (self.out_features, self.in_features)
        if self.kind == "conv2d":
            return (self.out_features, self.in_features, *self.kernel)
        return None

    def reduction_len(self) -> int:
        if self.kind == "dense":
            return self.in_features
        if self.kind == "conv2d":
            return self.in_features * self.kernel[0] * self.kernel[1]
        raise ShapeError(f"{self.kind} layer has no reduction axis")


def dense(n_in: int, n_out: int, m_bits=None, k_bits=None, follows_bn=False, r=1.0) -> LayerSpec:
    return LayerSpec(kind="dense", in_features=n_in, out_features=n_out,
                     m_bits=m_bits, k_bits=k_bits, follows_bn=follows_bn, r=r)


def conv2d(c_in: int, c_out: int, kh: int, kw: int, stride=1, padding=0,
           m_bits=None, k_bits=None, follows_bn=False, r=1.0) -> LayerSpec:
    return LayerSpec(kind="conv2d", in_features=c_in, out_features=c_out,
                     kernel=(kh, kw), stride=stride, padding=padding,
                     m_bits=m_bits, k_bits=k_bits, follows_bn=follows_bn, r=r)


def batchnorm(features: int, eps: float = 1e-5) -> LayerSpec:
    return LayerSpec(kind="batchnorm", in_features=features, out_features=features, eps=eps)


def act_layer(kind: str) -> LayerSpec:
    return LayerSpec(kind="activation", act=kind)


@dataclass
class ModelState:
    """Layer topology plus weights, tagged with the stage they are stored in.

    ``flavor`` is "qnn" for one master weight per layer and "mbbn" for
    float models that keep one master per weight bit (leading branch axis).
    """

    stage: str
    specs: list[LayerSpec]
    weights: list  # per layer: ndarray | QuantizedTensor | EncodedMatrix | dict | None
    flavor: str = "qnn"
    # the decomposed stage's integer plan, built by its first forward and
    # rebuilt when a spec or a weight object is replaced (not when a weight
    # array is written in place)
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stage not in STAGES:
            raise StageError(f"unknown stage {self.stage!r}")
        if len(self.specs) != len(self.weights):
            raise ShapeError("one weight entry per layer spec required")


# ---------------------------------------------------------------------------
# Layer forwards
# ---------------------------------------------------------------------------

def _weight_matrix(spec: LayerSpec, w: np.ndarray) -> np.ndarray:
    """Flatten a weight tensor to (out, reduction)."""
    return np.asarray(w, dtype=np.float64).reshape(spec.out_features, spec.reduction_len())


def _layer_name(spec: LayerSpec) -> str:
    name = f"{spec.kind} {spec.in_features}->{spec.out_features}"
    if spec.kind == "conv2d":
        name += f" {spec.kernel[0]}x{spec.kernel[1]}"
    return name + " layer"


def _dequantized(w: gemm.EncodedMatrix) -> np.ndarray:
    """Bit-plane weights as the quantized stage's reals, codes / (2^K - 1)."""
    return gemm.decode_codes(w).astype(np.float64) * (1.0 / ((1 << w.bits) - 1))


def _output_scale(spec: LayerSpec, k_bits: int) -> float:
    """The factor of ``_acc_output``: 1 under ``follows_bn``, else to real units."""
    return 1.0 if spec.follows_bn else gemm.output_scale(spec.m_bits, k_bits, spec.r)


def _acc_output(acc: np.ndarray, spec: LayerSpec, k_bits: int) -> np.ndarray:
    """A quantized layer's output from its integer accumulator: raw under
    ``follows_bn``, whose batchnorm absorbs the scale, else in real units."""
    return np.asarray(acc, dtype=np.float64) * _output_scale(spec, k_bits)


def _reject_non_finite(x2d: np.ndarray, spec: LayerSpec) -> None:
    """The quantizer's input rows must be finite; both stages raise this error."""
    bad = x2d.size - int(np.count_nonzero(np.isfinite(x2d)))
    if bad:
        raise DomainError(f"{_layer_name(spec)} input: {bad} non-finite values cannot be "
                          "quantized")


def _rows(x: np.ndarray, spec: LayerSpec, fill: float = 0.0) -> np.ndarray:
    """The GEMM's left operand: a dense input as it is, a conv input's patch matrix."""
    if spec.kind != "conv2d":
        return x
    return im2col(x, *spec.kernel, spec.stride, spec.padding, fill=fill)


def _gemm_stage(x: np.ndarray, spec: LayerSpec, w, stage: str) -> np.ndarray:
    """Shared dense/conv core: the layer input's rows (``_rows``) against its weight.
    A layer without K keeps its float weight through ``quantize_model``, and
    runs as in the float stage."""
    if stage == "float" or (stage == "quantized" and spec.k_bits is None):
        if not isinstance(w, np.ndarray):
            raise StageError("float stage requires a float weight tensor")
        return core.matmul_f(_rows(x, spec), _weight_matrix(spec, w).T)

    if stage == "quantized":
        if not isinstance(w, quant.QuantizedTensor):
            raise StageError("quantized stage requires integer-coded weights")
        w_codes = w.codes.reshape(spec.out_features, spec.reduction_len())
        if w.grid != "odd" or spec.m_bits is None:
            x2d = _rows(x, spec)
            if spec.m_bits is not None:
                _reject_non_finite(x2d, spec)
                x2d = quant.dequantize(quant.quantize_linear(x2d, spec.m_bits))
            return core.matmul_f(x2d, (w_codes.astype(np.float64) * w.d).T)
        # quantization is elementwise, so it commutes with the patch gather:
        # quantize the input once, and pad its codes with that of 0.0, -1
        finite = np.isfinite(x)
        if not finite.all():
            _reject_non_finite(_rows(x, spec), spec)  # counts the patch entries
            x = np.where(finite, x, 0.0)  # what is left lies outside every window
        dtype = gemm.code_dtype(spec.reduction_len(), spec.m_bits, w.bits)
        codes = quant._odd_codes(x, spec.m_bits, dtype)
        acc = gemm.code_matmul(_rows(codes, spec, fill=-1.0), w_codes, spec.m_bits, w.bits)
        return _acc_output(acc, spec, w.bits)

    raise StageError(f"stage {stage!r} has no per-layer forward; float and quantized do, and "
                     "the decomposed stage runs in model_forward")


def _checked_input(x: np.ndarray, spec: LayerSpec) -> np.ndarray:
    """The layer's input, checked; a conv output (B, C, H, W) reaching a
    dense layer with C * H * W = in_features is flattened in (c, h, w) order."""
    if spec.kind == "dense":
        if x.ndim == 4 and math.prod(x.shape[1:]) == spec.in_features:
            return x.reshape(len(x), spec.in_features)
        if x.ndim != 2 or x.shape[1] != spec.in_features:
            raise ShapeError(f"dense input {x.shape} does not match "
                             f"in_features={spec.in_features}")
    if spec.kind == "conv2d" and (x.ndim != 4 or x.shape[1] != spec.in_features):
        raise ShapeError(f"conv input {x.shape} does not match in_channels={spec.in_features}")
    return x


def dense_forward(x: np.ndarray, spec: LayerSpec, w, stage: str) -> np.ndarray:
    """A dense layer; a (B, C, H, W) input is flattened in (c, h, w) order."""
    x = _checked_input(np.asarray(x, dtype=np.float64), spec)
    return _gemm_stage(x, spec, w, stage)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0,
           fill: float = 0.0) -> np.ndarray:
    """Extract conv patches: (B, C, H, W) -> (B * OH * OW, C * kh * kw), of x's dtype.

    Row (b, oh, ow) holds its window in (c, i, j) order, padding as ``fill``.
    """
    b, c = x.shape[:2]
    oh, ow = gemm.patch_grid(x.shape, kh, kw, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                   constant_values=fill)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    cols = np.empty((b, oh, ow, c, kh, kw), dtype=x.dtype)
    cols[...] = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    return cols.reshape(b * oh * ow, c * kh * kw)


def conv2d_forward(x: np.ndarray, spec: LayerSpec, w, stage: str) -> np.ndarray:
    """Convolution as im2col + the stage GEMM.

    On the odd grid the quantized stage quantizes the input once and builds
    the patch matrix of its codes, padded with -1: the odd grid has no zero,
    and 0.0 lands on code -1 like any other value. That equals the codes of
    the zero-padded patch matrix, element for element. The decomposed
    stage's plan gathers the same patches from code bytes.
    """
    x = _checked_input(np.asarray(x, dtype=np.float64), spec)
    oh, ow = gemm.patch_grid(x.shape, *spec.kernel, spec.stride, spec.padding)
    out = _gemm_stage(x, spec, w, stage)
    return out.reshape(x.shape[0], oh, ow, spec.out_features).transpose(0, 3, 1, 2)


def batchnorm_forward(x: np.ndarray, gamma, beta, mean, var, eps: float = 1e-5) -> np.ndarray:
    """Inference-mode affine normalization along the channel axis."""
    gamma, beta, mean, var = (np.asarray(v, dtype=np.float64) for v in (gamma, beta, mean, var))
    if not gamma.shape == beta.shape == mean.shape == var.shape:
        raise ShapeError("batchnorm parameter lengths differ")
    x = np.asarray(x, dtype=np.float64)
    shape = (1, -1) + (1,) * (x.ndim - 2)
    return (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps) * gamma.reshape(shape) \
        + beta.reshape(shape)


# ---------------------------------------------------------------------------
# Whole-model forward
# ---------------------------------------------------------------------------

def _layer_forward(h: np.ndarray, spec: LayerSpec, w, stage: str) -> np.ndarray:
    if spec.kind == "dense":
        return dense_forward(h, spec, w, stage)
    if spec.kind == "conv2d":
        return conv2d_forward(h, spec, w, stage)
    if spec.kind == "batchnorm":
        return batchnorm_forward(h, w["gamma"], w["beta"], w["mean"], w["var"], spec.eps)
    if spec.kind == "activation":
        return quant.activation(h, spec.act)
    raise StageError(f"unknown layer kind {spec.kind!r}")


def model_forward(m: ModelState, x: np.ndarray, threads: int = 1) -> np.ndarray:
    """Run the stage-appropriate forward pass over all layers.

    A float mbbn model has no float reading: its branch masters only count
    through their signs, so it runs as its quantized form. The decomposed
    stage runs its integer plan. Every stage runs on the calling thread;
    ``threads`` has no effect and is only checked to be >= 1.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if m.flavor == "mbbn" and m.stage == "float":
        m = quantize_model(m)
    h = np.asarray(x, dtype=np.float64)
    if m.stage != "decomposed":
        for spec, w in zip(m.specs, m.weights):
            h = _layer_forward(h, spec, w, m.stage)
        return h
    for step in _plan(m).steps:
        h = step(h)
    return h


def predict(m: ModelState, x: np.ndarray) -> np.ndarray:
    return np.argmax(model_forward(m, x), axis=1)


def accuracy(m: ModelState, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict(m, x) == np.asarray(y)))


# ---------------------------------------------------------------------------
# Integer plan of the decomposed stage
# ---------------------------------------------------------------------------
#
# The first forward of a decomposed model compiles it into steps, cached on
# the model. A bit layer (bit-plane weights, M set) whose output reaches the
# next bit layer of its kind through batchnorm, htanh and hrelu only folds
# that chain into per-channel thresholds, found by bisection on the
# quantized stage's own functions: its GEMM writes the next layer's code
# bytes as that layer's padded image of channel-packed planes
# (``gemm.PixelImage``; 1 x 1 pixels for a dense layer), which it reads
# through ``gemm.direct_conv``, with the weight laid out per kernel offset.
# Every other bit layer quantizes its float input to code bytes,
# channels-last, and gathers its rows from them, so a conv weight's
# reduction axis is re-encoded in the gather's (i, j, c) order; the model
# keeps the file's (c, i, j). Full-precision layers run the float GEMM, with
# their weights decoded once. A plan runs on either kernel.

# monotone under IEEE rounding; tanh and sigmoid go through libm or SIMD code
_FOLDING_ACTS = ("htanh", "hrelu")


@dataclass
class _Plan:
    specs: list[LayerSpec]
    weights: list  # the weights it was built from; held, so their ids stay unique
    steps: list  # functions of the activation, run in order


def _plan(m: ModelState) -> _Plan:
    """The model's plan, rebuilt if its layers changed."""
    p = m._plan
    if p is None or p.specs != m.specs or list(map(id, p.weights)) != list(map(id, m.weights)):
        p = m._plan = _build_plan(m)
    return p


def _bit_layer_ok(spec: LayerSpec, w) -> bool:
    """Bit-plane weights that fit a layer with quantized inputs (words checked later)."""
    return (spec.kind in ("dense", "conv2d") and isinstance(w, gemm.EncodedMatrix)
            and type(spec.m_bits) is int and 1 <= spec.m_bits <= quant.MAX_BITS
            and (w.rows, w.cols) == (spec.out_features, spec.reduction_len()))


def _reduction_ijc(spec: LayerSpec, w: gemm.EncodedMatrix) -> gemm.EncodedMatrix:
    """The weight with its reduction axis in gathered-row (i, j, c) order."""
    if spec.kind != "conv2d":
        return w
    codes = gemm.decode_codes(w).reshape(spec.out_features, spec.in_features, *spec.kernel)
    return gemm.encode_codes(codes.transpose(0, 2, 3, 1).reshape(spec.out_features, -1), w.bits)


def _geometry(spec: LayerSpec) -> tuple[int, int, int, int]:
    """(kh, kw, stride, padding) of a bit layer; a dense layer is a 1 x 1 conv of 1 x 1 pixels."""
    return (*spec.kernel, spec.stride, spec.padding) if spec.kind == "conv2d" else (1, 1, 1, 0)


def _chain_folds(spec: LayerSpec, w, channels: int) -> bool:
    if spec.kind == "activation":
        return spec.act in _FOLDING_ACTS
    return spec.kind == "batchnorm" and isinstance(w, dict) and all(
        np.shape(w.get(k)) == (channels,) for k in ("gamma", "beta", "mean", "var"))


def fold_thresholds(specs: list[LayerSpec], weights: list,
                    i: int) -> tuple[gemm.CodeThresholds | None, int]:
    """The epilogue from bit layer i's popcount sums to the next bit layer's code bytes.

    Returns them with that layer's index, or (None, i + 1) when the layers
    do not fold: layer i and the next weighted layer must be bit layers of
    the same kind, the layers between batchnorm, htanh or hrelu, and every
    intermediate value finite at both ends of the accumulator range (which
    also rules out var + eps <= 0). Each channel's map from acc to the code
    is then monotone, and its thresholds are those of the quantized stage's
    own float code, evaluated on every popcount sum the GEMM can produce.
    """
    spec, w = specs[i], weights[i]
    j = i + 1
    while j < len(specs) and specs[j].kind not in ("dense", "conv2d"):
        j += 1
    chain = list(zip(specs[i + 1:j], weights[i + 1:j]))
    if not (_bit_layer_ok(spec, w) and j < len(specs) and specs[j].kind == spec.kind
            and specs[j].in_features == spec.out_features and _bit_layer_ok(specs[j], weights[j])
            and all(_chain_folds(s, p, spec.out_features) for s, p in chain)):
        return None, i + 1

    def values(acc: np.ndarray) -> list[np.ndarray]:
        out = [_acc_output(acc, spec, w.bits)]
        for s, p in chain:
            out.append(_layer_forward(out[-1], s, p, "quantized"))
        return out

    full = gemm._full(spec.reduction_len(), spec.m_bits, w.bits)
    with np.errstate(all="ignore"):
        ends = values(np.array([[-full], [full]], dtype=np.int64))
    if not all(np.all(np.isfinite(v)) for v in ends):
        return None, i + 1
    return gemm.bisect_thresholds(lambda acc: values(acc)[-1], full, spec.out_features,
                                  specs[j].m_bits), j


def _build_plan(m: ModelState) -> _Plan:
    """The model's layers as steps. A bit layer's step holds its weight
    prepared for the GEMM, a conv's reduction in (i, j, c) order, or per
    kernel offset when its input is a packed image, with the epilogue to
    the next bit layer's packed image if the chain folds."""
    steps = []
    packed = -1  # the layer whose input the previous step writes as a packed image
    i = 0
    while i < len(m.specs):
        spec, w = m.specs[i], m.weights[i]
        nxt = i + 1
        if spec.kind not in ("dense", "conv2d"):
            step = functools.partial(_layer_forward, spec=spec, w=w, stage="decomposed")
        else:
            if isinstance(w, gemm.EncodedMatrix) and spec.m_bits is None:
                # full-precision activations: no planes to feed the bit kernel, so
                # run the dequantized codes exactly like the quantized stage
                w = _dequantized(w)
            if isinstance(w, np.ndarray):
                step = functools.partial(_layer_forward, spec=spec, w=w, stage="float")
            elif isinstance(w, gemm.EncodedMatrix):
                fold, nxt = fold_thresholds(m.specs, m.weights, i)
                scale = _output_scale(spec, w.bits) if fold is None else None
                pixels = None
                if fold is not None:
                    to = m.specs[nxt]
                    kh, kw, _, padding = _geometry(to)
                    pixels = (gemm.conv_lane(to.in_features, kh, kw, to.m_bits,
                                             m.weights[nxt].bits), padding)
                if i == packed:
                    conv = (spec.in_features, *_geometry(spec)[:3])
                    weight = gemm.prepare_weight(w, spec.m_bits, fold, scale, conv, pixels)
                else:
                    weight = gemm.prepare_weight(_reduction_ijc(spec, w), spec.m_bits, fold,
                                                 scale, pixels=pixels)
                packed = nxt if pixels else -1
                step = functools.partial(_bit_layer_forward, spec=spec, weight=weight)
            else:
                raise StageError("decomposed stage requires bit-plane weights")
        steps.append(step)
        i = nxt
    return _Plan(list(m.specs), list(m.weights), steps)


def _bit_layer_forward(h, spec: LayerSpec, weight: gemm.GemmWeight):
    """A bit layer of the plan on one of two input forms:

    * its float input, which it quantizes to code bytes and gathers into
      patch rows for ``gemm.encoded_gemm``;
    * after a bit layer that folds into this one, the padded
      ``gemm.PixelImage`` of its input, (B, 1, 1) pixels for a dense layer,
      which ``gemm.direct_conv`` reads with no patch gather.

    The weight carries the epilogue: the next bit layer's packed image, or
    the float scale of ``_acc_output``."""
    conv = spec.kind == "conv2d"
    geometry = _geometry(spec)
    if isinstance(h, gemm.PixelImage):
        batch, height, width = h.pixels.shape[:3]
        grid = (batch, *gemm.patch_grid((batch, h.channels, height, width), *geometry[:3], 0))
        out = gemm.direct_conv(h, weight)
    else:
        h = _checked_input(h, spec)
        b, bad = gemm.quantize_bytes(h.transpose(0, 2, 3, 1) if conv else h, spec.m_bits)
        if bad:  # count what the quantized stage counts; values outside every window pass
            _reject_non_finite(_rows(h, spec), spec)
        image = b if conv else b.reshape(len(b), 1, 1, b.shape[1])
        nchw = (image.shape[0], image.shape[3], *image.shape[1:3])
        grid = (nchw[0], *gemm.patch_grid(nchw, *geometry))
        out = gemm.encoded_gemm(gemm.gather_codes(image, spec.m_bits, *geometry), weight, grid)
    if not conv or isinstance(out, gemm.PixelImage):
        return out
    return out.reshape(*grid, spec.out_features).transpose(0, 3, 1, 2)


# ---------------------------------------------------------------------------
# Stage transitions
# ---------------------------------------------------------------------------

def quantize_model(m: ModelState, grid: str = "odd") -> ModelState:
    """Quantize every weighted layer's float weights onto its K-bit grid.

    An mbbn model's K branch masters per layer collapse into odd K-bit codes
    (``quant.branch_codes``); only the odd grid and the trained K apply.
    """
    if m.stage != "float":
        raise StageError("quantize_model expects a float-stage model")
    if m.flavor == "mbbn" and grid != "odd":
        raise core.ConfigError(f"mbbn branch masters give odd-grid codes, not {grid!r}")
    weights = []
    for spec, w in zip(m.specs, m.weights):
        if spec.kind in ("dense", "conv2d") and spec.k_bits is not None:
            bad = np.size(w) - int(np.count_nonzero(np.isfinite(w)))
            if bad:
                raise DomainError(f"{_layer_name(spec)} weight: {bad} non-finite values cannot "
                                  "be quantized")
            if m.flavor == "mbbn":
                if w.shape != (spec.k_bits, *spec.weight_shape()):
                    raise ShapeError(f"{_layer_name(spec)}: branch masters of shape "
                                     f"{w.shape} do not give K={spec.k_bits} codes")
                weights.append(quant.branch_codes(w))
            elif grid == "odd":
                weights.append(quant.quantize_odd(w, spec.k_bits))
            elif grid == "linear":
                weights.append(quant.quantize_linear(w, spec.k_bits))
            else:
                raise core.ConfigError(f"unknown grid {grid!r}")
        else:
            weights.append(w)
    return ModelState(stage="quantized", specs=list(m.specs), weights=weights)


def decompose_model(m: ModelState) -> ModelState:
    """Expand odd-grid weights into packed bit planes; exact by construction."""
    if m.stage != "quantized":
        raise StageError("decompose_model expects a quantized-stage model")
    weights = []
    for spec, w in zip(m.specs, m.weights):
        if spec.kind in ("dense", "conv2d") and isinstance(w, quant.QuantizedTensor):
            if w.grid != "odd":
                if np.any(w.codes % 2 == 0):
                    raise DecompositionError(
                        "linear-grid weights contain even codes (including 0), which have "
                        "no {-1,+1} digit expansion; quantize on the odd grid instead"
                    )
                raise DecompositionError("only odd-grid weights can be decomposed")
            codes = w.codes.reshape(spec.out_features, spec.reduction_len())
            weights.append(gemm.encode_codes(codes, w.bits))
        else:
            weights.append(w)
    return ModelState(stage="decomposed", specs=list(m.specs), weights=weights)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------
#
# magic line, one JSON header line (stage, flavor, layer specs), then one
# binary payload per weighted layer in order:
#   float tensors       u64 rank, u64 dims, f32 data
#   quantized codes     u64 rank, u64 dims, i16 codes   (t, grid in header)
#   decomposed planes   per plane: u64 n_valid = rows*cols, u64 words. Planes are packed
#                       contiguously over all rows (lowest plane first), so
#                       the payload is rows*cols bits per plane plus at most
#                       63 pad bits.
#   batchnorm           four f32 tensors: gamma, beta, mean, var

def _spec_to_json(spec: LayerSpec) -> dict:
    d = {"kind": spec.kind}
    if spec.kind in ("dense", "conv2d"):
        d.update({"in": spec.in_features, "out": spec.out_features,
                  "M": spec.m_bits, "K": spec.k_bits,
                  "follows_bn": spec.follows_bn, "r": spec.r})
        if spec.kind == "conv2d":
            d.update({"kernel": list(spec.kernel), "stride": spec.stride,
                      "padding": spec.padding})
    elif spec.kind == "batchnorm":
        d.update({"features": spec.in_features, "eps": spec.eps})
    elif spec.kind == "activation":
        d["act"] = spec.act
    return d


def _spec_from_json(d: dict) -> LayerSpec:
    """A layer spec from its header entry, with each value's type and range checked."""
    kind = d["kind"]
    if kind in ("dense", "conv2d"):
        if type(d["follows_bn"]) is not bool:
            raise FormatError(f"'follows_bn' must be true or false, got {d['follows_bn']!r}")
        m_bits, k_bits = (None if d[key] is None else _header_int(key, d[key], 1, quant.MAX_BITS)
                          for key in ("M", "K"))
        io = _header_int("in", d["in"], 1), _header_int("out", d["out"], 1)
        common = {"m_bits": m_bits, "k_bits": k_bits, "follows_bn": d["follows_bn"],
                  "r": _header_real("r", d["r"])}
        if kind == "dense":
            return dense(*io, **common)
        kernel = d["kernel"]
        if not (isinstance(kernel, list) and len(kernel) == 2):
            raise FormatError(f"'kernel' must be a list of 2 ints, got {kernel!r}")
        return conv2d(*io, *(_header_int("kernel", k, 1) for k in kernel),
                      stride=_header_int("stride", d["stride"], 1),
                      padding=_header_int("padding", d["padding"]), **common)
    if kind == "batchnorm":
        return batchnorm(_header_int("features", d["features"], 1),
                         _header_real("eps", d["eps"], 0))
    if kind == "activation":
        if not (isinstance(d["act"], str) and d["act"] in quant._ACTIVATIONS):
            raise FormatError(f"unknown activation {d['act']!r}")
        return act_layer(d["act"])
    raise FormatError(f"unknown layer kind {kind!r}")


def _planes_to_bytes(enc: gemm.EncodedMatrix) -> bytes:
    """The payload of row planes: each plane's rows end to end, re-packed as 0/1 bits."""
    n = enc.rows * enc.cols
    # transpose the words, not the 8x larger bits
    planes = bitops.unpack_bits(enc.words.transpose(1, 0, 2), enc.cols).reshape(enc.bits, n)
    payload = np.hstack([np.full((enc.bits, 1), n, dtype=np.uint64), bitops.pack_bits(planes)])
    return payload.astype("<u8").tobytes()


def _planes_from_bytes(buf: bytes, off: int, bits: int, rows: int,
                       cols: int) -> tuple[gemm.EncodedMatrix, int]:
    """Row planes from a payload; the file's pad bits are dropped, so the words
    carry zero pad bits whatever the file holds there."""
    n = rows * cols
    per_plane = 1 + bitops.word_count(n)
    end = off + 8 * per_plane * bits
    core.require_bytes(buf, end)
    payload = np.frombuffer(buf, dtype="<u8", count=per_plane * bits, offset=off)
    payload = payload.reshape(bits, per_plane)
    if np.any(payload[:, 0] != n):
        raise FormatError(f"plane lengths {payload[:, 0].tolist()} differ from "
                          f"rows*cols = {n}")
    planes = bitops.unpack_bits(payload[:, 1:], n).reshape(bits, rows, cols)
    words = np.ascontiguousarray(bitops.pack_bits(planes).transpose(1, 0, 2))
    return gemm.EncodedMatrix(bits=bits, rows=rows, cols=cols, words=words), end


def _weight_meta(spec: LayerSpec, w) -> dict:
    if isinstance(w, np.ndarray):
        return {"form": "float", "shape": list(w.shape)}
    if isinstance(w, quant.QuantizedTensor):
        return {"form": "quantized", "bits": w.bits, "t": w.t, "grid": w.grid,
                "shape": list(w.codes.shape)}
    if isinstance(w, gemm.EncodedMatrix):
        return {"form": "encoded", "bits": w.bits, "rows": w.rows, "cols": w.cols}
    if isinstance(w, dict):
        return {"form": "batchnorm"}
    return {"form": "none"}


def save_model(m: ModelState, path: str) -> None:
    header = {
        "stage": m.stage,
        "flavor": m.flavor,
        "layers": [_spec_to_json(s) for s in m.specs],
        "weights": [_weight_meta(s, w) for s, w in zip(m.specs, m.weights)],
    }
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for w in m.weights:
            if isinstance(w, np.ndarray):
                fh.write(core.tensor_to_bytes(w))
            elif isinstance(w, quant.QuantizedTensor):
                fh.write(core.int_tensor_to_bytes(w.codes))
            elif isinstance(w, gemm.EncodedMatrix):
                fh.write(_planes_to_bytes(w))
            elif isinstance(w, dict):
                for key in ("gamma", "beta", "mean", "var"):
                    fh.write(core.tensor_to_bytes(w[key]))


# the weight forms each layer kind may carry in a model file
_WEIGHT_FORMS = {"dense": ("float", "quantized", "encoded"),
                 "conv2d": ("float", "quantized", "encoded"),
                 "batchnorm": ("batchnorm",), "activation": ("none",)}


def _header_int(key: str, v, lo: int = 0, hi: int | None = None) -> int:
    """An int header value in lo..hi; FormatError otherwise."""
    if type(v) is not int or v < lo or (hi is not None and v > hi):
        bound = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise FormatError(f"{key!r} must be an int {bound}, got {v!r}")
    return v


def _header_real(key: str, v, lo: float | None = None) -> float:
    """A finite real header value, >= lo if given; FormatError otherwise."""
    if type(v) not in (int, float) or not np.isfinite(v) or (lo is not None and v < lo):
        bound = "" if lo is None else f" >= {lo}"
        raise FormatError(f"{key!r} must be a finite number{bound}, got {v!r}")
    return v


def _check_shape(spec: LayerSpec, got: tuple, expect: tuple) -> None:
    if tuple(got) != tuple(expect):
        raise FormatError(f"{_layer_name(spec)}: weight of shape {tuple(got)}, "
                          f"expected {tuple(expect)}")


def _weight_from_bytes(buf: bytes, off: int, meta: dict, spec: LayerSpec,
                       flavor: str) -> tuple:
    """Decode one weight payload at ``off``; returns (weight, offset just past it).

    The header entry must name a form that fits the layer kind, with int
    fields in range and a shape the layer spec implies.
    """
    form = meta["form"]
    if form not in _WEIGHT_FORMS[spec.kind]:
        raise FormatError(f"weight form {form!r} does not fit a {spec.kind} layer")
    if form in ("float", "quantized"):
        shape = meta["shape"]
        if not isinstance(shape, list):
            raise FormatError(f"weight 'shape' must be a list of ints, got {shape!r}")
        shape = tuple(_header_int("shape", d) for d in shape)
        expect = spec.weight_shape()
        if form == "float" and flavor == "mbbn":
            expect = (spec.k_bits, *expect)
        _check_shape(spec, shape, expect)
    if form == "float":
        w, off = core.tensor_from_bytes(buf, off)
        _check_shape(spec, w.shape, shape)
        return w, off
    if form == "quantized":
        bits = _header_int("bits", meta["bits"], 1, quant.MAX_BITS)
        t, grid = meta["t"], meta["grid"]
        if grid not in ("odd", "linear") or type(t) not in (int, float) or not t > 0:
            raise FormatError(f"quantized weight needs grid 'odd' or 'linear' and t > 0, "
                              f"got {grid!r} and {t!r}")
        codes, off = core.int_tensor_from_bytes(buf, off)
        _check_shape(spec, codes.shape, shape)
        if grid == "odd":
            d = 1.0 / ((1 << bits) - 1)
        else:
            d = t if bits == 1 else t / ((1 << (bits - 1)) - 1)
        return quant.QuantizedTensor(codes=codes, bits=bits, t=t, d=d, grid=grid), off
    if form == "encoded":
        bits = _header_int("bits", meta["bits"], 1, quant.MAX_BITS)
        rows, cols = _header_int("rows", meta["rows"]), _header_int("cols", meta["cols"])
        _check_shape(spec, (rows, cols), (spec.out_features, spec.reduction_len()))
        return _planes_from_bytes(buf, off, bits, rows, cols)
    if form == "batchnorm":
        w = {}
        for key in ("gamma", "beta", "mean", "var"):
            w[key], off = core.tensor_from_bytes(buf, off)
            _check_shape(spec, w[key].shape, (spec.in_features,))
        return w, off
    return None, off


def _check_header(header) -> None:
    """The top level of the header schema; layer entries are checked as they are read."""
    fields = header if isinstance(header, dict) else {}
    for key, kind in {"stage": str, "flavor": str, "layers": list, "weights": list}.items():
        if not isinstance(fields.get(key), kind):
            raise FormatError(f"header key {key!r} is missing or not a {kind.__name__}")
    for key, known in (("stage", STAGES), ("flavor", FLAVORS)):
        if header[key] not in known:
            raise FormatError(f"unknown {key} {header[key]!r} in header (one of {known})")
    if len(header["weights"]) != len(header["layers"]):
        raise FormatError(f"{len(header['weights'])} weight entries for "
                          f"{len(header['layers'])} layers")
    if not all(isinstance(d, dict) for d in header["layers"] + header["weights"]):
        raise FormatError("layer and weight entries must be JSON objects")


def load_model(path: str) -> ModelState:
    """Read a model file; contents that break the format raise FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        header, off = core.read_header(blob, MODEL_MAGIC)
        _check_header(header)
        try:
            specs = [_spec_from_json(d) for d in header["layers"]]
            weights = []
            for spec, meta in zip(specs, header["weights"]):
                w, off = _weight_from_bytes(blob, off, meta, spec, header["flavor"])
                weights.append(w)
        except KeyError as exc:
            raise FormatError(f"a layer entry lacks the key {exc}") from None
        if off != len(blob):
            raise FormatError(f"{len(blob) - off} bytes after the last payload")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return ModelState(stage=header["stage"], specs=specs, weights=weights,
                      flavor=header["flavor"])


def weight_payload_bytes(m: ModelState) -> int:
    """Serialized weight bytes, excluding headers and plane length fields."""
    total = 0
    for w in m.weights:
        if isinstance(w, np.ndarray):
            total += 4 * w.size
        elif isinstance(w, quant.QuantizedTensor):
            total += 2 * w.codes.size
        elif isinstance(w, gemm.EncodedMatrix):
            total += w.bits * 8 * bitops.word_count(w.rows * w.cols)
        elif isinstance(w, dict):
            total += sum(4 * np.asarray(w[k]).size for k in ("gamma", "beta", "mean", "var"))
    return total


def compression_ratio(m: ModelState) -> float:
    """Weight storage of the float model divided by this model's storage."""
    float_bytes = 0
    for spec, w in zip(m.specs, m.weights):
        shape = spec.weight_shape()
        if shape is not None:
            float_bytes += 4 * int(np.prod(shape))
        elif isinstance(w, dict):
            float_bytes += sum(4 * np.asarray(w[k]).size for k in ("gamma", "beta", "mean", "var"))
    mine = weight_payload_bytes(m)
    return float_bytes / mine if mine else 1.0


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def mlp_specs(dims: list[int], m_bits=None, k_bits=None, act: str = "htanh",
              quantize_input: bool = False) -> list[LayerSpec]:
    """Dense stack with activations between hidden layers (none after logits).

    By default the first dense layer keeps full-precision activations (the
    usual first-layer convention); pass ``quantize_input=True`` to quantize
    the raw input as well.
    """
    specs = []
    for i in range(len(dims) - 1):
        layer_m = m_bits if (i > 0 or quantize_input) else None
        specs.append(dense(dims[i], dims[i + 1], m_bits=layer_m, k_bits=k_bits))
        if i < len(dims) - 2:
            specs.append(act_layer(act))
    return specs


def init_mlp(dims: list[int], rng: np.random.Generator, m_bits=None, k_bits=None,
             act: str = "htanh", flavor: str = "qnn",
             quantize_input: bool = False) -> ModelState:
    """Float-stage MLP with uniform fan-in init, masters inside [-1, 1].

    mbbn models are dense-only (the digit encoders act as activations) and
    always encode their input, since every branch needs digit planes.
    """
    specs = mlp_specs(dims, m_bits, k_bits, act,
                      quantize_input=quantize_input or flavor == "mbbn")
    weights = []
    for spec in specs:
        if spec.kind == "dense":
            bound = min(1.0, np.sqrt(6.0 / (spec.in_features + spec.out_features)))
            shape = spec.weight_shape()
            if flavor == "mbbn":
                shape = (spec.k_bits,) + shape
            weights.append(rng.uniform(-bound, bound, size=shape))
        else:
            weights.append(None)
    if flavor == "mbbn":
        specs = [s for s in specs if s.kind == "dense"]
        weights = [w for w in weights if w is not None]
    return ModelState(stage="float", specs=specs, weights=weights, flavor=flavor)


def with_bits(m: ModelState, m_bits: int | None, k_bits: int | None,
              keep_full_precision: bool = False) -> ModelState:
    """Copy of the model with every weighted layer's (M, K) replaced.

    With ``keep_full_precision`` layers currently at None stay at None,
    so a full-precision first layer survives a global bit-width change.
    """
    def swap(spec):
        if spec.kind not in ("dense", "conv2d"):
            return spec
        new_m, new_k = m_bits, k_bits
        if keep_full_precision:
            new_m = None if spec.m_bits is None else m_bits
            new_k = None if spec.k_bits is None else k_bits
        return replace(spec, m_bits=new_m, k_bits=new_k)

    specs = [swap(s) for s in m.specs]
    return ModelState(stage=m.stage, specs=specs, weights=list(m.weights), flavor=m.flavor)
