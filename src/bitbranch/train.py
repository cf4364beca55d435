"""Training of quantized and multi-branch binary toy networks.

Two algorithms, both with explicit (no-autograd) gradients over dense
stacks:

* ``qnn``  simulated-quantization training: weights and activations pass
  through the configured quantizer grid in the forward pass, gradients
  pass straight through the rounding with the clamp mask, and float
  master weights receive the update.
* ``mbbn`` direct multi-branch training: each layer keeps one float master
  per weight bit. The forward pass is the deployed integer product: inputs
  are quantized onto the odd grid and the binarized masters collapse into
  odd weight codes (``quant.branch_codes``), so an exported model gives the
  training forward's logits bit for bit. The backward pass takes the
  cosine surrogate derivatives of the trig encoders for the digit planes.

Masters are clamped to [-1, 1] after every update. All randomness comes
from the config seed, and batch reduction order is fixed, so a run is
bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, nn, quant
from .core import ConfigError, DivergenceError, FormatError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
T_MIN = 1e-6  # clamp thresholds stay positive

DEFAULT_LR = {"sgd": 0.1, "adam": 0.01}


@dataclass
class TrainConfig:
    algorithm: str = "qnn"  # qnn | mbbn
    optimizer: str = "auto"  # auto: adam when every bit width <= 2, else sgd
    lr: float | None = None
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    learn_t: bool = True  # qnn only: update clamp thresholds by their
    #                       saturation gradient
    grid: str = "odd"  # simulated-quantizer grid for qnn training: "odd"
    #                    (the deployment grid, 2^K states) or "linear"
    #                    (zero-containing, 2^K - 1 states)


@dataclass
class GradState:
    """Float master parameters, their gradients, and optimizer moments."""

    params: dict[str, np.ndarray]
    grads: dict[str, np.ndarray] = field(default_factory=dict)
    m1: dict[str, np.ndarray] = field(default_factory=dict)
    m2: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def resolve_optimizer(model: nn.ModelState, cfg: TrainConfig) -> str:
    """Default rule: adam for encodings up to 2 bits, sgd for 3 bits and more."""
    if cfg.optimizer != "auto":
        return cfg.optimizer
    bits = [b for s in model.specs for b in (s.m_bits, s.k_bits) if b]
    return "adam" if (not bits or max(bits) <= 2) else "sgd"


def _dense_layers(model: nn.ModelState) -> list[tuple[int, nn.LayerSpec, str]]:
    """(layer index, spec, activation kind after it) for each dense layer."""
    out = []
    for i, spec in enumerate(model.specs):
        if spec.kind == "dense":
            act = ""
            if i + 1 < len(model.specs) and model.specs[i + 1].kind == "activation":
                act = model.specs[i + 1].act
            out.append((i, spec, act))
        elif spec.kind not in ("activation",):
            raise ConfigError(f"training supports dense/activation stacks, got {spec.kind!r}")
    return out


def init_grad_state(model: nn.ModelState, cfg: TrainConfig) -> GradState:
    params: dict[str, np.ndarray] = {}
    for j, (i, spec, _) in enumerate(_dense_layers(model)):
        params[f"w{j}"] = np.array(model.weights[i], dtype=np.float64, copy=True)
        if cfg.algorithm == "qnn":
            params[f"ta{j}"] = np.array(1.0)
            params[f"tw{j}"] = np.array(1.0)
    return GradState(params=params)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    nll = -np.log(np.maximum(p[np.arange(b), labels], 1e-300))
    grad = p.copy()
    grad[np.arange(b), labels] -= 1.0
    return float(nll.mean()), grad / b


# ---------------------------------------------------------------------------
# Simulated quantizer with straight-through backward
# ---------------------------------------------------------------------------

def _fake_quant(x: np.ndarray, bits: int, t: float, grid: str = "odd"):
    """Dequantized simulated-quantizer value plus STE masks.

    Returns (value, pass_mask, sat_sign): the backward multiplies incoming
    gradients by pass_mask (1 where |x/t| <= 1) and the clamp threshold
    collects sat_sign (sign(x) where saturated, 0 elsewhere).

    The "odd" grid is the zero-free deployment grid (2^K states); "linear"
    is the symmetric zero-containing grid (2^K - 1 states, ternary at two
    bits), whose 1-bit case degenerates to sign.
    """
    u = x / t
    inside = np.abs(u) <= 1.0
    sat_sign = np.where(inside, 0.0, np.sign(u))
    if grid == "odd":
        value = quant._odd_codes(u, bits) * ((1.0 / ((1 << bits) - 1)) * t)
    else:
        value = quant.dequantize(quant.quantize_linear(x, bits, t))
        if bits == 1:
            sat_sign = np.sign(u)
    return value, inside.astype(np.float64), sat_sign


def _check_quantizer_input(h: np.ndarray, j: int, what: str = "activations") -> None:
    """Raise DivergenceError on a non-finite quantizer input: the quantizer
    would turn it into a finite code, hiding it from the loss."""
    if not np.all(np.isfinite(h)):
        raise DivergenceError(f"non-finite {what} enter the quantizer of dense layer {j}")


def forward_qnn(model: nn.ModelState, x: np.ndarray, gs: GradState, cfg: TrainConfig):
    """Simulated quantized forward; returns logits and per-layer caches.

    A non-finite activation entering a quantizer raises DivergenceError.
    """
    layers = _dense_layers(model)
    h = np.asarray(x, dtype=np.float64)
    caches = []
    for j, (_, spec, act) in enumerate(layers):
        w = gs.params[f"w{j}"]
        if spec.m_bits is not None:
            _check_quantizer_input(h, j)
            ta = float(gs.params[f"ta{j}"])
            aq, a_mask, a_sat = _fake_quant(h, spec.m_bits, ta, cfg.grid)
        else:
            aq, a_mask, a_sat = h, None, None
        if spec.k_bits is not None:
            _check_quantizer_input(w, j, "master weights")
            tw = float(gs.params[f"tw{j}"])
            wq, w_mask, w_sat = _fake_quant(w, spec.k_bits, tw, cfg.grid)
        else:
            wq, w_mask, w_sat = w, None, None
        z = aq @ wq.T
        caches.append({"aq": aq, "wq": wq, "a_mask": a_mask, "a_sat": a_sat,
                       "w_mask": w_mask, "w_sat": w_sat, "z": z, "act": act})
        h = quant.activation(z, act) if act else z
    return h, caches


def train_step_alg2(model: nn.ModelState, batch, cfg: TrainConfig, gs: GradState) -> float:
    """One simulated-quantization step: forward, STE backward, gradients set.

    Returns the batch loss; the caller applies ``optimizer_update``.
    """
    x, y = batch
    logits, caches = forward_qnn(model, x, gs, cfg)
    loss, g = softmax_cross_entropy(logits, y)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")

    for j in reversed(range(len(caches))):
        c = caches[j]
        if c["act"]:
            g = g * quant.activation_grad(c["z"], c["act"])
        g_wq = g.T @ c["aq"]
        g_aq = g @ c["wq"]
        if c["w_mask"] is not None:
            gs.grads[f"w{j}"] = g_wq * c["w_mask"]
            if cfg.learn_t:
                gs.grads[f"tw{j}"] = np.array(np.sum(g_wq * c["w_sat"]))
        else:
            gs.grads[f"w{j}"] = g_wq
        if c["a_mask"] is not None:
            if cfg.learn_t:
                gs.grads[f"ta{j}"] = np.array(np.sum(g_aq * c["a_sat"]))
            g = g_aq * c["a_mask"]
        else:
            g = g_aq
    return loss


# ---------------------------------------------------------------------------
# Direct multi-branch training
# ---------------------------------------------------------------------------

def back_mbit_encoder(g_planes: np.ndarray, x: np.ndarray, bits: int) -> np.ndarray:
    """Combine per-plane upstream gradients through the encoder surrogate.

    Chain rule through the digit reconstruction: each plane contributes its
    significance weight 2^(m-1)/(2^M - 1) times the cosine surrogate
    derivative of that plane at x.
    """
    levels = (1 << bits) - 1
    g = np.zeros_like(x)
    for m in range(1, bits + 1):
        g += (1 << (m - 1)) * g_planes[m - 1] * quant.encoder_derivative(x, bits, m)
    return g / levels


def forward_mbbn(model: nn.ModelState, x: np.ndarray, gs: GradState, cfg: TrainConfig):
    """Multi-branch forward on binarized branch masters; returns logits, caches.

    The branch sum over planes m and weight bits k with weights 2^(m+k-2)
    is computed in factored form: it equals the product of the odd input
    codes and the odd branch codes, exactly, and stays integer-valued in
    float64. This is the quantized stage's product, so the exported model
    reproduces these logits. A non-finite activation entering a quantizer
    raises DivergenceError, as in ``forward_qnn``.
    """
    layers = _dense_layers(model)
    h = np.asarray(x, dtype=np.float64)
    caches = []
    for j, (_, spec, _) in enumerate(layers):
        m_bits, k_bits = spec.m_bits, spec.k_bits
        _check_quantizer_input(h, j)
        recon_x = quant._odd_codes(h, m_bits)
        recon_w = quant.branch_codes(gs.params[f"w{j}"]).codes.astype(np.float64)
        zhat = recon_x @ recon_w.T
        scale = spec.r / (((1 << m_bits) - 1) * ((1 << k_bits) - 1))
        a = zhat * scale
        caches.append({"recon_x": recon_x, "recon_w": recon_w, "scale": scale, "a": a})
        h = a
    return h, caches


def train_step_alg1(model: nn.ModelState, batch, cfg: TrainConfig, gs: GradState) -> float:
    """One direct multi-branch step over the binarized branch weights."""
    if model.flavor != "mbbn":
        raise ConfigError("train_step_alg1 needs an mbbn-flavor model")
    x, y = batch
    logits, caches = forward_mbbn(model, x, cfg=cfg, gs=gs)
    loss, g_a = softmax_cross_entropy(logits, y)
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite loss {loss}")

    layers = _dense_layers(model)
    for j in reversed(range(len(caches))):
        c = caches[j]
        spec = layers[j][1]
        m_bits, k_bits = spec.m_bits, spec.k_bits
        g_zhat = g_a * c["scale"]
        # weight-bit branches: g_wb[k] = 2^(k-1) * g_zhat^T recon_x, then the
        # straight-through window of the binarizer
        g_common_w = g_zhat.T @ c["recon_x"]
        w = gs.params[f"w{j}"]
        g_w = np.empty_like(w)
        for k in range(k_bits):
            g_w[k] = (1 << k) * g_common_w * quant.binarize_grad_mask(w[k])
        gs.grads[f"w{j}"] = g_w
        if j > 0:
            # plane gradients g_planes[m] = 2^(m-1) * g_zhat recon_w, folded
            # back into the previous activation through the encoder surrogate
            g_common_x = g_zhat @ c["recon_w"]
            g_planes = np.stack([(1 << m) * g_common_x for m in range(m_bits)])
            g_a = back_mbit_encoder(g_planes, caches[j - 1]["a"], m_bits)
    return loss


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

def optimizer_update(gs: GradState, kind: str, lr: float) -> None:
    """SGD or Adam over every parameter with a gradient, then the clamps.

    Master weights are clamped to [-1, 1]; clamp thresholds stay positive.
    """
    gs.step += 1
    for name, g in gs.grads.items():
        p = gs.params[name]
        if kind == "sgd":
            p = p - lr * g
        elif kind == "adam":
            for moments in (gs.m1, gs.m2):
                if name not in moments:
                    moments[name] = np.zeros_like(p)
            m1, m2 = gs.m1[name], gs.m2[name]
            m1 *= ADAM_BETA1
            m1 += (1 - ADAM_BETA1) * g
            m2 *= ADAM_BETA2
            m2 += (1 - ADAM_BETA2) * g * g
            mhat = m1 / (1 - ADAM_BETA1 ** gs.step)
            vhat = m2 / (1 - ADAM_BETA2 ** gs.step)
            p = p - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        else:
            raise ConfigError(f"unknown optimizer {kind!r}")
        if name.startswith("w"):
            p = np.clip(p, -1.0, 1.0)
        else:
            p = np.maximum(p, T_MIN)
        gs.params[name] = p
    gs.grads.clear()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def sync_model(model: nn.ModelState, gs: GradState) -> nn.ModelState:
    """Write the float masters back into a float-stage copy of the model."""
    weights = list(model.weights)
    for j, (i, _, _) in enumerate(_dense_layers(model)):
        weights[i] = gs.params[f"w{j}"].copy()
    return nn.ModelState(stage="float", specs=list(model.specs), weights=weights,
                         flavor=model.flavor)


def training_forward(model: nn.ModelState, x: np.ndarray, gs: GradState,
                     cfg: TrainConfig) -> np.ndarray:
    """Logits under the same simulated semantics the step functions use."""
    if cfg.algorithm == "mbbn":
        return forward_mbbn(model, x, gs, cfg)[0]
    return forward_qnn(model, x, gs, cfg)[0]


@dataclass
class TrainResult:
    model: nn.ModelState  # float masters, synced
    grad_state: GradState
    history: list[dict]  # epoch, loss, train_acc, val_acc


def train_model(model: nn.ModelState, train_set, cfg: TrainConfig, val_set=None,
                target_acc: float | None = None) -> TrainResult:
    """Run epochs of the configured algorithm; deterministic given the seed.

    Stops early once train accuracy reaches ``target_acc`` (if given).
    History rows carry per-epoch mean loss and accuracies. A DivergenceError
    carries the model and grad state it diverged in.
    """
    x, y = train_set
    n = len(x)
    step_fn = train_step_alg1 if cfg.algorithm == "mbbn" else train_step_alg2
    opt = resolve_optimizer(model, cfg)
    lr = cfg.lr if cfg.lr is not None else DEFAULT_LR[opt]
    gs = init_grad_state(model, cfg)
    rng = core.make_rng(cfg.seed)
    history = []
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            losses = []
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                losses.append(step_fn(model, (x[idx], y[idx]), cfg, gs))
                optimizer_update(gs, opt, lr)
            train_acc = float(np.mean(
                np.argmax(training_forward(model, x, gs, cfg), axis=1) == y))
            row = {"epoch": epoch, "loss": float(np.mean(losses)), "train_acc": train_acc}
            if val_set is not None:
                vx, vy = val_set
                row["val_acc"] = float(np.mean(
                    np.argmax(training_forward(model, vx, gs, cfg), axis=1) == vy))
            else:
                row["val_acc"] = train_acc
            history.append(row)
            if target_acc is not None and train_acc >= target_acc:
                break
    except DivergenceError as exc:
        exc.model, exc.grad_state = model, gs
        raise
    return TrainResult(model=sync_model(model, gs), grad_state=gs, history=history)


def write_log(history: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "loss", "train_acc", "val_acc"])
        writer.writeheader()
        for row in history:
            writer.writerow({k: row[k] for k in ("epoch", "loss", "train_acc", "val_acc")})


# ---------------------------------------------------------------------------
# Stage export and progressive precision
# ---------------------------------------------------------------------------

def export_model(model: nn.ModelState, gs: GradState, stage: str = "float") -> nn.ModelState:
    """Materialize the trained masters at the requested stage."""
    synced = sync_model(model, gs)
    if stage == "float":
        return synced
    quantized = nn.quantize_model(synced)
    if stage == "quantized":
        return quantized
    return nn.decompose_model(quantized)


def progressive_init(high: nn.ModelState) -> nn.ModelState:
    """Step a trained float-stage model down one bit: copy masters, M,K -= 1."""
    if high.stage != "float":
        raise ConfigError("progressive init starts from float masters")
    specs = []
    for s in high.specs:
        if s.kind in ("dense", "conv2d"):
            specs.append(replace(
                s,
                m_bits=None if s.m_bits is None else max(1, s.m_bits - 1),
                k_bits=None if s.k_bits is None else max(1, s.k_bits - 1)))
        else:
            specs.append(s)
    weights = [w.copy() if isinstance(w, np.ndarray) else w for w in high.weights]
    return nn.ModelState(stage="float", specs=specs, weights=weights, flavor=high.flavor)


OPT_MAGIC = b"#bitbranch-opt-v1\n"


def save_checkpoint(path: str, model: nn.ModelState, gs: GradState,
                    cfg: TrainConfig) -> None:
    """Model file plus an optimizer-state sidecar at ``path + '.opt'``."""
    import json

    nn.save_model(sync_model(model, gs), path)
    names = sorted(gs.params)
    header = {"step": gs.step, "optimizer": cfg.optimizer, "algorithm": cfg.algorithm,
              "params": names}
    with open(path + ".opt", "wb") as fh:
        fh.write(OPT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for name in names:
            fh.write(core.tensor_to_bytes(np.atleast_1d(gs.params[name])))
            fh.write(core.tensor_to_bytes(np.atleast_1d(gs.m1.get(
                name, np.zeros_like(gs.params[name])))))
            fh.write(core.tensor_to_bytes(np.atleast_1d(gs.m2.get(
                name, np.zeros_like(gs.params[name])))))


def load_checkpoint(path: str) -> tuple[nn.ModelState, GradState]:
    """Model file plus its ``.opt`` sidecar; a corrupt sidecar raises FormatError."""
    model = nn.load_model(path)
    opt_path = path + ".opt"
    with open(opt_path, "rb") as fh:
        blob = fh.read()
    gs = GradState(params={})
    try:
        header, off = core.read_header(blob, OPT_MAGIC)
        names = header.get("params") if isinstance(header, dict) else None
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
                and isinstance(header.get("step"), int)):
            raise FormatError("header needs an int 'step' and a 'params' list of names")
        for name in names:
            for store in (gs.params, gs.m1, gs.m2):
                store[name], off = core.tensor_from_bytes(blob, off)
        if off != len(blob):
            raise FormatError(f"{len(blob) - off} bytes after the last tensor")
    except FormatError as exc:
        raise FormatError(f"{opt_path}: {exc}") from None
    gs.step = header["step"]
    return model, gs


def progressive_schedule(model: nn.ModelState, train_set, cfg: TrainConfig,
                         from_bits: int, to_bits: int, val_set=None,
                         target_acc: float | None = None) -> list[TrainResult]:
    """Fine-tune from high precision down to low, one bit at a time.

    Each stage starts from the previous stage's masters (fresh optimizer
    state) and returns its own TrainResult; stage seeds are offset so the
    batch streams differ between stages.
    """
    if to_bits < 1:
        raise ConfigError(f"progressive schedule steps down to a bit width >= 1, got {to_bits}")
    if from_bits < to_bits:
        raise ConfigError("progressive schedule runs from high bits down to low")
    if model.flavor != "qnn":
        raise ConfigError("progressive fine-tuning changes bit widths, which would "
                          "change the branch count of an mbbn model")
    current = nn.with_bits(model, from_bits, from_bits, keep_full_precision=True)
    results = []
    for i, bits in enumerate(range(from_bits, to_bits - 1, -1)):
        stage_cfg = replace(cfg, seed=cfg.seed + i)
        res = train_model(current, train_set, stage_cfg, val_set=val_set,
                          target_acc=target_acc)
        results.append(res)
        if bits > to_bits:
            current = progressive_init(res.model)
    return results
