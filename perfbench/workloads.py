"""The benchmark's four workloads, built only from bitbranch's public functions.

Each workload is a closed loop with one client: ``iteration`` runs the next
operation only after the previous one finished. ``setup`` builds every input
from the seed; ``iteration`` times its sections on a ``Clock`` and returns
whether the outputs passed their check; ``report`` turns the samples into
the workload's named metrics. ``OP`` names the section that is the
workload's unit operation, which the end-to-end latency metrics time.

Workload choice: each module does most of the work in one workload and
little in another, so a change to one layer has a workload that shows it
and one that predicts no change.

* ``mlp_infer``: long reductions (N = 784/512) and wide outputs (Q = 512), so
  ``gemm.encoded_gemm`` dominates the decomposed stage; the full-precision
  first layer calls ``gemm.decode_codes`` on every batch.
* ``conv_infer``: short reductions (27-288) over many rows (16384/4096), so
  ``quant.quantize_odd``, ``gemm.encode_codes`` and ``nn.im2col`` dominate
  and the kernel is a minority; ``decode_codes`` never runs.
* ``train``: the README training setup, alternating qnn and mbbn jobs; no
  GEMM kernel on the hot path. It keeps the mbbn training/deployment skew
  visible instead of hiding it.
* ``model_io``: conversion and the model file format in both directions,
  which no other workload touches.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from bitbranch import core, datasets, nn, train
from spans import Clock

BITS = 2  # M = K = 2 everywhere


def percentile(values_ms: np.ndarray, q: float) -> float:
    return float(np.percentile(values_ms, q)) if len(values_ms) else float("nan")


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class Workload:
    OP = ""  # the section timed as the workload's unit operation
    items_per_op = 0  # items one op processes, for items_per_s_p25

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.toy = toy
        self.sizes: dict = {}

    def min_iterations(self, traced: bool) -> int:
        return 1

    def final_checks(self) -> tuple[int, int]:
        """Checks after the timed loop: (attempted, failed)."""
        return 0, 0

    def agree_frac(self) -> float:
        """Share of outputs on which the deployed form agrees with its reference."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def mlp_model(rng: np.random.Generator, dims: list[int]) -> nn.ModelState:
    """Float MLP; the first layer keeps full-precision activations (the CLI default)."""
    return nn.init_mlp(dims, rng, m_bits=BITS, k_bits=BITS)


def f32_exact(a: np.ndarray) -> np.ndarray:
    """Round to float32 so the model file stores the values exactly."""
    return a.astype(np.float32).astype(np.float64)


def conv_model(rng: np.random.Generator, c_in: int) -> nn.ModelState:
    """conv 3x3 p1 -> BN -> htanh -> conv 3x3 s2 p1 -> BN -> htanh -> conv 3x3 p1.

    Every conv is M = K = 2, including the input. BN statistics are scaled
    to each conv's reduction length so that htanh does not saturate.
    """
    specs = [nn.conv2d(c_in, 16, 3, 3, padding=1, m_bits=BITS, k_bits=BITS),
             nn.batchnorm(16), nn.act_layer("htanh"),
             nn.conv2d(16, 32, 3, 3, stride=2, padding=1, m_bits=BITS, k_bits=BITS),
             nn.batchnorm(32), nn.act_layer("htanh"),
             nn.conv2d(32, 32, 3, 3, padding=1, m_bits=BITS, k_bits=BITS)]
    weights = []
    reduction = 1
    for spec in specs:
        if spec.kind == "conv2d":
            weights.append(rng.uniform(-1, 1, spec.weight_shape()))
            reduction = spec.reduction_len()
        elif spec.kind == "batchnorm":
            c = spec.in_features
            weights.append({"gamma": f32_exact(rng.uniform(0.5, 1.5, c)),
                            "beta": f32_exact(rng.uniform(-0.2, 0.2, c)),
                            "mean": f32_exact(rng.uniform(-0.5, 0.5, c)),
                            "var": f32_exact(np.full(c, reduction / 9.0))})
        else:
            weights.append(None)
    return nn.ModelState(stage="float", specs=specs, weights=weights)


# ---------------------------------------------------------------------------
# Inference: float, quantized and decomposed forwards of the same batch
# ---------------------------------------------------------------------------

class _Infer(Workload):
    OP = "decomposed"
    POOL = 4  # distinct input batches, cycled

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed, toy)
        self.mismatched = 0
        self.compared = 0
        self.i = 0

    def build(self, rng):  # -> (float model, input batch shape)
        raise NotImplementedError

    def setup(self) -> None:
        rng = core.make_rng(self.seed)
        self.float_model, shape = self.build(rng)
        self.quantized = nn.quantize_model(self.float_model)
        self.decomposed = nn.decompose_model(self.quantized)
        self.batches = [rng.uniform(-1, 1, shape) for _ in range(self.POOL)]
        self.items_per_op = shape[0]
        self.sizes["batch_shape"] = list(shape)
        for model in (self.float_model, self.quantized, self.decomposed):  # warm-up
            nn.model_forward(model, self.batches[0], threads=self.threads)

    def iteration(self, clock) -> bool:
        x = self.batches[self.i % self.POOL]
        self.i += 1
        with clock.section("float"):
            nn.model_forward(self.float_model, x)
        with clock.section("quantized"):
            yq = nn.model_forward(self.quantized, x)
        with clock.section("decomposed"):
            yd = nn.model_forward(self.decomposed, x, threads=self.threads)
        mismatched = yq.size if yq.shape != yd.shape else int(np.count_nonzero(yq != yd))
        self.mismatched += mismatched
        self.compared += yq.size
        return mismatched == 0

    def agree_frac(self) -> float:
        return 1.0 - self.mismatched / max(self.compared, 1)

    def report(self, clock) -> dict:
        dec = clock.ms("decomposed")
        return {
            "decomposed_samples_per_s": metric(self.items_per_op * len(dec) / (dec.sum() / 1e3),
                                               "1/s"),
            "decomposed_batch_ms_p50": metric(percentile(dec, 50), "ms"),
            "decomposed_batch_ms_p90": metric(percentile(dec, 90), "ms"),
            "quantized_batch_ms_p50": metric(percentile(clock.ms("quantized"), 50), "ms"),
            "float_batch_ms_p50": metric(percentile(clock.ms("float"), 50), "ms"),
            "stage_mismatch_frac": metric(1.0 - self.agree_frac(), "frac"),
            "batches": metric(len(dec), "count"),
        }


class MlpInfer(_Infer):
    """MLP 784-512-512-10, batch 256 of uniform [-1, 1] inputs, GEMM threads=1."""

    def build(self, rng):
        dims = [32, 16, 16, 4] if self.toy else [784, 512, 512, 10]
        batch = 8 if self.toy else 256
        self.threads = 1
        self.sizes = {"dims": dims, "threads": self.threads}
        return mlp_model(rng, dims), (batch, dims[0])


class ConvInfer(_Infer):
    """3-conv net on batch 16 of 3x32x32, GEMM threads=min(2, nproc)."""

    def build(self, rng):
        shape = (2, 3, 8, 8) if self.toy else (16, 3, 32, 32)
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.sizes = {"threads": self.threads}
        return conv_model(rng, shape[1]), shape


# ---------------------------------------------------------------------------
# Training: alternating qnn and mbbn jobs, each exported and scored
# ---------------------------------------------------------------------------

class Train(Workload):
    """moons n=512 (val 0.25), mlp:2-16-16-2, M=K=2, batch 64, 60 epochs per job.

    Iteration k trains one qnn and one mbbn job with job seed
    ``seed * 1000 + k % ACC_PAIRS``; the seed sets data, split, init and
    batch order, as ``bitbranch train --seed`` does. Accuracy and agreement
    are averaged over the first ACC_PAIRS iterations, a fixed set, so they
    do not depend on speed. A repeated job seed must reproduce its logits.
    """

    OP = "jobs"
    ALGS = ("qnn", "mbbn")
    ACC_PAIRS = 24

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed, toy)
        self.n = 64 if toy else 512
        self.epochs = 2 if toy else 60
        self.acc_pairs = 2 if toy else self.ACC_PAIRS
        self.sizes = {"n": self.n, "val_frac": 0.25, "arch": [2, 16, 16, 2],
                      "batch_size": 64, "epochs": self.epochs, "acc_pairs": self.acc_pairs}
        self.first: dict[tuple, dict] = {}
        self.samples = {alg: 0 for alg in self.ALGS}
        self.repeats_checked = 0
        self.i = 0

    def min_iterations(self, traced: bool) -> int:
        return 1 if traced else self.acc_pairs

    def setup(self) -> None:
        # a short pair fills lazy state before timing
        for alg in self.ALGS:
            self._job(alg, self.seed * 1000, epochs=max(1, self.epochs // 6))

    def _job(self, alg: str, job_seed: int, epochs: int) -> dict:
        x, y = datasets.make_moons(self.n, noise=0.1, seed=job_seed)
        (xt, yt), (xv, yv) = datasets.split(x, y, 0.25, seed=job_seed)
        model = nn.init_mlp([2, 16, 16, 2], core.make_rng(job_seed), m_bits=BITS,
                            k_bits=BITS, flavor=alg)
        cfg = train.TrainConfig(algorithm=alg, epochs=epochs, batch_size=64, seed=job_seed)
        res = train.train_model(model, (xt, yt), cfg, val_set=(xv, yv))
        deployed = train.export_model(model, res.grad_state, "decomposed")
        logits = nn.model_forward(deployed, xv)
        reference = train.training_forward(model, xv, res.grad_state, cfg)
        pred = np.argmax(logits, axis=1)
        return {"model": model, "gs": res.grad_state, "xv": xv, "logits": logits,
                "samples": epochs * len(xt),
                "val_acc": float(np.mean(pred == yv)),
                "train_forward_val_acc": float(np.mean(np.argmax(reference, axis=1) == yv)),
                "agree": float(np.mean(pred == np.argmax(reference, axis=1)))}

    def _check(self, key: tuple, job: dict) -> bool:
        """Quantized export equals the decomposed one; a repeated seed repeats."""
        quantized = train.export_model(job["model"], job["gs"], "quantized")
        ok = np.array_equal(nn.model_forward(quantized, job["xv"]), job["logits"])
        if key in self.first:
            self.repeats_checked += 1
            ok &= np.array_equal(self.first[key]["logits"], job["logits"])
        else:
            self.first[key] = {k: job[k] for k in
                               ("logits", "val_acc", "train_forward_val_acc", "agree")}
        return bool(ok)

    def iteration(self, clock) -> bool:
        job_seed = self.seed * 1000 + self.i % self.acc_pairs
        self.i += 1
        jobs = {}
        with clock.section("jobs"):
            for alg in self.ALGS:
                with clock.section(alg):
                    jobs[alg] = self._job(alg, job_seed, self.epochs)
        ok = True
        for alg, job in jobs.items():
            self.samples[alg] += job["samples"]
            ok &= self._check((alg, job_seed), job)
        self.items_per_op = sum(job["samples"] for job in jobs.values())
        return ok

    def final_checks(self) -> tuple[int, int]:
        """Re-run the first pair if the loop never repeated a seed: (attempted, failed)."""
        if self.repeats_checked:
            return 0, 0
        job_seed = self.seed * 1000
        failed = 0
        for alg in self.ALGS:
            failed += not self._check((alg, job_seed), self._job(alg, job_seed, self.epochs))
        return 1, int(failed > 0)

    def _accuracy_results(self, algs) -> list[dict]:
        keys = [(alg, self.seed * 1000 + k) for k in range(self.acc_pairs) for alg in algs]
        return [self.first[key] for key in keys if key in self.first]

    def agree_frac(self) -> float:
        return float(np.mean([r["agree"] for r in self._accuracy_results(self.ALGS)]))

    def report(self, clock) -> dict:
        named = {}
        for alg in self.ALGS:
            mine = self._accuracy_results((alg,))
            named[f"{alg}_samples_per_s"] = metric(
                self.samples[alg] / (clock.ms(alg).sum() / 1e3), "1/s")
            for key in ("val_acc", "train_forward_val_acc"):
                named[f"{alg}_{key}"] = metric(np.mean([r[key] for r in mine]), "frac")
            named[f"{alg}_stage_mismatch_frac"] = metric(
                1.0 - np.mean([r["agree"] for r in mine]), "frac")
        jobs = clock.ms("jobs")
        named["stage_mismatch_frac"] = metric(1.0 - self.agree_frac(), "frac")
        named["job_pairs_ms_p50"] = metric(percentile(jobs, 50), "ms")
        named["job_pairs"] = metric(len(jobs), "count")
        return named


# ---------------------------------------------------------------------------
# Model I/O: convert, save, load
# ---------------------------------------------------------------------------

def same_weights(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if a is None:
        return True
    # EncodedMatrix: frozen dataclass of ints and one words array
    return (a.bits, a.rows, a.cols) == (b.bits, b.rows, b.cols) and np.array_equal(a.words, b.words)


class ModelIO(Workload):
    """Convert (quantize + decompose), save and load the two inference models."""

    OP = "round_trip"

    def __init__(self, seed: int, toy: bool):
        super().__init__(seed, toy)
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-io-", dir=os.getcwd())
        self.digests: dict[str, str] = {}
        self.weights_checked = 0
        self.weights_equal = 0

    def setup(self) -> None:
        rng = core.make_rng(self.seed)
        dims = [32, 16, 16, 4] if self.toy else [784, 512, 512, 10]
        self.models = {"mlp": mlp_model(rng, dims), "conv": conv_model(rng, 3)}
        self.items_per_op = sum(int(np.prod(s.weight_shape())) for m in self.models.values()
                                for s in m.specs if s.weight_shape())
        self.sizes = {"models": {name: [s.kind for s in m.specs] for name, m in self.models.items()},
                      "weights": self.items_per_op}
        if not self.iteration(Clock()):  # warm-up; also fixes the reference file digests
            raise RuntimeError("model_io warm-up round trip failed its check")

    def close(self) -> None:
        self.tmp.cleanup()

    def iteration(self, clock) -> bool:
        ok = True
        with clock.section("round_trip"):
            loaded = {}
            for name, float_model in self.models.items():
                path = os.path.join(self.tmp.name, f"{name}.bbm")
                with clock.section("convert"):
                    model = nn.decompose_model(nn.quantize_model(float_model))
                with clock.section("save"):
                    nn.save_model(model, path)
                with clock.section("load"):
                    loaded[name] = (model, nn.load_model(path), path)
        for name, (model, back, path) in loaded.items():
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            ok &= self.digests.setdefault(name, digest) == digest
            ok &= (back.stage, back.flavor, back.specs) == (model.stage, model.flavor, model.specs)
            equal = [same_weights(a, b) for a, b in zip(model.weights, back.weights)]
            self.weights_checked += len(equal)
            self.weights_equal += sum(equal)
            ok &= all(equal) and len(model.weights) == len(back.weights)
        return bool(ok)

    def agree_frac(self) -> float:
        return self.weights_equal / max(self.weights_checked, 1)

    def report(self, clock) -> dict:
        return {
            "convert_ms_p50": metric(percentile(clock.ms("convert"), 50), "ms"),
            "save_ms_p50": metric(percentile(clock.ms("save"), 50), "ms"),
            "load_ms_p50": metric(percentile(clock.ms("load"), 50), "ms"),
            "round_trip_ms_p50": metric(percentile(clock.ms("round_trip"), 50), "ms"),
            "round_trips": metric(len(clock.ms("round_trip")), "count"),
        }


WORKLOADS = {"mlp_infer": MlpInfer, "conv_infer": ConvInfer, "train": Train, "model_io": ModelIO}
