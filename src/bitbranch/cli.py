"""Command-line surface: quantize, decompose, train, eval, bench, inspect.

Every command validates its flags before touching files, never mutates its
inputs, and writes only to explicit --out paths. All randomness derives
from --seed, so reruns with identical flags produce byte-identical model
files and logs. Exit codes: 0 success, 1 failed check or divergence,
2 file/usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import bench, datasets, nn, quant, train
from .core import ConfigError, DivergenceError, StageError


def _format_ratio(ratio: float) -> str:
    if abs(ratio - round(ratio)) < 1e-9:
        return f"{int(round(ratio))}x"
    return f"{ratio:.1f}x"


def _parse_arch(arch: str) -> list[int]:
    kind, _, dims = arch.partition(":")
    if kind != "mlp":
        raise ConfigError(f"unsupported arch {arch!r} (expected mlp:d0-d1-...-dk)")
    return [int(d) for d in dims.split("-")]


def _int_in(lo: int, hi: int | None = None):
    """An argparse type: an int in lo..hi, or >= lo without hi."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an int, got {text!r}") from None
        if v < lo or (hi is not None and v > hi):
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {v}")
        return v
    return parse


def _int_tuples(count: int, lo: int, hi: int | None = None):
    """An argparse type: a comma-separated list of ``count`` ints joined by 'x'."""
    item = _int_in(lo, hi)

    def parse(text: str) -> list[tuple[int, ...]]:
        out = []
        for part in text.split(","):
            values = part.split("x")
            if len(values) != count:
                raise argparse.ArgumentTypeError(f"{part!r} is not {count} ints joined by 'x'")
            out.append(tuple(item(v) for v in values))
        return out
    return parse


def _arch(text: str) -> str:
    """An argparse type: an mlp arch has at least two dims, each >= 1; other
    kinds are left to _parse_arch."""
    kind, _, dims = text.partition(":")
    if kind == "mlp":
        parts = dims.split("-")
        if len(parts) < 2:
            raise argparse.ArgumentTypeError(f"an mlp needs at least 2 dims, got {text!r}")
        for d in parts:
            _int_in(1)(d)
    return text


def _real(ok, bound: str):
    """An argparse type: a finite real for which ``ok`` holds."""
    def parse(text: str) -> float:
        try:
            v = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not (math.isfinite(v) and ok(v)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return v
    return parse


_fraction = _real(lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")
_noise = _real(lambda v: v >= 0, "finite and >= 0")


def _load_dataset(args) -> tuple[np.ndarray, np.ndarray]:
    name = args.dataset
    if name.startswith("grid:"):
        images, labels = datasets.load_grid(name[5:])
        return images.reshape(len(images), -1), labels
    if name not in datasets.GENERATORS:
        raise ConfigError(f"unknown dataset {name!r}")
    if name == "blobs":
        return datasets.make_blobs(args.n, seed=args.seed)
    return datasets.GENERATORS[name](args.n, noise=args.noise, seed=args.seed)


def _require_file(path: str) -> None:
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such file: {path}")


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill flags from a key=value config file; explicit flags win.

    Each value goes through its flag's own argparse type and choices, so a
    bad value exits 2 as it does on the command line.
    """
    if not getattr(args, "config", None):
        return
    _require_file(args.config)
    actions = {a.dest: a for a in parser._actions if a.option_strings}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            action = actions.get(key)
            if action is None or not hasattr(args, key):
                parser.error(f"config file {args.config}: key {key!r} does not match any flag")
            if getattr(args, key) != action.default:
                continue  # flag explicitly set on the command line
            try:
                setattr(args, key, parser._get_values(action, [value.strip()]))
            except argparse.ArgumentError as exc:
                parser.error(f"config file {args.config}: {exc}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_quantize(args) -> int:
    _require_file(args.model)
    model = nn.load_model(args.model)
    if model.stage != "float":
        raise StageError(f"quantize expects a float-stage model, got {model.stage}")
    # a trained checkpoint's full-precision layers (e.g. the first dense
    # input) stay full precision; a fully unconfigured float model gets the
    # requested bits everywhere
    configured = any(s.m_bits or s.k_bits for s in model.specs)
    model = nn.with_bits(model, args.M, args.K, keep_full_precision=configured)
    out = nn.quantize_model(model, grid=args.grid)
    nn.save_model(out, args.out)
    print(f"compression ratio: {_format_ratio(32.0 / args.K)}")
    return 0


def cmd_decompose(args) -> int:
    _require_file(args.model)
    model = nn.load_model(args.model)
    out = nn.decompose_model(model)
    nn.save_model(out, args.out)
    print(f"decomposed {sum(1 for s in out.specs if s.kind in ('dense', 'conv2d'))} "
          f"layers; compression ratio: {_format_ratio(nn.compression_ratio(out))}")
    return 0


def cmd_train(args) -> int:
    if 0 < args.progressive_from < args.K:
        args._parser.error(f"argument --progressive-from: must be 0 or >= --K ({args.K}), "
                           f"got {args.progressive_from}")
    x, y = _load_dataset(args)
    try:
        (xt, yt), (xv, yv) = datasets.split(x, y, args.val_frac, seed=args.seed)
    except ConfigError as exc:
        args._parser.error(f"--n and --val-frac: {exc}")
    dims = _parse_arch(args.arch)
    if dims[0] != x.shape[1]:
        raise ConfigError(f"arch input dim {dims[0]} != dataset features {x.shape[1]}")
    cfg = train.TrainConfig(algorithm=args.alg, optimizer=args.optimizer, lr=args.lr,
                            epochs=args.epochs, batch_size=args.batch_size,
                            seed=args.seed, grid=args.grid)
    rng = np.random.Generator(np.random.Philox(args.seed))
    m_bits = args.M if args.M > 0 else None
    k_bits = args.K if args.K > 0 else None
    flavor = "mbbn" if args.alg == "mbbn" else "qnn"
    if flavor == "mbbn" and (m_bits is None or k_bits is None):
        raise ConfigError("mbbn training needs M >= 1 and K >= 1")
    if args.progressive_from and flavor == "mbbn":
        raise ConfigError("progressive fine-tuning applies to qnn training only")
    model = nn.init_mlp(dims, rng, m_bits=m_bits, k_bits=k_bits, flavor=flavor)

    try:
        if args.progressive_from:
            results = train.progressive_schedule(
                model, (xt, yt), cfg, from_bits=args.progressive_from,
                to_bits=args.K, val_set=(xv, yv))
            res = results[-1]
            history = [row for r in results for row in r.history]
        else:
            res = train.train_model(model, (xt, yt), cfg, val_set=(xv, yv))
            history = res.history
    except DivergenceError as exc:
        train.save_checkpoint(args.out, exc.model, exc.grad_state, cfg)
        print(f"training diverged: {exc}; last checkpoint kept at {args.out}",
              file=sys.stderr)
        return 1
    train.save_checkpoint(args.out, res.model, res.grad_state, cfg)
    if args.log:
        train.write_log(history, args.log)
    final = history[-1] if history else {"loss": float("nan"), "train_acc":
                                         nn.accuracy(res.model, xt, yt),
                                         "val_acc": nn.accuracy(res.model, xv, yv)}
    print(f"final: loss={final['loss']:.4f} train_acc={final['train_acc']:.4f} "
          f"val_acc={final['val_acc']:.4f}")
    return 0


def cmd_eval(args) -> int:
    _require_file(args.model)
    x, y = _load_dataset(args)
    model = nn.load_model(args.model)
    logits_a = nn.model_forward(model, x)
    pred_a = np.argmax(logits_a, axis=1)
    print(f"accuracy[{model.stage}]: {np.mean(pred_a == y):.4f}")
    if not args.model2:
        return 0
    _require_file(args.model2)
    other = nn.load_model(args.model2)
    logits_b = nn.model_forward(other, x)
    pred_b = np.argmax(logits_b, axis=1)
    max_diff = float(np.max(np.abs(logits_a - logits_b)))
    ok = max_diff <= 1e-6 and bool(np.all(pred_a == pred_b))
    print(f"accuracy[{other.stage}]: {np.mean(pred_b == y):.4f}")
    print(f"max logit diff: {max_diff:.3e}")
    print(f"equivalent: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    rows = bench.bench_gemm(args.sizes, args.precisions, repeats=args.repeats, seed=args.seed)
    if args.out:
        bench.write_csv(rows, args.out)
    if args.plot_data:
        bench.write_plot_data(rows, args.plot_data)
    for row in rows:
        print(",".join(str(row[f]) for f in bench.CSV_FIELDS))
    return 0


def cmd_inspect(args) -> int:
    _require_file(args.model)
    model = nn.load_model(args.model)
    print(f"stage: {model.stage}")
    print(f"flavor: {model.flavor}")
    for i, spec in enumerate(model.specs):
        if spec.kind == "dense":
            print(f"layer {i}: dense {spec.in_features}->{spec.out_features} "
                  f"M={spec.m_bits} K={spec.k_bits} r={spec.r} follows_bn={spec.follows_bn}")
        elif spec.kind == "conv2d":
            kh, kw = spec.kernel
            print(f"layer {i}: conv2d {spec.in_features}->{spec.out_features} "
                  f"{kh}x{kw}/s{spec.stride}p{spec.padding} M={spec.m_bits} K={spec.k_bits} "
                  f"r={spec.r} follows_bn={spec.follows_bn}")
        elif spec.kind == "batchnorm":
            print(f"layer {i}: batchnorm features={spec.in_features} eps={spec.eps}")
        else:
            print(f"layer {i}: activation {spec.act}")
    print(f"weight bytes: {nn.weight_payload_bytes(model)}")
    print(f"compression ratio: {_format_ratio(nn.compression_ratio(model))}")
    return 0


def cmd_speedup_table(args) -> int:
    params = bench.SpeedModelParams(gamma=args.gamma, beta=args.beta,
                                    register_bits=args.L, n=args.N)
    grid = bench.speedup_grid(params)
    print("M\\K " + " ".join(f"{k:>7d}" for k in range(1, 9)))
    for m in range(1, 9):
        print(f"{m:>3d} " + " ".join(f"{grid[m - 1, k - 1]:7.2f}" for k in range(1, 9)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bitbranch")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default="", help="key=value file mirroring flags")
        p.set_defaults(_parser=p)

    p = sub.add_parser("quantize", help="float model -> quantized-stage model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--M", type=_int_in(1, quant.MAX_BITS), required=True)
    p.add_argument("--K", type=_int_in(1, quant.MAX_BITS), required=True)
    p.add_argument("--grid", choices=["odd", "linear"], default="odd")
    common(p)
    p.set_defaults(fn=cmd_quantize)

    p = sub.add_parser("decompose", help="quantized model -> bit-plane model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("train", help="train a toy network")
    p.add_argument("--dataset", default="moons", help="moons|spirals|blobs|grid:PATH")
    p.add_argument("--arch", type=_arch, default="mlp:2-16-16-2")
    p.add_argument("--alg", choices=["qnn", "mbbn"], default="qnn")
    p.add_argument("--M", type=_int_in(0, quant.MAX_BITS), default=2,
                   help="activation bits (0 = float)")
    p.add_argument("--K", type=_int_in(0, quant.MAX_BITS), default=2,
                   help="weight bits (0 = float)")
    p.add_argument("--optimizer", choices=["auto", "sgd", "adam"], default="auto")
    p.add_argument("--lr", type=_real(lambda v: v > 0, "finite and > 0"), default=None)
    p.add_argument("--grid", choices=["odd", "linear"], default="odd",
                   help="simulated-quantizer grid for qnn training")
    p.add_argument("--epochs", type=_int_in(0), default=100)
    p.add_argument("--batch-size", type=_int_in(1), default=64)
    p.add_argument("--n", type=_int_in(1), default=512, help="dataset size")
    p.add_argument("--noise", type=_noise, default=0.1)
    p.add_argument("--val-frac", type=_fraction, default=0.25)
    p.add_argument("--progressive-from", type=_int_in(0, quant.MAX_BITS), default=0,
                   help="start bits for progressive fine-tuning down to --K")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default="", help="CSV training log path")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate model(s); with --model2 check equivalence")
    p.add_argument("--model", required=True)
    p.add_argument("--model2", default="")
    p.add_argument("--dataset", default="moons")
    p.add_argument("--n", type=_int_in(1), default=512)
    p.add_argument("--noise", type=_noise, default=0.1)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="micro-benchmark the packed kernel")
    # parsed defaults: _apply_config takes a value equal to the default as not given
    p.add_argument("--sizes", type=_int_tuples(3, 1), default=[(1, 8192, 1)],
                   help="PxNxQ[,PxNxQ...]")
    p.add_argument("--precisions", type=_int_tuples(2, 1, quant.MAX_BITS),
                   default=[(1, 1), (2, 2), (3, 3)], help="MxK[,MxK...]")
    p.add_argument("--repeats", type=_int_in(1), default=11)
    p.add_argument("--out", default="")
    p.add_argument("--plot-data", default="")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="dump layer specs and storage accounting")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("speedup-table", help="analytic speedup over the M,K grid")
    p.add_argument("--gamma", type=float, default=1.91)
    p.add_argument("--beta", type=float, default=0.955)
    p.add_argument("--L", type=int, default=64)
    p.add_argument("--N", type=int, default=8192)
    common(p)
    p.set_defaults(fn=cmd_speedup_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, args._parser)
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, StageError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
