"""bitbranch benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` next to
this directory. BLAS and OpenMP are pinned to one thread before numpy loads.

``--trace 0`` measures untraced and prints the end-to-end metrics.
``--trace 1`` measures untraced for half the time, then runs the traced half
in a child process that wraps the library's public functions, and prints
the per-layer metrics; ``trace.overhead_frac`` compares the two halves.

The line before the last is a report: the environment, the input sizes and
the workload's own named metrics. The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when
any check failed. ``--toy`` shrinks every input for the smoke test.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bitbranch  # noqa: E402
from bitbranch import bench, bitops, core, gemm, nn, quant, train  # noqa: E402

if Path(bitbranch.__file__).resolve().parent != ROOT / "src" / "bitbranch":
    sys.exit(f"bitbranch imported from {bitbranch.__file__}, not from {ROOT / 'src'}")

from spans import Clock, Tracer  # noqa: E402
from workloads import WORKLOADS, percentile  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# End-to-end metrics, the same names on every workload; see README.md.
END_TO_END_UNITS = {"items_per_s_p25": "1/s", "stage_agree_frac": "frac", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _count_gemm(x, w, *_, **__):
    n_words = -(-x.cols // bitops.WORD_BITS)
    dots = x.rows * w.rows * x.bits * w.bits
    return {"gemm.encoded_gemm.binary_dots": dots,
            "gemm.encoded_gemm.word_ops": dots * n_words,
            # operand planes read once plus the int64 accumulator written
            "gemm.encoded_gemm.bytes_computed":
                8 * n_words * (x.rows * x.bits + w.rows * w.bits) + 8 * x.rows * w.rows,
            ("gemm_shape", x.rows, x.cols, w.rows, x.bits, w.bits): 1}


def _count_elems(x, *_, **__):
    return {"quant.quantize_odd.elems": np.size(x)}


def _count_file(_model, path, *_, **__):
    return {"nn.model_file_bytes": os.path.getsize(path)}


def _count_step(*_, **__):
    return {"train.steps": 1}


# (module, function, counter); every name below is a per-layer metric prefix
TRACED = [
    (core, "matmul_f", None),
    (quant, "quantize_odd", _count_elems),
    (quant, "mbit_encoder_digits", None),
    (quant, "activation", None),
    (bitops, "xnor_popcount_words", None),
    (bitops, "pack", None),
    (bitops, "unpack", None),
    (gemm, "encoded_gemm", _count_gemm),
    (gemm, "decode_codes", None),
    (gemm, "encode_codes", None),
    (gemm, "scale_output", None),
    (nn, "im2col", None),
    (nn, "batchnorm_forward", None),
    (nn, "dense_forward", None),
    (nn, "conv2d_forward", None),
    (nn, "quantize_model", None),
    (nn, "decompose_model", None),
    (nn, "save_model", _count_file),
    (nn, "load_model", None),
    (train, "forward_qnn", None),
    (train, "train_step_alg2", _count_step),
    (train, "forward_mbbn", None),
    (train, "train_step_alg1", _count_step),
    (train, "optimizer_update", None),
    (train, "training_forward", None),
    (train, "export_model", None),
]
# functions whose children carry most of their time name their metric self_ms;
# every .ms and .self_ms value is self time
SELF_MS = {"nn.dense_forward", "nn.conv2d_forward", "train.train_step_alg2",
           "train.train_step_alg1"}
COUNT_UNITS = {"gemm.encoded_gemm.binary_dots": "count", "gemm.encoded_gemm.word_ops": "count",
               "gemm.encoded_gemm.bytes_computed": "B", "quant.quantize_odd.elems": "count",
               "nn.model_file_bytes": "B", "train.steps": "count"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, fn, _ in TRACED:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fn}"
        units[f"{name}.{'self_ms' if name in SELF_MS else 'ms'}"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(COUNT_UNITS)
    units.update({"gemm.encoded_gemm.word_ops_per_s": "1/s", "gemm.encoded_gemm.vs_blas_1t": "x",
                  "gemm.encoded_gemm.speedup_model": "x", "trace.attributed_frac": "frac",
                  "trace.overhead_frac": "frac"})
    return units


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def timer_resolution_ns() -> int:
    best = None
    for _ in range(50):
        t0 = t1 = time.perf_counter_ns()
        while t1 == t0:
            t1 = time.perf_counter_ns()
        best = t1 - t0 if best is None else min(best, t1 - t0)
    return best


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    flags: set[str] = set()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_flags": {f: f in flags for f in ("popcnt", "avx2", "avx512_vpopcntdq")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "timer_resolution_ns": timer_resolution_ns(),
        "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def set_up(cls, args, repeats: int):
    """Set the workload up ``repeats`` times; keep the last, return (workload, times)."""
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        workload = cls(args.seed, args.toy)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, times


def run_loop(workload, clock: Clock, seconds: float, min_iterations: int) -> tuple[int, int]:
    """Closed loop for ``seconds`` (and at least ``min_iterations``): (attempted, failed)."""
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < min_iterations or time.perf_counter() < deadline:
        attempted += 1
        try:
            ok = workload.iteration(clock)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        clock.end_iteration(ok)
        failed += not ok
    checks_attempted, checks_failed = workload.final_checks()
    return attempted + checks_attempted, failed + checks_failed


def blas_ms(p: int, n: int, q: int, rng) -> float:
    """Median single-thread BLAS f64 time of a (p x n) @ (n x q) product."""
    a = rng.uniform(-1, 1, (p, n))
    b = rng.uniform(-1, 1, (n, q))
    times = []
    t_end = time.perf_counter() + 0.05
    while len(times) < 5 or time.perf_counter() < t_end:
        t0 = time.perf_counter_ns()
        a @ b
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def traced_child(args) -> dict:
    """Set up once, run the loop with every TRACED function wrapped, summarise."""
    cls = WORKLOADS[args.workload]
    workload, _ = set_up(cls, args, 1)
    tracer = Tracer()
    for module, fn, counter in TRACED:
        tracer.wrap(module, fn, counter)
    clock = Clock(tracer)
    try:
        attempted, failed = run_loop(workload, clock, args.seconds,
                                     workload.min_iterations(traced=True))
    finally:
        tracer.unwrap_all()
        workload.close()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz"))

    iterations = len(clock.samples.get(cls.OP, []))
    summary = tracer.summarize(cls.OP, iterations)
    metrics = {name: 0.0 for name in per_layer_units()}
    for name, ms in summary["ms"].items():
        metrics[f"{name}.{'self_ms' if name in SELF_MS else 'ms'}"] = ms
    for name, calls in summary["calls"].items():
        metrics[f"{name}.calls"] = calls
    metrics.update(summary["counts"])
    metrics["trace.attributed_frac"] = summary["attributed_frac"]

    shapes = summary["shapes"]  # ("gemm_shape", P, N, Q, M, K) -> (calls, inclusive ns)
    rng = core.make_rng(args.seed)
    kernel_rows = []
    for (_, p, n, q, m_bits, k_bits), (calls, ns) in sorted(shapes.items()):
        kernel_rows.append({"P": p, "N": n, "Q": q, "M": m_bits, "K": k_bits, "calls": calls,
                            "encoded_gemm_ms": ns / 1e6 / calls,
                            "blas_f64_1t_ms": blas_ms(p, n, q, rng),
                            "speedup_model": bench.speedup_model(
                                m_bits, k_bits, bench.SpeedModelParams(n=n))})
    gemm_ms = sum(r["encoded_gemm_ms"] * r["calls"] for r in kernel_rows)
    if gemm_ms:
        blas_total = sum(r["blas_f64_1t_ms"] * r["calls"] for r in kernel_rows)
        metrics["gemm.encoded_gemm.vs_blas_1t"] = blas_total / gemm_ms
        metrics["gemm.encoded_gemm.word_ops_per_s"] = (
            metrics["gemm.encoded_gemm.word_ops"] * iterations / (gemm_ms / 1e3))
        top = max(kernel_rows, key=lambda r: r["encoded_gemm_ms"] * r["calls"])
        metrics["gemm.encoded_gemm.speedup_model"] = top["speedup_model"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "op_ms_p50": float(np.median(clock.ms(cls.OP))), "kernel_shapes": kernel_rows}


def run_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
           "--traced-child"] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"traced child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.traced_child:
        print(json.dumps(traced_child(args)))
        return 0

    cls = WORKLOADS[args.workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    workload, setup_times = set_up(cls, args, 1 if args.trace else SETUP_REPEATS)
    clock = Clock()
    try:
        attempted, failed = run_loop(workload, clock, seconds,
                                     workload.min_iterations(traced=bool(args.trace)))
    finally:
        workload.close()
    op_ms = clock.ms(cls.OP)
    end_to_end = {
        # per-op throughput that three ops in four reach: the op time's p75
        "items_per_s_p25": workload.items_per_op / (percentile(op_ms, 75) / 1e3),
        "stage_agree_frac": workload.agree_frac(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    named = workload.report(clock)
    named.update({name: {"value": end_to_end[name], "unit": END_TO_END_UNITS[name]}
                  for name in ("items_per_s_p25", "setup_s", "peak_rss_mb")})
    named["op_ms_p90"] = {"value": percentile(op_ms, 90), "unit": "ms"}
    named["ops_failed_frac"] = {"value": failed / attempted, "unit": "frac"}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(),
            "sizes": workload.sizes, "setup_s_samples": setup_times, "metrics": named}

    if args.trace:
        child_args = argparse.Namespace(**{**vars(args), "seconds": seconds})
        child = run_child(child_args)
        attempted += child["attempted"]
        failed += child["failed"]
        metrics = child["metrics"]
        metrics["trace.overhead_frac"] = child["op_ms_p50"] / float(np.median(op_ms)) - 1.0
        units = per_layer_units()
        info["kernel_shapes"] = child["kernel_shapes"]
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    print(json.dumps(info))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
