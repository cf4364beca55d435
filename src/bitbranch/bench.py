"""Analytic speedup model and micro-benchmarks of the packed kernel.

The analytic model for an N-length dot product with M-bit activations and
K-bit weights on an L-bit register machine is

    S = N * gamma / (M*K * (gamma + 2 * ceil(N / L)) + (M*K - 1) * beta)

with gamma the MAC-to-bitwise cost ratio and beta the add-to-bitwise
ratio. The empirical harness times the packed kernel against a deliberately
unoptimized scalar float baseline (plain Python loop), and reports the
vendor BLAS time separately, both on the real operands and as the exact
product of their odd codes (``gemm.code_matmul``, the quantized stage's
GEMM); encoding happens outside the timed region.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import core, gemm
from .core import ConfigError

_REGISTER_WIDTHS = (8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class SpeedModelParams:
    gamma: float = 1.91  # MAC vs bitwise op cost
    beta: float = 0.955  # addition vs bitwise op cost (gamma / 2)
    register_bits: int = 64
    n: int = 8192

    def __post_init__(self):
        if not self.gamma > 0 or self.beta < 0:
            raise ConfigError("gamma must be positive and beta non-negative")
        if self.register_bits not in _REGISTER_WIDTHS:
            raise ConfigError(f"register width must be one of {_REGISTER_WIDTHS}")
        if self.n < 1:
            raise ConfigError("reduction length must be >= 1")


def speedup_model(m_bits: int, k_bits: int, p: SpeedModelParams) -> float:
    """Analytic speedup of the (M, K)-bit packed kernel over scalar float."""
    if not (1 <= m_bits <= 8 and 1 <= k_bits <= 8):
        raise ConfigError("bit widths must be in 1..8")
    mk = m_bits * k_bits
    words = math.ceil(p.n / p.register_bits)
    return p.n * p.gamma / (mk * (p.gamma + 2 * words) + (mk - 1) * p.beta)


def speedup_grid(p: SpeedModelParams) -> np.ndarray:
    """8 x 8 table of analytic speedups; entry [m-1, k-1] is (m, k) bits."""
    return np.array([[speedup_model(m, k, p) for k in range(1, 9)]
                     for m in range(1, 9)])


# ---------------------------------------------------------------------------
# Kernels under test
# ---------------------------------------------------------------------------

def scalar_gemm(a: np.ndarray, b_t: np.ndarray) -> list:
    """Unoptimized scalar float baseline: plain Python triple loop."""
    p, n = a.shape
    q = b_t.shape[0]
    al = a.tolist()
    bl = b_t.tolist()
    out = [[0.0] * q for _ in range(p)]
    for i in range(p):
        ai = al[i]
        row = out[i]
        for j in range(q):
            bj = bl[j]
            s = 0.0
            for t in range(n):
                s += ai[t] * bj[t]
            row[j] = s
    return out


# one timed sample lasts at least this long
_SAMPLE_NS = 1_000_000

# untimed calls of each function before its samples
_WARMUP = 3


def _medians_ns(fns, repeats: int) -> list[int]:
    """Median time per call of each function over ``repeats`` samples.

    A sample calls the functions in turn, one call each and starting one
    further along each time, as many times over as fill ``_SAMPLE_NS`` (from
    the fastest warm-up calls), and keeps each function's median call. The
    functions thus share every change in machine speed down to the length
    of one call, which matters where their times differ by a few percent,
    and the medians drop the calls that an interrupt or a page fault hit.
    """
    fastest = [None] * len(fns)
    for _ in range(_WARMUP):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter_ns()
            fn()
            dt = time.perf_counter_ns() - t0
            fastest[i] = dt if fastest[i] is None else min(fastest[i], dt)
    calls = max(1, -(-_SAMPLE_NS // max(sum(fastest), 1)))
    times = [[] for _ in fns]
    for _ in range(repeats):
        sample = [[] for _ in fns]
        for c in range(calls):
            for i in range(len(fns)):
                j = (c + i) % len(fns)
                t0 = time.perf_counter_ns()
                fns[j]()
                sample[j].append(time.perf_counter_ns() - t0)
        for j in range(len(fns)):
            times[j].append(np.median(sample[j]))
    return [int(np.median(t)) for t in times]


def _median_ns(fn, repeats: int) -> int:
    return _medians_ns([fn], repeats)[0]


def bench_gemm(sizes, precisions, repeats: int = 11, seed: int = 0) -> list[dict]:
    """Time scalar float, BLAS float, and each (M, K) packed and BLAS code kernel.

    ``sizes`` is a list of (P, N, Q) triples and ``precisions`` a list of
    (M, K) pairs. Per precision, the packed kernel and ``gemm.code_matmul``
    on the odd codes of the same operands (row ``blas_codes``) are each
    checked once against the integer code-matmul oracle, then timed in one
    round-robin. Rows use the schema kernel, M, K, P, N, Q, median_ns,
    speedup_vs_scalar; median_ns is the median time of one call. The packed
    weight is prepared for the kernel once, as a model's plan prepares it,
    and the codes are cast to their compute type once, both outside the
    timed calls.
    """
    if repeats <= 0:
        return []
    rng = core.make_rng(seed)
    return [row for size in sizes
            for row in _bench_size(size, precisions, repeats, rng)]


# per precision: the popcount GEMM on packed planes, and BLAS on the odd codes
_CODE_KERNELS = ("packed", "blas_codes")


def _bench_size(size, precisions, repeats, rng) -> list[dict]:
    p, n, q = size
    rows = []
    a = rng.uniform(-1, 1, size=(p, n))
    b = rng.uniform(-1, 1, size=(q, n))
    scalar_ns = _median_ns(lambda: scalar_gemm(a, b), repeats)
    rows.append({"kernel": "scalar_float", "M": 0, "K": 0, "P": p, "N": n,
                 "Q": q, "median_ns": scalar_ns, "speedup_vs_scalar": 1.0})
    blas_ns = _median_ns(lambda: a @ b.T, repeats)
    rows.append({"kernel": "blas_float", "M": 0, "K": 0, "P": p, "N": n,
                 "Q": q, "median_ns": blas_ns,
                 "speedup_vs_scalar": scalar_ns / max(blas_ns, 1)})
    kernels = []
    for (m_bits, k_bits) in precisions:
        xe = gemm.encode_matrix(a, m_bits)
        we = gemm.encode_matrix(b, k_bits)
        xc, wc = gemm.decode_codes(xe), gemm.decode_codes(we)
        oracle = xc @ wc.T
        dtype = gemm.code_dtype(n, m_bits, k_bits)
        pair = (functools.partial(gemm.encoded_gemm, xe, gemm.prepare_weight(we, m_bits)),
                functools.partial(gemm.code_matmul, xc.astype(dtype), wc.astype(dtype), m_bits,
                                  k_bits))
        for name, kernel in zip(_CODE_KERNELS, pair):
            if not np.array_equal(kernel(), oracle):
                raise AssertionError(f"{name} kernel diverged at M={m_bits}, K={k_bits}")
        kernels.extend(pair)
    times = iter(_medians_ns(kernels, repeats))
    for (m_bits, k_bits) in precisions:
        for name in _CODE_KERNELS:
            ns = next(times)
            rows.append({"kernel": name, "M": m_bits, "K": k_bits, "P": p, "N": n, "Q": q,
                         "median_ns": ns, "speedup_vs_scalar": scalar_ns / max(ns, 1)})
    return rows


CSV_FIELDS = ["kernel", "M", "K", "P", "N", "Q", "median_ns", "speedup_vs_scalar"]


def write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_plot_data(rows: list[dict], path: str) -> None:
    """Gnuplot-friendly bars: one (M K speedup) line per packed kernel row."""
    with open(path, "w") as fh:
        fh.write("# M K speedup_vs_scalar\n")
        last_m = None
        for row in rows:
            if row["kernel"] != "packed":
                continue
            if last_m is not None and row["M"] != last_m:
                fh.write("\n")
            last_m = row["M"]
            fh.write(f"{row['M']} {row['K']} {row['speedup_vs_scalar']:.4f}\n")
