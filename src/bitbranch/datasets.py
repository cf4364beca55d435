"""Seeded synthetic datasets and a raw image-grid binary format.

Generators scale features into [-1, 1] so they can be fed straight into
the quantizers. The grid format stores small labeled image batches:
magic line, then n/c/h/w as u64 LE, f32 pixels, and u64 labels.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import ConfigError, FormatError, make_rng, require_bytes

GRID_MAGIC = b"#bitbranch-grid-v1\n"


def _to_unit_box(x: np.ndarray) -> np.ndarray:
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    return 2.0 * (x - lo) / np.maximum(hi - lo, 1e-12) - 1.0


def make_moons(n: int, noise: float = 0.1, seed: int = 0):
    """Two interleaved half circles, the standard 2-class toy set."""
    rng = make_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0, np.pi, n0)
    t1 = rng.uniform(0, np.pi, n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.vstack([x0, x1]) + rng.normal(0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n)
    return _to_unit_box(x[order]), y[order]


def make_spirals(n: int, noise: float = 0.05, seed: int = 0, turns: float = 1.75):
    rng = make_rng(seed)
    n0 = n // 2
    n1 = n - n0
    pts = []
    for count, flip in ((n0, 1.0), (n1, -1.0)):
        t = np.sqrt(rng.uniform(0.05, 1.0, count)) * turns * 2 * np.pi
        pts.append(flip * np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (turns * 2 * np.pi))
    x = np.vstack(pts) + rng.normal(0, noise, size=(n, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    order = rng.permutation(n)
    return _to_unit_box(x[order]), y[order]


def make_blobs(n: int, centers: int = 3, std: float = 0.25, seed: int = 0):
    rng = make_rng(seed)
    angles = 2 * np.pi * np.arange(centers) / centers
    mus = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = rng.integers(0, centers, n)
    x = mus[y] + rng.normal(0, std, size=(n, 2))
    return _to_unit_box(x), y.astype(np.int64)


GENERATORS = {"moons": make_moons, "spirals": make_spirals, "blobs": make_blobs}


def split(x: np.ndarray, y: np.ndarray, val_frac: float = 0.25, seed: int = 0):
    """Deterministic train/validation split; ConfigError if either side is empty."""
    rng = make_rng(seed ^ 0x5EED)
    n = len(x)
    order = rng.permutation(n)
    n_val = int(round(n * val_frac))
    if not 0 < n_val < n:
        raise ConfigError(f"a validation fraction of {val_frac} leaves {n_val} of {n} rows "
                          f"for validation and {n - n_val} for training; each needs one")
    val, tr = order[:n_val], order[n_val:]
    return (x[tr], y[tr]), (x[val], y[val])


# ---------------------------------------------------------------------------
# Raw image-grid format
# ---------------------------------------------------------------------------

def save_grid(path: str, images: np.ndarray, labels: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if images.ndim != 4 or len(labels) != images.shape[0]:
        raise ValueError("grid format needs images (N,C,H,W) and one label per image")
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<4Q", *images.shape))
        fh.write(images.astype("<f4").tobytes())
        fh.write(labels.astype("<u8").tobytes())


def load_grid(path: str):
    """Read an image-grid file; contents that break the format raise FormatError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(GRID_MAGIC):
        raise FormatError(f"{path}: not an image-grid file (bad magic)")
    off = len(GRID_MAGIC) + 32
    try:
        require_bytes(blob, off)
        n, c, h, w = struct.unpack_from("<4Q", blob, len(GRID_MAGIC))
        size = n * c * h * w
        end = off + 4 * size + 8 * n
        require_bytes(blob, end)
        if end != len(blob):
            raise FormatError(f"{len(blob) - end} bytes after the labels")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    pixels = np.frombuffer(blob, dtype="<f4", count=size, offset=off)
    labels = np.frombuffer(blob, dtype="<u8", count=n, offset=off + 4 * size)
    return pixels.astype(np.float64).reshape(n, c, h, w), labels.astype(np.int64)
