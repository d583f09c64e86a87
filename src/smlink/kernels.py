"""Hot detection kernels (numpy).

Both kernels scan candidates in enumeration order and keep the first
minimum, so ties resolve to the lowest index. Both work through the
received vectors in chunks whose largest metric temporary holds at most
``_CHUNK_ELEMENTS`` complex entries, so memory stays bounded for any
batch size.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "detect_min_indices",
    "sm_detect_min_indices",
]

BACKEND = "numpy"

# 64 MiB of complex128 per chunk.
_CHUNK_ELEMENTS = 4_000_000


def _chunk_rows(per_row):
    return max(1, _CHUNK_ELEMENTS // max(1, per_row))


def detect_min_indices(y, hx):
    """Index of the minimum-distance candidate for each received vector.

    Parameters
    ----------
    y : (n, nr) complex array of received vectors.
    hx : (n_cand, nr) complex array, one row per noiseless candidate H @ x.

    Returns
    -------
    (n,) int64 array of candidate indices (first minimum wins).
    """
    y = np.ascontiguousarray(y)
    hx = np.ascontiguousarray(hx)
    out = np.empty(y.shape[0], dtype=np.int64)
    chunk = _chunk_rows(hx.size)
    for s in range(0, y.shape[0], chunk):
        d = y[s : s + chunk, None, :] - hx[None, :, :]
        metrics = np.einsum("skr,skr->sk", d, d.conj()).real
        out[s : s + chunk] = np.argmin(metrics, axis=1)
    return out


def sm_detect_min_indices(y, h, points):
    """Single-active-antenna ML search over (antenna, constellation point).

    Uses the per-column metric sum_r |y_r - h[r, a] * s|^2 rather than a
    candidate matrix product; returns flat indices a * len(points) + p.
    """
    y = np.asarray(y)
    h = np.asarray(h)
    points = np.asarray(points)
    ref = h[None, :, :, None] * points[None, None, None, :]  # (1, nr, nt, M)
    out = np.empty(y.shape[0], dtype=np.int64)
    chunk = _chunk_rows(ref.size)
    for s in range(0, y.shape[0], chunk):
        d = y[s : s + chunk, :, None, None] - ref
        metrics = (d.real**2 + d.imag**2).sum(axis=1)  # (chunk, nt, M)
        out[s : s + chunk] = np.argmin(metrics.reshape(metrics.shape[0], -1), axis=1)
    return out
