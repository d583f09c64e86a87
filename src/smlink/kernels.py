"""Hot detection kernels (numpy).

Both detectors reduce to one metric kernel over explicit candidate
images Hx_k. Expanding the ML metric,

    ||y - Hx_k||^2 = ||y||^2 + ||Hx_k||^2 - 2 Re(y . conj(Hx_k)),

and ||y||^2 is the same for every candidate of a row, so the kernel
minimises ||Hx_k||^2 - 2 Re(y . conj(Hx_k)) instead (the expansion behind
the reduced-complexity optimal SM detector of Jeganathan, Ghrayeb &
Szczecinski, IEEE Commun. Lett. 2008). Viewing each complex row as its
interleaved (re, im) pairs makes Re(y . conj(Hx_k)) a real dot product,
so one real matrix product per chunk gives every cross term.

Dropping a per-row constant changes no row's ordering of candidates, so
``np.argmin`` over the metric still returns the first minimum in
enumeration order and ties resolve to the lowest index. The received
vectors are worked through in chunks whose (chunk, n_cand) metric holds
at most ``_CHUNK_ELEMENTS`` float64 entries, so memory stays bounded for
any batch size.
"""

import numpy as np

__all__ = [
    "BACKEND",
    "detect_min_indices",
    "sm_detect_min_indices",
]

BACKEND = "numpy"

# 32 MiB of float64 metric per chunk.
_CHUNK_ELEMENTS = 4_000_000


def _real_pairs(a):
    """(n, nr) complex rows as (n, 2 nr) float64 rows of (re, im) pairs."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)


def _argmin_metric(y, hx):
    """First-minimum index of ||Hx_k||^2 - 2 Re(y . conj(Hx_k)) per row of y."""
    y2 = _real_pairs(y)
    hx2 = _real_pairs(hx)
    energy = np.einsum("kr,kr->k", hx2, hx2)
    cross = -2.0 * hx2.T  # exact scaling, so the products equal -2 times the dot
    out = np.empty(y2.shape[0], dtype=np.int64)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, hx2.shape[0]))
    for s in range(0, y2.shape[0], chunk):
        metrics = y2[s : s + chunk] @ cross
        metrics += energy
        out[s : s + chunk] = np.argmin(metrics, axis=1)
    return out


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
    return _argmin_metric(y, hx)


def sm_detect_min_indices(y, h, points):
    """Single-active-antenna ML search over (antenna, constellation point).

    The nt * M candidate images h[:, a] * points[p] are built directly
    from the channel columns, without a candidate matrix product; returns
    flat indices a * len(points) + p.
    """
    h = np.asarray(h)
    hx = (h[:, :, None] * np.asarray(points)).reshape(h.shape[0], -1).T
    return _argmin_metric(y, hx)
