"""Tests for bit mapping, constellations and maximum-likelihood detection."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smlink import kernels, modem
from smlink.errors import (
    ConfigurationError,
    DegenerateInputError,
    FramingError,
    RangeError,
    SmlinkError,
)


def brute_force_detect(y, h, candidates):
    """Independent oracle: explicit scan, strict first-minimum tie-break."""
    best_k, best = 0, np.inf
    for k in range(len(candidates)):
        d = np.asarray(y) - np.asarray(h) @ np.asarray(candidates[k])
        metric = float(np.sum(np.abs(d) ** 2))
        if metric < best:
            best, best_k = metric, k
    return best_k


def first_minimum(y, hx):
    """Brute force over the (n, nr) rows of y: explicit scan of every
    candidate image, strict ``<`` so the first minimum wins."""
    best = np.full(len(y), np.inf)
    index = np.zeros(len(y), dtype=np.int64)
    for k, image in enumerate(hx):
        d = y - image
        metric = (d.real**2 + d.imag**2).sum(axis=1)
        better = metric < best
        best[better] = metric[better]
        index[better] = k
    return index


def random_channel(rng, nr, nt):
    return (rng.standard_normal((nr, nt)) + 1j * rng.standard_normal((nr, nt))) / np.sqrt(2)


class TestConstellation:
    @pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
    def test_unit_average_energy(self, order):
        c = modem.build_constellation(order)
        assert len(c.points) == order
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_bpsk_points(self):
        c = modem.build_constellation(2)
        assert np.allclose(c.points, [1.0, -1.0])

    def test_qpsk_points(self):
        c = modem.build_constellation(4)
        expected = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2)
        assert np.allclose(c.points, expected, atol=1e-15)

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_gray_adjacency(self, order):
        """Nearest-neighbour points differ in exactly one label bit."""
        c = modem.build_constellation(order)
        pts = c.points
        dist = np.abs(pts[:, None] - pts[None, :])
        dmin = dist[dist > 0].min()
        ii, jj = np.where((dist > 0) & (dist < 1.01 * dmin))
        for i, j in zip(ii, jj):
            assert bin(i ^ j).count("1") == 1

    def test_all_points_distinct(self):
        for order in modem.SUPPORTED_ORDERS:
            pts = modem.build_constellation(order).points
            assert len(np.unique(np.round(pts, 12))) == order

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            modem.build_constellation(8)


class TestBitMapping:
    def test_msb_first(self):
        idx = modem.bits_to_indices(np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8), 3)
        assert idx.tolist() == [0b101, 0b100]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_roundtrip_exhaustive(self, m):
        idx = np.arange(2**m)
        bits = modem.indices_to_bits(idx, m)
        assert bits.size == m * 2**m
        back = modem.bits_to_indices(bits, m)
        assert np.array_equal(back, idx)

    def test_length_mismatch(self):
        with pytest.raises(FramingError):
            modem.bits_to_indices(np.zeros(5, dtype=np.uint8), 2)

    @pytest.mark.parametrize("index", [-1, 4, 9, -(2**40)])
    def test_index_outside_block_refused(self, index):
        """An index that no m-bit block has is refused, not wrapped into bits."""
        with pytest.raises(RangeError, match=r"\[0, 4\)"):
            modem.indices_to_bits([0, index, 3], 2)
        assert modem.indices_to_bits([], 2).size == 0

    @pytest.mark.parametrize("m", [0, -1])
    def test_block_size_below_one_refused(self, m):
        """m = 0 used to raise a bare ZeroDivisionError in bits_to_indices and
        m = -1 a bare ValueError (a negative shift) in indices_to_bits."""
        with pytest.raises(ConfigurationError, match="bit-block size"):
            modem.bits_to_indices(np.zeros(4, dtype=np.uint8), m)
        with pytest.raises(ConfigurationError, match="bit-block size"):
            modem.indices_to_bits(np.zeros(3, dtype=np.int64), m)

    def test_bits_per_vector(self):
        assert modem.bits_per_vector("sm", 2, 2) == 2
        assert modem.bits_per_vector("sm", 64, 4) == 8
        assert modem.bits_per_vector("smx", 8, 2) == 8
        assert modem.bits_per_vector("smx", 4, 4) == 8

    def test_non_power_of_two_antennas(self):
        with pytest.raises(ConfigurationError):
            modem.bits_per_vector("sm", 3, 2)


class TestSmMapping:
    def test_antenna_bits_lead(self):
        """Leading bit block selects the antenna: 00 -> +1 on antenna 1."""
        bpsk = modem.build_constellation(2)
        for bits, active, vector in (([0, 0], 0, [1.0, 0.0]), ([1, 1], 1, [0.0, -1.0])):
            bits = np.array(bits, dtype=np.uint8)
            antenna, vectors = modem.sm_modulate(bits, 2, bpsk)
            assert antenna.tolist() == [active]
            assert np.array_equal(vectors, [vector])
            assert np.array_equal(modem.modulate(bits, "sm", 2, bpsk), vectors)
            detected = modem.sm_ml_detect_batch(vectors, np.eye(2), bpsk)
            assert np.array_equal(modem.indices_to_bits(detected, 2), bits)

    @pytest.mark.parametrize("nt,order", [(2, 2), (2, 4), (4, 2), (4, 4), (8, 4)])
    def test_exhaustive_bijectivity(self, nt, order):
        c = modem.build_constellation(order)
        m = modem.bits_per_vector("sm", nt, order)
        bits = modem.indices_to_bits(np.arange(2**m), m)
        antenna, vectors = modem.sm_modulate(bits, nt, c)
        # one active antenna, all vectors distinct, detection restores the bits
        assert np.all(np.count_nonzero(vectors, axis=1) == 1)
        assert np.array_equal(np.flatnonzero(vectors) % nt, antenna)
        assert len({tuple(np.round(v, 12)) for v in vectors}) == 2**m
        back = modem.indices_to_bits(modem.sm_ml_detect_batch(vectors, np.eye(nt), c), m)
        assert np.array_equal(back, bits)

    def test_unit_vector_energy(self):
        for order in (2, 4):
            c = modem.build_constellation(order)
            vectors = modem.candidate_vectors("sm", 4, c)
            if order == 2:
                assert np.allclose(np.sum(np.abs(vectors) ** 2, axis=1), 1.0)
            assert np.mean(np.sum(np.abs(vectors) ** 2, axis=1)) == pytest.approx(1.0)

    def test_candidate_rows_follow_bit_blocks(self):
        """Row i of the candidate table is the modulation of bit block i."""
        c = modem.build_constellation(4)
        cands = modem.candidate_vectors("sm", 4, c)
        m = modem.bits_per_vector("sm", 4, 4)
        bits = modem.indices_to_bits(np.arange(2**m), m)
        _, vectors = modem.sm_modulate(bits, 4, c)
        assert np.allclose(cands, vectors)


class TestSmxMapping:
    def test_mean_energy_exhaustive(self):
        for nt, order in ((2, 4), (2, 16), (4, 2)):
            c = modem.build_constellation(order)
            vectors = modem.candidate_vectors("smx", nt, c)
            energies = np.sum(np.abs(vectors) ** 2, axis=1)
            assert np.mean(energies) == pytest.approx(1.0, abs=1e-12)

    def test_per_antenna_scaling(self):
        c = modem.build_constellation(4)
        bits = np.array([0, 0, 0, 0], dtype=np.uint8)  # both antennas label 0
        vectors = modem.smx_modulate(bits, 2, c)
        assert np.allclose(vectors[0], np.array([c.points[0], c.points[0]]) / np.sqrt(2))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        c = modem.build_constellation(16)
        m = modem.bits_per_vector("smx", 4, 16)
        bits = rng.integers(0, 2, size=m * 500).astype(np.uint8)
        vectors = modem.smx_modulate(bits, 4, c)
        cands = modem.candidate_vectors("smx", 4, c)
        back = modem.indices_to_bits(modem.ml_detect_batch(vectors, np.eye(4), cands), m)
        assert np.array_equal(back, bits)

    def test_candidate_rows_follow_bit_blocks(self):
        c = modem.build_constellation(2)
        cands = modem.candidate_vectors("smx", 4, c)
        m = modem.bits_per_vector("smx", 4, 2)
        bits = modem.indices_to_bits(np.arange(2**m), m)
        vectors = modem.smx_modulate(bits, 4, c)
        assert np.allclose(cands, vectors)


class TestMlDetection:
    def test_noiseless_exact(self):
        rng = np.random.default_rng(11)
        for scheme, nt, order in (("sm", 4, 4), ("smx", 2, 4)):
            c = modem.build_constellation(order)
            cands = modem.candidate_vectors(scheme, nt, c)
            h = random_channel(rng, 3, nt)
            y = cands @ h.T
            if scheme == "sm":
                det = modem.sm_ml_detect_batch(y, h, c)
            else:
                det = modem.ml_detect_batch(y, h, cands)
            assert np.array_equal(det, np.arange(len(cands)))

    def test_matches_brute_force_noisy(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            nt = int(rng.choice([2, 4]))
            nr = int(rng.choice([2, 4]))
            order = int(rng.choice([2, 4]))
            scheme = str(rng.choice(["sm", "smx"]))
            c = modem.build_constellation(order)
            cands = modem.candidate_vectors(scheme, nt, c)
            h = random_channel(rng, nr, nt)
            k = int(rng.integers(len(cands)))
            noise = 0.3 * (rng.standard_normal(nr) + 1j * rng.standard_normal(nr))
            y = h @ cands[k] + noise
            expected = brute_force_detect(y, h, cands)
            if scheme == "sm":
                assert modem.sm_ml_detect_batch(y[None, :], h, c)[0] == expected
            assert modem.ml_detect_batch(y[None, :], h, cands)[0] == expected

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        c = modem.build_constellation(4)
        cands = modem.candidate_vectors("sm", 4, c)
        h = random_channel(rng, 2, 4)
        y = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        batch = modem.sm_ml_detect_batch(y, h, c)
        singles = [modem.sm_ml_detect_batch(y[i:i + 1], h, c)[0] for i in range(len(y))]
        assert np.array_equal(batch, singles)
        batch = modem.ml_detect_batch(y, h, cands)
        singles = [modem.ml_detect_batch(y[i:i + 1], h, cands)[0] for i in range(len(y))]
        assert np.array_equal(batch, singles)

    def test_tie_breaks_on_first_minimum(self):
        """y = 0 against a symmetric candidate set: every metric ties."""
        c = modem.build_constellation(2)
        cands = modem.candidate_vectors("sm", 2, c)
        h = np.eye(2, dtype=complex)
        y = np.zeros((1, 2), dtype=complex)
        assert modem.sm_ml_detect_batch(y, h, c).tolist() == [0]  # antenna 1, point 1
        assert modem.ml_detect_batch(y, h, cands).tolist() == [0]
        batch = modem.ml_detect_batch(np.zeros((5, 2), dtype=complex), h, cands)
        assert np.array_equal(batch, np.zeros(5))

    @settings(max_examples=60, deadline=None)
    @given(scheme=st.sampled_from(["sm", "smx"]), nt=st.sampled_from([2, 4, 8]),
           order=st.sampled_from([2, 4, 16]), nr=st.sampled_from([1, 2, 4]),
           noise_var=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_detectors_match_first_minimum_property(self, scheme, nt, order, nr,
                                                    noise_var, seed):
        """Both batch detectors equal the explicit first-minimum scan, and a
        batch call equals one-row calls on its row slices (matrix-matrix and
        matrix-vector products of the metric kernel agree)."""
        assume(modem.bits_per_vector(scheme, nt, order) <= 12)
        rng = np.random.default_rng(seed)
        c = modem.build_constellation(order)
        cands = modem.candidate_vectors(scheme, nt, c)
        h = random_channel(rng, nr, nt)
        n = 24
        noise = rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr))
        y = cands[rng.integers(len(cands), size=n)] @ h.T + np.sqrt(noise_var / 2) * noise
        expected = first_minimum(y, cands @ h.T)
        generic = modem.ml_detect_batch(y, h, cands)
        assert np.array_equal(generic, expected)
        rows = [y[i:i + 1] for i in range(n)]
        assert [modem.ml_detect_batch(r, h, cands)[0] for r in rows] == list(generic)
        if scheme == "sm":
            flat = modem.sm_ml_detect_batch(y, h, c)
            assert np.array_equal(flat, expected)
            assert [modem.sm_ml_detect_batch(r, h, c)[0] for r in rows] == list(flat)

    def test_smx_kernel_memory_bounded(self):
        """2000 vectors against 65536 SMX candidates (nt=4, 16-QAM, nr=4)
        stay under 256 MiB: the (chunk, n_cand) metric is bounded."""
        rng = np.random.default_rng(43)
        nt, nr, n = 4, 4, 2000
        c = modem.build_constellation(16)
        cands = modem.candidate_vectors("smx", nt, c)
        h = random_channel(rng, nr, nt)
        sent = rng.integers(len(cands), size=n)
        noise = 0.3 * (rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
        y = cands[sent] @ h.T + noise
        tracemalloc.start()
        try:
            det = modem.ml_detect_batch(y, h, cands)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        # the explicit scan walks 65536 candidates a row: check a stride of rows
        rows = np.r_[np.arange(0, n, 500), n - 1]
        assert [int(det[i]) for i in rows] == [
            brute_force_detect(y[i], h, cands) for i in rows
        ]

    def test_sm_kernel_memory_bounded(self):
        """A 4000-vector call at nt=64, 16-QAM, nr=4 stays under 256 MiB.

        The unchunked kernel built the whole (n, nr, nt, M) difference
        tensor, 500 MiB here and growing with n.
        """
        rng = np.random.default_rng(41)
        nt, nr, n = 64, 4, 4000
        c = modem.build_constellation(16)
        cands = modem.candidate_vectors("sm", nt, c)
        h = random_channel(rng, nr, nt)
        sent = rng.integers(len(cands), size=n)
        noise = 0.3 * (rng.standard_normal((n, nr)) + 1j * rng.standard_normal((n, nr)))
        y = cands[sent] @ h.T + noise
        tracemalloc.start()
        try:
            det = modem.sm_ml_detect_batch(y, h, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2**20
        # the explicit scan walks 1024 candidates a row: check a stride of rows
        rows = np.r_[np.arange(0, n, 37), n - 1]
        assert [int(det[i]) for i in rows] == [
            brute_force_detect(y[i], h, cands) for i in rows
        ]

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: modem.ml_detect_batch(np.ones((3, 2)), np.eye(2), np.ones((0, 2))),
                     id="no-candidate"),
        pytest.param(lambda: modem.ml_detect_batch(np.ones((3, 2)), np.eye(2), np.ones(2)),
                     id="1d-candidates"),
        pytest.param(lambda: modem.ml_detect_batch(np.ones((3, 2)), np.ones(2), np.ones((4, 2))),
                     id="1d-channel"),
        pytest.param(lambda: modem.sm_ml_detect_batch(
            np.ones((3, 2)), np.ones(2), modem.build_constellation(2)), id="sm-1d-channel"),
    ])
    def test_malformed_shapes_refused_with_named_errors(self, call):
        """An empty or 1-D candidate set and a 1-D channel used to raise a
        bare ValueError (argmin of nothing) or IndexError; the shapes are now
        checked once per call, before the kernel's chunk loop."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SmlinkError):
                call()
        assert not caught

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                             ids=["nan", "inf", "-inf", "inf-imag"])
    @pytest.mark.parametrize("where", ["y", "h"])
    @pytest.mark.parametrize("scheme", ["sm", "smx"])
    def test_non_finite_input_refused(self, scheme, where, value):
        """A NaN or infinite entry in one received vector or in the channel
        raises DegenerateInputError, with no warning first (the tests turn
        warnings into errors); np.argmin used to pick a row's first NaN
        and return index 0 for it."""
        rng = np.random.default_rng(53)
        c = modem.build_constellation(4)
        h = random_channel(rng, 2, 2)
        y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        if where == "y":
            y[3, 1] = value
        else:
            h[1, 0] = value
        with pytest.raises(DegenerateInputError, match="must be finite"):
            modem.ml_detect_batch(y, h, modem.candidate_vectors(scheme, 2, c))
        if scheme == "sm":
            with pytest.raises(DegenerateInputError, match="must be finite"):
                modem.sm_ml_detect_batch(y, h, c)

    @pytest.mark.parametrize("min_rows", [1, 16])
    @pytest.mark.parametrize("n", [1, 2, 101])
    def test_multi_chunk_batch_matches_brute_force(self, monkeypatch, n, min_rows):
        """A batch split into many chunks of 40 metric entries (2 rows of
        the 16 SMX candidates, 5 of the 8 SM ones), or of the 16-row
        floor, with the last chunk short, gives the brute-force indices."""
        monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 40)
        monkeypatch.setattr(kernels, "_MIN_CHUNK_ROWS", min_rows)
        rng = np.random.default_rng(47)
        c = modem.build_constellation(4)
        h = random_channel(rng, 2, 2)
        noise = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for scheme in ("sm", "smx"):
            cands = modem.candidate_vectors(scheme, 2, c)
            y = cands[rng.integers(len(cands), size=n)] @ h.T + 0.5 * noise
            expected = first_minimum(y, cands @ h.T)
            assert np.array_equal(modem.ml_detect_batch(y, h, cands), expected)
            if scheme == "sm":
                assert np.array_equal(modem.sm_ml_detect_batch(y, h, c), expected)


class TestComplexity:
    def test_counts_at_two_bits(self):
        assert modem.receiver_complexity("sm", 2, 2, 2) == 64
        assert modem.receiver_complexity("smx", 2, 2, 2) == 96

    def test_reduction_is_exact_rational(self):
        rep = modem.complexity_report(4, 2, 4)
        assert rep.relative_reduction_percent == Fraction(60)
        rep = modem.complexity_report(128, 2, 4)
        assert rep.relative_reduction_percent == Fraction(12700, 129)
        assert round(float(rep.relative_reduction_percent)) == 98

    @pytest.mark.parametrize("nt", [2, 4, 8, 64, 128])
    def test_closed_form(self, nt):
        rep = modem.complexity_report(nt, 2, 6)
        assert rep.relative_reduction_percent == 100 * (1 - Fraction(2, nt + 1))
        # the reduction is independent of nr and m
        assert rep.relative_reduction_percent == (
            modem.complexity_report(nt, 4, 8).relative_reduction_percent
        )

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            modem.receiver_complexity("osm", 2, 2, 2)

    @pytest.mark.parametrize("nt, nr, m", [(0, 2, 4), (3, 2, 4), (-4, 2, 4),
                                           (4, 0, 4), (4, 2, 0)])
    def test_bad_sizes_rejected(self, nt, nr, m):
        with pytest.raises(ConfigurationError):
            modem.complexity_report(nt, nr, m)
