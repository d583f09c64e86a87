"""Tests for the Q function, the ABER union bound and the Rice fit."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from smlink import analysis, channel, modem, specfun
from smlink.errors import (ConfigurationError, DegenerateInputError, DimensionError,
                           SmlinkError)

# Gaussian tail probabilities precomputed with 40-digit arithmetic.
Q_ORACLE = {
    -8.0: 0.9999999999999993779039,
    -5.0: 0.9999997133484281208061,
    -2.5: 0.993790334674223864833,
    -1.0: 0.8413447460685429485852,
    -0.5: 0.6914624612740131036377,
    0.0: 0.5,
    0.5: 0.3085375387259868963623,
    1.0: 0.1586552539314570514148,
    1.2816: 0.09999150009767516615439,
    2.0: 0.02275013194817920720028,
    3.5: 0.0002326290790355250363499,
    5.0: 2.866515718791939116738e-7,
    8.0: 6.220960574271784123516e-16,
}

# (1/2) Q(2 sqrt(g)) + (3/2) Q(sqrt(2 g)) at g = 10**(snr/10)/2, 40-digit.
BOUND_EYE_ORACLE = {0.0: 0.2773076826597568597868, 10.0: 0.001175987747609673279034}


def sm_bpsk_2x2_candidates():
    c = modem.build_constellation(2)
    return modem.candidate_vectors("sm", 2, c)


def eye_bound_closed_form(snr_db):
    """Hand-enumerated union bound for 2x2 single-antenna BPSK at H = I.

    Twelve ordered candidate pairs: four swaps of the point on one
    antenna (distance 4, weight 1) and eight cross-antenna pairs
    (distance 2, total weight 12); normalized by m * 2**m = 8.
    """
    g = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0) / 2.0
    return 0.5 * analysis.q_function(2 * np.sqrt(g)) + 1.5 * analysis.q_function(
        np.sqrt(2 * g)
    )


class TestQFunction:
    def test_frozen_oracle(self):
        for w, expected in Q_ORACLE.items():
            assert analysis.q_function(w) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        w = np.linspace(-6, 6, 41)
        assert np.allclose(analysis.q_function(w) + analysis.q_function(-w), 1.0,
                           atol=1e-15)

    def test_monotone_decreasing(self):
        v = analysis.q_function(np.linspace(-8, 8, 200))
        assert np.all(np.diff(v) < 0)

    def test_ten_percent_point(self):
        assert analysis.q_function(1.2816) == pytest.approx(0.1, abs=1e-4)

    def test_matches_scipy_erfc(self):
        """Within 1e-13 of scipy's 0.5 erfc(w / sqrt(2)) (measured 5.7e-14; the
        stdlib erfc is the closer of the two to 30-digit values in the tail),
        and both fall below the smallest normal float together."""
        w = np.linspace(-8.0, 38.0, 4601)
        got = analysis.q_function(w)
        want = 0.5 * special.erfc(w / np.sqrt(2.0))
        assert got.dtype == np.float64 and got.shape == w.shape
        normal = want >= np.finfo(np.float64).tiny
        assert normal[:4000].all()
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0)
        assert (got[~normal] < np.finfo(np.float64).tiny).all()

    def test_scalar_and_shape(self):
        assert isinstance(analysis.q_function(0.0), np.float64)
        assert analysis.q_function(np.zeros((2, 3))).shape == (2, 3)


class TestPairwiseErrorProbability:
    def test_identity_channel_example(self):
        """Two candidates one bit apart: the bound is their one pairwise
        error probability, Q(sqrt(gamma_ex) * ||x_t - x||) = Q(2) at
        gamma_ex = 1."""
        cands = np.array([[1.0, 0.0], [-1.0, 0.0]])
        snr_db = 10.0 * math.log10(2.0)  # gamma_ex = 1
        bound = analysis.union_bound_aber_for_channels(cands, np.eye(2), [snr_db])
        assert bound[0] == pytest.approx(Q_ORACLE[2.0], rel=1e-12)


class TestUnionBoundIdentityChannel:
    def test_matches_frozen_oracle(self):
        cands = sm_bpsk_2x2_candidates()
        h = np.eye(2, dtype=complex)[None, :, :]
        vals = analysis.union_bound_aber_for_channels(cands, h, (0.0, 10.0))
        for got, snr in zip(vals, (0.0, 10.0)):
            assert got == pytest.approx(BOUND_EYE_ORACLE[snr], rel=1e-12)

    def test_matches_closed_form_across_grid(self):
        cands = sm_bpsk_2x2_candidates()
        grid = tuple(range(-10, 21, 5))
        vals = analysis.union_bound_aber_for_channels(
            cands, np.eye(2, dtype=complex), grid
        )
        assert np.allclose(vals, eye_bound_closed_form(grid), rtol=1e-13)

    def test_raw_value_can_exceed_half(self):
        cands = sm_bpsk_2x2_candidates()
        val = analysis.union_bound_aber_for_channels(
            cands, np.eye(2, dtype=complex), (-20.0,)
        )[0]
        assert val > 0.5  # records keep the raw union-bound value

    @pytest.mark.parametrize("scheme, nt, order, n_draws", [("sm", 2, 2, 150), ("sm", 8, 4, 20)])
    def test_block_budget_does_not_matter(self, monkeypatch, scheme, nt, order, n_draws):
        """One row and one draw per block give the default blocks' values."""
        rng = np.random.default_rng(12)
        cands = modem.candidate_vectors(scheme, nt, modem.build_constellation(order))
        hs = channel.draw_channels(n_draws, 2, nt, channel.FadingModel(10.0), rng=rng)
        a = analysis.union_bound_aber_for_channels(cands, hs, (5.0, 15.0))
        monkeypatch.setattr(analysis, "_PAIR_CHUNK", 1)
        monkeypatch.setattr(analysis, "_EVAL_ELEMENTS", 1)
        b = analysis.union_bound_aber_for_channels(cands, hs, (5.0, 15.0))
        assert np.allclose(a, b, rtol=1e-13, atol=0)

    def test_memory_bounded_in_pairs_and_draws(self):
        """SM nt=64 16-QAM: 1024 candidates, 8 draws of a 2 x 64 channel
        (the full (draws, n, n) pair expansion took 264 MB)."""
        cands = modem.candidate_vectors("sm", 64, modem.build_constellation(16))
        hs = channel.draw_channels(8, 2, 64, channel.FadingModel(), rng=np.random.default_rng(3))
        tracemalloc.start()
        try:
            vals = analysis.union_bound_aber_for_channels(cands, hs, (20.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < vals[0] < 0.5
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("cands, hs, grid, error", [
        (None, None, (float("nan"),), ConfigurationError),
        (None, None, (4000.0,), ConfigurationError),
        (None, None, (), ConfigurationError),
        (None, np.full((2, 2), np.nan), (10.0,), DegenerateInputError),
        (None, np.ones(2), (10.0,), DimensionError),
        (None, np.ones((1, 1, 2, 2)), (10.0,), DimensionError),
        (np.ones(4), None, (10.0,), DimensionError),
        (None, np.ones((0, 2, 2)), (10.0,), DimensionError),
        (None, None, "12", ConfigurationError),
        (None, None, b"12", ConfigurationError),
        (None, None, (True, 3), ConfigurationError),
    ], ids=["nan-snr", "4000-db", "empty-grid", "nan-channel", "1d-stack", "4d-stack",
            "1d-candidates", "zero-draws", "grid-str", "grid-bytes", "grid-bool"])
    def test_inputs_it_cannot_evaluate_refused(self, cands, hs, grid, error):
        """Unchecked, these give NaN, [], a numpy exception or a floating-point
        warning."""
        cands = sm_bpsk_2x2_candidates() if cands is None else cands
        hs = np.eye(2) if hs is None else hs
        with pytest.raises(error):
            analysis.union_bound_aber_for_channels(cands, hs, grid)


class TestUnionBoundMonteCarlo:
    def test_decreasing_and_positive(self):
        cfg = analysis.BoundConfig(
            scheme="sm", nt=2, nr=2, modulation_order=2,
            fading=channel.FadingModel(33.0),
            snr_grid_db=(20.0, 30.0, 40.0, 50.0),
        )
        vals = analysis.union_bound_aber(cfg)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_imbalance_tightens_the_sm_bound(self):
        """Power imbalance separates the antenna hypotheses for SM."""
        grid = (25.0, 30.0)
        base = dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                    fading=channel.FadingModel(33.0), snr_grid_db=grid)
        none = analysis.union_bound_aber(analysis.BoundConfig(**base))
        pi = analysis.union_bound_aber(
            analysis.BoundConfig(
                imbalance=channel.imbalance_profile("rx_config_1"), **base
            )
        )
        assert np.all(pi < none)

    def test_candidate_count_guards(self):
        too_many = np.zeros((2**17, 1), dtype=complex)
        with pytest.raises(ConfigurationError):
            analysis.union_bound_aber_for_channels(too_many, np.eye(1), (10.0,))
        with pytest.raises(ConfigurationError):
            analysis.union_bound_aber_for_channels(
                np.zeros((3, 2), dtype=complex), np.eye(2), (10.0,)
            )

    @pytest.mark.parametrize("field,value", [("fading", None), ("fading", 33.0),
                                             ("imbalance", [[0, 1], [1, 1]])])
    def test_model_fields_typed(self, field, value):
        """A missing fading model used to pass construction and end in an
        AttributeError inside union_bound_aber, as a list imbalance did."""
        base = dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                    fading=channel.FadingModel(), snr_grid_db=(5.0,))
        with pytest.raises(ConfigurationError, match=f"BoundConfig field {field!r}"):
            analysis.BoundConfig(**{**base, field: value})

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            analysis.BoundConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2,
                fading=channel.FadingModel(), snr_grid_db=(10.0, 5.0),
            )
        with pytest.raises(ConfigurationError):
            analysis.BoundConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2,
                fading=channel.FadingModel(), snr_grid_db=(5.0,), n_channels=0,
            )
        # A float order used to end in an AttributeError in build_constellation.
        with pytest.raises(ConfigurationError, match="modulation_order"):
            analysis.BoundConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2.0,
                fading=channel.FadingModel(), snr_grid_db=(5.0,),
            )
        # SMX nt=8 256-QAM has 2**64 candidates: past the guard, not built.
        with pytest.raises(ConfigurationError, match="exceeds the 65536 guard"):
            analysis.BoundConfig(
                scheme="smx", nt=8, nr=4, modulation_order=256,
                fading=channel.FadingModel(), snr_grid_db=(5.0,),
            )


def rayleigh_union_bound(candidates, nr, snr_db):
    """Closed-form union-bound ABER over i.i.d. CN(0, 1) fading.

    ||H e||^2 is ||e||^2 times a Gamma(nr, 1) variable, so the averaged
    Q(sqrt(gamma_ex ||H e||^2)) is the nr-branch maximal-ratio result
    ((1 - mu) / 2)^nr sum_{k<nr} C(nr - 1 + k, k) ((1 + mu) / 2)^k with
    mu = sqrt(g / (1 + g)), g = SNR ||e||^2 / 4 (Simon & Alouini).
    """
    n = len(candidates)
    m = n.bit_length() - 1
    d2 = np.sum(np.abs(candidates[:, None, :] - candidates[None, :, :]) ** 2, axis=2)
    i = np.arange(n)
    weight = np.bitwise_count(i[:, None] ^ i[None, :]) / (m * n)
    out = []
    for snr in snr_db:
        g = 10.0 ** (snr / 10.0) * d2 / 4.0
        mu = np.sqrt(g / (1.0 + g))
        low = 0.5 / ((1.0 + g) * (1.0 + mu))  # (1 - mu) / 2 without cancellation
        pep = low**nr * sum(math.comb(nr - 1 + k, k) * ((1.0 + mu) / 2.0) ** k
                            for k in range(nr))
        out.append(float(np.sum(weight * pep)))
    return np.array(out)


def exact_bound(scheme, nt, order, nr, grid, k_db=float("-inf"), profile="none"):
    cfg = analysis.BoundConfig(
        scheme=scheme, nt=nt, nr=nr, modulation_order=order,
        fading=channel.FadingModel(k_db),
        imbalance=channel.imbalance_profile(profile, nr, nt),
        snr_grid_db=grid,
    )
    return analysis.union_bound_aber(cfg)


class TestExactUnionBound:
    """The channel-averaged bound by Craig's formula and Gauss-Legendre
    quadrature, checked against closed forms and explicit channels."""

    @pytest.mark.parametrize("scheme, nt, order, nr", [
        ("sm", 64, 4, 4), ("smx", 8, 2, 4), ("smx", 4, 4, 4),
        ("sm", 4, 2, 1), ("smx", 2, 4, 2), ("sm", 8, 4, 2),
    ])
    def test_matches_rayleigh_closed_form(self, scheme, nt, order, nr):
        grid = tuple(float(s) for s in range(14, 20))
        cands = modem.candidate_vectors(scheme, nt, modem.build_constellation(order))
        got = exact_bound(scheme, nt, order, nr, grid)
        assert np.allclose(got, rayleigh_union_bound(cands, nr, grid), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("profile", ["none", "rx_config_1"])
    def test_los_limit_matches_the_los_channel(self, profile):
        """At K = 300 dB the channel is a * s with no spread to average."""
        grid = tuple(float(s) for s in range(0, 42, 2))
        fading = channel.FadingModel(300.0)
        pi = channel.imbalance_profile(profile)
        s = np.ones((2, 2)) if pi is None else pi.amplitude_scale()
        got = exact_bound("sm", 2, 2, 2, grid, k_db=300.0, profile=profile)
        want = analysis.union_bound_aber_for_channels(
            sm_bpsk_2x2_candidates(), fading.los_amplitude * s, grid
        )
        assert np.allclose(got, want, rtol=1e-6, atol=0)

    def test_fig10_within_sampled_average(self):
        """SM 2x2 BPSK, K = 33 dB, first imbalance profile: within 4 standard
        errors of a 20000-draw average (seeds 0-4 all sat within 2.4)."""
        grid = tuple(float(s) for s in range(16, 38, 2))
        got = exact_bound("sm", 2, 2, 2, grid, k_db=33.0, profile="rx_config_1")
        hs = channel.draw_channels(20_000, 2, 2, channel.FadingModel(33.0),
                                   channel.imbalance_profile("rx_config_1"),
                                   np.random.default_rng(0))
        cands = sm_bpsk_2x2_candidates()
        batches = np.array([
            analysis.union_bound_aber_for_channels(cands, hs[i : i + 100], grid)
            for i in range(0, len(hs), 100)
        ])
        se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
        assert np.all(np.abs(got - batches.mean(axis=0)) <= 4.0 * se)

    def test_memory_does_not_grow_with_pair_count(self):
        """4096 candidates (1.7e7 ordered pairs) at nr = 4 in bounded memory."""
        tracemalloc.start()
        try:
            vals = exact_bound("sm", 256, 16, 4, (18.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < vals[0] < 0.5
        assert peak < 256 * 2**20

    def test_samples_no_channels(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact bound must not sample channels")

        want = exact_bound("sm", 2, 2, 2, (10.0, 20.0), k_db=33.0)
        monkeypatch.setattr(channel, "draw_channels", refuse)
        monkeypatch.setattr(analysis, "union_bound_aber_for_channels", refuse)
        cfg = analysis.BoundConfig(
            scheme="sm", nt=2, nr=2, modulation_order=2,
            fading=channel.FadingModel(33.0), snr_grid_db=(10.0, 20.0), n_channels=3,
        )
        got = analysis.union_bound_aber(cfg, rng=np.random.default_rng(5))
        assert np.array_equal(got, want)

    def test_imbalance_shape_must_match(self):
        """A 2x2 profile on a 2x4 link is refused when the config is built."""
        with pytest.raises(DimensionError, match=r"\(2, 4\)"):
            analysis.BoundConfig(
                scheme="sm", nt=4, nr=2, modulation_order=2,
                fading=channel.FadingModel(33.0), snr_grid_db=(10.0,),
                imbalance=channel.imbalance_profile("rx_config_1"),
            )

    @pytest.mark.parametrize("grid", [
        (), (float("nan"),), (5.0, float("nan"), 1.0), (float("inf"),),
        (float("-inf"), 10.0), (4000.0,), (-4000.0, 10.0), None, ("ten",),
        "12", b"12", (True, 3), ("12",),
    ], ids=["empty", "nan", "nan-between-descending", "inf", "minus-inf", "4000-db",
            "minus-4000-db", "none", "string", "str-grid", "bytes-grid", "bool-point",
            "numeric-string"])
    def test_snr_grid_it_cannot_evaluate_refused(self, grid):
        """The grid is a nonempty sequence of real numbers, not a str, bytes or
        bools ("12" used to be read as 1 and 2 dB, b"12" as 49 and 50 dB),
        finite, and each point's linear SNR and noise variance fit a float;
        NaN is caught before the order check."""
        with pytest.raises(ConfigurationError, match="snr_grid_db|overflows"):
            analysis.BoundConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2,
                fading=channel.FadingModel(33.0), snr_grid_db=grid,
            )

    @pytest.mark.parametrize("k_db", [float("-inf"), 33.0, 3000.0])
    def test_points_past_quadrature_range_refused(self, k_db):
        """At the smallest Craig node gamma_ex / (2 sin^2 theta) times a pair
        statistic overflows above 3014.3 dB on the 2x2 BPSK link, and the
        bound would come out NaN: those points are refused by value. Up to
        that edge the bound evaluates without a floating-point warning. At
        K = 3000 dB the all-ones channel leaves pairs that differ in the
        antenna alone only the 1e-300 diffuse power, which the SNR resolves
        towards the edge."""
        base = dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                    fading=channel.FadingModel(k_db))
        bound = analysis.union_bound_aber(
            analysis.BoundConfig(snr_grid_db=(3000.0, 3014.0), **base))
        if k_db < 3000.0:
            assert bound.tolist() == [0.0, 0.0]
        else:
            assert bound[0] == pytest.approx(0.0575, abs=1e-4)
            assert bound[0] > bound[1] > 0.0
        for grid, named in (((10.0, 3014.5), r"\[3014\.5\]"),
                            ((3030.0, 3080.0), r"\[3030\.0, 3080\.0\]")):
            with pytest.raises(ConfigurationError, match=named):
                analysis.BoundConfig(snr_grid_db=grid, **base)


@st.composite
def bound_configs(draw):
    """Small links with K factors and SNR grids that may be out of range."""
    scheme = draw(st.sampled_from(["sm", "smx"]))
    order = draw(st.sampled_from([2, 4, 16]))
    profile = draw(st.sampled_from(["none", "rx_config_1"]))
    if profile == "none":
        nt, nr = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 3))
    else:
        nt = nr = 2
    # SMX 4 x 16-QAM has 65536 candidates, too many pairs for a quick property.
    assume(not (scheme == "smx" and nt == 4 and order == 16))
    k_db = draw(st.one_of(st.just(float("-inf")), st.floats(-30.0, 80.0),
                          st.sampled_from([float("nan"), float("inf")])))
    grid = draw(st.lists(st.one_of(st.floats(-20.0, 60.0), st.floats(-3100.0, 3100.0)),
                         min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 3:
        grid.append(float("nan"))
    return dict(scheme=scheme, nt=nt, nr=nr, modulation_order=order, k_db=k_db,
                profile=profile, grid=tuple(sorted(grid)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(link=bound_configs())
def test_bound_config_refused_or_bound_well_formed(link):
    """Every small link either raises a named error or gives a bound that is
    finite, nonnegative and non-increasing along the SNR grid."""
    try:
        cfg = analysis.BoundConfig(
            scheme=link["scheme"], nt=link["nt"], nr=link["nr"],
            modulation_order=link["modulation_order"],
            fading=channel.FadingModel(link["k_db"]),
            imbalance=channel.imbalance_profile(link["profile"], link["nr"], link["nt"]),
            snr_grid_db=link["grid"],
        )
        vals = analysis.union_bound_aber(cfg)
    except SmlinkError:
        return
    assert vals.shape == (len(link["grid"]),)
    assert np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 1e-12 * vals[:-1])


class TestSpecialFunctionOracles:
    """The Rice fit's numpy special functions against scipy.special."""

    def test_bessel_ratio(self):
        """I1/I0 within 5e-15 of scipy's i1e/i0e (measured 2.7e-15), on
        both sides of the switch from power series to Hankel expansion."""
        split = specfun._SERIES_LIMIT
        near = split + np.linspace(-1.0, 1.0, 2001)
        r = np.concatenate(([0.0, np.nextafter(split, 0.0), split], np.logspace(-8, 8, 20001),
                            near))
        want = special.i1e(r) / special.i0e(r)
        got = specfun.bessel_ratio(r)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], want[1:], rtol=5e-15, atol=0)

    @pytest.mark.parametrize("dof", range(1, 101))
    def test_chi2_tail(self, dof):
        """Within 2e-13 of scipy's chdtrc (measured 7.8e-14; both are within
        6e-14 of 40-digit values at statistics up to 1e3)."""
        xs = np.concatenate((np.logspace(-6, 3, 181), dof * np.linspace(0.1, 5.0, 50)))
        got = np.array([specfun.chi2_sf(dof, float(x)) for x in xs])
        np.testing.assert_allclose(got, special.chdtrc(dof, xs), rtol=2e-13, atol=0)
        assert specfun.chi2_sf(dof, 0.0) == 1.0

    @pytest.mark.parametrize("nc", np.logspace(-6, 6, 25))
    def test_gof_bin_edges(self, nc):
        """The GOF's bin edges lie where the fitted noncentral chi-squared
        CDF crosses the class levels. That CDF is within 1e-12 of scipy's
        chndtr at the 1-99% quantiles (measured 6.4e-14), 0 at y = 0 and 1
        to rounding far out in the tail."""
        y = special.chndtrix(np.arange(1, 100) / 100, 2, nc)
        cdf = analysis._ncx2_cdf(nc)
        np.testing.assert_allclose(cdf(y), special.chndtr(y, 2, nc), rtol=1e-12, atol=0)
        zero, tail = cdf(np.array([0.0, 1e300]))
        assert zero == 0.0 and tail == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("nc", [1.01e6, 1e7, 1e9])
    def test_gof_cdf_gaussian_limit(self, nc):
        """Above nc = 1e6 the CDF is the Gaussian limit of sqrt(y), within
        0.1/nc of chndtr at the 1-99% quantiles (measured 0.061/nc)."""
        z = special.ndtri(np.arange(1, 100) / 100)
        y = (np.sqrt(nc) + 0.5 / np.sqrt(nc) + z) ** 2
        got = analysis._ncx2_cdf(nc)(y)
        np.testing.assert_allclose(got, special.chndtr(y, 2, nc), rtol=0, atol=0.1 / nc)

    def test_gof_bin_edges_memory_bounded(self):
        """Counting 1e5 samples into the classes at nc = 1e6 (Poisson windows
        of about 14000 entries) evaluates the CDF at one sample per edge per
        bisection round: at all samples at once its (samples, window)
        arrays would take 11 GB each."""
        nu, sigma = 1.0, 1e-3
        z = np.random.default_rng(3).standard_normal((2, 100_000))
        x = np.abs(nu + sigma * (z[0] + 1j * z[1]))
        tracemalloc.start()
        try:
            p_value = analysis._rice_gof_p_value(x, nu, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= p_value <= 1.0
        assert peak < 64 * 2**20


def stats_gof_p_value(x, nu, sigma, n_bins):
    """The Rice chi-squared GOF p-value written with scipy.stats."""
    n = x.size
    while n_bins > 3 and n / n_bins < 5:
        n_bins -= 1
    edges = stats.ncx2(df=2, nc=(nu / sigma) ** 2).ppf(np.arange(1, n_bins) / n_bins)
    counts, _ = np.histogram((x / sigma) ** 2, bins=np.concatenate(([0.0], edges, [np.inf])))
    expected = n / n_bins
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    return float(stats.chi2.sf(statistic, n_bins - 3))


def rayleigh_ml_log_likelihood(x):
    """Log-likelihood at nu = 0 with the Rayleigh ML sigma^2 = mean(x^2) / 2."""
    return stats.rayleigh.logpdf(x, scale=np.sqrt(np.mean(x**2) / 2.0)).sum()


def rice_profile_log_likelihood(x, nus, steps=30):
    """max over sigma of sum(rice.logpdf(x, nu / sigma, scale=sigma)), per nu.

    A golden-section search in log sigma over [1e-3, 2] x RMS(x), run
    for all ``nus`` at once; returns the best value it evaluated, so each
    entry is the log-likelihood of a feasible (nu, sigma).
    """
    rms = np.sqrt(np.mean(x**2))
    lo = np.full(nus.size, np.log(1e-3 * rms))
    hi = np.full(nus.size, np.log(2.0 * rms))
    g = (np.sqrt(5.0) - 1.0) / 2.0

    def ll(log_sigma):
        sigma = np.exp(log_sigma)[:, None]
        return stats.rice.logpdf(x, nus[:, None] / sigma, scale=sigma).sum(axis=1)

    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = ll(a), ll(b)
    for _ in range(steps):
        left = fa >= fb
        hi, lo = np.where(left, b, hi), np.where(left, lo, a)
        new = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        f_new = ll(new)
        a, b, fa, fb = (np.where(left, new, b), np.where(left, a, new),
                        np.where(left, f_new, fb), np.where(left, fa, f_new))
    return np.maximum(fa, fb)


def grid_oracle_log_likelihood(x, points=17, zooms=4):
    """Best profile log-likelihood on a nu grid over [0, RMS(x)], zoomed
    ``zooms`` times to the neighbours of its best point."""
    lo, hi = 0.0, np.sqrt(np.mean(x**2))
    best = -np.inf
    for _ in range(zooms):
        nus = np.linspace(lo, hi, points)
        ll = rice_profile_log_likelihood(x, nus)
        i = int(np.argmax(ll))
        best = max(best, ll[i])
        lo, hi = nus[max(i - 1, 0)], nus[min(i + 1, points - 1)]
    return best


def whole_array_score(u, k_db):
    """The fit's profile score as one pass over all samples: every Bessel
    ratio from one series or Hankel loop over the whole array, each mean
    over a fresh array (the form the chunked ``analysis._rice_score``
    replaced)."""
    nu, sigma_sq = analysis._rice_curve(k_db)
    c = nu / sigma_sq
    r = u * c
    ua = u * specfun.bessel_ratio(r)
    v_slope = np.where(r < 1e4, u * u - ua * ua - ua / c, (0.5 + 0.25 / np.maximum(r, 1e4)) / c**2)
    slope = (1.0 + nu * nu) / (2.0 * sigma_sq) * float(np.mean(v_slope)) - sigma_sq
    return float(np.mean(ua)) - nu, nu * slope * math.log(10.0) / 10.0, nu


@functools.lru_cache(maxsize=None)
def unit_scale_fit(k_db):
    """2e4 amplitudes at K dB (seed 21) and their fit at unit scale."""
    x = TestRicianFit.draw_amplitudes(k_db, 20_000, 21)
    return x, analysis.fit_rician(x)


class TestRicianFit:
    @staticmethod
    def draw_amplitudes(k_db, n, seed):
        fm = channel.FadingModel(k_db)
        rng = np.random.default_rng(seed)
        return np.abs(channel.draw_channels(n, 1, 1, fm, rng=rng)).reshape(-1)

    def test_recovers_k33(self):
        x = self.draw_amplitudes(33.0, 100_000, 21)
        fit = analysis.fit_rician(x)
        fm = channel.FadingModel(33.0)
        assert fit.k_factor_db == pytest.approx(33.0, abs=1.0)
        assert fit.gof_p_value >= 0.05
        assert fit.nu == pytest.approx(fm.los_amplitude, rel=0.01)
        assert fit.sigma == pytest.approx(fm.diffuse_std / np.sqrt(2), rel=0.02)
        assert fit.mean_amplitude == pytest.approx(float(x.mean()))
        assert fit.converged and fit.iterations <= 8

    def test_rayleigh_reports_low_k(self):
        """Rayleigh data fits far below any K factor of interest.

        On a finite sample the likelihood peaks either at the nu = 0
        boundary (K = -inf dB, the answer for this draw) or at a small
        interior K (the nu estimate shrinks only as n**-0.25) -- either
        way 40+ dB away from the Rician regimes.
        """
        x = self.draw_amplitudes(float("-inf"), 100_000, 22)
        fit = analysis.fit_rician(x)
        assert fit.k_factor_db <= -10.0
        assert fit.converged and fit.iterations <= 8

    def test_fit_from_scipy_rice_draws(self):
        """Cross-check against scipy's Rice sampler at moderate K."""
        nu, sigma = 1.2, 0.4  # K = nu^2 / (2 sigma^2) = 4.5 -> 6.53 dB
        x = stats.rice.rvs(nu / sigma, scale=sigma, size=100_000,
                           random_state=np.random.default_rng(23))
        fit = analysis.fit_rician(x)
        k_db = 10 * np.log10(nu**2 / (2 * sigma**2))
        assert fit.k_factor_db == pytest.approx(k_db, abs=0.3)
        assert fit.nu == pytest.approx(nu, rel=0.01)
        assert fit.sigma == pytest.approx(sigma, rel=0.01)
        assert fit.gof_p_value >= 0.05

    def test_accuracy_improves_with_sample_size(self):
        errs = []
        for n in (2_000, 200_000):
            x = self.draw_amplitudes(20.0, n, 31)
            errs.append(abs(analysis.fit_rician(x).k_factor_db - 20.0))
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("k_db", [float("-inf"), 0.0, 10.0, 33.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_global_maximum_against_grid_oracle(self, k_db, seed):
        """The fit's log-likelihood beats a (nu, sigma) search with scipy's Rice pdf."""
        x = self.draw_amplitudes(k_db, 1000, 40 + seed)
        fit = analysis.fit_rician(x)
        assert fit.converged and fit.iterations < 200  # 200 = the max_iterations default
        fitted = stats.rice.logpdf(x, fit.nu / fit.sigma, scale=fit.sigma).sum()
        # The slack covers rounding in summing 1000 log densities.
        assert fitted >= rayleigh_ml_log_likelihood(x) - 1e-9
        assert fitted >= grid_oracle_log_likelihood(x) - 1e-9

    @pytest.mark.parametrize("seed", [439, 2009])
    def test_interior_root_below_minus_30_db(self, seed):
        """These Rayleigh draws peak inside (-90, -30) dB, below their moment
        seed; the interior root beats the boundary by about 2e-9 nats of
        log-likelihood, far above the rounding of the sums (1e-13)."""
        x = self.draw_amplitudes(float("-inf"), 1000, seed)
        fit = analysis.fit_rician(x)
        assert -90.0 < fit.k_factor_db < -30.0
        fitted = stats.rice.logpdf(x, fit.nu / fit.sigma, scale=fit.sigma).sum()
        assert fitted > rayleigh_ml_log_likelihood(x)

    def test_root_at_the_floor_is_the_boundary(self, monkeypatch):
        """With the bracket's floor raised above seed 439's root (-31.4 dB),
        every score is negative and the fit reports the Rayleigh boundary,
        as it does for a root below -90 dB."""
        x = self.draw_amplitudes(float("-inf"), 1000, 439)
        monkeypatch.setattr(analysis, "_K_FLOOR_DB", -20.0)
        fit = analysis.fit_rician(x)
        assert fit.converged
        assert fit.k_factor_db == float("-inf") and fit.nu == 0.0

    def test_k70_fit(self):
        """K = 70 dB, where the score's slope needs the large-argument
        series of the Bessel ratio's derivative."""
        fit = analysis.fit_rician(self.draw_amplitudes(70.0, 10_000, 3))
        assert fit.k_factor_db == pytest.approx(70.0, abs=1.0)
        assert fit.converged

    @pytest.mark.parametrize("seed", range(3))
    def test_k100_fits(self, seed):
        fit = analysis.fit_rician(self.draw_amplitudes(100.0, 10_000, seed))
        assert fit.k_factor_db == pytest.approx(100.0, abs=0.5)
        assert fit.converged and fit.gof_p_value >= 1e-3

    @pytest.mark.parametrize("k_db", [70.0, 90.0, 120.0])
    def test_stops_at_the_score_resolution(self, k_db):
        """Above about 60 dB the score's rounding over its slope exceeds the
        1e-9 dB tolerance; the solve stops there instead of bisecting its
        bracket down to 1e-9 dB (up to 41 evaluations before)."""
        for seed in range(40):
            fit = analysis.fit_rician(self.draw_amplitudes(k_db, 10_000, seed))
            assert fit.converged and fit.iterations <= 10, seed

    @pytest.mark.parametrize("k_db", [120.0, 150.0, 180.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_very_large_k_fits_or_is_refused(self, k_db, seed):
        """Up to 130 dB the fit is within its statistical error and its
        GOF holds (chndtrix, the exact GOF quantile, takes seconds and
        returns NaN edges there); above, the score cannot resolve K and
        the fit says so."""
        x = self.draw_amplitudes(k_db, 10_000, seed)
        start = time.perf_counter()
        try:
            fit = analysis.fit_rician(x)
        except DegenerateInputError:
            assert k_db > 125.0
        else:
            assert fit.k_factor_db == pytest.approx(k_db, abs=0.5)
            assert fit.converged and fit.gof_p_value >= 1e-3
        assert time.perf_counter() - start < 2.0

    CHUNK_EDGES = [1000, analysis._SCORE_CHUNK - 1, analysis._SCORE_CHUNK,
                   analysis._SCORE_CHUNK + 1, 123_457]

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("k_db", [-10.0, 10.0, 33.0, 60.0])
    def test_chunked_score_equals_the_whole_array_score(self, n, k_db):
        """The score is bit-identical to one pass over all samples, at K dB
        where the arguments r = u c lie below the series limit of 25 (-20 and
        0 dB), on both sides of it (10 and 20 dB), above it (Hankel; 33 dB
        up) and past r = 1e4, where the slope takes its asymptotic series
        (45 dB up)."""
        x = self.draw_amplitudes(k_db, n, 50)
        u = x / np.sqrt(np.mean(x * x))
        for t in (-20.0, 0.0, 10.0, 20.0, 33.0, 45.0, 60.0, 80.0):
            chunked = analysis._rice_score(u, np.empty_like(u), t)
            assert chunked == whole_array_score(u, t), t

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("k_db", [float("-inf"), -10.0, 10.0, 33.0, 60.0])
    def test_fit_equals_the_whole_array_score_fit(self, monkeypatch, n, k_db):
        """Every field of the fit equals that of a fit whose score is the
        whole-array oracle, on both sides of each chunk edge."""
        x = self.draw_amplitudes(k_db, n, 51)
        chunked = analysis.fit_rician(x)
        monkeypatch.setattr(analysis, "_rice_score",
                            lambda u, work, t: whole_array_score(u, t))
        assert dataclasses.asdict(analysis.fit_rician(x)) == dataclasses.asdict(chunked)

    def test_working_set_is_a_few_sample_arrays(self):
        """On the benchmark's 1e5-sample K = 33 dB set the fit holds at most
        5 sample-sized float64 arrays at once (measured: 3.0, the score's
        chunks included; 11.2 when the score evaluated its Bessel ratios
        over all samples at once)."""
        x = self.draw_amplitudes(33.0, 100_000, 7)
        analysis.fit_rician(x)  # first-call allocations
        tracemalloc.start()
        try:
            analysis.fit_rician(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * x.nbytes

    def test_evaluation_cap(self):
        x = self.draw_amplitudes(33.0, 10_000, 5)
        capped = analysis.fit_rician(x, max_iterations=1)
        assert capped.iterations == 1 and not capped.converged
        assert capped.k_factor_db == pytest.approx(analysis.fit_rician(x).k_factor_db, abs=0.5)

    @settings(max_examples=40, deadline=None)
    @given(k_db=st.sampled_from([0.0, 10.0, 33.0]),
           exponent=st.floats(min_value=-150.0, max_value=150.0))
    def test_fit_does_not_depend_on_amplitude_unit(self, k_db, exponent):
        x, ref = unit_scale_fit(k_db)
        scale = 10.0**exponent
        fit = analysis.fit_rician(x * scale)
        assert fit.k_factor_db == pytest.approx(ref.k_factor_db, abs=1e-6)
        assert fit.nu == pytest.approx(ref.nu * scale, rel=1e-6)
        assert fit.sigma == pytest.approx(ref.sigma * scale, rel=1e-6)

    @pytest.mark.parametrize("k_db, n, seed, zeros", [(float("-inf"), 2000, 1, 0),
                                                      (33.0, 20_000, 21, 0),
                                                      (70.0, 20_000, 21, 0),
                                                      (10.0, 20_000, 2, 5)],
                             ids=["rayleigh-boundary", "k33", "k70", "zeros-and-outlier"])
    @pytest.mark.parametrize("n_bins", [20, 7])
    def test_gof_p_value_matches_scipy_stats(self, k_db, n, seed, zeros, n_bins, monkeypatch):
        """The GOF agrees with its scipy.stats form: ncx2(df=2, nc).ppf bin
        edges and the chi2 survival function. The first draw fits to the
        Rayleigh boundary, where nc = 0; at K = 70 dB (nc = 2e7) the CDF is
        the Gaussian limit, whose bin probabilities are off by about 3e-9.
        The last draw has exact zeros (a zero Poisson mean, where F = 0) and
        an outlier at 5x its largest sample, and raises no floating-point
        warning, which this suite turns into an error. The
        fit uses 20 classes; 7 take the chi-squared tail's odd-dof form."""
        monkeypatch.setattr(analysis, "_GOF_BINS", n_bins)
        x = self.draw_amplitudes(k_db, n, seed)
        if zeros:
            x[:zeros] = 0.0
            x[zeros] = 5.0 * x.max()
        fit = analysis.fit_rician(x)
        if k_db == float("-inf"):
            assert fit.k_factor_db == float("-inf") and fit.nu == 0.0
        got = analysis._rice_gof_p_value(x, fit.nu, fit.sigma)
        assert got == pytest.approx(stats_gof_p_value(x, fit.nu, fit.sigma, n_bins),
                                    rel=1e-12, abs=0)

    def test_input_validation(self):
        with pytest.raises(DegenerateInputError):
            analysis.fit_rician(np.ones(10))  # too few samples
        bad = np.ones(2000)
        bad[0] = -0.5
        with pytest.raises(DegenerateInputError):
            analysis.fit_rician(bad)  # negative amplitude
        with pytest.raises(DegenerateInputError):
            analysis.fit_rician(np.ones(2000))  # zero spread
        x = self.draw_amplitudes(10.0, 2000, 5)
        with pytest.raises(ConfigurationError):
            analysis.fit_rician(x, max_iterations=0)

    @pytest.mark.parametrize("kwargs", [{"max_iterations": 2.5}], ids=["iterations-2.5"])
    def test_argument_checks(self, kwargs):
        x = self.draw_amplitudes(10.0, 5000, 5)
        with pytest.raises(ConfigurationError):
            analysis.fit_rician(x, **kwargs)


# Run in a fresh interpreter, so that modules the test run already loaded do
# not count; prints the scipy modules loaded after each step.
_SCIPY_PROBE = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
import smlink, smlink.cli
from smlink import analysis, channel

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

steps = {"import": scipy_modules()}
analysis.union_bound_aber(analysis.BoundConfig(
    scheme="sm", nt=2, nr=2, modulation_order=2,
    fading=channel.FadingModel(33.0), snr_grid_db=(10.0,)))
steps["exact bound"] = scipy_modules()
analysis.union_bound_aber_for_channels([[1, 0], [-1, 0], [0, 1], [0, -1]],
                                       np.eye(2), (10.0,))
steps["explicit bound"] = scipy_modules()
fit = analysis.fit_rician(np.abs(3.0 + np.random.default_rng(0).standard_normal(2000)))
steps["interior fit"] = scipy_modules()
rayleigh = np.abs(channel.draw_channels(2000, 1, 1, channel.FadingModel(float("-inf")),
                                        rng=np.random.default_rng(1))).reshape(-1)
boundary = analysis.fit_rician(rayleigh)
steps["boundary fit"] = scipy_modules()
with tempfile.TemporaryDirectory() as tmp:
    np.savetxt(Path(tmp) / "amps.txt", rayleigh)
    code = smlink.cli.main(["fit-channel", "--samples", str(Path(tmp) / "amps.txt"),
                            "--out", str(Path(tmp) / "fit.json")])
steps["cli fit-channel"] = scipy_modules()
print(json.dumps({"steps": steps, "k_db": [fit.k_factor_db, str(boundary.k_factor_db)],
                  "cli": code, "statistics": "statistics" in sys.modules}))
"""


def test_package_loads_no_scipy():
    """No scipy module is loaded by ``import smlink.cli``, either bound or
    the Rice fit (interior root and Rayleigh boundary, in the API and the
    CLI): the package runs on numpy alone. Importing scipy.special cost
    0.25-0.3 s of every process that fitted a channel."""
    src = Path(analysis.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["cli"] == 0
    assert math.isfinite(result["k_db"][0]) and result["k_db"][1] == "-inf"
    assert result["steps"] == {step: [] for step in result["steps"]}
    assert len(result["steps"]) == 6
    # The GOF solves no normal quantile, so it needs no ``statistics``, which
    # loads ``decimal`` and ``fractions``.
    assert not result["statistics"]
