"""Acceptance gate: the eight headline behaviors at pinned tolerances.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (directly to the
process stdout so the verdicts survive output capturing) and then
asserts. Budgets follow the package defaults: at least 1e7 bits per
simulated ABER point where a crossing SNR is read off, exact
channel-averaged union bounds (no channel sampling), and fixed master
seeds everywhere.
"""

import math
import time

import numpy as np
import pytest
from fractions import Fraction
from scipy import optimize

from smlink import analysis, channel, harness, modem, rxchain, txchain


def _report(capsys, n, ok):
    """Emit the per-criterion verdict on the real stdout, capture or not."""
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def crossing_snr(grid_db, aber, level):
    """SNR where the curve crosses ``level``, log-linear in ABER."""
    grid = np.asarray(grid_db, dtype=float)
    a = np.asarray(aber, dtype=float)
    below = np.flatnonzero(a < level)
    if below.size == 0 or below[0] == 0:
        raise AssertionError(
            f"curve does not cross {level:g} inside the grid: {a.tolist()}"
        )
    j = int(below[0])
    i = j - 1
    la, lj = np.log10(a[i]), np.log10(a[j])
    return float(grid[i] + (np.log10(level) - la) * (grid[j] - grid[i]) / (lj - la))


def run_sweep(grid, bits_per_point, **overrides):
    base = dict(
        scheme="sm", nt=2, nr=2, modulation_order=2, snr_grid_db=tuple(grid),
        bits_per_trial=100_000, target_bit_errors=None, master_seed=0,
    )
    base.update(overrides)
    base["trials_per_snr"] = bits_per_point // base["bits_per_trial"]
    return harness.run_simulation(harness.SimConfig(**base))


def bound_on_grid(scheme, nt, nr, order, grid, k_db=None, profile="none"):
    cfg = analysis.BoundConfig(
        scheme=scheme, nt=nt, nr=nr, modulation_order=order,
        fading=channel.FadingModel(float("-inf") if k_db is None else k_db),
        imbalance=channel.imbalance_profile(profile, nr, nt),
        snr_grid_db=tuple(float(s) for s in grid),
    )
    return analysis.union_bound_aber(cfg)


def test_criterion_1_complexity_reduction(capsys):
    """Receiver complexity: exact rational reduction values, instantly."""
    start = time.perf_counter()
    rep4 = modem.complexity_report(4, 2, 4)
    rep128 = modem.complexity_report(128, 2, 4)
    checks = [
        rep4.relative_reduction_percent == Fraction(60),
        rep128.relative_reduction_percent == Fraction(12700, 129),
        round(float(rep128.relative_reduction_percent)) == 98,
        modem.receiver_complexity("sm", 2, 2, 2) == 64,
        modem.receiver_complexity("smx", 2, 2, 2) == 96,
        time.perf_counter() - start < 1.0,
    ]
    assert _report(capsys, 1, all(checks)), checks


def test_criterion_2_single_stream_coding_gain(capsys):
    """2x2 BPSK, K = 33 dB, balanced, genie CSI: the multiplexing scheme
    reaches ABER 1e-3 about 3 dB before the single-active-antenna
    scheme (tolerance +-1 dB, >= 1e7 bits per point)."""
    level = 1e-3
    crossings = {}
    try:
        for scheme in ("sm", "smx"):
            ref = bound_on_grid(scheme, 2, 2, 2, np.arange(34.0, 50.0), k_db=33.0)
            center = int(np.floor(crossing_snr(np.arange(34.0, 50.0), ref, level)))
            grid = [center - 1.0, center, center + 1.0, center + 2.0]
            records = run_sweep(grid, 10_000_000, scheme=scheme, k_factor_db=33.0)
            assert all(r.bits >= 10_000_000 for r in records)
            crossings[scheme] = crossing_snr(grid, [r.aber for r in records], level)
    except AssertionError:  # a curve left its grid: still print the verdict
        _report(capsys, 2, False)
        raise
    gap = crossings["sm"] - crossings["smx"]
    ok = abs(gap - 3.0) <= 1.0
    _report(capsys, 2, ok)
    assert ok, f"measured gap {gap:.2f} dB at ABER 1e-3, need 3 +- 1 dB"


def test_criterion_3_power_imbalance_gain_and_bound(capsys):
    """Receive-path power offsets strictly improve the single-active-
    antenna scheme wherever its ABER is at or below 1e-2; the analytic
    bound stays above the simulation (3 MC standard errors) and within
    a factor of 3 once the ABER is at or below 1e-3."""
    grid = (24.0, 26.0, 28.0, 30.0, 32.0)
    pi_recs = run_sweep(grid, 10_000_000, k_factor_db=33.0,
                        pi_profile="rx_config_1")
    nopi_recs = run_sweep(grid, 2_000_000, k_factor_db=33.0)
    bound = bound_on_grid("sm", 2, 2, 2, grid, k_db=33.0,
                          profile="rx_config_1")

    problems = []
    compared = tight = 0
    for pi, nopi, b in zip(pi_recs, nopi_recs, bound):
        if pi.aber <= 1e-2:
            compared += 1
            if not pi.aber < nopi.aber:
                problems.append(
                    f"{pi.snr_db_target} dB: imbalanced {pi.aber:.3e} not "
                    f"below balanced {nopi.aber:.3e}"
                )
        if b < pi.aber - 3 * pi.aber_standard_error():
            problems.append(
                f"{pi.snr_db_target} dB: bound {b:.3e} below sim {pi.aber:.3e}"
            )
        if pi.aber <= 1e-3 and pi.bit_errors >= 20:
            tight += 1
            ratio = b / pi.aber
            if not (1 / 3 <= ratio <= 3):
                problems.append(
                    f"{pi.snr_db_target} dB: bound/sim ratio {ratio:.2f}"
                )
    if compared == 0:
        problems.append("no grid point reached ABER 1e-2")
    if tight == 0:
        problems.append("no grid point reached ABER 1e-3")
    ok = not problems
    _report(capsys, 3, ok)
    assert ok, "; ".join(problems)


def _oracle_candidates(scheme, nt, order):
    """Transmit vectors of the documented bit mapping, built without smlink.

    Row b belongs to the bit block whose integer value is b (MSB first).
    Points: BPSK label 0 -> +1, 1 -> -1; Gray QPSK label b1 b0 ->
    ((1 - 2 b1) + j (1 - 2 b0)) / sqrt(2). SM: the leading log2(nt) bits
    pick the active antenna a, the rest pick the point s, x = s e_a.
    SMX: log2(M) bits per antenna, antenna 1 first, x = (s_1..s_nt) / sqrt(nt).
    """
    k = order.bit_length() - 1
    label = np.arange(order)
    if order == 2:
        points = (1.0 - 2.0 * label).astype(complex)
    else:
        points = ((1 - 2 * (label >> 1)) + 1j * (1 - 2 * (label & 1))) / np.sqrt(2.0)
    if scheme == "sm":
        block = np.arange(nt * order)
        x = np.zeros((block.size, nt), dtype=complex)
        x[block, block >> k] = points[block & (order - 1)]
        return x
    block = np.arange(2 ** (nt * k))
    shifts = k * np.arange(nt - 1, -1, -1)
    return points[(block[:, None] >> shifts) & (order - 1)] / np.sqrt(nt)


def _rayleigh_union_bound(candidates, nr):
    """Closed-form union-bound ABER over i.i.d. CN(0, 1) fading, per SNR in dB.

    ||H e||^2 is ||e||^2 times a Gamma(nr, 1) variable, so with
    gamma_ex = SNR / 2 the channel-averaged Q(sqrt(gamma_ex ||H e||^2)) is
    the nr-branch maximal-ratio result ((1 - mu) / 2)^L sum_{k<L}
    C(L - 1 + k, k) ((1 + mu) / 2)^k, L = nr, mu = sqrt(g / (1 + g)),
    g = SNR ||e||^2 / 4 (Simon & Alouini, Digital Communication over
    Fading Channels). Pairs are weighted by Hamming distance / (m 2^m).
    """
    n = len(candidates)
    m = n.bit_length() - 1
    diff = candidates[:, None, :] - candidates[None, :, :]
    d2 = np.sum(np.abs(diff) ** 2, axis=2).ravel()
    xor = (np.arange(n)[:, None] ^ np.arange(n)[None, :]).ravel()
    hamming = sum((xor >> b) & 1 for b in range(m))
    pairs = hamming > 0
    d2, weight = d2[pairs], hamming[pairs] / (m * n)

    def aber(snr_db):
        g = 10.0 ** (snr_db / 10.0) * d2 / 4.0
        mu = np.sqrt(g / (1.0 + g))
        low = 0.5 / ((1.0 + g) * (1.0 + mu))  # (1 - mu) / 2, no cancellation
        high = (1.0 + mu) / 2.0
        pep = low**nr * sum(math.comb(nr - 1 + k, k) * high**k for k in range(nr))
        return float(np.sum(weight * pep))

    return aber


def _oracle_crossing(scheme, nt, order, nr, level):
    """SNR in dB where the closed-form bound equals ``level``."""
    aber = _rayleigh_union_bound(_oracle_candidates(scheme, nt, order), nr)
    return optimize.brentq(
        lambda s: np.log10(aber(s)) - np.log10(level), 0.0, 40.0, xtol=1e-9
    )


# The exact bound equals the closed form to 1e-12 relative, so a crossing
# read off the 1 dB grid differs from the closed form's root only by the
# log-linear interpolation: 0.0004 dB (sm64) and 0.0012 dB (smx8, smx4),
# 0.0008 dB on each gap. 0.01 dB leaves room for that and fails any
# shift of a curve by a hundredth of a dB.
CRITERION_4_TOL_DB = 0.01
# Each gap must exceed this, so the ordering excludes zero.
CRITERION_4_MIN_GAP_DB = 0.5


def test_criterion_4_equal_rate_scheme_ordering(capsys):
    """8 bit/s/Hz over Rayleigh with four receive antennas: the
    single-active-antenna scheme with 64 transmit antennas (QPSK) crosses
    ABER 1e-4 ahead of both multiplexing layouts (8 antennas BPSK,
    4 antennas QPSK), by the gaps the equal-energy ML model gives.

    Contract, from the documented model (unit-energy vectors, SMX scaled
    by 1/sqrt(nt), gamma_ex = SNR / 2, i.i.d. CN(0, 1) entries): the
    pairwise error probability of a pair at distance d^2 has the closed
    form in ``_rayleigh_union_bound``, and its Hamming-weighted union
    bound crosses 1e-4 at 15.92 dB (sm64), 17.19 dB (smx8) and 17.19 dB
    (smx4), gaps of 1.27 dB. The two multiplexing layouts are isometric
    (a Gray QPSK point scaled by 1/2 is a pair of BPSK symbols of
    amplitude 1/sqrt(8) on I and Q), so their bounds are equal at every
    SNR; the gap grows only to 1.39, 1.44 and 1.45 dB at 1e-6, 1e-8 and
    1e-10. Earlier revisions asserted 4 +- 1.5 dB and 6 +- 1.5 dB; no
    document in the repository gave a source for those figures, and this
    model cannot reach them at any ABER. A symbol-level sweep at 1e7
    bits per point (master seed 0) crossed at 15.89, 17.15 and 17.08 dB.

    The package's exact channel-averaged bound (Craig's formula over the
    receive antennas' MGFs, no channel sampling) is read at 1e-4 on the
    14-19 dB grid and checked against that closed form, computed here
    without ``smlink.analysis``: each crossing within
    ``CRITERION_4_TOL_DB`` of the closed form (catches a shift common to
    all curves, such as an SNR-scale or channel-power fault, which the
    gaps do not see), each gap within ``CRITERION_4_TOL_DB`` of the
    closed-form gap, and each gap above ``CRITERION_4_MIN_GAP_DB``
    (0.5 dB), so the ordering excludes zero. The tolerance is the
    interpolation error of reading a crossing off a 1 dB grid.
    """
    level = 1e-4
    grid = np.arange(14.0, 20.0)
    configs = {
        "sm64": ("sm", 64, 4),
        "smx8": ("smx", 8, 2),
        "smx4": ("smx", 4, 4),
    }
    crossings, expected = {}, {}
    try:
        for name, (scheme, nt, order) in configs.items():
            vals = bound_on_grid(scheme, nt, 4, order, grid)
            crossings[name] = crossing_snr(grid, vals, level)
            expected[name] = _oracle_crossing(scheme, nt, order, 4, level)
    except AssertionError:  # a curve left its grid: still print the verdict
        _report(capsys, 4, False)
        raise

    problems = []
    for name in configs:
        if abs(crossings[name] - expected[name]) > CRITERION_4_TOL_DB:
            problems.append(
                f"{name} crosses at {crossings[name]:.2f} dB, closed form "
                f"{expected[name]:.2f} dB"
            )
    for name in ("smx8", "smx4"):
        gap = crossings[name] - crossings["sm64"]
        want = expected[name] - expected["sm64"]
        if abs(gap - want) > CRITERION_4_TOL_DB:
            problems.append(f"gap to {name} {gap:.2f} dB, closed form {want:.2f} dB")
        if gap <= CRITERION_4_MIN_GAP_DB:
            problems.append(f"sm64 not ahead of {name}: gap {gap:.2f} dB")
    ok = not problems
    _report(capsys, 4, ok)
    assert ok, "; ".join(problems) + f"; crossings {crossings}"


def test_criterion_5_specialized_detector_equivalence(capsys):
    """The single-active-antenna ML shortcut matches generic brute-force
    ML exactly on 1e4 random noisy instances per antenna/order combo."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for nt in (2, 4, 8):
        for order in (2, 4):
            c = modem.build_constellation(order)
            cands = modem.candidate_vectors("sm", nt, c)
            n = 10_000
            h = (rng.standard_normal((n, 2, nt))
                 + 1j * rng.standard_normal((n, 2, nt))) / np.sqrt(2)
            sent = rng.integers(0, len(cands), n)
            noise = np.sqrt(0.05) * (rng.standard_normal((n, 2))
                                     + 1j * rng.standard_normal((n, 2)))
            y = np.einsum("nrt,nt->nr", h, cands[sent]) + noise
            # independent oracle: full metric tensor, first-minimum argmin
            hx = np.einsum("nrt,ct->ncr", h, cands)
            metrics = np.sum(np.abs(y[:, None, :] - hx) ** 2, axis=2)
            oracle = np.argmin(metrics, axis=1)
            for k in range(n):
                flat = int(modem.sm_ml_detect_batch(y[k : k + 1], h[k], c)[0])
                generic = int(modem.ml_detect_batch(y[k : k + 1], h[k], cands)[0])
                if not flat == generic == oracle[k]:
                    mismatches += 1
    ok = mismatches == 0
    _report(capsys, 5, ok)
    assert ok, f"{mismatches} detector disagreements"


def test_criterion_6_full_chain_loopback(capsys):
    """Noise-free waveform loopback over a known flat channel: zero bit
    errors over 1e5 bits, both without offset and at 0.005 cycles per
    sample; offset recovered to 1e-9 and the channel to 1e-6."""
    start = time.perf_counter()
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=50, snr_block_symbols=2000)
    c = modem.build_constellation(2)
    rng = np.random.default_rng(606)
    bits = rng.integers(0, 2, 100_000).astype(np.uint8)
    tx = txchain.build_transmission(bits, "sm", 2, c, layout, tx_layout)
    h = np.array([[1.0 + 0.2j, 0.4 - 0.3j], [-0.25 + 0.5j, 0.9 - 0.1j]])

    problems = []
    for fo in (0.0, 0.005):
        rx = channel.propagate_waveform(tx.samples, h, fo_cycles_per_sample=fo)
        result = rxchain.decode_transmission(
            rx, layout, tx_layout, 2, "sm", c, symbol_scale=tx.symbol_scale
        )
        errors = int(np.count_nonzero(result.bits != bits))
        fo_err = float(np.max(np.abs(result.fo_cycles_per_sample - fo)))
        h_err = float(np.max(np.abs(result.channel_estimates - h)))
        if errors:
            problems.append(f"offset {fo}: {errors} bit errors")
        if fo_err > 1e-9:
            problems.append(f"offset {fo}: offset error {fo_err:.2e}")
        if h_err > 1e-6:
            problems.append(f"offset {fo}: channel error {h_err:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        problems.append(f"runtime {elapsed:.0f} s exceeds one minute")
    ok = not problems
    _report(capsys, 6, ok)
    assert ok, "; ".join(problems)


def test_criterion_7_estimator_accuracy(capsys):
    """SNR probe within +-0.5 dB of configured truth on [0, 30] dB (100
    trials per point); amplitude-distribution fit recovers K in
    {31, 33, 36, 38} dB within +-1 dB with the GOF test passing."""
    problems = []

    nt = nr = 2
    blocks, block_len, x_max = 5, 2000, 0.09
    h = np.array([[1.0 + 0.2j, 0.8 - 0.1j], [0.4 + 0.5j, 1.1 + 0.0j]])
    rng = np.random.default_rng(707)
    worst = 0.0
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        noise_var = x_max**2 * np.sum(np.abs(h) ** 2) / (
            nt * nr * 10.0 ** (snr_db / 10.0)
        )
        n = nt * 2 * blocks * block_len
        for _ in range(100):
            y = np.sqrt(noise_var / 2.0) * (
                rng.standard_normal((nr, n)) + 1j * rng.standard_normal((nr, n))
            )
            for t in range(nt):
                base = t * 2 * blocks * block_len
                for b in range(blocks):
                    s = base + 2 * b * block_len
                    y[:, s : s + block_len] += x_max * h[:, t : t + 1]
            est = rxchain.estimate_snr(y, nt, blocks, block_len)
            worst = max(worst, abs(est.snr_db - snr_db))
    if worst > 0.5:
        problems.append(f"worst SNR-probe error {worst:.3f} dB")

    for i, k_db in enumerate((31.0, 33.0, 36.0, 38.0)):
        draws = channel.draw_channels(
            100_000, 1, 1, channel.FadingModel(k_db),
            rng=np.random.default_rng(800 + i),
        )
        fit = analysis.fit_rician(np.abs(draws).reshape(-1))
        if abs(fit.k_factor_db - k_db) > 1.0:
            problems.append(
                f"K {k_db} dB fitted as {fit.k_factor_db:.2f} dB"
            )
        if fit.gof_p_value < 0.05:
            problems.append(f"K {k_db} dB GOF p {fit.gof_p_value:.3f}")
    ok = not problems
    _report(capsys, 7, ok)
    assert ok, "; ".join(problems)


def test_criterion_8_capture_format_fidelity(capsys):
    """Int16 capture roundtrip within half an LSB; the default
    transmission quantizes its data peak to code 2896, putting the sync
    pulses 21.1 +- 0.1 dB above the data section."""
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout()  # default 50 frames
    c = modem.build_constellation(2)
    rng = np.random.default_rng(88)
    per_frame = 2 * layout.data_symbols_per_frame
    bits = rng.integers(0, 2, tx_layout.n_frames * per_frame).astype(np.uint8)
    tx = txchain.build_transmission(bits, "sm", 2, c, layout, tx_layout)

    problems = []
    lsb = 1.0 / txchain.FULL_SCALE
    data_start, _ = tx.sections["data"]
    for row in tx.samples:
        codes = txchain.quantize_i16(row)
        back = txchain.dequantize_i16(codes)
        err = max(np.max(np.abs(back.real - row.real)),
                  np.max(np.abs(back.imag - row.imag)))
        if err > 0.5 * lsb:
            problems.append(f"roundtrip error {err:.3e} above half an LSB")
    sync_codes = txchain.quantize_i16(tx.samples[0, :data_start])
    data_codes = np.concatenate(
        [txchain.quantize_i16(row[data_start:]) for row in tx.samples]
    )
    sync_max = int(np.max(np.abs(sync_codes)))
    data_max = int(np.max(np.abs(data_codes)))
    if sync_max != txchain.FULL_SCALE:
        problems.append(f"sync peak code {sync_max}")
    if data_max != 2896:
        problems.append(f"data peak code {data_max}")
    ratio_db = 20.0 * np.log10(sync_max / data_max)
    if abs(ratio_db - 21.1) > 0.1:
        problems.append(f"sync-to-data ratio {ratio_db:.3f} dB")
    ok = not problems
    _report(capsys, 8, ok)
    assert ok, "; ".join(problems)
