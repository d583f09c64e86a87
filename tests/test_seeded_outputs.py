"""Seeded outputs pinned to recorded values.

Each sweep below runs with a fixed master seed, so its records are a
deterministic function of the code; a refactor of the transmit chain,
the channel or either fidelity's receive back end must reproduce them
exactly. SNR estimates, offsets and channel estimates are held to 1e-12
relative, everything else is compared exactly.
"""

import hashlib
import json

import numpy as np
import pytest

from smlink import channel, cli, harness, modem, rxchain, txchain

# name: (scheme, nt, modulation order, csi_mode, vectors per trial).
# With 100-vector blocks, 1037 vectors leave a ragged 37-vector last
# block and 1001 vectors a one-vector last block (its first half empty).
SYMBOL_CASES = {
    "sm_perfect_ragged": ("sm", 4, 4, "perfect", 1037),
    "sm_pilot_ragged": ("sm", 4, 4, "pilot", 1037),
    "sm_perfect_single": ("sm", 2, 2, "perfect", 1001),
    "sm_pilot_single": ("sm", 2, 2, "pilot", 1001),
    "smx_perfect_ragged": ("smx", 2, 4, "perfect", 1037),
    "smx_pilot_ragged": ("smx", 2, 4, "pilot", 1037),
    "smx_perfect_single": ("smx", 2, 2, "perfect", 1001),
    "smx_pilot_single": ("smx", 2, 2, "pilot", 1001),
}

# Per SNR point: [bits, bit_errors, trial_errors, rejected_vectors, snr_db_estimated].
EXPECTED = {
    "sm_perfect_ragged": [[12444, 2522, [877, 832, 813], 0, None],
                          [12444, 999, [378, 286, 335], 0, None]],
    "sm_pilot_ragged": [[12444, 2618, [891, 888, 839], 0, None],
                        [12444, 1036, [329, 374, 333], 0, None]],
    "sm_perfect_single": [[6006, 733, [252, 224, 257], 0, None],
                          [6006, 271, [105, 65, 101], 0, None]],
    "sm_pilot_single": [[6006, 820, [276, 270, 274], 0, None],
                        [6006, 210, [76, 59, 75], 0, None]],
    "smx_perfect_ragged": [[12444, 2374, [740, 812, 822], 0, None],
                           [12444, 644, [192, 229, 223], 0, None]],
    "smx_pilot_ragged": [[12444, 2127, [679, 752, 696], 0, None],
                         [12444, 885, [301, 311, 273], 0, None]],
    "smx_perfect_single": [[6006, 638, [183, 237, 218], 0, None],
                           [6006, 153, [57, 47, 49], 0, None]],
    "smx_pilot_single": [[6006, 771, [285, 244, 242], 0, None],
                         [6006, 111, [30, 43, 38], 0, None]],
    "waveform": [[8000, 778, [300, 478], 0, 6.610284256494459],
                 [8000, 387, [134, 253], 0, 12.608158567665235]],
}

# The received samples of test_noisy_loopback_decode (its source's segment(0, n)) and the
# files of test_encode_files.
RX_SHA256 = "cdb1840b1472d0ec687f03e7eb37053f204c8d0c9604f580345bf0bdd9597bfb"
ENCODE_SHA256 = {
    "cap_ant1.bin": "ee04d603374dd9fb34ad80ded19e182e391166e19dc62528319d28efc11f300b",
    "cap_ant2.bin": "b3c1a6f2cf85857ccfa42346827402b238e80c07b6ecc91bc2160d2655b7fa37",
    "cap_meta.json": "16c435aa64e3b07657c6512c67d7d24e453727f641541838d3901063ca8d8377",
}

DECODE_ERRORS = 63
DECODE_BITS_SHA256 = "df2d6379adb1c6afe51ebb720759154018a6b9605ae75897b73ee991240030cf"
DECODE_FO = [0.0001999923918978852, 0.00020093170009746752]
DECODE_ESTIMATES = [
    0.9755445048908064 + 0.1279158383202715j, 0.3477655008722463 + 0.21652396484752232j,
    0.06719063392575637 - 0.38989569973415333j, 0.9007155555296765 - 0.07802674744514594j,
    1.0093222715738914 + 0.06410790401635028j, 0.34181319380032044 + 0.18979021919300373j,
    0.07223763320535184 - 0.40529784536277474j, 0.9276892741163276 + 0.03672985201747642j,
    0.9758510694496343 - 0.0712465980708769j, 0.39338970005272034 + 0.09850900914298129j,
    0.049777940192922275 - 0.4179487441556843j, 0.8795385247341154 - 0.17744295733664067j,
    1.0356293365692761 - 0.1309728737528778j, 0.3621596615011442 + 0.12811982645910303j,
    -0.00823368361294896 - 0.4202507624760867j, 0.9018122363635717 - 0.2624017031981417j,
]


def symbol_config(scheme, nt, order, csi_mode, n_vectors):
    m = modem.bits_per_vector(scheme, nt, order)
    return harness.SimConfig(
        scheme=scheme, nt=nt, nr=2, modulation_order=order, snr_grid_db=(2.0, 8.0),
        k_factor_db=6.0, pi_profile="rx_config_1" if nt == 2 else "none",
        csi_mode=csi_mode, bits_per_trial=m * n_vectors, trials_per_snr=3,
        target_bit_errors=None, master_seed=23, block_symbols=100,
    )


def assert_records(records, expected):
    assert len(records) == len(expected)
    for rec, (bits, errors, trial_errors, rejected, snr_est) in zip(records, expected):
        assert (rec.bits, rec.bit_errors, rec.trial_errors, rec.rejected_vectors) == (
            bits, errors, trial_errors, rejected)
        if snr_est is None:
            assert rec.snr_db_estimated is None
        else:
            assert rec.snr_db_estimated == pytest.approx(snr_est, rel=1e-12, abs=0)


@pytest.mark.parametrize("name", sorted(SYMBOL_CASES))
def test_symbol_sweep(name):
    assert_records(harness.run_simulation(symbol_config(*SYMBOL_CASES[name])),
                   EXPECTED[name])


def test_waveform_sweep():
    cfg = harness.SimConfig(
        scheme="sm", nt=2, nr=2, modulation_order=2, snr_grid_db=(6.0, 12.0),
        fidelity="waveform", k_factor_db=10.0, bits_per_trial=4000, trials_per_snr=2,
        target_bit_errors=None, master_seed=29, block_symbols=1000,
        snr_block_symbols=500, fo_cycles_per_sample=1e-4,
    )
    assert_records(harness.run_simulation(cfg), EXPECTED["waveform"])


def test_noisy_loopback_decode():
    """Two SM/BPSK frames at 8 dB with a 2e-4 cycles/sample offset."""
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)
    rng = np.random.default_rng(77)
    c = modem.build_constellation(2)
    bits = rng.integers(0, 2, 2 * 2 * layout.data_symbols_per_frame).astype(np.uint8)
    tx = txchain.build_transmission(bits, txchain.Chain("sm", 2, c.order, layout, tx_layout))
    h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j]])
    noise_var = tx.symbol_scale**2 * 10.0 ** (-8 / 10)
    rx = channel.propagate_waveform(tx.samples, h, 2e-4, noise_var, np.random.default_rng(5))
    assert hashlib.sha256(rx.segment(0, rx.shape[1]).tobytes()).hexdigest() == RX_SHA256
    result = rxchain.decode_transmission(rx, tx.chain, symbol_scale=tx.symbol_scale)
    assert np.count_nonzero(result.bits != bits) == DECODE_ERRORS
    assert hashlib.sha256(np.packbits(result.bits).tobytes()).hexdigest() == DECODE_BITS_SHA256
    np.testing.assert_allclose(result.fo_cycles_per_sample, DECODE_FO, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.channel_estimates.ravel(), DECODE_ESTIMATES,
                               rtol=1e-12, atol=0)


def test_encode_files(tmp_path):
    """``cli encode`` of two SM/BPSK frames writes these exact bytes."""
    config = {"scheme": "sm", "nt": 2, "modulation_order": 2,
              "transmission_layout": {"n_frames": 2, "snr_block_symbols": 200}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    bits = np.random.default_rng(77).integers(0, 2, 4000).astype(np.uint8)
    np.packbits(bits).tofile(tmp_path / "tx.bits")
    assert cli.main(["encode", "--config", str(tmp_path / "c.json"),
                     "--bits", str(tmp_path / "tx.bits"), "--out", str(tmp_path / "cap")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ENCODE_SHA256}
    assert digests == ENCODE_SHA256
