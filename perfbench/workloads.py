"""The benchmark workloads: definitions, inputs, timed calls, checks.

``DEFINITIONS`` holds every parameter as plain data; the run manifest
carries its hash. Each workload class builds its configs and tables and
warms up in ``__init__`` (set-up), makes iteration ``i``'s inputs from
the run seed in ``prepare`` (untimed), calls the package in ``run``
(timed, and traced in a traced run) and checks the outputs in ``check``
(untimed). Budgets are fixed (``target_bit_errors=None``), so the work
in an iteration never depends on error counts.

The benchmark has two workloads (BENCHMARK.json carries a one-line
version of why):

* ``symbol_sweep`` -- symbol-fidelity sweeps of the fig12 8 bit/s/Hz pair
  (SM nt=64 QPSK and SMX nt=8 BPSK, nr=4, 256 candidates each) and the
  fig10 2x2 pilot-CSI link. The two ``kernels`` detectors dominate; the
  2x2 link makes many small ``channel``/``harness`` calls. It never
  touches ``txchain`` framing, ``rxchain`` or ``analysis``.
* ``chain_and_bounds`` -- three parts run in turn, each timed on its own:

  - ``waveform_link``: one waveform-fidelity trial of the fig10 link at
    24 dB: sounding-section noise, pulse shaping and the receive chain,
    with detection a small share. The carrier offset is 1e-4
    cycles/sample because the work does not depend on its value; larger
    offsets hit a known decode defect (ABER ~0.25 at 0.005 cycles/sample
    even at 200 dB SNR with an exact offset estimate).
  - ``capture_loopback``: ``cli`` encode to int16 captures and decode
    back, the only path through ``cli`` and capture file I/O.
  - ``bound_fit``: Monte Carlo union bounds and Rice fits, the only path
    through ``analysis``.

  They share one workload so that each of the two gets a long run on a
  host whose speed drifts over tens of seconds.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

from smlink import analysis, channel, cli, harness, modem

PIPELINE_24DB = dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                     k_factor_db=33.0, pi_profile="rx_config_1")

DEFINITIONS = {
    "symbol_sweep": {
        "links": {
            "sm64_qpsk_nr4": dict(scheme="sm", nt=64, nr=4, modulation_order=4,
                                  snr_grid_db=[12.0, 16.0], bits_per_trial=4000,
                                  trials_per_snr=20),
            "smx8_bpsk_nr4": dict(scheme="smx", nt=8, nr=4, modulation_order=2,
                                  snr_grid_db=[12.0, 16.0], bits_per_trial=4000,
                                  trials_per_snr=20),
            "sm2_k33_pi1_pilot": dict(PIPELINE_24DB, csi_mode="pilot",
                                      snr_grid_db=[24.0, 28.0], bits_per_trial=20000,
                                      trials_per_snr=20),
        },
        # blocks of the half-frame size harness and rxchain detect at the
        # default 1000-symbol frame; (scheme, nt, modulation order, nr)
        "detector_block_vectors": 500,
        "detector_scenarios": [["sm", 2, 2, 2], ["sm", 8, 4, 2], ["sm", 64, 4, 4],
                               ["smx", 2, 2, 2], ["smx", 4, 4, 4], ["smx", 8, 2, 4]],
    },
    "waveform_link": {
        "link": dict(PIPELINE_24DB, fidelity="waveform", snr_grid_db=[24.0],
                     fo_cycles_per_sample=1e-4, bits_per_trial=100_000,
                     trials_per_snr=1),
    },
    "capture_loopback": {
        "chain": {"scheme": "sm", "nt": 2, "modulation_order": 2},
        "payload_bits": 100_000,
    },
    "bound_fit": {
        "bounds": {
            "sm64_qpsk_nr4": dict(scheme="sm", nt=64, nr=4, modulation_order=4,
                                  k_factor_db=None, pi_profile="none",
                                  snr_grid_db=[14.0, 15.0, 16.0, 17.0, 18.0, 19.0],
                                  n_channels=64),
            "smx8_bpsk_nr4": dict(scheme="smx", nt=8, nr=4, modulation_order=2,
                                  k_factor_db=None, pi_profile="none",
                                  snr_grid_db=[14.0, 15.0, 16.0, 17.0, 18.0, 19.0],
                                  n_channels=64),
            "fig10_sm2_k33_pi1": dict(PIPELINE_24DB, snr_grid_db=[float(s) for s in range(16, 38, 2)],
                                      n_channels=10_000),
        },
        "fits": {
            "rayleigh": {"k_factor_db": None, "samples": 10_000},
            "k33": {"k_factor_db": 33.0, "samples": 100_000},
        },
    },
}

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def definitions_hash():
    blob = json.dumps(DEFINITIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def iteration_seed(seed, i):
    """Master seed of iteration ``i``: a function of the run seed only."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def sim_config(params, **overrides):
    p = dict(params, **overrides)
    p["snr_grid_db"] = tuple(p["snr_grid_db"])
    return harness.SimConfig(target_bit_errors=None, **p)


def bound_config(params, **overrides):
    p = dict(params, **overrides)
    k = p["k_factor_db"]
    return analysis.BoundConfig(
        scheme=p["scheme"], nt=p["nt"], nr=p["nr"], modulation_order=p["modulation_order"],
        fading=channel.FadingModel(float("-inf") if k is None else k),
        imbalance=channel.imbalance_profile(p["pi_profile"], p["nr"], p["nt"]),
        snr_grid_db=tuple(p["snr_grid_db"]), n_channels=p["n_channels"],
    )


def load_references():
    """References made for the current definitions (make_references.py)."""
    with open(REFERENCES_PATH) as fh:
        refs = json.load(fh)
    if refs["definitions_sha256"] != definitions_hash():
        raise RuntimeError("references.json was made for other workload definitions; "
                           "rerun perfbench/make_references.py")
    return refs


def within(value, reference, tolerance):
    return math.isfinite(value) and abs(value - reference) <= tolerance


class DetectorScenario:
    """One detector on noisy blocks, checked index-exactly by brute force.

    The reference is written here, apart from the package: the first
    candidate in table order that minimises sum_r |y_r - (H x)_r|^2. The
    package's detectors resolve ties the same way, so any mismatch is a
    defect.
    """

    def __init__(self, scheme, nt, order, nr):
        self.scheme, self.nt, self.nr = scheme, nt, nr
        self.constellation = modem.build_constellation(order)
        self.candidates = modem.candidate_vectors(scheme, nt, self.constellation)
        self.label = f"{scheme} nt={nt} M={order} nr={nr}"

    def block(self, n_vectors, rng):
        """Rayleigh channel and ``n_vectors`` noisy received candidates."""
        shape = (self.nr, self.nt)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        sent = rng.integers(0, len(self.candidates), n_vectors)
        noise = rng.standard_normal((n_vectors, self.nr)) + 1j * rng.standard_normal(
            (n_vectors, self.nr))
        return h, self.candidates[sent] @ h.T + np.sqrt(0.05) * noise

    def mismatches(self, h, y):
        if self.scheme == "sm":
            detected = modem.sm_ml_detect_batch(y, h, self.constellation)
        else:
            detected = modem.ml_detect_batch(y, h, self.candidates)
        d = y[:, None, :] - (self.candidates @ h.T)[None, :, :]
        reference = np.argmin((d.real**2 + d.imag**2).sum(axis=2), axis=1)
        return int(np.count_nonzero(detected != reference))


class SymbolSweep:
    """Symbol-fidelity ``run_simulation`` over three links."""

    name = "symbol_sweep"
    # Trial rates are channel-dominated and skewed; the run's own standard
    # error (floored at the reference spread) keeps one bad channel from
    # failing the check.
    STANDARD_ERRORS = 6.0

    def __init__(self, seed, refs, work_dir):
        d = DEFINITIONS[self.name]
        self.seed = seed
        self.links = {k: sim_config(v) for k, v in d["links"].items()}
        self.refs = refs[self.name]
        self.block_vectors = d["detector_block_vectors"]
        self.scenarios = [DetectorScenario(*s) for s in d["detector_scenarios"]]
        self.ops_per_iteration = (
            sum(len(c.snr_grid_db) for c in self.links.values()) + len(self.scenarios)
        )
        for cfg in self.links.values():
            harness.run_simulation(dataclasses.replace(
                cfg, trials_per_snr=1, bits_per_trial=100 * cfg.bits_per_vector))

    def prepare(self, i):
        master = iteration_seed(self.seed, i)
        rng = np.random.default_rng(master)
        blocks = [s.block(self.block_vectors, rng) for s in self.scenarios]
        return master, blocks

    def run(self, inputs):
        master, _ = inputs
        return {name: harness.run_simulation(dataclasses.replace(cfg, master_seed=master))
                for name, cfg in self.links.items()}

    def check(self, inputs, output):
        _, blocks = inputs
        problems = []
        for name, records in output.items():
            cfg = self.links[name]
            for r in records:
                ref = self.refs[name][f"{r.snr_db_target:g}"]
                se_run = max(r.aber_standard_error(), ref["trial_std"] / math.sqrt(cfg.trials_per_snr))
                se_ref = ref["trial_std"] / math.sqrt(ref["trials"])
                tol = self.STANDARD_ERRORS * math.hypot(se_run, se_ref)
                if r.bits != cfg.trials_per_snr * cfg.bits_per_trial or not within(r.aber, ref["aber"], tol):
                    problems.append(f"{name} {r.snr_db_target:g} dB: ABER {r.aber:.4g} "
                                    f"vs reference {ref['aber']:.4g} +- {tol:.2g}, {r.bits} bits")
        for scenario, (h, y) in zip(self.scenarios, blocks):
            bad = scenario.mismatches(h, y)
            if bad:
                problems.append(f"detector {scenario.label}: {bad} index mismatches")
        return problems

    def bits(self, output):
        return sum(r.bits for records in output.values() for r in records)

    def close(self):
        pass


class WaveformLink:
    """One waveform-fidelity trial of the fig10 link.

    The check holds the trial's bit errors to the union bound of the
    trial's own channel at the target SNR: at K = 33 dB with the
    ``rx_config_1`` imbalance the ABER depends strongly on that draw.
    The bound assumes perfect channel knowledge; the waveform chain
    estimates the channel, timing and carrier offset and loses a little
    to each.
    """

    name = "waveform_link"
    SNR_TOLERANCE_DB = 1.0
    # Waveform ABER over the bound: 1.01 to 2.01 on 390 trials, bounds 0.0044
    # to 0.074. The carrier offset defect at 0.005 cycles/sample gives an
    # ABER of 0.25, more than three times the largest bound.
    BOUND_RATIO = (0.8, 3.0)
    POISSON_Z = 6.0

    def __init__(self, seed, refs, work_dir):
        d = DEFINITIONS[self.name]
        self.seed = seed
        self.config = sim_config(d["link"])
        self.candidates = modem.candidate_vectors(
            self.config.scheme, self.config.nt,
            modem.build_constellation(self.config.modulation_order))
        self.ops_per_iteration = 1
        per_frame = self.config.bits_per_vector * self.config.block_symbols
        harness.run_simulation(dataclasses.replace(
            self.config, bits_per_trial=per_frame, snr_block_symbols=1000))

    def prepare(self, i):
        return iteration_seed(self.seed, i)

    def run(self, master):
        return harness.run_simulation(dataclasses.replace(self.config, master_seed=master))[0]

    def trial_channel(self, master):
        """The channel ``harness`` draws for the trial, from a replay of its generator."""
        cfg = self.config
        rng = harness._trial_rng(master, cfg.snr_grid_db[0], 0)
        rng.integers(0, 2, size=cfg.bits_per_trial, dtype=np.uint8)  # the payload
        return channel.draw_channel(cfg.nr, cfg.nt, cfg.fading(), cfg.imbalance(), rng)

    def check(self, master, r):
        target = r.snr_db_target
        if r.rejected_vectors or r.bits != self.config.bits_per_trial:
            return [f"sync rejected ({r.rejected_vectors}) or short ({r.bits} bits)"]
        bound = analysis.union_bound_aber_for_channels(
            self.candidates, self.trial_channel(master)[None], [target])[0]
        lo, hi = (f * bound * r.bits for f in self.BOUND_RATIO)
        slack = self.POISSON_Z * math.sqrt(hi)
        est = r.snr_db_estimated
        if (not lo - slack <= r.bit_errors <= hi + slack or est is None
                or not within(est, target, self.SNR_TOLERANCE_DB)):
            return [f"{r.bit_errors} bit errors in {r.bits} bits (channel bound "
                    f"{bound:.4g} allows {max(0.0, lo - slack):.0f} to {hi + slack:.0f}), "
                    f"SNR estimate {est} dB (target {target:g} dB)"]
        return []

    def bits(self, r):
        return r.bits

    def close(self):
        pass


class CaptureLoopback:
    """``cli encode`` to int16 captures, then ``cli decode`` against the bits."""

    name = "capture_loopback"

    def __init__(self, seed, refs, work_dir):
        d = DEFINITIONS[self.name]
        self.seed = seed
        self.n_bits = d["payload_bits"]
        self.ops_per_iteration = 1
        self.dir = tempfile.mkdtemp(prefix="capture-", dir=work_dir)
        self.config = self._path("chain.json")
        with open(self.config, "w") as fh:
            json.dump(d["chain"], fh)
        warm = dict(d["chain"], transmission_layout={"n_frames": 1, "snr_block_symbols": 1000})
        warm_config = self._path("warm.json")
        with open(warm_config, "w") as fh:
            json.dump(warm, fh)
        m = modem.bits_per_vector(d["chain"]["scheme"], d["chain"]["nt"],
                                  d["chain"]["modulation_order"])
        codes = self.run((warm_config, self._write_bits(np.zeros(1000 * m, dtype=np.uint8))))[:2]
        if codes != (0, 0):
            raise RuntimeError(f"warm-up round trip exited with {codes}")

    def _path(self, name):
        return os.path.join(self.dir, name)

    def _write_bits(self, bits):
        path = self._path("payload.bin")
        np.packbits(bits).tofile(path)
        return path

    def prepare(self, i):
        rng = np.random.default_rng(iteration_seed(self.seed, i))
        bits = rng.integers(0, 2, size=self.n_bits, dtype=np.uint8)
        return self.config, self._write_bits(bits)

    def run(self, inputs):
        config, bits_path = inputs
        prefix = self._path("tx")
        report = self._path("report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            enc = cli.main(["encode", "--config", config, "--bits", bits_path, "--out", prefix])
            dec = cli.main(["decode", "--capture", prefix + "_ant1.bin", prefix + "_ant2.bin",
                            "--meta", prefix + "_meta.json", "--out", self._path("decoded.bin"),
                            "--report", report, "--reference-bits", bits_path])
        return enc, dec, report

    def check(self, inputs, output):
        enc, dec, report_path = output
        if (enc, dec) != (0, 0):
            return [f"cli exit codes encode={enc} decode={dec}"]
        with open(report_path) as fh:
            report = json.load(fh)
        if report["n_bits"] != self.n_bits or report["bit_errors"] != 0:
            return [f"{report['bit_errors']} bit errors in {report['n_bits']} bits"]
        return []

    def bits(self, output):
        return self.n_bits

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class BoundFit:
    """Union bounds and Rice fits from ``analysis``.

    ``check`` returns at most one problem per call, so the problem count
    is the failed-operation count (the same holds for every workload).
    """

    name = "bound_fit"
    STANDARD_ERRORS = 8.0
    # A point is held to the band only where the reference's own
    # evaluations stayed within this many standard deviations. Elsewhere
    # the Monte Carlo error at the workload's draw count is heavy-tailed
    # (one channel draw can carry the mean), and the point is only
    # checked for the ordering every draw set gives: positive and
    # falling with SNR.
    NEAR_NORMAL_Z = 5.0
    K33_TOLERANCE_DB = 1.0
    # The ML estimate of K for Rayleigh data shrinks only as n**-0.25: on
    # about a third of 1e4-sample sets the fit stops at a stationary point
    # near -6 dB or at its iteration cap above -10 dB.
    RAYLEIGH_MAX_K_DB = -3.0

    def __init__(self, seed, refs, work_dir):
        d = DEFINITIONS[self.name]
        self.seed = seed
        self.bounds = {k: bound_config(v) for k, v in d["bounds"].items()}
        self.fits = d["fits"]
        self.refs = refs[self.name]
        self.ops_per_iteration = len(self.bounds) + len(self.fits)
        rng = np.random.default_rng(0)
        for cfg in self.bounds.values():
            analysis.union_bound_aber(dataclasses.replace(cfg, n_channels=1), rng=rng)
        analysis.fit_rician(self._amplitudes(33.0, 1000, rng))

    @staticmethod
    def _amplitudes(k_factor_db, n, rng):
        fading = channel.FadingModel(float("-inf") if k_factor_db is None else k_factor_db)
        return np.abs(channel.draw_channels(n, 1, 1, fading, rng=rng).reshape(-1))

    def prepare(self, i):
        ss = np.random.SeedSequence([self.seed, i])
        bound_seed, fit_seed = ss.spawn(2)
        fit_rng = np.random.default_rng(fit_seed)
        amplitudes = {name: self._amplitudes(f["k_factor_db"], f["samples"], fit_rng)
                      for name, f in self.fits.items()}
        return bound_seed, amplitudes

    def run(self, inputs):
        bound_seed, amplitudes = inputs
        rngs = [np.random.default_rng(s) for s in bound_seed.spawn(len(self.bounds))]
        bounds = {name: analysis.union_bound_aber(cfg, rng=rng)
                  for (name, cfg), rng in zip(self.bounds.items(), rngs)}
        fits = {name: analysis.fit_rician(a) for name, a in amplitudes.items()}
        return bounds, fits

    def check(self, inputs, output):
        bounds, fits = output
        problems = []
        for name, values in bounds.items():
            cfg = self.bounds[name]
            values = np.asarray(values, dtype=np.float64)
            off = []
            if not (np.all(values > 0) and np.all(np.diff(values) < 0)):
                off.append(f"not positive and falling: {values}")
            for snr, value in zip(cfg.snr_grid_db, values):
                ref = self.refs[name][f"{snr:g}"]
                if ref["max_batch_z"] > self.NEAR_NORMAL_Z:
                    continue
                tol = self.STANDARD_ERRORS * ref["batch_std"] * math.sqrt(1 + 1 / ref["batches"])
                if not within(float(value), ref["bound"], tol):
                    off.append(f"{snr:g} dB: {value:.4g} vs {ref['bound']:.4g} +- {tol:.2g}")
            if off:
                problems.append(f"bound {name}: " + "; ".join(off))
        for name, spec in self.fits.items():
            k_db = fits[name].k_factor_db
            if spec["k_factor_db"] is None:
                ok = k_db <= self.RAYLEIGH_MAX_K_DB
            else:
                ok = within(k_db, spec["k_factor_db"], self.K33_TOLERANCE_DB)
            if not ok:
                problems.append(f"fit {name}: K = {k_db:.3g} dB")
        return problems

    def bits(self, output):
        return None

    def close(self):
        pass


class ChainAndBounds:
    """The waveform trial, the capture round trip and the bounds and fits, in turn.

    ``part_seconds`` keeps each part's timed seconds per iteration.
    """

    name = "chain_and_bounds"
    PARTS = (WaveformLink, CaptureLoopback, BoundFit)

    def __init__(self, seed, refs, work_dir):
        self.parts = [cls(seed, refs, work_dir) for cls in self.PARTS]
        self.ops_per_iteration = sum(p.ops_per_iteration for p in self.parts)
        self.part_seconds = {p.name: [] for p in self.parts}

    def prepare(self, i):
        return [p.prepare(i) for p in self.parts]

    def run(self, inputs):
        outputs = []
        for part, x in zip(self.parts, inputs):
            t0 = time.perf_counter()
            outputs.append(part.run(x))
            self.part_seconds[part.name].append(time.perf_counter() - t0)
        return outputs

    def check(self, inputs, outputs):
        return [problem for part, x, out in zip(self.parts, inputs, outputs)
                for problem in part.check(x, out)]

    def part_bits(self, outputs):
        return {p.name: p.bits(out) for p, out in zip(self.parts, outputs)}

    def bits(self, outputs):
        return None  # payload rates are per part: the bounds carry none

    def close(self):
        for part in self.parts:
            part.close()


WORKLOADS = {cls.name: cls for cls in (SymbolSweep, ChainAndBounds)}
