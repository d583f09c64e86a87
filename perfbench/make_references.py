"""Regenerate ``references.json``, the values the workload checks compare to.

Usage, from the repository root (about ten minutes on one core)::

    PYTHONPATH=src python3 perfbench/make_references.py

* ``symbol_sweep``: each link of the workload at its own bits per trial,
  run for ``SWEEP_TRIALS`` trials from a master seed no iteration uses.
  Stored per SNR: the ABER, the standard deviation of the per-trial
  rates and the trial count. A check allows a few standard errors of
  both the iteration and the reference.
* ``bound_fit`` (a part of ``chain_and_bounds``): each of its bounds
  evaluated ``BOUND_BATCHES`` times, each time on fresh draws at its
  ``n_channels``.
  Stored per SNR: the mean, the standard deviation of one evaluation
  (the Monte Carlo error at the workload's draw count), the number of
  evaluations and the largest deviation among them in standard
  deviations, which shows where that error is heavy-tailed.
"""

import json
import sys

import numpy as np

from smlink import analysis, channel, harness, modem

import workloads

REFERENCE_SEED = 10**10
SWEEP_TRIALS = 1000
BOUND_BATCHES = {"sm64_qpsk_nr4": 200, "smx8_bpsk_nr4": 200, "fig10_sm2_k33_pi1": 400}


def sweep_references():
    out = {}
    for name, params in workloads.DEFINITIONS["symbol_sweep"]["links"].items():
        cfg = workloads.sim_config(params, trials_per_snr=SWEEP_TRIALS, master_seed=REFERENCE_SEED)
        out[name] = {}
        for r in harness.run_simulation(cfg):
            rates = np.asarray(r.trial_errors) / np.asarray(r.trial_bits)
            out[name][f"{r.snr_db_target:g}"] = {
                "aber": r.aber, "trial_std": float(np.std(rates, ddof=1)), "trials": len(rates),
            }
        print(f"symbol_sweep {name}: {out[name]}", flush=True)
    return out


def bound_references():
    out = {}
    rng = np.random.default_rng(REFERENCE_SEED)
    for name, params in workloads.DEFINITIONS["bound_fit"]["bounds"].items():
        cfg = workloads.bound_config(params)
        candidates = modem.candidate_vectors(
            cfg.scheme, cfg.nt, modem.build_constellation(cfg.modulation_order))
        means = np.array([
            analysis.union_bound_aber_for_channels(
                candidates,
                channel.draw_channels(cfg.n_channels, cfg.nr, cfg.nt, cfg.fading,
                                      cfg.imbalance, rng),
                cfg.snr_grid_db)
            for _ in range(BOUND_BATCHES[name])
        ])
        mean = means.mean(axis=0)
        std = means.std(axis=0, ddof=1)
        out[name] = {
            f"{snr:g}": {"bound": float(mean[s]), "batch_std": float(std[s]),
                         "batches": len(means),
                         "max_batch_z": float(np.abs(means[:, s] - mean[s]).max() / std[s])}
            for s, snr in enumerate(cfg.snr_grid_db)
        }
        print(f"bound_fit {name}: {out[name]}", flush=True)
    return out


def main():
    refs = {
        "symbol_sweep": sweep_references(),
        "bound_fit": bound_references(),
        "definitions_sha256": workloads.definitions_hash(),
    }
    with open(workloads.REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
