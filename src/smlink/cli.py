"""Command-line interface.

Subcommands:

* ``simulate``    -- run a Monte Carlo sweep from a JSON config, write CSV.
* ``bound``       -- evaluate the analytical ABER union bound, write CSV.
* ``complexity``  -- compare ML receiver multiplication counts.
* ``fit-channel`` -- ML Rice fit of measured amplitude samples.
* ``encode``      -- build a transmission from a bit file, write I16 + sidecar.
* ``decode``      -- recover bits from captured I16 streams, write a report.
* ``plotdata``    -- emit ready-to-plot curve bundles for the four standard
                     figures (fig10..fig13).
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, analysis, harness, modem, rxchain, txchain
from .errors import ConfigurationError, SmlinkError
from .fileio import build, check_fields, read_json

BOUND_COLUMNS = ("snr_db", "aber_bound", "scheme", "nt", "nr", "m")
COMPLEXITY_COLUMNS = ("nt", "nr", "m", "sm_mults", "smx_mults", "reduction_percent")
PLOT_COLUMNS = ("figure", "curve", "kind", "snr_db", "aber", "bits", "bit_errors")
_CHAIN_FIELDS = {"scheme": str, "nt": int, "modulation_order": int,
                 "frame_layout": dict, "transmission_layout": dict}


def _cmd_simulate(args):
    config = harness.load_config(args.config)
    records = harness.run_simulation(config)
    path = harness.export_csv(records, args.out)
    for r in records:
        print(f"snr={r.snr_db_target:g} dB  bits={r.bits}  errors={r.bit_errors}  "
              f"aber={r.aber:.3e}")
    print(f"wrote {path}")


def _bound_config(link):
    """The exact bound's config for a :class:`harness.Link`."""
    return analysis.BoundConfig(
        scheme=link.scheme, nt=link.nt, nr=link.nr, modulation_order=link.modulation_order,
        fading=link.fading(), imbalance=link.imbalance(), snr_grid_db=link.snr_grid_db,
    )


def _cmd_bound(args):
    link = build(harness.Link, read_json(args.config, "bound config"), "bound config")
    values = analysis.union_bound_aber(_bound_config(link))
    rows = ([snr, float(val), link.scheme, link.nt, link.nr, link.bits_per_vector]
            for snr, val in zip(link.snr_grid_db, values))
    harness.write_csv(args.out, BOUND_COLUMNS, rows)
    for snr, val in zip(link.snr_grid_db, values):
        print(f"snr={snr:g} dB  bound={val:.4e}")
    print(f"wrote {args.out}")


def _cmd_complexity(args):
    rows = [modem.complexity_report(nt, args.nr, args.m) for nt in args.nt]
    print("nt  nr  m  sm_mults  smx_mults  reduction_percent")
    for rep in rows:
        pct = rep.relative_reduction_percent
        print(f"{rep.nt}  {rep.nr}  {rep.bits_per_symbol}  "
              f"{rep.sm_real_multiplications}  {rep.smx_real_multiplications}  "
              f"{float(pct):.4f} (= {pct})")
    if args.out:
        harness.write_csv(args.out, COMPLEXITY_COLUMNS, (
            [rep.nt, rep.nr, rep.bits_per_symbol, rep.sm_real_multiplications,
             rep.smx_real_multiplications, float(rep.relative_reduction_percent)]
            for rep in rows
        ))
        print(f"wrote {args.out}")


def _cmd_fit_channel(args):
    try:
        with warnings.catch_warnings():
            # An empty file is refused by fit_rician as too few samples.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            samples = np.loadtxt(args.samples, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"samples file {args.samples}: {exc}") from exc
    if samples.shape[1] != 1:
        raise ConfigurationError(f"samples file {args.samples}: expected one value per line, "
                                 f"got {samples.shape[1]}")
    samples = samples[:, 0]
    fit = analysis.fit_rician(samples)
    payload = {
        # null means Rayleigh, as in save_config.
        "k_factor_db": _finite_or_none(fit.k_factor_db),
        "mean_amplitude": fit.mean_amplitude,
        "nu": fit.nu,
        "sigma": fit.sigma,
        "gof_p_value": fit.gof_p_value,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "n_samples": int(samples.size),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"K = {fit.k_factor_db:.2f} dB  (GOF p = {fit.gof_p_value:.3f})")
    print(f"wrote {args.out}")


def _finite_or_none(x):
    """``x``, or None where JSON has no number for it (infinities and NaN)."""
    return x if math.isfinite(x) else None


def _read_bit_file(path, n_bits):
    packed = np.fromfile(path, dtype=np.uint8)
    bits = np.unpackbits(packed)
    if bits.size < n_bits:
        raise ConfigurationError(
            f"bit file holds {bits.size} bits, transmission needs {n_bits}"
        )
    return bits[:n_bits]


def _cmd_encode(args):
    data = check_fields(read_json(args.config, "chain config"), _CHAIN_FIELDS,
                        ("scheme", "nt", "modulation_order"), "chain config")
    scheme, nt, order = data["scheme"], data["nt"], data["modulation_order"]
    frame_layout = build(txchain.FrameLayout, data.get("frame_layout", {}), "frame_layout")
    tx_layout = build(txchain.TransmissionLayout, data.get("transmission_layout", {}),
                      "transmission_layout")
    constellation = modem.build_constellation(order)
    m = modem.bits_per_vector(scheme, nt, order)
    n_bits = m * frame_layout.data_symbols_per_frame * tx_layout.n_frames
    bits = _read_bit_file(args.bits, n_bits)
    tx = txchain.build_transmission(
        bits, scheme, nt, constellation, frame_layout, tx_layout
    )
    sidecar = txchain.write_waveform(
        args.out, tx,
        extra_meta={"scheme": scheme, "modulation_order": order, "n_bits": n_bits},
    )
    print(f"encoded {n_bits} bits into {tx.nt} stream(s); sidecar: {sidecar}")


def _cmd_decode(args):
    meta, frame_layout, tx_layout = txchain.read_sidecar(args.meta)
    for key in ("scheme", "modulation_order"):
        if key not in meta:
            raise ConfigurationError(f"sidecar missing field {key!r}")
    constellation = modem.build_constellation(meta["modulation_order"])
    result = rxchain.decode_transmission(
        txchain.read_captures(args.capture), frame_layout, tx_layout, meta["nt"],
        meta["scheme"], constellation, symbol_scale=meta.get("symbol_scale"),
    )
    np.packbits(result.bits).tofile(args.out)
    # A noiseless capture has an infinite SNR and sync margin, written as null.
    report = {
        "snr_db": _finite_or_none(result.snr.snr_db),
        "snr_valid": result.snr.valid,
        "fo_cycles_per_sample": result.fo_cycles_per_sample.tolist(),
        "n_bits": int(result.bits.size),
        "sync_tx_start": int(result.sync.tx_start_index),
        "sync_margin": _finite_or_none(result.sync.margin),
        "channel_estimates": [
            {half: [[c.real, c.imag] for c in h.reshape(-1)]
             for half, h in zip(("first", "second"), pair)}
            for pair in result.channel_estimates
        ],
    }
    if args.reference_bits:
        ref = _read_bit_file(args.reference_bits, result.bits.size)
        errors = int(np.count_nonzero(ref != result.bits))
        report["bit_errors"] = errors
        report["ber"] = errors / result.bits.size if result.bits.size else None
    Path(args.report).write_text(json.dumps(report, indent=2, allow_nan=False))
    print(f"decoded {result.bits.size} bits -> {args.out}; report: {args.report}")


_FIGURES = {
    "fig13": {
        "description": "SM vs SMX, 2x2 BPSK, Rician K=33 dB, no imbalance",
        "curves": [
            ("sm", dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                        k_factor_db=33.0, pi_profile="none")),
            ("smx", dict(scheme="smx", nt=2, nr=2, modulation_order=2,
                         k_factor_db=33.0, pi_profile="none")),
        ],
        "grid": tuple(range(34, 50, 2)),
        "bound": True,
    },
    "fig10": {
        "description": "SM 2x2 BPSK, Rician K=33 dB, first imbalance profile",
        "curves": [
            ("sm_pi1", dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                            k_factor_db=33.0, pi_profile="rx_config_1")),
        ],
        "grid": tuple(range(16, 38, 2)),
        "bound": True,
    },
    "fig11": {
        "description": "SM 2x2 BPSK, Rician K=33 dB, both imbalance profiles vs none",
        "curves": [
            ("sm_pi1", dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                            k_factor_db=33.0, pi_profile="rx_config_1")),
            ("sm_pi2", dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                            k_factor_db=33.0, pi_profile="rx_config_2")),
            ("sm_nopi", dict(scheme="sm", nt=2, nr=2, modulation_order=2,
                             k_factor_db=33.0, pi_profile="none")),
        ],
        "grid": tuple(range(16, 38, 2)),
        "bound": True,
    },
    "fig12": {
        "description": "8 bit/s/Hz over Rayleigh, nr=4: SM(64,4) vs SMX(8,2) vs SMX(4,4)",
        "curves": [
            ("sm_nt64_m4", dict(scheme="sm", nt=64, nr=4, modulation_order=4)),
            ("smx_nt8_m2", dict(scheme="smx", nt=8, nr=4, modulation_order=2)),
            ("smx_nt4_m4", dict(scheme="smx", nt=4, nr=4, modulation_order=4)),
        ],
        "grid": tuple(range(6, 22, 2)),
        "bound": False,
    },
}


def _cmd_plotdata(args):
    recipe = _FIGURES[args.figure]
    trials = 2 if args.quick else args.trials
    rows = []
    for label, params in recipe["curves"]:
        config = harness.SimConfig(
            snr_grid_db=recipe["grid"], fidelity="symbol", csi_mode="perfect",
            bits_per_trial=100_000, trials_per_snr=trials,
            target_bit_errors=100, master_seed=args.seed, **params,
        )
        for record in harness.run_simulation(config):
            rows.append([args.figure, label, "sim", record.snr_db_target, record.aber,
                         record.bits, record.bit_errors])
        if recipe["bound"]:
            values = analysis.union_bound_aber(_bound_config(config))
            for snr, val in zip(config.snr_grid_db, values):
                # Reporting layer clips the bound at the 0.5 ceiling.
                rows.append([args.figure, label, "bound", snr, min(float(val), 0.5), None, None])
        print(f"{args.figure}: finished curve {label}", flush=True)
    out = harness.write_csv(Path(args.out_dir) / f"{args.figure}.csv", PLOT_COLUMNS, rows)
    print(f"wrote {out}  ({recipe['description']})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smlink",
        description="Link-level simulator and analysis toolkit for spatial "
                    "modulation and spatial multiplexing MIMO",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a Monte Carlo sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bound", help="evaluate the analytical ABER union bound")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("complexity", help="ML receiver complexity comparison")
    p.add_argument("--nt", type=int, nargs="+", required=True)
    p.add_argument("--nr", type=int, default=2)
    p.add_argument("--m", type=int, default=4, help="bits per transmit vector")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("fit-channel", help="ML Rice fit of amplitude samples")
    p.add_argument("--samples", required=True,
                   help="text file, one amplitude per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_channel)

    p = sub.add_parser("encode", help="build a transmission from a bit file")
    p.add_argument("--config", required=True)
    p.add_argument("--bits", required=True, help="packed bits (8 per byte)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="recover bits from captured I16 streams")
    p.add_argument("--capture", required=True, nargs="+",
                   help="captured I16 file(s), one per receive antenna")
    p.add_argument("--meta", required=True, help="transmission sidecar JSON")
    p.add_argument("--out", required=True, help="output packed-bit file")
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--reference-bits", help="packed reference bits for BER")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("plotdata", help="emit curve bundles for the standard figures")
    p.add_argument("--figure", required=True, choices=sorted(_FIGURES))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--quick", action="store_true",
                   help="reduced bit budget")
    p.add_argument("--trials", type=int, default=200,
                   help="trial cap per SNR point (default 200)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_plotdata)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (SmlinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
