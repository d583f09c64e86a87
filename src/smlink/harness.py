"""Monte Carlo experiment driver, configuration and persistence.

:class:`Link` is the one link description and its one check;
:class:`SimConfig` extends it with a sweep's fidelity, budgets and
layouts, and ``smlink bound`` and ``plotdata`` bound the same ``Link``.

:func:`run_simulation` is the one sweep entry. It sweeps an SNR grid at
one of two fidelities, which differ only in how one trial runs:

* ``symbol`` -- vectors go straight through y = Hx + n with the channel
  redrawn every ``block_symbols`` vectors (one frame's worth), detected
  with perfect or pilot-estimated CSI by the receive chain's back end;
  the pilot signal and the sequences its estimate averages are
  ``txchain.FrameLayout``'s, as in the decoder;
* ``waveform`` -- the full transmit chain is built, propagated at sample
  level with optional carrier frequency offset, and decoded by the full
  receive chain; sync rejections are counted separately from bit errors.

Each (SNR point, trial) pair owns an independent RNG seeded from
(master_seed, round(1000*snr_db), trial), so results are reproducible,
common random numbers are shared across schemes, and trials could be
distributed without changing any number; a negative SNR key k becomes
2**64 - k, which no key below 2**32 (4e6 dB) matches in SeedSequence.
Trials run until the error target is met or the trial cap is reached.
Records export to a fixed, versioned CSV schema.
"""

import csv
import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import channel as channel_mod
from . import fileio, modem, rxchain, txchain
from .errors import ConfigurationError, SyncRejection

__all__ = [
    "Link",
    "SimConfig",
    "BerRecord",
    "CSV_SCHEMA_VERSION",
    "CSV_COLUMNS",
    "run_simulation",
    "export_csv",
    "write_csv",
    "read_csv",
    "save_config",
    "load_config",
]

CSV_SCHEMA_VERSION = "1"
CSV_COLUMNS = (
    "schema_version",
    "scheme",
    "fidelity",
    "nt",
    "nr",
    "m",
    "k_factor_db",
    "pi_profile",
    "snr_db_target",
    "snr_db_estimated",
    "bits",
    "bit_errors",
    "aber",
    "rejected_vectors",
    "seed",
)

_FIDELITIES = ("symbol", "waveform")
_CSI_MODES = ("perfect", "pilot")


@dataclass(frozen=True)
class Link:
    """One link over an SNR grid: scheme, antennas, constellation order and
    channel model (a K factor in dB, -inf for Rayleigh, and a named power
    imbalance profile). The JSON keys of ``smlink bound`` are these fields.

    Construction refuses, with a named :class:`SmlinkError`, a field of the
    wrong type, nr below 1, a grid :func:`channel.check_snr_grid` refuses, a
    scheme, nt and order that :func:`modem.bits_per_vector` refuses, more
    than ``modem.MAX_CANDIDATES`` candidate vectors, a K factor
    :class:`channel.FadingModel` refuses and a profile of another shape.
    """

    scheme: str
    nt: int
    nr: int
    modulation_order: int
    snr_grid_db: tuple
    k_factor_db: float = float("-inf")
    pi_profile: str = "none"

    def __post_init__(self):
        fileio.check_field_types(self)
        self._check_values()

    def _check_values(self):
        """The checks after the type check; a subclass extends them."""
        if self.nr < 1:
            raise ConfigurationError("nr must be >= 1")
        object.__setattr__(self, "snr_grid_db", channel_mod.check_snr_grid(self.snr_grid_db))
        modem.check_candidate_count(2**self.bits_per_vector)
        self.fading()
        self.imbalance()

    @property
    def bits_per_vector(self):
        return modem.bits_per_vector(self.scheme, self.nt, self.modulation_order)

    def fading(self):
        return channel_mod.FadingModel(self.k_factor_db)

    def imbalance(self):
        return channel_mod.imbalance_profile(self.pi_profile, self.nr, self.nt)


@dataclass(frozen=True)
class SimConfig(Link):
    """One simulation campaign: a :class:`Link` with its fidelity, budgets and layouts."""

    fidelity: str = "symbol"
    csi_mode: str = "perfect"
    bits_per_trial: int = 100_000
    trials_per_snr: int = 1000
    target_bit_errors: int | None = 100
    master_seed: int = 0
    fo_cycles_per_sample: float = 0.0
    block_symbols: int = 1000
    snr_block_symbols: int = 50_000

    def _check_values(self):
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
        super()._check_values()
        if self.fidelity not in _FIDELITIES:
            raise ConfigurationError(f"fidelity must be one of {_FIDELITIES}")
        if self.csi_mode not in _CSI_MODES:
            raise ConfigurationError(f"csi_mode must be one of {_CSI_MODES}")
        channel_mod.check_offset(self.fo_cycles_per_sample)
        m = self.bits_per_vector
        if self.bits_per_trial < m or self.bits_per_trial % m:
            raise ConfigurationError(
                f"bits_per_trial must be a positive multiple of m={m}"
            )
        if self.trials_per_snr < 1:
            raise ConfigurationError("trials_per_snr must be >= 1")
        if self.target_bit_errors is not None and self.target_bit_errors < 1:
            raise ConfigurationError("target_bit_errors must be >= 1 or null")
        if self.block_symbols < 1:
            raise ConfigurationError("block_symbols must be >= 1")
        if self.fidelity == "waveform":
            per_frame = m * self.block_symbols
            if self.bits_per_trial % per_frame:
                raise ConfigurationError(
                    "waveform fidelity needs bits_per_trial divisible by "
                    f"m*block_symbols = {per_frame}"
                )
            txchain.check_frame_duration(*self.layouts())
        if self.fidelity == "waveform" or self.csi_mode == "pilot":
            self.layouts()[0].pilot_signal(self.nt)  # raises if it cannot separate nt

    def layouts(self):
        """The trial's FrameLayout and TransmissionLayout. A symbol trial reads only
        the pilot fields, so it gets the default frame and no TransmissionLayout."""
        if self.fidelity == "symbol":
            return txchain.FrameLayout(), None
        frame_layout = txchain.FrameLayout(data_symbols_per_frame=self.block_symbols)
        n_frames = self.bits_per_trial // (self.bits_per_vector * self.block_symbols)
        return frame_layout, txchain.TransmissionLayout(
            n_frames=n_frames, snr_block_symbols=self.snr_block_symbols)


@dataclass
class BerRecord:
    """Aggregated result of one SNR point."""

    scheme: str
    fidelity: str
    nt: int
    nr: int
    m: int
    k_factor_db: float
    pi_profile: str
    snr_db_target: float
    snr_db_estimated: float | None
    bits: int
    bit_errors: int
    rejected_vectors: int
    seed: int
    trial_errors: list = field(default_factory=list)
    trial_bits: list = field(default_factory=list)

    @property
    def aber(self):
        return self.bit_errors / self.bits if self.bits else float("nan")

    def aber_standard_error(self):
        """Monte Carlo standard error from the per-trial spread."""
        rates = np.asarray(self.trial_errors, dtype=np.float64) / np.asarray(
            self.trial_bits, dtype=np.float64
        )
        if rates.size < 2:
            return float("inf")
        return float(np.std(rates, ddof=1) / np.sqrt(rates.size))


def _trial_rng(master_seed, snr_db, trial):
    snr_key = int(round(1000.0 * float(snr_db)))
    key = (int(master_seed), snr_key if snr_key >= 0 else 2**64 - snr_key, int(trial))
    return np.random.default_rng(np.random.SeedSequence(key))


def run_simulation(config):
    """Sweep ``config.snr_grid_db``; returns one BerRecord per SNR point.

    Trials at each point run until the error target is met or the trial
    cap is reached. A rejected capture counts in ``rejected_vectors`` and
    adds no bits; the SNR estimates of the accepted trials are averaged
    in the linear domain.
    """
    constellation = modem.build_constellation(config.modulation_order)
    fading, imbalance = config.fading(), config.imbalance()
    if config.fidelity == "symbol":
        candidates = modem.candidate_vectors(config.scheme, config.nt, constellation)
        layout = config.layouts()[0] if config.csi_mode == "pilot" else None
        trial = functools.partial(
            _symbol_trial, config, constellation, candidates, layout, fading, imbalance)
    else:
        trial = functools.partial(
            _waveform_trial, config, constellation, *config.layouts(), fading, imbalance)
    records = []
    for snr_db in config.snr_grid_db:
        record = _new_record(config, snr_db)
        est_values = []
        for t in range(config.trials_per_snr):
            errs, bits, est, rejected = trial(_trial_rng(config.master_seed, snr_db, t), snr_db)
            if rejected:
                record.rejected_vectors += 1
                continue
            record.bit_errors += errs
            record.bits += bits
            record.trial_errors.append(errs)
            record.trial_bits.append(bits)
            if est is not None:
                est_values.append(est)
            if (
                config.target_bit_errors is not None
                and record.bit_errors >= config.target_bit_errors
            ):
                break
        if est_values:
            record.snr_db_estimated = float(10.0 * np.log10(np.mean(est_values)))
        records.append(record)
    return records


def _symbol_trial(config, constellation, candidates, layout, fading, imbalance, rng, snr_db):
    """One symbol-fidelity trial.

    Each block draws its channel, its data noise and, under pilot CSI, two
    observations of ``layout``'s pilot signal, whose ``pilot_window()`` the LS estimate
    averages as the decoder's does. Returns (bit_errors, bits_counted, None, False):
    symbol fidelity has no SNR estimate and no capture to reject.
    """
    noise_var = 10.0 ** (-snr_db / 10.0)
    bits = rng.integers(0, 2, size=config.bits_per_trial, dtype=np.uint8)
    sent_idx = modem.bits_to_indices(bits, config.bits_per_vector)
    vectors = candidates[sent_idx]
    pilots = layout.pilot_signal(config.nt).T if layout else None
    blocks, channels, observed = [], [], []
    for start in range(0, len(vectors), config.block_symbols):
        h = channel_mod.draw_channel(config.nr, config.nt, fading, imbalance, rng)
        blocks.append(channel_mod.propagate_symbols(
            vectors[start : start + config.block_symbols], h, noise_var, rng))
        channels.append((h, h))
        if layout:
            observed.append([channel_mod.propagate_symbols(pilots, h, noise_var, rng).T
                             for _ in range(2)])
    estimates = np.array(channels) if not layout else rxchain.ls_channel_estimate(
        np.array(observed)[..., layout.pilot_window()], pilots[: layout.pilot_seq_len])
    detected = rxchain.demodulate_frame(blocks, estimates, config.scheme, constellation)
    errors = int(np.bitwise_count(sent_idx ^ detected).sum())
    return errors, config.bits_per_trial, None, False


def _waveform_trial(config, constellation, frame_layout, tx_layout, fading, imbalance, rng, snr_db):
    """One waveform-fidelity trial.

    The decoder reads the channel's output as a block source, which draws
    the noise as it is read. Returns (bit_errors, bits_counted,
    estimated_snr_linear or None, rejected_flag).
    """
    bits = rng.integers(0, 2, size=config.bits_per_trial, dtype=np.uint8)
    tx = txchain.build_transmission(
        bits, config.scheme, config.nt, constellation, frame_layout, tx_layout
    )

    symbol_scale, x_max = tx.symbol_scale, tx.x_max
    h = channel_mod.draw_channel(config.nr, config.nt, fading, imbalance, rng)
    noise_var = symbol_scale**2 * 10.0 ** (-snr_db / 10.0)
    rx = channel_mod.propagate_waveform(tx, h, config.fo_cycles_per_sample, noise_var, rng)
    try:
        result = rxchain.decode_transmission(
            rx, frame_layout, tx_layout, config.nt, config.scheme,
            constellation, symbol_scale=symbol_scale,
        )
    except SyncRejection:
        return 0, 0, None, True
    errors = int(np.count_nonzero(result.bits != bits))
    est_linear = None
    if result.snr.valid:
        # The sounding section runs at the data peak; refer the estimate
        # back to the unit-energy symbol scale for comparability.
        est_linear = 10.0 ** (result.snr.snr_db / 10.0) / (x_max / symbol_scale) ** 2
    return errors, config.bits_per_trial, est_linear, False


def _new_record(config, snr_db):
    return BerRecord(
        scheme=config.scheme,
        fidelity=config.fidelity,
        nt=config.nt,
        nr=config.nr,
        m=config.bits_per_vector,
        k_factor_db=config.k_factor_db,
        pi_profile=config.pi_profile,
        snr_db_target=float(snr_db),
        snr_db_estimated=None,
        bits=0,
        bit_errors=0,
        rejected_vectors=0,
        seed=config.master_seed,
    )


def _format_cell(value):
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def write_csv(path, columns, rows):
    """Write ``columns`` and ``rows`` as CSV, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_format_cell(v) for v in row] for row in rows)
    return path


def export_csv(records, path):
    """Write records to the fixed, versioned CSV schema."""
    rows = ([CSV_SCHEMA_VERSION] + [getattr(r, c) for c in CSV_COLUMNS[1:]] for r in records)
    return write_csv(path, CSV_COLUMNS, rows)


# Parsers of the numeric CSV cells; an empty snr_db_estimated means no estimate.
_CSV_NUMBERS = {
    **dict.fromkeys(("nt", "nr", "m", "bits", "bit_errors", "rejected_vectors", "seed"), int),
    **dict.fromkeys(("k_factor_db", "snr_db_target", "aber"), float),
    "snr_db_estimated": lambda cell: float(cell) if cell else None,
}


def read_csv(path):
    """Read an exported CSV back into a list of per-row dicts.

    :class:`ConfigurationError` names the line and column of a cell that
    is missing or does not parse, and the line of a row with extra cells.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ConfigurationError(
                f"unexpected CSV columns {reader.fieldnames}, want {list(CSV_COLUMNS)}"
            )
        rows = []
        for raw in reader:
            if raw["schema_version"] != CSV_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"unsupported CSV schema version {raw['schema_version']!r}"
                )
            if None in raw:
                raise ConfigurationError(f"CSV line {reader.line_num} has more cells than columns")
            row = dict(raw)
            for key, parse in _CSV_NUMBERS.items():
                try:
                    row[key] = parse(raw[key])
                except (TypeError, ValueError):
                    cell = "no cell" if raw[key] is None else f"{raw[key]!r}, not a number"
                    raise ConfigurationError(
                        f"CSV line {reader.line_num}, column {key!r}: {cell}") from None
            rows.append(row)
        return rows


def save_config(config, path):
    """Serialize a SimConfig to JSON (Rayleigh stored as null K factor)."""
    data = asdict(config)
    data["snr_grid_db"] = list(config.snr_grid_db)
    if math.isinf(data["k_factor_db"]) and data["k_factor_db"] < 0:
        data["k_factor_db"] = None
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True))
    return path


def load_config(path):
    """Parse a SimConfig from JSON with named schema errors."""
    return fileio.build(SimConfig, fileio.read_json(path, "config"), "config")
