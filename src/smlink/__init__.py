"""smlink: link-level simulator and analysis toolkit for spatial
modulation (SM) and spatial multiplexing (SMX) MIMO.

Modules:

* :mod:`smlink.modem`    -- bit mapping, constellations, ML detection.
* :mod:`smlink.layout`   -- frame and transmission layouts, the ``Chain``.
* :mod:`smlink.txchain`  -- frames, pulse shaping, transmission format.
* :mod:`smlink.channel`  -- Rician/Rayleigh fading with power imbalance.
* :mod:`smlink.rxchain`  -- sync, SNR/FO/channel estimation, demodulation.
* :mod:`smlink.analysis` -- ABER union bound, Rice fitting.
* :mod:`smlink.specfun`  -- the Rice fit's Bessel ratio and Poisson sums.
* :mod:`smlink.harness`  -- Monte Carlo sweep (``run_simulation``, the one
  sweep entry for both fidelities), configs, CSV persistence.
* :mod:`smlink.kernels`  -- chunked numpy ML detection kernels.
* :mod:`smlink.fileio`   -- the JSON reader and field checker.
"""

__version__ = "0.1.0"

from .channel import FadingModel, PowerImbalance, draw_channel, imbalance_profile
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    FramingError,
    RangeError,
    SmlinkError,
    SyncRejection,
)
from .modem import build_constellation, complexity_report, receiver_complexity
from .harness import SimConfig, load_config, run_simulation

__all__ = [
    "__version__",
    "FadingModel",
    "PowerImbalance",
    "draw_channel",
    "imbalance_profile",
    "build_constellation",
    "complexity_report",
    "receiver_complexity",
    "SimConfig",
    "load_config",
    "run_simulation",
    "SmlinkError",
    "ConfigurationError",
    "DegenerateInputError",
    "DimensionError",
    "FramingError",
    "RangeError",
    "SyncRejection",
]
