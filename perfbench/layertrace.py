"""Span tracer that times the smlink layers from outside the package.

The tracer replaces public functions with timing wrappers at module
attribute level. The package calls across modules through module
attributes (``modem.sm_ml_detect_batch``, ``channel_mod.awgn``) and within
a module through its globals, which are the same attributes, so one
``setattr`` per function catches both. Names a module binds with
``from ... import`` are separate attributes and are wrapped in the
importing module too (``rxchain.rrc_taps``); their spans carry the
defining module's name.

Each span records its name, start, end, parent span and the id of the
iteration it belongs to, and stays in memory until the run ends. A
span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
Count functions attached to a wrapper record work done at the same
boundary (vectors detected, samples drawn, bytes written).
"""

import functools
import inspect
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from smlink import analysis, channel, cli, harness, kernels, modem, rxchain, txchain


def _kernel_sm(counts, args, kwargs, result):
    y, h, points = args
    counts["kernels.sm_detect_min_indices.vectors"] += len(y)
    counts["kernels.sm_detect_min_indices.metric_evals"] += len(y) * h.shape[1] * len(points)


def _kernel_generic(counts, args, kwargs, result):
    y, hx = args
    counts["kernels.detect_min_indices.vectors"] += len(y)
    counts["kernels.detect_min_indices.metric_evals"] += len(y) * len(hx)


def _sm_modulate(counts, args, kwargs, result):
    counts["modem.sm_modulate.vectors"] += result[1].shape[0]


def _smx_modulate(counts, args, kwargs, result):
    counts["modem.smx_modulate.vectors"] += result.shape[0]


def _awgn(counts, args, kwargs, result):
    counts["channel.awgn.samples"] += result.size


def _propagate_waveform(counts, args, kwargs, result):
    counts["channel.propagate_waveform.samples"] += result.size


def _pulse_shape(counts, args, kwargs, result):
    counts["txchain.pulse_shape.samples"] += result.size


def _assemble(counts, args, kwargs, result):
    counts["txchain.data_samples"] += result.sections["data"][1]
    counts["txchain.total_samples"] += result.samples.shape[1]


def _write_waveform(counts, args, kwargs, result):
    tx = args[1]
    # int16 I and Q per complex sample, plus the JSON sidecar
    counts["txchain.write_waveform.bytes"] += 4 * tx.samples.size + os.path.getsize(result)


def _detect_sync(counts, args, kwargs, result):
    counts["rxchain.detect_sync.accepted"] += 1


def _estimate_snr(counts, args, kwargs, result):
    counts["rxchain.estimate_snr.samples"] += args[0].size


def _union_bound(counts, args, kwargs, result):
    candidates, h_stack, snr_grid_db = args[:3]
    n_draws = h_stack.shape[0] if h_stack.ndim == 3 else 1
    counts["analysis.union_bound_aber_for_channels.pair_evals"] += (
        n_draws * len(candidates) ** 2 * len(snr_grid_db)
    )


def _q_function(counts, args, kwargs, result):
    counts["analysis.q_function.evals"] += result.size


_FIT_SIGNATURE = inspect.signature(analysis.fit_rician)


def _fit_rician(counts, args, kwargs, result):
    bound = _FIT_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    counts["analysis.fit_rician.iterations"] += result.iterations
    counts["analysis.fit_rician.converged"] += result.iterations < bound.arguments["max_iterations"]


def _run_simulation(counts, args, kwargs, result):
    for record in result:
        counts["harness.trials"] += len(record.trial_bits) + record.rejected_vectors
        counts["harness.bits"] += record.bits


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _cli_main(counts, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    ns = cli.build_parser().parse_args(argv)
    if ns.command == "encode":
        prefix = os.path.abspath(ns.out)
        folder, stem = os.path.split(prefix)
        written = [os.path.join(folder, f) for f in os.listdir(folder)
                   if f.startswith(stem + "_")]
        counts["cli.bytes_read"] += _file_bytes([ns.config, ns.bits])
        counts["cli.bytes_written"] += _file_bytes(written)
    elif ns.command == "decode":
        read = [*ns.capture, ns.meta] + ([ns.reference_bits] if ns.reference_bits else [])
        counts["cli.bytes_read"] += _file_bytes(read)
        counts["cli.bytes_written"] += _file_bytes([ns.out, ns.report])


# (module, attribute, count function or None). Functions reached only
# through a wrapped caller still cost time: it lands in that caller's
# self time.
TRACED = (
    (kernels, "sm_detect_min_indices", _kernel_sm),
    (kernels, "detect_min_indices", _kernel_generic),
    (modem, "sm_modulate", _sm_modulate),
    (modem, "smx_modulate", _smx_modulate),
    (modem, "sm_ml_detect_batch", None),
    (modem, "ml_detect_batch", None),
    (modem, "bits_to_indices", None),
    (modem, "indices_to_bits", None),
    (modem, "candidate_vectors", None),
    (channel, "draw_channel", None),
    (channel, "draw_channels", None),
    (channel, "propagate_symbols", None),
    (channel, "propagate_waveform", _propagate_waveform),
    (channel, "awgn", _awgn),
    (harness, "run_simulation", _run_simulation),
    (txchain, "pilot_matrix", None),
    (txchain, "rrc_taps", None),
    (txchain, "build_frame", None),
    (txchain, "pulse_shape", _pulse_shape),
    (txchain, "assemble_transmission", _assemble),
    (txchain, "quantize_i16", None),
    (txchain, "dequantize_i16", None),
    (txchain, "write_waveform", _write_waveform),
    (rxchain, "rrc_taps", None),
    (rxchain, "pilot_matrix", None),
    (rxchain, "decode_transmission", None),
    (rxchain, "detect_sync", _detect_sync),
    (rxchain, "estimate_snr", _estimate_snr),
    (rxchain, "matched_filter_downsample", None),
    (rxchain, "estimate_fo", None),
    (rxchain, "correct_fo", None),
    (rxchain, "pulse_gain_compensation", None),
    (rxchain, "ls_channel_estimate", None),
    (rxchain, "demodulate_frame", None),
    (analysis, "union_bound_aber", None),
    (analysis, "union_bound_aber_for_channels", _union_bound),
    (analysis, "q_function", _q_function),
    (analysis, "fit_rician", _fit_rician),
    (cli, "main", _cli_main),
)


def _span_name(fn, attr):
    # The defining module names the span, the attribute names the
    # function: kernels.detect_min_indices is an alias on the numpy path.
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Collects spans and counts while ``iteration`` is not None."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.iteration = None
        self.spans = []  # [name, start, end, parent index, iteration]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def install(self):
        for module, attr, count in TRACED:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, _span_name(original, attr), count))
            self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.iteration]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def layer_totals(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return totals

    def root_seconds(self):
        """Seconds covered by top-level spans, per iteration."""
        covered = defaultdict(float)
        for name, start, end, parent, iteration in self.spans:
            if parent < 0:
                covered[iteration] += end - start
        return covered

    def write(self, path):
        """Write every span, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start_s", "end_s", "parent", "iteration"]}, fh)
            fh.write("\n")
            for name, start, end, parent, iteration in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, iteration]) + "\n")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, n_iterations, names):
    """Per-iteration values of the named per-layer metrics.

    ``names`` are ``<module>.<function>.<stat>`` with stat ``calls``,
    ``self_s`` or ``total_s``, or a count recorded by a count function,
    or one of the derived ratios below. A layer a workload never enters
    reads 0 (a ratio with no attempts reads 0 too).
    """
    totals = tracer.layer_totals()
    c = tracer.counts
    derived = {
        "txchain.data_sample_fraction": _ratio(c["txchain.data_samples"], c["txchain.total_samples"]),
        "rxchain.sync_accept_ratio": _ratio(c["rxchain.detect_sync.accepted"],
                                            totals["rxchain.detect_sync"]["calls"]),
        "analysis.fit_rician.converged_ratio": _ratio(c["analysis.fit_rician.converged"],
                                                      totals["analysis.fit_rician"]["calls"]),
    }
    out = {}
    for name in names:
        function, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif stat in ("calls", "total_s", "self_s") and function in totals:
            out[name] = totals[function][stat] / n_iterations
        else:
            out[name] = c[name] / n_iterations
    return out
