"""smlink link benchmark: two workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload symbol_sweep --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Workloads are ``symbol_sweep`` and ``chain_and_bounds``, the second made
of the parts ``waveform_link``, ``capture_loopback`` and ``bound_fit``
(see ``workloads.py`` for what each runs and why); ``all`` runs each
workload in its own process and prints one table.

One process, one closed-loop client: each iteration starts when the
previous one has ended and been checked. Iteration ``i`` gets inputs
made from ``(seed, i)`` only. BLAS runs one thread. The package is
imported from ``src/`` of the checkout; nothing is installed.

``--trace 0`` takes about ``--seconds`` from launch to exit. It first
times the set-up of five fresh processes, each from its launch through
imports, configs, tables and warm-up to the point where the first
iteration would start (``setup_s`` is their median). It then iterates
until the next iteration would end after ``--seconds`` and reports
``wall_s`` (median iteration time; the sample count is printed) and
``peak_rss_mb`` (peak resident memory of this process).
``bits_per_s`` (payload bits per timed second, where the workload or
part carries payload), each part's median seconds and ``failed_ratio``
are printed too. A failed operation is an exception, a sync rejection
or a failed correctness check; ``attempted`` and ``failed`` in the
result line count operations.

``--trace 1`` runs a fixed number of iterations untraced and then the
same inputs traced (``layertrace.py``), and reports per-layer metrics per
traced iteration, the tracing overhead (traced minus untraced median
iteration time) and the share of traced time covered by named spans.
Its counts depend only on the seed.

Every run prints a manifest line and writes its full result to
``perfbench/out/``; the last line of standard output is the JSON result.
"""

import time

START = time.perf_counter()  # before the imports, which set-up includes

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

BLAS_THREADS = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("symbol_sweep", "chain_and_bounds")
PART_NAMES = {"chain_and_bounds": ("waveform_link", "capture_loopback", "bound_fit")}
SETUP_PROBES = 5
MIN_ITERATIONS = 3
EXIT_SECONDS = 1.0  # kept free after the last iteration for close-down
TRACE_ITERATIONS = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """Commit of the checkout, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # else git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def manifest(args, workloads_mod):
    import numpy
    import scipy
    import smlink
    from smlink import kernels

    refs_blob = Path(workloads_mod.REFERENCES_PATH).read_bytes()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "smlink": smlink.__version__,
        "backend": kernels.BACKEND,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "definitions_sha256": workloads_mod.definitions_hash(),
        "references_sha256": hashlib.sha256(refs_blob).hexdigest(),
        "client": "closed loop, 1 client, 1 process",
    }


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, problems):
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems[: max(0, 20 - len(self.problems))])


def run_iteration(wl, i, tally, tracer=None):
    """Prepare, time and check iteration ``i``; returns (seconds, output)."""
    inputs = wl.prepare(i)
    if tracer is not None:
        tracer.iteration = i
    t0 = time.perf_counter()
    try:
        output = wl.run(inputs)
    except Exception as exc:  # a failed operation: count it and go on
        elapsed = time.perf_counter() - t0
        tally.add(wl.ops_per_iteration, [f"iteration {i}: {type(exc).__name__}: {exc}"]
                  * wl.ops_per_iteration)
        return elapsed, None
    finally:
        if tracer is not None:
            tracer.iteration = None
    elapsed = time.perf_counter() - t0
    tally.add(wl.ops_per_iteration, wl.check(inputs, output))
    return elapsed, output


def setup_probes(args):
    """Set-up seconds of fresh processes, from launch to first iteration."""
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", repr(t0)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        values.append(float(proc.stdout.split()[-1]))
    return values


def measure(args, wl):
    """Set-up probes, then closed-loop iterations to ``--seconds`` from launch."""
    probes = setup_probes(args)
    deadline = START + args.seconds - EXIT_SECONDS
    tally = Tally()
    times, loop_times, bits, part_bits = [], [], 0, Counter()
    i = 0
    # an iteration starts only if one of median length (prepare and check
    # included) still ends by the deadline
    while i < MIN_ITERATIONS or time.perf_counter() + statistics.median(loop_times) <= deadline:
        t0 = time.perf_counter()
        elapsed, output = run_iteration(wl, i, tally)
        loop_times.append(time.perf_counter() - t0)
        times.append(elapsed)
        if output is not None:
            bits += wl.bits(output) or 0
            if hasattr(wl, "part_bits"):
                part_bits.update({k: v for k, v in wl.part_bits(output).items() if v})
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.close()
    metrics = {
        "setup_s": statistics.median(probes),
        "wall_s": statistics.median(times),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "iterations": len(times),
        "iteration_s": times,
        "setup_probes_s": probes,
        "bits_per_s": bits / sum(times) if bits else None,
        "failed_ratio": tally.failed / tally.attempted,
    }
    for part, seconds in getattr(wl, "part_seconds", {}).items():
        if not seconds:  # every iteration failed before this part
            continue
        extra[f"{part}.wall_s"] = statistics.median(seconds)
        if part_bits[part]:
            extra[f"{part}.bits_per_s"] = part_bits[part] / sum(seconds)
    return metrics, extra, tally


def measure_traced(args, wl, layer_names):
    """Untraced then traced runs of the same iterations; per-layer metrics."""
    import layertrace

    tally = Tally()
    untraced = [run_iteration(wl, i, tally)[0] for i in range(TRACE_ITERATIONS)]
    tracer = layertrace.Tracer(run_id=f"{args.workload}-seed{args.seed}")
    tracer.install()
    try:
        traced = [run_iteration(wl, i, tally, tracer)[0] for i in range(TRACE_ITERATIONS)]
    finally:
        tracer.uninstall()
        wl.close()
    metrics = layertrace.layer_metrics(tracer, TRACE_ITERATIONS, layer_names)
    covered = tracer.root_seconds()
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.span_coverage"] = min(covered[i] / t for i, t in enumerate(traced))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
    extra = {"iterations": TRACE_ITERATIONS, "untraced_s": untraced, "traced_s": traced}
    return metrics, extra, tally


def run_all(args):
    """Each workload in its own process; one table, one combined result."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary = next(json.loads(line[8:]) for line in lines if line.startswith("summary "))
        rows.append((name, summary))
        rows.extend((f"  {part}", {"wall_s": summary[f"{part}.wall_s"],
                                   "bits_per_s": summary.get(f"{part}.bits_per_s")})
                    for part in PART_NAMES.get(name, ()) if f"{part}.wall_s" in summary)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if args.trace == 0:
        print(f"{'workload':<18}{'setup_s':>10}{'wall_s':>10}{'n':>4}{'bits_per_s':>13}"
              f"{'peak_rss_mb':>13}{'failed_ratio':>14}")
        for name, s in rows:
            bps = f"{s['bits_per_s']:.4g}" if s["bits_per_s"] else "-"
            if "setup_s" not in s:  # a part of the workload above it
                print(f"{name:<18}{'-':>10}{s['wall_s']:>10.4f}{'':>4}{bps:>13}{'-':>13}{'-':>14}")
                continue
            print(f"{name:<18}{s['setup_s']:>10.4f}{s['wall_s']:>10.4f}{s['iterations']:>4}"
                  f"{bps:>13}{s['peak_rss_mb']:>13.1f}{s['failed_ratio']:>14.4g}")
        print("units: setup_s s, wall_s s (median of n iterations), bits_per_s bit/s, "
              "peak_rss_mb MB, failed_ratio failed/attempted")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    # before numpy is imported, here or in the child processes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "smlink" / "__init__.py").is_file():
        print(f"error: no smlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.load_references(), OUT_DIR)
    if args.setup_probe is not None:
        print(f"setup_probe_s {time.time() - args.setup_probe!r}")
        wl.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values, extra, tally = measure_traced(args, wl, [name for name, _ in layer])
        units = dict(layer)
    else:
        values, extra, tally = measure(args, wl)
        units = dict(END_TO_END)
    run_manifest = manifest(args, workloads)
    print(f"workload {args.workload}  seed {args.seed}  backend {run_manifest['backend']}  "
          f"iterations {extra['iterations']}")
    if args.trace:
        print(f"  traced {statistics.median(extra['traced_s']):.4f} s vs untraced "
              f"{statistics.median(extra['untraced_s']):.4f} s per iteration (median); "
              f"named spans cover {values['trace.span_coverage']:.2%} of traced time")
    else:
        print(f"  setup_s      {values['setup_s']:.4f} s   (median of {SETUP_PROBES} fresh processes)")
        print(f"  wall_s       {values['wall_s']:.4f} s   (median of {extra['iterations']} iterations)")
        if extra["bits_per_s"]:
            print(f"  bits_per_s   {extra['bits_per_s']:.6g} bit/s")
        for part in PART_NAMES.get(args.workload, ()):
            if f"{part}.wall_s" not in extra:
                continue
            bps = extra.get(f"{part}.bits_per_s")
            print(f"    {part:<17} {extra[f'{part}.wall_s']:.4f} s"
                  + (f", {bps:.6g} bit/s" if bps else ""))
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}", file=sys.stderr)
    print("manifest " + json.dumps(run_manifest, sort_keys=True))
    summary = dict(values, **{k: v for k, v in extra.items() if not isinstance(v, list)})
    print("summary " + json.dumps(summary, sort_keys=True))
    (OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"manifest": run_manifest, "metrics": values, "extra": extra,
                    "attempted": tally.attempted, "failed": tally.failed,
                    "problems": tally.problems}, indent=1, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
