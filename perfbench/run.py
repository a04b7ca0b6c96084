#!/usr/bin/env python3
"""The hopfscf benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload expand_mix --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; hopfscf is imported from ./src.  The
run is a closed loop with one client: the next op starts when the previous one
returns.  It runs the seeded rounds of ops for --seconds (and at least the
first BATCH_ROUNDS rounds), then checks every op's output by an independent
route, and prints the input digest and properties, every metric with its
unit, and as its last line one JSON object.

--trace 0 reports the end-to-end metrics.  --trace 1 replays the batch once
under the per-layer tracer and once without it, reports the per-layer
metrics, checks the zero-work predictions, and writes the spans to
.perfbench/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

WORKLOADS = ("expand_mix", "ch_diagrams", "dense_group")
# The batch: the first BATCH_ROUNDS rounds, which every run completes however
# short --seconds is.  The gated timings are taken over the batch, whose op
# shapes are the same on every seed.
BATCH_ROUNDS = 16
# Rounds generated before the timed phase; a run that uses them all up stops.
ROUNDS_GENERATED = 64
SETUP_SAMPLES = 5
# Timings are reported at reference speed: the speed at which calibration_kernel
# takes REFERENCE_KERNEL_S (its time on an idle core of the 2-vCPU, 2.1 GHz VM
# the bounds were set on).  That VM's speed swings 1.7x within seconds, so each
# op is scaled by the kernel's time measured around it.
REFERENCE_KERNEL_S = 0.0004
CALIBRATION_SPAN = 4  # kernel samples taken on each side of an op
QUANTILE_BAND = 0.02  # op_p50_ms and op_p90_ms average the ranks within 2 % of theirs
END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Interpreter start, import of hopfscf and input generation, in a fresh process.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.generate(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_kernel() -> float:
    """Wall time of a fixed piece of pure-Python work: rational arithmetic and
    dict and tuple building, the mix hopfscf's own code runs."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        table[(i, i % 7)] = (acc, str(i))
    return time.perf_counter() - start


def speed_scales(kernel_times: list[float], count: int) -> list[float]:
    """Factor that brings op i's wall time to reference speed.

    kernel_times[i] is taken just before op i and kernel_times[count] after
    the last op; op i uses the median of the samples on either side of it.
    """
    span = CALIBRATION_SPAN
    return [
        REFERENCE_KERNEL_S / statistics.median(kernel_times[max(0, i - span + 1): i + span + 1])
        for i in range(count)
    ]


def measure_setup(workload: str, seed: int, samples: int) -> tuple[float, float]:
    """Median (raw, reference-speed) wall time of fresh processes that only set up."""
    raw, scaled = [], []
    for _ in range(samples):
        before = [calibration_kernel() for _ in range(CALIBRATION_SPAN)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload,
             str(seed), str(ROUNDS_GENERATED)],
            check=True, stdout=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - start
        after = [calibration_kernel() for _ in range(CALIBRATION_SPAN)]
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_KERNEL_S / statistics.median(before + after))
    return statistics.median(raw), statistics.median(scaled)


class Timed:
    """The outcome of one timed phase."""

    def __init__(self):
        self.ops = []
        self.outputs = []
        self.latencies = []  # wall time per op
        self.kernel_times = []  # calibration samples around the ops
        self.round_of = []  # round index per op
        self.batch_rss_kib = 0  # ru_maxrss when the batch was done

    def scaled(self) -> list[float]:
        scales = speed_scales(self.kernel_times, len(self.latencies))
        return [lat * s for lat, s in zip(self.latencies, scales)]


def timed_phase(wl, rounds, seconds: float, batch_rounds: int, tracer=None) -> Timed:
    """Run rounds in order until `seconds` have passed and the batch is done.

    An op that raises is kept with its exception as output; the loop goes on.
    """
    clock = time.perf_counter
    result = Timed()
    deadline = clock() + seconds
    for r, ops in enumerate(rounds):
        if r == batch_rounds:
            result.batch_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if r >= batch_rounds and clock() >= deadline:
            break
        for op in ops:
            if r >= batch_rounds and clock() >= deadline:
                break
            result.kernel_times.append(calibration_kernel())
            if tracer is not None:
                tracer.op = len(result.ops)
            start = clock()
            try:
                output = wl.execute(op)
            except (Exception, SystemExit) as exc:  # an op failure, counted by the checks
                output = exc
            result.latencies.append(clock() - start)
            result.ops.append(op)
            result.outputs.append(output)
            result.round_of.append(r)
    result.kernel_times.append(calibration_kernel())
    if not result.batch_rss_kib:
        result.batch_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def check_all(wl, timed: Timed) -> list[str]:
    """Failure reasons, one per failed op."""
    checker = wl.Checker()
    failures = []
    for op, output in zip(timed.ops, timed.outputs):
        if isinstance(output, BaseException):
            failures.append(f"{op.kind} {op.key}: raised {type(output).__name__}: {output}")
            continue
        try:
            reason = checker.check(op, output)
        except Exception as exc:  # a malformed output fails its op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{op.kind} {op.key}: {reason}")
    return failures


def band_quantile(values: list[float], q: float, half_width: float = QUANTILE_BAND) -> float:
    """The q-quantile, smoothed: the mean of the order statistics whose rank
    lies within half_width of q.

    Op costs cluster by shape, so a plain order statistic jumps across the gaps
    between clusters from one run to the next; the band mean moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(int((q - half_width) * n), n - 1)
    hi = max(int((q + half_width) * n), lo + 1)
    return statistics.mean(ordered[lo:hi])


def batch_timings(latencies: list[float], round_of: list[int], batch_rounds: int) -> dict:
    """wall_s, op_p50_ms and op_p90_ms over the batch's ops.

    wall_s is the mean, not the median, of the rounds' op times: round shapes
    are the same on every seed, so no round is an outlier to drop, and the
    mean averages the machine's speed over the whole batch.
    """
    rounds: dict[int, float] = {}
    batch_ms = []
    for lat, r in zip(latencies, round_of):
        if r < batch_rounds:
            rounds[r] = rounds.get(r, 0.0) + lat
            batch_ms.append(lat * 1e3)
    return {
        "wall_s": statistics.mean(rounds.values()),
        "op_p50_ms": band_quantile(batch_ms, 0.5),
        # the batch has 640 ops or more, so 64 or more lie beyond the 90th percentile
        "op_p90_ms": band_quantile(batch_ms, 0.9),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        batch_rounds: int = BATCH_ROUNDS, setup_samples: int = SETUP_SAMPLES) -> int:
    """One benchmark run; prints its report and returns the exit status.

    batch_rounds and setup_samples exist for the benchmark's own smoke tests.
    """
    if not (SRC / "hopfscf" / "__init__.py").is_file():
        print(f"error: no hopfscf sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import hopfscf
    import layers
    import workloads as wl

    rounds = wl.generate(workload, seed, ROUNDS_GENERATED)
    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"inputs=sha256:{wl.digest(rounds)}")

    if trace:
        tracer = layers.Tracer(hopfscf)
        with tracer.installed():
            traced = timed_phase(wl, rounds[:batch_rounds], 0.0, batch_rounds, tracer)
        plain = timed_phase(wl, rounds[:batch_rounds], 0.0, batch_rounds)
        traced_scaled = traced.scaled()
        metrics = tracer.metrics(
            sum(traced_scaled), sum(plain.scaled()),
            time_scale=sum(traced_scaled) / sum(traced.latencies),
        )
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"spans-{workload}-seed{seed}.csv.gz"
        tracer.write_spans(spans_path)
        print(f"trace spans={len(tracer.span_start)} file={spans_path.relative_to(ROOT)}")
        violations = layers.zero_work_violations(workload, metrics)
        zero = ", ".join(f"{layer}.*" for layer in layers.ZERO_WORK[workload])
        print(f"prediction zero work in {zero}: "
              + ("holds" if not violations else "BROKEN by " + ", ".join(violations)))
        attempted = traced.ops + plain.ops
        failures = check_all(wl, traced) + check_all(wl, plain)
        props = wl.input_properties(traced.ops)
    else:
        setup_raw, setup_s = measure_setup(workload, seed, setup_samples)
        timed = timed_phase(wl, rounds, seconds, batch_rounds)
        attempted = timed.ops
        failures = check_all(wl, timed)
        props = wl.input_properties(timed.ops)
        raw = batch_timings(timed.latencies, timed.round_of, batch_rounds)
        values = batch_timings(timed.scaled(), timed.round_of, batch_rounds)
        values["peak_rss_mb"] = timed.batch_rss_kib / 1024
        values["setup_s"] = setup_s
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        print(f"rounds run={max(timed.round_of) + 1} ops={len(timed.ops)} "
              f"median calibration kernel={statistics.median(timed.kernel_times) * 1e3:.4f} ms")
        print("raw " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f" setup_s={setup_raw:.6g}")

    print("input " + json.dumps(props, sort_keys=True))
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"metric ops {len(attempted)} count")
    print(f"metric failed_ops {len(failures)} count")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
