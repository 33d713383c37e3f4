"""homnorm benchmark: closed-loop passes over one workload's operations.

Usage (from the repository root)::

    python3 bench/run.py --workload lattice --seed 1 --seconds 36 --trace 0

One client in one process and thread runs whole passes of the workload's
operation list, as many as fill ``--seconds`` on the reference machine; each
operation is timed alone and its result is checked outside the timed region.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` half as many passes each run twice,
untraced and then traced, and the metrics are the per-layer ones read from
the spans, which are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from hostspeed import calibrate, slowdown
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Pass length on the reference machine (Python 3.11, 2 CPUs); a run makes
# round(--seconds / this) passes.
NOMINAL_PASS_S = {"lattice": 5.0, "real": 9.0, "experiments": 5.0}
# No further pass starts after this long, so a run ends within 180 s even
# when the program has become much slower.
MAX_RUN_S = 120.0
# A slower operation is counted as failed (and still timed, never dropped).
DEADLINE_S = 15.0
# Set-up is timed in this many fresh interpreters; setup_s is the median.
SETUP_REPEATS = 5

# Per-layer time metrics: metric -> span name (self time, ms per pass).
LAYER_TIMES = {
    "optimize.min_int_ms": "optimize.min_int",
    "optimize.min_mod_ms": "optimize.min_mod",
    "optimize.min_real_ms": "optimize.min_real",
    "optimize.verify_ms": "optimize.verify",
    "optimize.report_ms": "optimize.report",
    "homology.decompose_ms": "homology.decompose",
    "homology.mod_ms": "homology.mod",
    "homology.classify_ms": "homology.classify",
    "hasse.scan_ms": "hasse.scan",
    "hasse.federer_ms": "hasse.federer",
    "hasse.sweep_ms": "hasse.sweep",
    "hasse.bijection_ms": "hasse.bijection",
    "hasse.emit_ms": "hasse.emit",
    "complexes.load_ms": "complexes.load",
}
BNB_SPANS = ("optimize.min_int", "optimize.min_mod")
HASSE_SPANS = ("hasse.scan", "hasse.federer", "hasse.sweep", "hasse.bijection")
# Per-layer counts per pass: metric -> (spans summed, count).
LAYER_COUNTS = {
    "optimize.min_int_calls": (("optimize.min_int",), "calls"),
    "optimize.min_int_nodes": (("optimize.min_int",), "nodes"),
    "optimize.min_mod_calls": (("optimize.min_mod",), "calls"),
    "optimize.min_mod_nodes": (("optimize.min_mod",), "nodes"),
    "optimize.minimizers": (BNB_SPANS, "minimizers"),
    "optimize.cap_hits": (BNB_SPANS, "cap_hits"),
    "optimize.min_real_calls": (("optimize.min_real",), "calls"),
    "lp.pivots": (("optimize.min_real",), "pivots"),
    "homology.decompose_calls": (("homology.decompose",), "calls"),
    "homology.mod_calls": (("homology.mod",), "calls"),
    "hasse.rows": (HASSE_SPANS, "rows"),
    "complexes.load_calls": (("complexes.load",), "calls"),
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs passes, times every operation and checks every result."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.untraced = Tracer(False)
        self.traced = Tracer(True)
        # Operation latencies in seconds at reference host speed, and the
        # untraced ones also as measured by the wall clock.
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.wall_latencies: list[float] = []
        self.layer_passes: list[dict] = []    # per traced pass: span totals
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_pass(self, docs, ops, tr) -> None:
        from ops import check, run_op  # imports homnorm, see main()
        first_span = len(tr.spans)
        cal = calibrate()
        for op in ops:
            self.attempted += 1
            tr.op += 1
            # Each CLI call is a fresh process: collect the previous
            # operation's garbage before the clock starts, not inside the
            # next operation.
            gc.collect()
            t0 = perf_counter()
            try:
                res = tr.call("op." + op.command, run_op, op, docs, tr)
            except Exception:
                res, problems = None, [traceback.format_exc(limit=3)]
            dt = perf_counter() - t0
            cal_after = calibrate()
            if tr.enabled:
                self.traced_latencies.append(dt / slowdown(cal, cal_after))
            else:
                self.latencies.append(dt / slowdown(cal, cal_after))
                self.wall_latencies.append(dt)
            cal = cal_after
            if res is not None:
                try:
                    problems = check(op, res, self.reference.get(op.case))
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            if problems:
                self.wrong += 1
                print(f"FAIL {op.case}: {'; '.join(problems)}", file=sys.stderr)
            elif dt > DEADLINE_S:
                print(f"SLOW {op.case}: {dt:.1f} s > {DEADLINE_S} s",
                      file=sys.stderr)
            if problems or dt > DEADLINE_S:
                self.failed += 1
        if tr.enabled:
            self.layer_passes.append(_span_totals(tr, first_span))


def _span_totals(tr, first: int) -> dict:
    """Self time (ms), calls and summed counts per span name."""
    out: dict[str, dict] = {}
    selfs = tr.self_times()
    for span, own in zip(tr.spans[first:], selfs[first:]):
        agg = out.setdefault(span.name, {"ms": 0.0, "incl_ms": 0.0,
                                         "calls": 0})
        agg["ms"] += own * 1000
        agg["incl_ms"] += span.duration * 1000
        agg["calls"] += 1
        for key, value in span.counts.items():
            agg[key] = agg.get(key, 0) + value
    return out


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    beyond = min(10, n - 1)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Runner, setup_s: float) -> dict:
    lat, wall = run.latencies, run.wall_latencies
    tail, pct, beyond = _tail(lat)
    print(f"latency_tail_ms is p{pct:.2f} of {len(lat)} samples "
          f"({beyond} beyond it); error_rate {run.failed / run.attempted}")
    print(f"wall clock: ops_per_s {len(wall) / sum(wall):.4f}, "
          f"latency_p50_ms {statistics.median(wall) * 1000:.4f}, "
          f"latency_tail_ms {_tail(wall)[0] * 1000:.4f}; host slowdown "
          f"{sum(wall) / sum(lat):.3f} against reference speed")
    return {
        "ops_per_s": _metric(len(lat) / sum(lat), "op/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": _metric(tail * 1000, "ms"),
        "success_rate": _metric(1 - run.failed / run.attempted, "ratio"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Runner) -> dict:
    """Per-pass layer metrics: times are medians over the traced passes;
    counts come from the first traced pass, which every same-seed run
    poses identically."""
    passes = run.layer_passes
    metrics = {
        metric: _metric(statistics.median(
            p.get(name, {}).get("ms", 0) for p in passes), "ms")
        for metric, name in LAYER_TIMES.items()}
    counts = {metric: sum(passes[0].get(name, {}).get(key, 0)
                          for name in names)
              for metric, (names, key) in LAYER_COUNTS.items()}
    metrics.update({metric: _metric(value, "count")
                    for metric, value in counts.items()})
    nodes = counts["optimize.min_int_nodes"] + counts["optimize.min_mod_nodes"]
    minimizers = counts["optimize.minimizers"]
    metrics["optimize.nodes_per_minimizer"] = _metric(
        nodes / minimizers if minimizers else 0.0, "ratio")
    overhead = (sum(run.traced_latencies) / sum(run.latencies) - 1) * 100
    metrics["trace.overhead_pct"] = _metric(overhead, "%")
    _print_layers(passes)
    return metrics


def _print_layers(passes: list[dict]) -> None:
    """Span table: calls and ms per pass (medians), and each span's share
    of all traced operation time."""
    names = sorted({name for p in passes for name in p})
    total_ms = sum(agg["ms"] for p in passes for agg in p.values())
    print(f"{'span':<22}{'calls':>8}{'self ms':>12}{'incl ms':>12}{'self %':>8}")
    for name in names:
        per_pass = [p.get(name, {"ms": 0.0, "incl_ms": 0.0}) for p in passes]
        calls = passes[0].get(name, {}).get("calls", 0)
        own = statistics.median(agg["ms"] for agg in per_pass)
        incl = statistics.median(agg["incl_ms"] for agg in per_pass)
        share = 100 * sum(agg["ms"] for agg in per_pass) / total_ms
        print(f"{name:<22}{calls:>8}{own:>12.1f}{incl:>12.1f}{share:>8.1f}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import plus document generation."""
    probe = os.path.join(HERE, "probe_setup.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, probe, workload, str(seed)],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "homnorm", "__init__.py")):
        print(f"error: no homnorm sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    sys.path.insert(0, SRC)
    from workloads import build  # imports homnorm, so after the path check

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["answers"]
    # A fixed number of whole passes keeps the operation mix, and so the
    # rank of every percentile, the same on every run.
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)
    run = Runner(reference)
    start = perf_counter()
    for pass_no in range(passes):
        docs, ops = build(args.workload, args.seed, pass_no)
        run.run_pass(docs, ops, run.untraced)
        if args.trace:
            run.run_pass(docs, ops, run.traced)
        if perf_counter() - start > MAX_RUN_S:
            print(f"stopping after {pass_no + 1} of {passes} passes: "
                  f"over {MAX_RUN_S} s", file=sys.stderr)
            break
    print(f"workload {args.workload} seed {args.seed}: {pass_no + 1} passes, "
          f"{len(run.latencies)} timed operations, "
          f"{perf_counter() - start:.1f} s")

    if args.trace:
        metrics = per_layer(run)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        run.traced.dump(os.path.join(
            out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(run, setup_s)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
