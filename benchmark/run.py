#!/usr/bin/env python3
"""sphgeo benchmark: one seeded workload, closed loop, checked outputs.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload enumerate-deep --seed 1 --seconds 15 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs the same ops untraced once and traced twice and reports the per-layer
metrics.  Reported times are corrected for the machine's speed (speed.py).  The last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".bench_out"  # relative to ROOT; git-ignored
SETUP_RUNS = 9  # fresh processes per run; setup_s is their median

# Timed in a fresh interpreter: import sphgeo, then build each solid the
# workload uses and its symmetry group once.  The speed probes run first, in
# the same process, and only the probe module is imported before timing.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
probes = [speed.probe() for _ in range(15)]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import sphgeo
from sphgeo import solids
for name in sys.argv[3:]:
    kind = solids.SolidKind(name)
    lo, hi = solids.ADMISSIBLE[kind]
    solids.symmetry_group(solids.build_solid(kind, (lo + hi) / 2))
print(repr(time.perf_counter() - t0), repr(speed.factor(probes)))
"""

# Exact counts that must repeat across two traced passes of one seed.
EXACT = ("calls", "solved", "crossings", "candidates")


def fail(msg: str) -> None:
    """Exit with code 2 and no result line."""
    print(f"benchmark: {msg}", file=sys.stderr)
    raise SystemExit(2)


def load_config() -> Dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_sphgeo() -> None:
    """Import sphgeo from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "sphgeo", "__init__.py")):
        fail(f"no sphgeo sources under {SRC}")
    sys.path.insert(0, SRC)
    import sphgeo
    if os.path.dirname(os.path.abspath(sphgeo.__file__)) != os.path.join(SRC, "sphgeo"):
        fail(f"imported sphgeo from {sphgeo.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# one pass over the ops


def run_pass(wl, ops: Sequence[Dict], call: Callable[[int, Callable], object]):
    """Closed loop: each op starts when the previous one returns.  Returns
    (outputs, per-op latencies, per-op speed factors, median speed factor);
    latencies exclude the speed probes that ran inside the op.  A raising op
    yields its exception as output."""
    outs: List[object] = []
    spans: List[Tuple[float, float]] = []
    gc.collect()
    with speed.Sampler() as sampler:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = call(i, lambda op=op: wl.run(op))
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            spans.append((t0, time.perf_counter()))
            outs.append(out)
    lat = [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in spans]
    factors = [sampler.factor(t0, t1) for t0, t1 in spans]
    return outs, lat, factors, sampler.median_factor()


def check_pass(wl, ops: Sequence[Dict], outs: Sequence[object]) -> List[Optional[str]]:
    """Per op: None when its output passes the workload's check, else why not."""
    reasons: List[Optional[str]] = []
    for op, out in zip(ops, outs):
        if isinstance(out, Exception):
            reasons.append(f"raised {type(out).__name__}: {out}")
            continue
        try:
            errs = wl.check(op, out)
        except Exception as exc:  # malformed output is a failed op
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        reasons.append("; ".join(errs) if errs else None)
    return reasons


def rerun_check(wl, ops: Sequence[Dict]) -> List[Optional[str]]:
    """cli-roundtrip only: re-run a few argv lists; output must be byte-identical."""
    from workloads import compare_bytes
    reasons = []
    for op, orig in wl.rerun_ops(ops):
        try:
            code = wl.run(op)
            argv = op["argv"]
            why = (f"exit code {code}" if code != 0 else
                   compare_bytes(orig, argv[argv.index("--out") + 1]))
        except Exception as exc:  # a failed re-run is counted, not fatal
            why = f"raised {type(exc).__name__}: {exc}"
        print(f"determinism re-run: {'ok' if why is None else 'FAILED: ' + why}")
        reasons.append(why)
    return reasons


def setup_seconds(wl) -> Tuple[float, float, float]:
    """Set-up seconds over fresh processes, each divided by the speed factor
    probed in that process: (median corrected, median raw, median factor)."""
    here = os.path.dirname(os.path.abspath(__file__))
    args = [sys.executable, "-c", SETUP_CODE, here, SRC, *wl.solid_names]
    raw: List[float] = []
    factors: List[float] = []
    for i in range(SETUP_RUNS + 1):  # the first one also warms the bytecode cache
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=False)
        if done.returncode != 0:
            fail(f"set-up process failed: {done.stderr.strip()}")
        if i:
            t, f = map(float, done.stdout.split())
            raw.append(t)
            factors.append(f)
    return (statistics.median(t / f for t, f in zip(raw, factors)),
            statistics.median(raw), statistics.median(factors))


def tail(lat: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above."""
    s = sorted(lat)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(wl, ops, seed) -> Tuple[Dict, int, int, bool]:
    setup, setup_raw, setup_f = setup_seconds(wl)
    outs, raw_lat, factors, run_f = run_pass(wl, ops, lambda i, fn: fn())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [t / f for t, f in zip(raw_lat, factors)]
    reasons = check_pass(wl, ops, outs)
    report_ops(ops, raw_lat, factors, reasons)
    if hasattr(wl, "rerun_ops"):
        reasons += rerun_check(wl, ops)
    failed = sum(r is not None for r in reasons)
    attempted = len(reasons)
    t_val, t_pct = tail(lat)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(ops) / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (t_val, "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{wl.name} seed={seed}: {len(ops)} timed ops, {sum(raw_lat):.3f} s busy "
          f"(closed loop, 1 process, 1 thread); speed factor median "
          f"{run_f:.4f}, set-up {setup_f:.4f}")
    print(f"  raw: setup_s {setup_raw:.6g}, ops_per_s {len(ops) / sum(raw_lat):.6g}, "
          f"op_p50_s {statistics.median(raw_lat):.6g}, op_tail_s {tail(raw_lat)[0]:.6g}")
    for name, (value, unit) in metrics.items():
        note = f"  (p{t_pct:.1f} of {len(lat)} ops)" if name == "op_tail_s" else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  fail_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    return metrics, attempted, failed, True


def exact_counts(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {f"{layer}.{k}": v for layer, row in totals.items()
            for k, v in row.items() if k in EXACT}


def per_layer(wl, ops, seed) -> Tuple[Dict, int, int, bool]:
    from tracing import EXTRAS, SELF_NAMES, Tracer

    outs, lat, factors, _ = run_pass(wl, ops, lambda i, fn: fn())
    plain_s = sum(t / f for t, f in zip(lat, factors))
    reasons = check_pass(wl, ops, outs)
    report_ops(ops, lat, factors, reasons)
    traces = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            outs, lat, factors, run_f = run_pass(wl, ops, tracer.run_op)
        finally:
            tracer.remove()
        reasons += check_pass(wl, ops, outs)
        traces.append((tracer.totals(), sum(t / f for t, f in zip(lat, factors)), run_f))
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    spans = os.path.join(ROOT, OUT_DIR, f"{wl.name}-seed{seed}.spans.tsv.gz")
    tracer.write(spans)

    (tot, traced_s, f), (tot2, _, _) = traces
    exact, exact2 = exact_counts(tot), exact_counts(tot2)
    repeat = exact == exact2
    if not repeat:
        diff = sorted(k for k in exact if exact[k] != exact2.get(k))
        print(f"exact counts differ between traced passes: {diff}")

    metrics: Dict[str, Tuple[float, str]] = {}
    for layer, row in tot.items():
        if layer == "op":
            continue
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.s"] = (row["s"] / f, "s")
        metrics[SELF_NAMES.get(layer, f"{layer}.self_s")] = (row["self_s"] / f, "s")
    for layer, (suffix, _) in EXTRAS.items():
        metrics[f"{layer}.{suffix}"] = (tot[layer][suffix], "count")
    solve = tot["finder.solve_sequence"]
    metrics["finder.closure_yield"] = (solve["solved"] / max(solve["calls"], 1), "ratio")
    metrics["trace.overhead_frac"] = (1.0 - plain_s / traced_s, "ratio")

    failed = sum(r is not None for r in reasons)
    print(f"{wl.name} seed={seed}: {len(ops)} ops run untraced once, traced twice "
          f"({plain_s:.3f} s vs {traced_s:.3f} s busy, speed-corrected); "
          f"exact counts repeat: {repeat}; spans in {os.path.relpath(spans, ROOT)}; "
          f"times below are raw / speed factor {f:.4f}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}} = {value:.6g} {unit}")
    return metrics, len(reasons), failed, repeat


def report_ops(ops, lat, factors, reasons) -> None:
    """One replayable line per op: its generated input, raw latency, speed
    factor and verdict."""
    from workloads import replay_input
    for i, (op, dt, f, why) in enumerate(zip(ops, lat, factors, reasons)):
        verdict = "ok" if why is None else f"FAILED: {why}"
        print(f"op {i} {json.dumps(replay_input(op))} {dt:.6f}s /{f:.4f} {verdict}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    config = load_config()
    import_sphgeo()
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.chdir(ROOT)
    work = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ops = wl.ops(random.Random(f"{wl.name}/{args.seed}"), args.seconds, work)
        mode = per_layer if args.trace else end_to_end
        metrics, attempted, failed, consistent = mode(wl, ops, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}
    if wanted != {k: u for k, (_, u) in metrics.items()}:
        fail("reported metrics and units do not match BENCHMARK.json")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
