#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end metrics, a per-layer ledger.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload churn_mixed --repeats 7 --seed 11
    python3 bench/run.py --quick               # 1/20 sizes, one repeat (smoke)
    python3 bench/run.py --selfcheck           # two sets; fail if they disagree

    # the form the driver uses: one workload, one mode, one JSON line last
    python3 bench/run.py --workload bulk_stream --seed 3 --seconds 15 --trace 0

End-to-end numbers come only from untraced runs.  Each repeat is a fresh
child process that imports the stack, runs a 1/20-size warm-up, builds
the world (all of that is ``setup_s``) and then times one run; the parent
reports medians with quartiles and sample counts.  ``--trace 1`` runs the
workload once more with telemetry on and bench-side spans around the
public entry points (see spans.py), plus the isolated probes (probes.py),
and reports the per-layer metrics.  Metric names, units and bounds are
read from ``BENCHMARK.json`` -- the one place they are defined.

Nothing under ``src/`` is modified; see README.md in this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()   # set-up time is counted from here, in every child

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from stats import quantile, summarize, tail  # noqa: E402

WORKLOAD_NAMES = ("churn_mixed", "bulk_stream", "media_fault",
                  "loopback_transfer", "sharded_world")
DEFAULT_SEED = 7          #: seed 11 is held out for later claims (README.md)
DEFAULT_REPEATS = 5
MIN_DRIVER_REPEATS = 3    #: a slow box gets fewer repeats, never fewer than this
MAX_DRIVER_REPEATS = 8
WARMUP_FRACTION = 1 / 20
QUICK_FRACTION = 1 / 20
CHILD_TIMEOUT_S = 170
#: modules whose kernel-handler time is a named per-layer metric
LEDGER_MODULES = ("sim", "netsim", "host", "tko", "mechanisms", "mantts", "core")


class BenchError(RuntimeError):
    """A child process failed or the benchmark cannot run here."""


def load_contract() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


# ======================================================================
# child side: one process, one measurement
# ======================================================================
def _latency(samples: List[float], errors: List[str], full_size: bool) -> Dict[str, float]:
    """p50 over the samples that took any time, p99 over all of them.

    Implicit-establishment connections connect in zero simulated time by
    design; a median over them would be a count of classes, not a latency.
    """
    positive = sorted(x for x in samples if x > 0)
    p99, used = tail(samples, 0.99)
    if used != 0.99 and full_size:
        errors.append(f"only {len(samples)} latency samples: p99 needs 10 beyond it")
    return {"latency_p50_ms": quantile(positive, 0.50) if positive else 0.0,
            "latency_p99_ms": p99, "latency_tail_percentile": used or 1.0,
            "latency_samples": len(samples)}


def child_run(name: str, seed: int, fraction: float, traced: bool) -> Dict[str, Any]:
    """Set up (import, warm up, build), time one run, validate it."""
    import workloads

    cls = workloads.WORKLOADS[name]
    warm = cls(seed, workloads.scaled(name, fraction * WARMUP_FRACTION))
    warm.run()
    warm.outcome()
    if traced:
        import spans

        recorder = spans.activate()   # before the build: sessions bind sends
    size = workloads.scaled(name, fraction)
    world = cls(seed, size)
    if traced:
        world.trace()
    setup_s = time.perf_counter() - _T0

    w0 = time.perf_counter()
    world.run()
    wall_s = time.perf_counter() - w0

    out = world.outcome()
    out.update(_latency(out.pop("latency_ms"), out["errors"], fraction >= 1.0))
    out.setdefault("wall_s", wall_s)
    out["setup_s"] = setup_s
    out["size"] = size
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          + out.pop("worker_maxrss_kb", 0.0)) / 1024.0
    if traced:
        out["trace"] = recorder.finish()
    return out


def child_serial(seed: int, fraction: float) -> Dict[str, Any]:
    """The serial reference run of ``sharded_world`` (identity + wall)."""
    import workloads

    world = workloads.ShardedWorld(seed, workloads.scaled("sharded_world", fraction))
    return world.serial_reference()


def child_main(args) -> int:
    mode, name = args.child, args.workload[0]
    if mode == "probes":
        import probes

        result: Dict[str, Any] = probes.run_all(args.fraction)
    elif mode == "serial":
        result = child_serial(args.seed, args.fraction)
    else:
        result = child_run(name, args.seed, args.fraction, traced=(mode == "traced"))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# ======================================================================
# parent side: spawn children, reduce, report
# ======================================================================
def spawn(mode: str, name: str, seed: int, fraction: float) -> Dict[str, Any]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(seed), "--fraction", repr(fraction)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} ({mode}) exceeded {CHILD_TIMEOUT_S}s")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name} ({mode}) child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_runs(name: str, seed: int, fraction: float,
               repeats: Optional[int], seconds: Optional[float]) -> List[Dict[str, Any]]:
    """Timed repeats, each in a fresh child.

    Give ``repeats`` for a fixed count, or ``seconds`` to keep repeating
    until the timed sections add up to that long (the driver's form).
    """
    runs: List[Dict[str, Any]] = []
    while True:
        runs.append(spawn("timed", name, seed, fraction))
        walls = [r["wall_s"] for r in runs]
        if repeats is not None:
            if len(runs) >= repeats:
                return runs
        elif len(runs) >= MAX_DRIVER_REPEATS or (
                len(runs) >= MIN_DRIVER_REPEATS
                and sum(walls) + statistics.median(walls) / 2 >= seconds):
            return runs


#: reduced as the median of the repeats, with quartiles and spread
REPEATED = ("setup_s", "wall_s", "peak_rss_mb",
            "latency_p50_ms", "latency_p99_ms", "goodput_mbps")


def reduce_runs(name: str, seed: int, fraction: float,
                runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a set of timed runs and reduce it to the end-to-end metrics."""
    errors = [e for r in runs for e in r["errors"]]
    first = runs[0]
    if first["sim_digest"] and any(r["sim_digest"] != first["sim_digest"] for r in runs):
        errors.append("simulated results differ between repeats of one seed")
    if name == "sharded_world":
        serial = spawn("serial", name, seed, fraction)
        if serial["digest"] != first["identity_digest"]:
            errors.append("sharded run differs from its serial reference")
    for r in runs:
        r["goodput_mbps"] = r["payload_bits"] / r["clock_s"] / 1e6
    rows = {key: summarize([r[key] for r in runs]) for key in REPEATED}
    metrics = {key: rows[key]["median"] for key in REPEATED}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["failed_frac"] = failed / attempted
    return {"workload": name, "metrics": metrics, "rows": rows,
            "attempted": attempted, "failed": failed, "errors": errors,
            "repeats": len(runs), "size": first["size"], "first_run": first}


def measure_untraced(name: str, seed: int, fraction: float = 1.0,
                     repeats: Optional[int] = None,
                     seconds: Optional[float] = None) -> Dict[str, Any]:
    return reduce_runs(name, seed, fraction,
                       timed_runs(name, seed, fraction, repeats, seconds))


def measure_traced(name: str, seed: int, fraction: float = 1.0,
                   base: Optional[Dict[str, Any]] = None,
                   probes: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """One counted untraced run, one traced run, the probes: per-layer metrics.

    ``base`` (an untraced run of the same workload, seed and size) and
    ``probes`` may be handed in by a caller that already has them.
    """
    import spans

    if base is None:
        base = spawn("timed", name, seed, fraction)
    traced = spawn("traced", name, seed, fraction)
    errors = list(base["errors"]) + list(traced["errors"])
    layer: Dict[str, float] = dict(base["counters"])
    wall = base["wall_s"]
    layer["sim.events_per_s"] = layer["sim.events"] / wall

    traces = [traced["trace"]] + traced.get("worker_traces", [])
    handlers: Dict[str, List[float]] = {}
    all_spans: List[Any] = []
    for k, tr in enumerate(traces):
        for h, (count, seconds) in tr["handlers"].items():
            row = handlers.setdefault(h, [0, 0.0])
            row[0] += count
            row[1] += seconds
        offset = len(all_spans)   # keep parent links valid after merging
        all_spans += [(n, t0, t1, p + offset if p >= 0 else -1, k)
                      for n, t0, t1, p in tr["spans"]]
    ledger = spans.handler_ledger(handlers)
    for module in LEDGER_MODULES:
        layer[f"{module}.handler_s"] = ledger["by_module"].get(module, 0.0)
    # time the kernels spent running: the traced wall, or for shard
    # workers their wall minus what they spent blocked on the barrier
    busy = traced["wall_s"]
    if "worker_wait_s" in traced:
        busy = sum(max(0.0, traced["wall_s"] - w) for w in traced["worker_wait_s"])
    layer["sim.self_s"] = max(0.0, busy - ledger["total_s"])
    layer["unites.ledger_unattributed_frac"] = (
        ledger["unattributed_s"] / ledger["total_s"] if ledger["total_s"] else 0.0)
    layer["unites.trace_overhead_frac"] = traced["wall_s"] / wall - 1.0
    frames = layer.get("netsim.frames", 0.0)
    layer["netsim.us_per_frame"] = (
        layer["netsim.handler_s"] / frames * 1e6 if frames else 0.0)
    gauges = [tr["gauges"] for tr in traces if tr["gauges"]]
    if gauges:
        # timers that died before firing: killed in the wheel, or skipped
        # as cancelled heap tops (ratio = skipped / (skipped + dispatched))
        events = layer["sim.events"]
        ratio = statistics.mean(g.get("kernel_lazy_deletion_ratio", 0.0) for g in gauges)
        dead = sum(g.get("kernel_wheel_cancelled_total", 0.0) for g in gauges) \
            + events * ratio / (1.0 - ratio)
        layer["sim.timers_cancelled_frac"] = dead / (dead + events)

    plain = [s[:4] for s in all_spans]
    self_times = spans.self_times(plain)
    opens = sorted(spans.durations_us(plain, "mantts.open"))
    if opens:
        layer["mantts.open_us_p50"] = quantile(opens, 0.50)
        layer["mantts.open_us_p99"] = tail(opens, 0.99)[0]
    sends = spans.durations_us(plain, "transport.fabric_send")
    if sends:
        layer["transport.fabric_send_us"] = statistics.median(sends)

    if name == "sharded_world":
        serial = spawn("serial", name, seed, fraction)
        if serial["digest"] != base["identity_digest"]:
            errors.append("sharded run differs from its serial reference")
        layer["shard.serial_wall_s"] = serial["wall_s"]
        layer["shard.speedup_vs_serial"] = serial["wall_s"] / wall
        layer["shard.barrier_wait_frac"] = layer["shard.barrier_wait_s"] / wall
    if name == "churn_mixed":
        half = spawn("timed", name, seed, fraction / 2)
        layer["core.churn_scale_exponent"] = math.log2(wall / half["wall_s"])
    layer.update(probes if probes is not None
                 else spawn("probes", name, seed, fraction))
    if ledger["unknown"]:
        errors.append("handlers missing from spans.HANDLER_MODULES: "
                      + ", ".join(ledger["unknown"]))

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "size": base["size"],
        "span_fields": ["name", "start_s", "end_s", "parent", "process"],
        "self_times": self_times,
        "handlers": handlers, "ledger": ledger, "spans": all_spans,
    }))
    return {"workload": name, "metrics": layer, "errors": errors,
            "attempted": base["attempted"], "failed": base["failed"],
            "ledger": ledger, "self_times": self_times}


# ======================================================================
# environment fingerprint
# ======================================================================
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(seed: int, repeats: Optional[int], fraction: float) -> Dict[str, Any]:
    import workloads

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"WARNING: 1-min load average {load:.2f} exceeds nproc={nproc}; "
              "results are marked noisy", file=sys.stderr)
    return {
        "python": platform.python_version(), "nproc": nproc,
        "cpu_model": _cpu_model(), "load_1min_start": load,
        "noisy": load > nproc, "git_commit": _git_commit(),
        "seed": seed, "repeats": repeats,
        "sizes": {n: workloads.scaled(n, fraction) for n in WORKLOAD_NAMES},
    }


# ======================================================================
# reports
# ======================================================================
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:,.0f}"


def print_untraced(res: Dict[str, Any], contract: Dict[str, Any]) -> None:
    m, first = res["metrics"], res["first_run"]
    print(f"\n== {res['workload']}  (untraced, {res['repeats']} repeats, "
          f"size {res['size']})")
    for spec in contract["end_to_end"]:
        name = spec["name"]
        line = f"  {name:<18}{_fmt(m[name]):>12} {spec['unit']:<6}"
        row = res["rows"][name]
        line += (f" q1 {_fmt(row['q1'])}  q3 {_fmt(row['q3'])}  "
                 f"spread {row['spread']:.3f}  n={row['n']}")
        if name.startswith("latency"):
            line += f"  ({first['latency_samples']} samples per repeat"
            if name == "latency_p99_ms" and first["latency_tail_percentile"] != 0.99:
                line += f", reported at p{first['latency_tail_percentile'] * 100:.0f}"
            line += ")"
        print(line)
    print(f"  {'failed_frac':<18}{_fmt(m['failed_frac']):>12} {'1':<6} "
          f"failed {res['failed']} of {res['attempted']} attempted")
    for error in res["errors"]:
        print(f"  INCORRECT: {error}")


def print_traced(res: Dict[str, Any], contract: Dict[str, Any]) -> None:
    print(f"\n== {res['workload']}  (traced run + probes)")
    for spec in contract["per_layer"]:
        value = res["metrics"].get(spec["name"])
        if value is not None:
            print(f"  {spec['name']:<40}{_fmt(value):>12} {spec['unit']}")
    ledger = res["ledger"]
    print(f"  -- kernel handler time by owning module "
          f"(total {ledger['total_s']:.4f} s) --")
    for module, seconds in sorted(ledger["by_module"].items(), key=lambda kv: -kv[1]):
        print(f"  {module:<40}{seconds:>12.4f} s")
    print("  -- span self times (bench-side wrappers) --")
    for name, row in sorted(res["self_times"].items()):
        print(f"  {name:<40}{row['count']:>9} calls  total {row['total_s']:.4f} s"
              f"  self {row['self_s']:.4f} s")
    for error in res["errors"]:
        print(f"  INCORRECT: {error}")


def contract_line(res: Dict[str, Any], specs: List[Dict[str, Any]]) -> str:
    metrics = {s["name"]: {"value": float(res["metrics"].get(s["name"], 0.0)),
                           "unit": s["unit"]} for s in specs}
    return json.dumps({"correct": not res["errors"],
                       "attempted": int(res["attempted"]),
                       "failed": int(res["failed"]), "metrics": metrics})


def worse_by(spec: Dict[str, Any], first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if spec["better"] == "lower" else -delta


def selfcheck(seed: int, repeats: int, fraction: float,
              names: List[str], contract: Dict[str, Any]) -> int:
    """Two complete untraced sets of the same code, compared against the bounds.

    The sets are interleaved repeat by repeat (ABAB...), so a slow drift
    in the machine's speed falls on both alike: what is left is the noise
    a bound has to clear.
    """
    lines: List[str] = []
    fp = fingerprint(seed, repeats, fraction)
    lines.append("selfcheck: " + json.dumps(fp))
    pairs = []
    for n in names:
        runs = timed_runs(n, seed, fraction, 2 * repeats, None)
        pairs.append((reduce_runs(n, seed, fraction, runs[0::2]),
                      reduce_runs(n, seed, fraction, runs[1::2])))
    failures = 0
    for a, b in pairs:
        lines.append(f"\n== {a['workload']}  (two sets of {repeats} repeats)")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            va, vb = a["metrics"][name], b["metrics"][name]
            worst = max(worse_by(spec, va, vb), worse_by(spec, vb, va))
            spreads = [r["rows"][name]["spread"] for r in (a, b)]
            verdict = "ok" if worst <= spec["bound"] else "FAIL"
            failures += verdict == "FAIL"
            lines.append(
                f"  {name:<16} set1 {_fmt(va):>10}  set2 {_fmt(vb):>10} {spec['unit']:<5}"
                f" differ {worst:+.4f}  bound {spec['bound']:.2f}  {verdict}"
                f"  spreads {spreads[0]:.3f}/{spreads[1]:.3f}")
        for r in (a, b):
            for error in r["errors"]:
                failures += 1
                lines.append(f"  INCORRECT: {error}")
    fp["load_1min_end"] = os.getloadavg()[0]
    lines.append(f"\nload_1min_end {fp['load_1min_end']:.2f}; "
                 + ("PASS" if not failures else f"{failures} FAILURES"))
    text = "\n".join(lines) + "\n"
    print(text, end="")
    OUT.mkdir(exist_ok=True)
    (OUT / "selfcheck.txt").write_text(text)
    return 1 if failures else 0


# ======================================================================
def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES,
                    default=list(WORKLOAD_NAMES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                    help="timed repeats per workload (at least 5 at full size)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="repeat until the timed sections add up to this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver form: one workload, one mode, JSON line last")
    ap.add_argument("--quick", action="store_true",
                    help="1/20 sizes, one repeat: a smoke run, not a measurement")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two untraced sets; fail if they differ beyond the bounds")
    ap.add_argument("--child", choices=("timed", "traced", "serial", "probes"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--fraction", type=float, default=1.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} not found -- this benchmark "
              "measures the repro package of this repository", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    contract = load_contract()
    fraction = QUICK_FRACTION if args.quick else 1.0
    repeats = 1 if args.quick else args.repeats
    if not args.quick and repeats < DEFAULT_REPEATS and args.seconds is None:
        ap.error(f"--repeats must be at least {DEFAULT_REPEATS} at full size")

    if args.trace is not None:
        if len(args.workload) != 1:
            ap.error("--trace takes exactly one --workload")
        name = args.workload[0]
        if args.trace == 0:
            res = measure_untraced(
                name, args.seed, fraction,
                repeats=repeats if args.seconds is None else None,
                seconds=args.seconds)
            print_untraced(res, contract)
            print(contract_line(res, contract["end_to_end"]))
        else:
            res = measure_traced(name, args.seed, fraction)
            print_traced(res, contract)
            print(contract_line(res, contract["per_layer"]))
        return 0

    if args.selfcheck:
        return selfcheck(args.seed, repeats, fraction, args.workload, contract)

    fp = fingerprint(args.seed, repeats, fraction)
    print("environment: " + json.dumps(fp))
    results, ok = [], True
    probes = spawn("probes", args.workload[0], args.seed, fraction)
    for name in args.workload:
        untraced = measure_untraced(name, args.seed, fraction, repeats=repeats)
        print_untraced(untraced, contract)
        traced = measure_traced(name, args.seed, fraction,
                                base=untraced["first_run"], probes=probes)
        print_traced(traced, contract)
        ok = ok and not untraced["errors"] and not traced["errors"]
        results.append({"workload": name, "end_to_end": untraced["metrics"],
                        "rows": untraced["rows"], "attempted": untraced["attempted"],
                        "failed": untraced["failed"], "per_layer": traced["metrics"],
                        "errors": untraced["errors"] + traced["errors"]})
    fp["load_1min_end"] = os.getloadavg()[0]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}{'-quick' if args.quick else ''}.json"
    path.write_text(json.dumps({"environment": fp, "results": results}, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}; " + ("all outputs correct" if ok
                                                   else "OUTPUT VALIDATION FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        raise SystemExit(3)
