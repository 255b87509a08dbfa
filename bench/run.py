"""Benchmark for cremona-bounds: one closed-loop client, one process.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src. Each operation starts after the previous one returns (the `cli`
workload runs one child process at a time). Operations repeat in whole
cycles, at least one, and the run stops at the cycle end nearest S seconds.
Every output is checked against a value the benchmark computed itself; a
wrong answer, an exception, an unexpected exit code, a stdout mismatch or a
missed deadline fails the operation.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same cycles
untraced and then traced, and prints the per-layer metrics of the traced
pass plus trace.overhead_share. The last stdout line is a JSON object with
keys correct, attempted, failed and metrics; a fuller run record is written
to bench/out/. See bench/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
STARTUP_PROBES = 5
HOST_LOOP_PROBES = 5

sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only, print the monotonic clock when ready")
    ap.add_argument("--record-golden", action="store_true",
                    help="rewrite bench/golden.json from the current program")
    args = ap.parse_args(argv)
    if not (args.workload or args.record_golden):
        ap.error("--workload is required")
    return args


# ------------------------------------------------------------------ passes


class Pass:
    """Latencies and failures of one pass over whole cycles."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.failures = []
        self.cycles = 0
        self.cache = None

    @property
    def attempted(self):
        return len(self.latencies)

    def ops_per_s(self):
        ok = self.attempted - len(self.failures)
        return ok / sum(self.latencies)


def run_pass(wl, seconds, cycles=None, trc=None):
    """Run whole cycles and stop at the cycle end nearest `seconds` (after
    at least one cycle), or after exactly `cycles` cycles when given."""
    res = Pass()
    ledger = tracer.CacheLedger(wl.cb) if wl.cb is not None else None
    wl.start_pass(ledger)
    if trc is not None:
        trc.install()
    try:
        start = time.monotonic()
        while True:
            c0 = time.monotonic()
            wl.start_cycle()
            for op in wl.ops(res.cycles):
                if op.prepare is not None:
                    op.prepare()
                if trc is not None:
                    trc.op_id += 1
                t0 = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception as exc:  # a failed operation, not a crash
                    out, err = None, f"{type(exc).__name__}: {exc}"
                res.latencies.append(time.perf_counter() - t0)
                res.labels.append(op.label)
                if err is None:
                    try:
                        err = op.check(out)
                    except Exception as exc:
                        err = f"check raised {type(exc).__name__}: {exc}"
                if err is not None:
                    res.failures.append(f"{op.label}: {err}")
            res.cycles += 1
            now = time.monotonic()
            if cycles is not None:
                if res.cycles >= cycles:
                    break
            elif now - start + (now - c0) / 2 > seconds:
                break
    finally:
        if trc is not None:
            trc.uninstall()
    if ledger is not None:
        res.cache = ledger.finish()
    return res


def tail(latencies, cycles):
    """(value, percentile): the latency with ten samples per cycle beyond
    it. The percentile is the highest one with at least ten samples beyond
    it in one cycle, so it does not depend on how many cycles fitted; all
    the run's samples estimate it. The maximum when a cycle has fewer than
    eleven operations."""
    xs = sorted(latencies)
    n, beyond = len(xs), 10 * cycles
    if n <= beyond:
        return xs[-1], 100.0
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n


# ------------------------------------------------------------ measurements


def setup_seconds(args):
    """Median over fresh processes of the time from spawn to the end of the
    workload's set-up: interpreter start, import, inputs and warm-up."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True,
                             timeout=120).stdout
        times.append(float(out.split()[-1]) - t0)
    return statistics.median(times)


def startup_ms():
    """Median wall time of a bare interpreter, and median time of
    `import cremona_bounds` inside a fresh one."""
    bare, imp = [], []
    code = ("import time; t = time.perf_counter(); import cremona_bounds; "
            "print(time.perf_counter() - t)")
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(ROOT),
                             capture_output=True, check=True, timeout=60).stdout
        imp.append(float(out))
    return 1e3 * statistics.median(bare), 1e3 * statistics.median(imp)


def host_loop_ms():
    """Median time of a fixed pure-Python loop. Recorded before and after
    the timed pass, it tells a slower program from a slower machine."""
    times = []
    for _ in range(HOST_LOOP_PROBES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, wl):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_policy": wl.policy,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "load": "closed loop, one client, one process, no threads",
    }


# ------------------------------------------------------------------- modes


def end_to_end(args, wl, res):
    tail_s, pct = tail(res.latencies, res.cycles)
    # peak memory first: the set-up probes are children too
    rss = peak_rss_mb(wl)
    metrics = {
        "ops_per_s": (res.ops_per_s(), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(res.latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "setup_s": (setup_seconds(args), "s"),
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {res.attempted} samples in {res.cycles} "
                           f"cycles, {10 * res.cycles} beyond it"}
    return metrics, notes


def per_layer(wl, res, base, trc):
    interp, imp = startup_ms()
    main = 0.0
    if isinstance(wl, workloads.Cli):
        # summed over the traced children; import and main time per child
        total, imports, mains = {}, [], []
        for path in wl.child_totals:
            doc = json.loads(path.read_text())
            imports.append(doc.pop("cli.import_ms"))
            mains.append(doc.pop("cli.main_ms"))
            for k, v in doc.items():
                total[k] = total.get(k, 0) + v
        imp, main = statistics.median(imports), statistics.median(mains)
        res.cache = {key: {"hits": total[f"{key}.cache_hits"],
                           "misses": total[f"{key}.cache_misses"]}
                     for key in tracer.CACHED}
    else:
        total = trc.totals(res.cache)
    metrics = tracer.finish_metrics(total)
    metrics.update({"cli.interpreter_ms": interp, "cli.import_ms": imp,
                    "cli.main_ms": main,
                    "trace.overhead_share": 1 - res.ops_per_s() / base.ops_per_s()})
    return {k: (metrics[k], tracer.metric_unit(k)) for k in tracer.per_layer_names()}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cremona_bounds" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src'}; run from a "
              "cremona-bounds checkout", file=sys.stderr)
        return 2
    if args.record_golden:
        count = workloads.Cli(ROOT, 0).record_golden()
        print(f"wrote {count} digests to {workloads.GOLDEN}")
        return 0
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_probe:
        wl.setup()
        print(time.monotonic())
        return 0

    OUT.mkdir(exist_ok=True)
    record = run_record(args, wl)
    # set-up is timed in fresh processes after the timed pass (setup_seconds)
    wl.setup()
    host_before = host_loop_ms()
    base = run_pass(wl, args.seconds)
    record["host_loop_ms"] = [host_before, host_loop_ms()]
    passes = [base]
    if args.trace:
        trc = tracer.Tracer(wl.cb) if wl.cb is not None else None
        if isinstance(wl, workloads.Cli):
            wl.traced = True
        res = run_pass(wl, args.seconds, cycles=base.cycles, trc=trc)
        passes.append(res)
        metrics = per_layer(wl, res, base, trc)
        notes = {}
        if trc is None:
            spans = wl.work / "totals-*.json.spans"
        else:
            spans = OUT / f"{args.workload}-seed{args.seed}.spans"
            trc.dump(spans)
        record["spans"] = str(spans.relative_to(ROOT))
        if isinstance(wl, workloads.Cli):
            record["limit_probes"] = wl.limit_probes()
    else:
        res = base
        metrics, notes = end_to_end(args, wl, res)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update({
        "cycles": res.cycles,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_share": len(failures) / attempted,
        "failures": failures[:50],
        "slowest_ops_s": sorted(zip(res.latencies, res.labels), reverse=True)[:5],
        "cache_info": res.cache,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    })
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} cycles={res.cycles} "
          f"attempted={attempted} failed={len(failures)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  ops_failed_share = {len(failures) / attempted:.6g} ratio")
    for probe in record.get("limit_probes", []):
        state = (f"finished in {probe['elapsed_s']:.2f} s" if probe["finished"]
                 else f"missed the {probe['deadline_s']:.0f} s deadline")
        print(f"  limit probe `{probe['probe']}`: {state}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
