"""Benchmark of cmc_elliptic: four single-threaded closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
``--trace 0`` measures the end-to-end metrics: set-up as the median of
several cold starts, then the workload's pass replayed in a closed loop for
at least ``--seconds`` seconds and 100 ops, each op timed on its own.
``--trace 1`` alternates untraced passes with passes that record a span
around every call into the traced package functions, and reports the
per-layer metrics per traced pass. Output checks run after the timed loop.

Standard output ends with two JSON lines: a report (environment, sample
counts, failure ratio and its base, named throughput, input shares, first
errors), then the result object the metric names in BENCHMARK.json refer
to. Spans of the traced passes are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_OPS = 100        # so that at least ten samples lie beyond p90
SETUP_REPEATS = 3    # cold starts per run; setup_s is their median
SAFETY_S = 120.0     # stop replaying early rather than overrun 180 s
MIN_TRACE_PAIRS = 3  # untraced/traced pass pairs in a traced run
MAX_TRACE_PAIRS = 9
CHILD_TIMEOUT_S = 60


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cold_starts(workload: str, scratch: Path) -> list[float]:
    """Wall times of fresh interpreters that import and warm up."""
    cmd = [sys.executable, str(BENCH / "coldstart.py"), workload, str(scratch)]
    env = _child_env()

    def once() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    once()  # unmeasured: writes bytecode caches, warms the file cache
    return [once() for _ in range(SETUP_REPEATS)]


def import_times() -> tuple[float, float]:
    """(cmc_elliptic, scipy) cumulative import time in ms, from -X importtime.

    scipy's figure sums every scipy module not imported by another scipy
    module, so nested scipy imports are not counted twice.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cmc_elliptic"],
        env=_child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
        capture_output=True, text=True)
    entries = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        name = field.strip()
        entries.append(((len(field) - len(name)) // 2, name, int(parts[1])))
    package = scipy = 0
    stack: list[tuple[int, bool]] = []
    # importtime prints a module after its imports, so walk it backwards.
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        if name == "cmc_elliptic":
            package = cumulative
        stack.append((depth, is_scipy))
    return package / 1e3, scipy / 1e3


class Replay:
    """Closed-loop replay of one workload's pass, with output bookkeeping."""

    def __init__(self, wl):
        self.wl = wl
        n = len(wl.ops)
        self.first: list = [None] * n      # tokens of the first pass
        self.captures: list = [None] * n   # oracle inputs, first pass
        self.raised: list = [None] * n
        self.changed = [0] * n             # later passes whose output differed
        self.latencies: list[int] = []
        self.passes = 0

    def one_pass(self, tracer=None, deadline=None) -> int:
        """Run every op once; returns the summed op time in ns."""
        wl, first_pass = self.wl, self.passes == 0
        total = 0
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_index = self.passes * len(wl.ops) + i
            exc = None
            t0 = time.perf_counter_ns()
            try:
                result = wl.run(op)
            except Exception as e:  # counted as a failed op, run goes on
                exc = e
            dt = time.perf_counter_ns() - t0
            total += dt
            self.latencies.append(dt)
            token = (f"raised {type(exc).__name__}: {exc}" if exc is not None
                     else wl.token(op, result))
            if first_pass:
                self.first[i] = token
                if exc is None:
                    self.captures[i] = wl.capture(op, result)
                else:
                    self.raised[i] = token
            elif token != self.first[i]:
                self.changed[i] += 1
            if deadline is not None and time.perf_counter() > deadline:
                break
        self.passes += 1
        return total

    def check(self, check) -> tuple[int, int, list[str]]:
        """(attempted, failed, errors) over every op replayed so far."""
        errors, failed = [], 0
        attempted = len(self.latencies)
        for i, op in enumerate(self.wl.ops):
            runs = len(range(i, attempted, len(self.wl.ops)))
            if runs == 0:  # cut off by the safety deadline
                continue
            bad = ([self.raised[i]] if self.raised[i] is not None
                   else check(op, self.captures[i]))
            if bad:
                failed += runs
                errors += [f"op {i}: {e}" for e in bad]
            else:
                failed += self.changed[i]
                if self.changed[i]:
                    errors.append(f"op {i}: output changed between passes")
        return attempted, failed, errors


def measure_end_to_end(wl, seconds: float) -> tuple[Replay, dict]:
    replay = Replay(wl)
    start = time.perf_counter()
    while True:
        replay.one_pass(deadline=start + SAFETY_S)
        elapsed = time.perf_counter() - start
        if elapsed >= SAFETY_S or (elapsed >= seconds
                                   and len(replay.latencies) >= MIN_OPS):
            break
    # Peak memory before the oracles load mpmath: the workload's own peak.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [ns / 1e6 for ns in replay.latencies]
    n = len(wl.ops)
    work = sum(wl.work(wl.ops[i % n]) for i in range(len(lat_ms)))
    metrics = {
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "throughput": work / (sum(lat_ms) / 1e3),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return replay, metrics


def measure_per_layer(wl, seconds: float) -> tuple[Replay, dict]:
    """Per-layer figures, averaged over the traced passes.

    After one untraced pass (which also records the outputs to check),
    untraced and traced passes alternate, so that a change in the host's
    speed falls on both sides of each traced/untraced ratio.
    """
    replay = Replay(wl)
    replay.one_pass()
    tracer = tracing.Tracer()
    ratios = []
    start = time.perf_counter()
    while len(ratios) < MIN_TRACE_PAIRS or (
            len(ratios) < MAX_TRACE_PAIRS
            and time.perf_counter() - start < seconds / 2):
        untraced_ns = replay.one_pass()
        tracer.install(layers.TRACED, layers.DISTINCT_KEYS,
                       layers.FAIL_ON_NONZERO)
        try:
            ratios.append(replay.one_pass(tracer=tracer) / untraced_ns)
        finally:
            tracer.uninstall()
    k = len(ratios)
    metrics = {}
    for prefix, (calls, self_ns, fails) in tracer.summary().items():
        metrics[f"{prefix}.calls"] = calls / k
        metrics[f"{prefix}.self_ms"] = self_ns / 1e6 / k
        metrics[f"{prefix}.fail"] = fails / k
    metrics["cli_io.bytes_out"] = sum(
        wl.bytes_out(t) for t in replay.first if not isinstance(t, str))
    for name in layers.DISTINCT_KEYS:
        keys = tracer.keys.get(name, [])  # k passes over the same inputs
        metrics[f"{name}.distinct_ratio"] = (
            len(set(keys)) / (len(keys) / k) if keys else 0.0)
    metrics["trace_overhead"] = statistics.median(ratios)
    tracer.write(OUT / f"spans-{wl.name}.csv.gz")
    return replay, metrics


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def self_check(declared: list[dict], metrics: dict, expected) -> list[str]:
    """Problems unless BENCHMARK.json declares exactly the emitted metrics."""
    problems = []
    if sorted((m["name"], m["unit"]) for m in declared) != sorted(expected):
        problems.append("BENCHMARK.json names or units differ from the "
                        "metrics this run emits")
    problems += [f"metric {name} not emitted" for name, _ in expected
                 if name not in metrics]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cmc_elliptic" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import cmc_elliptic
    if Path(cmc_elliptic.__file__).resolve().parent != SRC / "cmc_elliptic":
        print(f"perfbench: imported {cmc_elliptic.__file__}, not the "
              "checkout's package", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{os.getpid()}"
    scratch.mkdir()
    try:
        setup = [] if args.trace else cold_starts(args.workload, scratch)
        wl = workloads.WORKLOADS[args.workload](random.Random(args.seed),
                                                scratch)
        workloads.WARM_UP[args.workload](scratch)
        if args.trace:
            replay, values = measure_per_layer(wl, args.seconds)
            values["import.cmc_elliptic_ms"], values["import.scipy_ms"] = \
                import_times()
        else:
            replay, values = measure_end_to_end(wl, args.seconds)
            values["setup_s"] = statistics.median(setup)
        import oracles
        attempted, failed, errors = replay.check(oracles.CHECKS[wl.name])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        values["fail_ratio"] = failed / attempted
        expected, declared = layers.per_layer_metrics(), spec["per_layer"]
    else:
        expected, declared = layers.END_TO_END, spec["end_to_end"]
    units = dict(expected)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    problems = self_check(declared, metrics, expected)
    report = {
        "report": wl.name, "seed": args.seed, "trace": args.trace,
        "env": environment(),
        "samples": attempted, "passes": replay.passes,
        "ops_per_pass": len(wl.ops),
        "fail_ratio": {"value": failed / attempted, "base": attempted},
        "throughput": {"name": wl.throughput,
                       "value": values.get("throughput")},
        "setup_samples_s": setup,
        "shares": wl.shares(),
        "errors": errors[:20] + problems,
    }
    print(json.dumps(report))
    if problems:
        print("perfbench: self-check failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
