#!/usr/bin/env python3
"""Run one gridloop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload protocol_ref --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, untraced then traced

Run it from the repository root; it imports gridloop from ``src/`` and
refuses to run where that is missing. The workload's inputs come from
``--seed`` only. Set-up (interpreter start, ``import gridloop``, template
synthesis, writing the inputs) runs in a fresh process several times and
``setup_s`` is its median. Passes then repeat, each after the previous one
has returned, for as long as the next one is expected to end within
``--seconds``; each pass's outputs are checked after it, outside the
timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: each layer's self time as a share of the
traced pass, its call count, the model counters and the tracing overhead.

Every metric is printed with its unit and better direction; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
machine and versions, goes to ``.perfbench/results/`` and the spans of a
traced run next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("protocol_ref", "loop_scale", "cli_long_window")
DEFAULT_SEED = 0
# confirms a claim on inputs no change was tuned on (see README.md)
HELD_OUT_SEED = 20190927
SETUP_REPEATS = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Pin BLAS to at most one thread per usable core; call before importing numpy."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) >= 1:
            threads = min(threads, int(value))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def use_checkout_sources() -> None:
    if not (SRC / "gridloop" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridloop sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# machine and version record

def _l3_cache() -> str | None:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return line.split(":", 1)[1].strip()
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
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


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridloop").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(blas_threads: int) -> dict:
    import numpy
    import gridloop

    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l3_cache": _l3_cache(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gridloop": gridloop.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# passes

@dataclass
class PassRecord:
    wall_s: float
    traced: bool
    outcome: object
    spans: list | None = None
    counters: dict | None = None
    missing: list | None = None


def timed_setups(name: str, seed: int, size: str, in_dir: Path, repeats: int) -> list[float]:
    walls = []
    for _ in range(repeats):
        shutil.rmtree(in_dir, ignore_errors=True)
        argv = [sys.executable, str(HERE / "run.py"), "--make-inputs", str(in_dir),
                "--workload", name, "--seed", str(seed), "--size", size]
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=170)
        walls.append(time.perf_counter() - t0)
    return walls


def one_pass(spec, inputs, out_dir: Path, traced: bool) -> PassRecord:
    from layers import points
    from spans import NullTracer, Tracer
    from workloads import PassOutcome

    tracer = Tracer() if traced else NullTracer()
    outcome = PassOutcome(attempted=spec.units(inputs.config))
    wall = 0.0
    try:
        if traced:
            tracer.install(points())
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.pass"):
                spec.run_pass(inputs, out_dir, tracer)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        spec.check(inputs, out_dir, outcome)
    except Exception as exc:  # a pass that raises fails every unit it attempted
        traceback.print_exc(file=sys.stderr)
        outcome.fail(outcome.attempted, f"raised {type(exc).__name__}: {exc}")
    shutil.rmtree(out_dir, ignore_errors=True)
    if not traced:
        return PassRecord(wall, False, outcome)
    return PassRecord(wall, True, outcome, tracer.spans, dict(tracer.counters.values),
                      tracer.missing)


def require_repeats(records: list[PassRecord], key, what: str) -> None:
    """Fail every unit of a pass whose ``key`` differs from the first pass's."""
    keyed = [r for r in records if r.outcome.failed == 0]
    for r in keyed[1:]:
        if key(r) != key(keyed[0]):
            r.outcome.fail(r.outcome.attempted, f"{what} differs from the first pass")


def layer_metrics(traced: list[PassRecord], untraced: list[PassRecord],
                  missing: list[str]) -> tuple[dict, dict]:
    from layers import COUNTERS, LAYERS
    from spans import layer_totals

    shares: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    seconds: dict[str, list[float]] = {}
    for i, rec in enumerate(traced):
        totals = layer_totals(rec.spans)
        bench = sum(s for name, (s, _) in totals.items() if name.startswith("bench."))
        for layer in LAYERS:
            self_s, n = totals.get(layer.name, (0.0, 0))
            shares.setdefault(layer.name, []).append(100.0 * self_s / rec.wall_s)
            seconds.setdefault(layer.name, []).append(self_s)
            if i == 0:
                calls[layer.name] = n
        shares.setdefault("bench", []).append(100.0 * bench / rec.wall_s)
        seconds.setdefault("bench", []).append(bench)

    values: dict[str, float] = {}
    for name, pcts in shares.items():
        values[f"{name}_pct"] = statistics.median(pcts)
    for name, n in calls.items():
        values[f"{name}_calls"] = n
    first = traced[0].counters
    for name in COUNTERS:
        values[name] = first.get(name, 0)
    traced_wall = statistics.median(r.wall_s for r in traced)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    values["trace.spans"] = len(traced[0].spans)
    values["trace.missing"] = len(missing)
    layer_seconds = {name: statistics.median(s) for name, s in seconds.items()}
    return values, layer_seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 blas_threads: int) -> dict:
    # the benchmark's modules load numpy, so they are imported only after
    # main() has capped the BLAS threads
    import workloads

    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("" if size == "full" else f"-{size}")
    work = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    in_dir = work / "inputs"
    setup_walls = timed_setups(name, seed, size, in_dir, 1 if trace else SETUP_REPEATS)

    spec = workloads.WORKLOADS[name]()
    inputs = workloads.load_inputs(name, in_dir)
    spec.prepare(inputs, work)
    # checked like every pass, but left out of the timings
    warm = [one_pass(spec, inputs, work / f"warmup_{i}", False) for i in range(spec.warmup_passes)]

    # rounds of one pass (two with tracing: untraced, then traced), while the
    # next round is expected to end within --seconds; at least one round
    records: list[PassRecord] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            records.append(one_pass(spec, inputs, work / f"pass_{len(records)}", traced))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    require_repeats(warm + records, lambda r: (r.outcome.fingerprint, r.outcome.aucs), "output")
    traced_recs = [r for r in records if r.traced]
    untraced_recs = [r for r in records if not r.traced]
    require_repeats(
        traced_recs,
        lambda r: (r.counters, [s[0] for s in r.spans]),
        "model counters or call sequence",
    )
    missing = list(dict.fromkeys(m for r in traced_recs for m in r.missing))

    checked = warm + records
    attempted = sum(r.outcome.attempted for r in checked)
    failed = sum(r.outcome.failed for r in checked)
    aucs = next((r.outcome.aucs for r in checked if r.outcome.failed == 0 and r.outcome.aucs), [])
    auc_mean = statistics.fmean(aucs) if aucs else 0.0
    cfg = inputs.config
    e2e = {
        "setup_s": statistics.median(setup_walls),
        "scenarios_per_s": statistics.median(spec.units(cfg) / r.wall_s for r in untraced_recs),
        "home_hours_per_s": statistics.median(spec.home_hours(cfg) / r.wall_s for r in untraced_recs),
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "tag": tag,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "machine": machine_record(blas_threads),
        "end_to_end": e2e,
        "reported": {"auc_mean": auc_mean, "ops_failed_frac": failed / attempted},
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in checked for p in r.outcome.problems],
        "setup_walls_s": setup_walls,
        "warmup_walls_s": [r.wall_s for r in warm],
        "passes": [{"wall_s": r.wall_s, "traced": r.traced, "failed": r.outcome.failed}
                   for r in records],
    }
    if trace:
        per_layer, layer_seconds = layer_metrics(traced_recs, untraced_recs, missing)
        per_layer["quality.auc_mean"] = auc_mean
        result["per_layer"] = per_layer
        result["layer_self_s"] = layer_seconds
        result["missing"] = missing
        result["spans"] = [r.spans for r in traced_recs]
    shutil.rmtree(work, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# reporting

def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(result: dict, declared: dict) -> dict:
    """Print every metric with unit and direction; return the driver's JSON line."""
    trace = result["trace"]
    specs = declared["per_layer"] if trace else declared["end_to_end"]
    produced = result["per_layer"] if trace else result["end_to_end"]
    names = [m["name"] for m in specs]
    if set(names) != set(produced):
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: missing {sorted(set(names) - set(produced))},"
            f" undeclared {sorted(set(produced) - set(names))}"
        )
    m = result["machine"]
    print(f"# workload {result['workload']} seed {result['seed']} trace {int(trace)}"
          f" passes {len(result['passes'])} seconds {result['seconds']}")
    print(f"# machine cpus {m['cpu_count']} affinity {m['affinity_cpus']} L3 {m['l3_cache']}"
          f" blas_threads {m['blas_threads']}")
    print(f"# versions python {m['python']} numpy {m['numpy']} gridloop {m['gridloop']}"
          f" commit {m['git_commit']} source {m['source_sha256'][:12]}")
    for spec in specs:
        value = produced[spec["name"]]
        print(f"{spec['name']:<42} {value:>16.6g} {spec['unit']:<12} {spec['better']}")
    for name, value in result["reported"].items():
        print(f"{name:<42} {value:>16.6g} {'1':<12} (reported, no bound)")
    if trace:
        print(f"# layer self seconds per traced pass: " + ", ".join(
            f"{k} {v:.4g}" for k, v in sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
            if v > 0))
        for note in result["missing"]:
            print(f"# missing: {note}")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": produced[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }


def save(result: dict) -> None:
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    tag = result["tag"]
    spans = result.pop("spans", None)
    (out / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if spans is not None:
        (out / f"{tag}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "unit"], "passes": spans}) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                    "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"perfbench: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for metric, value in last["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's smoke tests")
    parser.add_argument("--make-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    blas_threads = cap_blas_threads()
    use_checkout_sources()
    if args.workload == "all":
        return run_all(args)
    if args.make_inputs:
        from workloads import make_inputs

        make_inputs(args.workload, args.seed, args.size, Path(args.make_inputs))
        return 0
    declared = declared_metrics()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                          blas_threads)
    line = report(result, declared)
    save(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
