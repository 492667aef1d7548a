#!/usr/bin/env python3
"""resamplerec benchmark.

    python3 perfbench/run.py --workload {desk-pipeline,paper-grid,recommend}
                             --seed N --seconds S --trace {0,1}
                             [--size {full,tiny}] [--workers W]

Run from the root of a checkout; the program is imported from `src/`.
Prints one metric per line, a JSON line with every detail (environment,
per-stage metrics, checks), and as its last line the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Working files go to `.perfbench/` in the checkout.
"""

import os

# pin BLAS thread pools before numpy loads: pool workers x BLAS threads
# would otherwise oversubscribe the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPS = 3
MIN_PASSES = 2
MAX_PASSES = 200

IMPORT_PROBE = ("import time; t = time.perf_counter(); import resamplerec.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["desk-pipeline", "paper-grid", "recommend"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny is for the benchmark's own smoke test")
    parser.add_argument("--workers", type=int, default=2)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter (part of set-up)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def program_digest() -> str:
    """blake2b over the package's sources."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "resamplerec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args, load_at_start) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(), "seed": args.seed, "workers": args.workers,
        "size": args.size, "seconds": args.seconds, "loadavg_at_start": load_at_start,
    }


def run_passes(wl, seconds: float, traced_run: bool, fit_count) -> list:
    """Passes, each over a new input batch, until the time budget is spent.

    A traced run runs every batch twice, untraced and traced, swapping
    their order every pair, so tracing overhead is measured on identical
    work and the traced outputs are checked against the untraced ones.
    """
    passes, durations = [], []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        batch = len(durations)
        if traced_run:
            order = (False, True) if batch % 2 == 0 else (True, False)
        else:
            order = (False,)
        t0 = time.perf_counter()
        for traced in order:
            if wl.tracer:
                wl.tracer.phase = f"pass{len(passes)}"
            fits0 = fit_count()
            passes.append(wl.run_pass(len(passes), batch, traced))
            passes[-1].fit_count_delta = fit_count() - fits0
        durations.append(time.perf_counter() - t0)
        enough = len(passes) >= MIN_PASSES
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return passes


def save_reference(path: Path, digests: dict) -> None:
    """Add this run's new batches to the per-seed reference; never replace one."""
    merged = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for batch, ops in digests.items():
        merged.setdefault(batch, ops)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def run_setups(wl, tracer, fit_count) -> tuple[list[float], int]:
    """Set up SETUP_REPS times; in a traced run the last set-up is traced.

    Returns the set-up times and the fits the traced set-up made.
    """
    times, fit_delta = [], 0
    for rep in range(SETUP_REPS):
        traced = tracer is not None and rep == SETUP_REPS - 1
        imported = import_seconds()
        fits0 = fit_count()
        if traced:
            tracer.phase, tracer.active = "setup", True
        t0 = time.perf_counter()
        wl.setup(rep)
        times.append(imported + time.perf_counter() - t0)
        if traced:
            tracer.active = False
            fit_delta = fit_count() - fits0
    return times, fit_delta


def traced_report(wl, tracer, passes, setup_fits) -> tuple[dict, dict]:
    """Per-layer metrics over the traced set-up and the first traced pass.

    That scope is fixed whatever the number of passes, so counts repeat
    exactly; later traced passes only feed `trace_overhead_pct`.
    """
    first = next(p for p in passes if p.traced)
    spans = tracer.all_spans()
    layer, sums = layer_metrics([s for s in spans if s[7] in ("setup", f"pass{first.index}")])
    checks = trace_checks(wl, layer, sums, setup_fits + first.fit_count_delta)
    if wl.name == "recommend":
        fits = sum(1 for s in spans if s[2] == "learners.fit" and s[7] != "setup")
        checks["no_fits_in_recommend_calls"] = {"ok": fits == 0, "fit_calls": fits}
    untraced = statistics.median(p.headline for p in passes if not p.traced)
    traced = statistics.median(p.headline for p in passes if p.traced)
    layer["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return layer, checks


def trace_checks(wl, metrics, sums, fit_delta) -> dict:
    """Cross-checks that catch a missed import binding or lost worker spans."""
    checks = {}
    expected = sums.get("evaluation.quality_grid:expected_fits", 0) \
        + sums.get("on_demand_fits", 0) + metrics["recommender.meta_fits"]
    checks["fit_calls_match_cells"] = {
        "ok": metrics["learners.fit.calls"] == expected,
        "fit_calls": metrics["learners.fit.calls"],
        "expected": expected}
    if wl.workers == 1:
        builds = metrics["learners.tree_build.calls"] + metrics["learners.logreg.calls"] \
            + sums.get("learners.fit:knn_fits", 0)
        checks["tree_builds_match_fit_count"] = {
            "ok": builds == fit_delta, "traced": builds, "fit_count_delta": fit_delta}
    return checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resamplerec" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_at_start = os.getloadavg()

    import resamplerec
    if Path(resamplerec.__file__).resolve().parent != (SRC / "resamplerec").resolve():
        print(f"perfbench: imported resamplerec from {resamplerec.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import resamplerec.learners as rlearners
    from workloads import WORKLOADS, summary

    run_id = uuid.uuid4().hex[:12]
    workdir = STATE / "work" / f"{args.workload}-s{args.seed}-{run_id}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = None
    if args.trace:
        tracer = Tracer(workdir / "spans", args.workload, run_id)
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.size, args.workers, workdir, tracer)
    # a program change starts a new reference: its outputs may legitimately
    # differ; same_outputs.py compares digests across versions
    reference_path = STATE / "reference" / f"{wl.inputs_key()}-{program_digest()}.json"
    if reference_path.is_file():
        wl.stored = json.loads(reference_path.read_text(encoding="utf-8"))
    try:
        setup_times, fit_delta = run_setups(wl, tracer, rlearners.fit_count)
        passes = run_passes(wl, args.seconds, bool(args.trace), rlearners.fit_count)
        ops = [op for p in passes for op in p.ops]
        failed = [op for op in ops if op.failure]
        timed = [p for p in passes if not p.traced]
        detail = {
            "setup_s": summary(setup_times, "s"),
            "wall_s": summary([p.wall_s for p in timed], "s"),
            **wl.detail(timed),
            "cpu_s": summary([p.cpu_s for p in timed], "s"),
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "samples": 1},
            "ops": {"value": len(ops), "unit": "count", "samples": len(passes)},
            "ops_failed": {"value": len(failed), "unit": "count", "samples": len(passes)},
        }
        checks = {"setup_repeats_identical": {"ok": wl.setup_consistent()}}
        if args.trace:
            layer, trace_checks_ = traced_report(wl, tracer, passes, fit_delta)
            checks.update(trace_checks_)
            metrics = {name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in layer.items()}
            trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_path, tracer.all_spans())
            detail["trace_file"] = str(trace_path.relative_to(ROOT))
            detail["unwrapped_functions"] = tracer.missing
        else:
            metrics = {name: {"value": detail[name]["value"], "unit": detail[name]["unit"]}
                       for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
        correct = not failed and all(c["ok"] for c in checks.values())

        for name, m in detail.items():
            if isinstance(m, dict) and "value" in m:
                print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']} "
                      f"(n={m['samples']})")
        for op in failed[:10]:
            print(f"failed op {op.name}: {op.failure}")
        record = {"workload": args.workload, "trace": args.trace, "run_id": run_id,
                  "environment": environment(args, load_at_start), "detail": detail,
                  "checks": checks, "digests": wl.reference,
                  "passes": [{"index": p.index, "traced": p.traced, "wall_s": p.wall_s,
                              "cpu_s": p.cpu_s, "ops": {op.name: op.wall_s for op in p.ops}}
                             for p in passes],
                  "failures": [f"{op.name}: {op.failure}" for op in failed]}
        save_reference(reference_path, wl.reference)
        results = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        results.parent.mkdir(parents=True, exist_ok=True)
        results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"detail": detail, "checks": checks,
                          "environment": record["environment"]}, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_cells") or name.startswith("evaluation.cells") \
            or name.endswith("rows_out") or name.endswith("meta_fits"):
        return "count"
    if name.endswith("_util"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
