"""Benchmark of the mbm package: one workload per invocation.

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package under test is the
checkout's ``src/mbm``. With ``--trace 0`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer
metrics of a separate, traced run. The last line of stdout is the result
as one JSON object; the line before it records the environment, the input
digests and the per-operation timings. Working files go to ``.perfbench/``
at the checkout root.

Operations run one at a time. CLI workloads start a fresh ``python -m
mbm.cli`` process per operation, so interpreter start and imports count as
users pay them; a launcher forked before numpy loads starts them, so their
peak RSS is their own. ``setup_s`` is the median of fresh ``import mbm``
runs, a few before the passes and one after each. Thread pools are pinned to one thread in this process and
in every child.

The end-to-end times (``setup_s``, ``wall_s``) are calibrated: each timed
operation is bracketed by a fixed probe job and scaled to a reference host
speed (see ``calibrate.py``), because this shared host's speed drifts more
between runs than the bounds allow. The uncalibrated medians and every
probe time are in the info line.
"""

from __future__ import annotations

import os

# before numpy loads its BLAS; children inherit the same environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import launcher

# forked while this process is still small: children started from it do not
# inherit the harness's peak RSS as their own (see launcher.py)
LAUNCHER = launcher.Launcher()

import argparse
import importlib.metadata
import json
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import calibrate
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MBM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], stdout: Path, stderr: Path, env: dict) -> workloads.OpRun:
    """Run the interpreter with ``args`` through the launcher and wait for it to end."""
    return workloads.OpRun(*LAUNCHER.run(args, str(stdout), str(stderr), env))


def spawn_runner(env: dict):
    def run(op):
        return spawn(["-m", "mbm.cli", *op.args], op.stdout, op.stderr, env)
    return run


def e2e_runner(wl, env: dict):
    """How a pass runs its operations untraced: CLI workloads in fresh processes."""
    return spawn_runner(env) if isinstance(wl, workloads.CliWorkload) else None


def inprocess_runner(tracer: tracing.Tracer | None):
    """Call ``mbm.cli.main`` in this process, stdout and stderr sent to files."""
    import mbm.cli

    def run(op):
        with open(op.stdout, "w", encoding="utf-8") as out, \
                open(op.stderr, "w", encoding="utf-8") as err, \
                redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = mbm.cli.main(op.args)
                else:
                    with tracer.span(f"cli.{op.name}"):
                        code = mbm.cli.main(op.args)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - start
        return workloads.OpRun(code, seconds, 0.0)
    return run


def import_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter's ``import mbm``."""
    op = spawn(["-c", "import mbm"], Path(os.devnull), WORK / "import.err", env)
    if op.code != 0:
        raise RuntimeError(f"import mbm failed: {(WORK / 'import.err').read_text()}")
    return op.wall_s


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
    }


class Tally:
    """Attempted and failed operations over every checked pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, list[str]] = {}

    def add(self, verdict: workloads.Verdict):
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        for op, problems in verdict.problems.items():
            self.problems.setdefault(op, problems)

    def fail(self, op: str, problem: str):
        self.attempted += 1
        self.failed += 1
        self.problems.setdefault(op, [problem])


def probe_seconds(env: dict) -> float:
    op = spawn(calibrate.PROBE_ARGS, Path(os.devnull), WORK / "probe.err", env)
    if op.code != 0:
        raise RuntimeError(f"calibration probe failed: {(WORK / 'probe.err').read_text()}")
    return op.wall_s


def run_e2e(wl, env, size, seconds, reference, tally) -> tuple[dict, dict]:
    """Timings are calibrated to the reference host speed; raw ones go to the detail."""
    cal = calibrate.Calibrator(lambda: probe_seconds(env))
    imports = []  # (raw, calibrated) seconds of fresh ``import mbm`` runs

    def sample_import():
        raw, factor = cal.measure(lambda: import_seconds(env))
        imports.append((raw, raw * factor))

    import_seconds(env)  # cold import, not counted
    for _ in range(size["setup_repeats"]):
        sample_import()
    runner = e2e_runner(wl, env)
    # warm-up pass, not timed: the same operations on the tiny inputs warm the
    # same code and caches at a fraction of a full pass's cost
    warm_dir = WORK / "warm-up"
    warm_dir.mkdir(exist_ok=True)
    warm = workloads.make_workload(wl.name, warm_dir, wl.seed, workloads.SIZES["tiny"])
    tally.add(warm.check(warm.run_pass(runner), None))
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        res = wl.run_pass(runner, cal.measure)
        tally.add(wl.check(res, reference))
        passes.append(res)
        sample_import()  # set-up samples spread over the run
    metrics = {
        "setup_s": statistics.median(c for _, c in imports),
        "wall_s": statistics.median(p.cal_s for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    detail = {
        "passes": len(passes),
        "raw_setup_s": statistics.median(r for r, _ in imports),
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "import_s": [r for r, _ in imports],
        "pass_wall_s": [p.wall_s for p in passes],
        "probe_s": cal.samples,
        "op_seconds": {op: statistics.median(p.op_seconds[op] for p in passes)
                       for op in passes[0].op_seconds},
        **solve_latency(passes),
    }
    return metrics, detail


def solve_latency(passes) -> dict:
    samples = [ms for p in passes for ms in p.solve_ms]
    if not samples:
        return {}
    return {"solve_ms.p50": float(np.percentile(samples, 50)),
            "solve_ms.p99": float(np.percentile(samples, 99)),
            "solve_samples": len(samples)}


def run_traced(wl, env, size, seconds, reference, tally) -> tuple[dict, dict]:
    metrics = tracing.import_breakdown(env, size["importtime_repeats"])
    cli = isinstance(wl, workloads.CliWorkload)
    tracer = tracing.Tracer()
    plain = inprocess_runner(None) if cli else None
    traced = inprocess_runner(tracer) if cli else None
    tally.add(wl.check(wl.run_pass(plain), reference))  # warm-up pass, not timed
    untraced_passes, traced_passes, layers = [], [], []
    while not traced_passes or sum(p.wall_s for p in untraced_passes + traced_passes) < seconds:
        res = wl.run_pass(plain)
        tally.add(wl.check(res, reference))
        untraced_passes.append(res)

        tracer.reset()
        tracer.install()
        try:
            res = wl.run_pass(traced)
        finally:
            tracer.uninstall()
        tally.add(wl.check(res, reference))
        traced_passes.append(res)
        layer = tracer.layer_metrics()
        layer["cli.stdout_lines"] = sum(workloads.line_count(op.stdout) for op in wl.ops) if cli else 0
        layers.append(layer)
    tracer.write_spans(WORK / f"spans-{wl.name}.csv")

    counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
    if any(c != counts[0] for c in counts):
        tally.fail("trace_counts", "span counts differ between traced passes of the same inputs")
    for key in layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in layers) if key.endswith("_s") else layers[0][key]
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced_passes)
                                   - statistics.median(p.wall_s for p in untraced_passes))
    latency = solve_latency(untraced_passes)
    metrics["solve_ms.p50"] = latency.get("solve_ms.p50", 0.0)
    metrics["solve_ms.p99"] = latency.get("solve_ms.p99", 0.0)
    detail = {"passes": len(traced_passes),
              "untraced_wall_s": [p.wall_s for p in untraced_passes],
              "traced_wall_s": [p.wall_s for p in traced_passes],
              "spans": str(WORK / f"spans-{wl.name}.csv")}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the seed reference (default seed, full size)")
    args = parser.parse_args(argv)

    if not (SRC / "mbm" / "__init__.py").is_file():
        print(f"perfbench: no mbm package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    env = child_env()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.trace or args.workload == "model_sweep":
        import mbm
        if Path(mbm.__file__).resolve().parent != (SRC / "mbm").resolve():
            print(f"perfbench: imported mbm from {mbm.__file__}, not {SRC}", file=sys.stderr)
            return 2

    size = workloads.SIZES[args.size]
    wl = workloads.make_workload(args.workload, WORK, args.seed, size)
    tally = Tally()
    reference = None
    checks_reference = args.seed == workloads.DEFAULT_SEED and args.size == "full"
    if args.record_reference:
        if not checks_reference:
            parser.error("--record-reference needs the default seed and full size")
        verdict = wl.check(wl.run_pass(e2e_runner(wl, env)), None)
        if verdict.failed:
            print(json.dumps(verdict.problems), file=sys.stderr)
            return 1
        stored = (json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))
                  if workloads.REFERENCE_FILE.exists() else {})
        stored[args.workload] = {"inputs": wl.digests, **wl.reference_entry(verdict)}
        workloads.REFERENCE_FILE.write_text(json.dumps(stored, separators=(",", ":")) + "\n",
                                            encoding="utf-8")
        return 0
    if checks_reference:
        reference = json.loads(workloads.REFERENCE_FILE.read_text(encoding="utf-8"))[args.workload]
        if reference["inputs"] != wl.digests:
            tally.fail("inputs", "generated inputs differ from those of the seed reference")

    run = run_traced if args.trace else run_e2e
    values, detail = run(wl, env, size, args.seconds, reference, tally)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    info = {"workload": args.workload, "trace": args.trace, "size": args.size,
            "env": environment(args.seed), "inputs": wl.digests, **detail,
            "problems": dict(list(tally.problems.items())[:10])}
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
