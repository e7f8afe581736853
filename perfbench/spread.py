"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --seeds 10 [--workloads cli_batch,model_sweep]

Runs ``run.py`` once per (seed, workload), seed-major so that the passes
of different workloads interleave in time, then prints, per workload and
metric, the median and the quartile spread (Q3 - Q1) / median of the
values, as ``statistics.quantiles(values, n=4)`` gives the quartiles,
next to the metric's bound from ``BENCHMARK.json``, and the mean wall
time of one run. The uncalibrated medians of the info line (``raw_*``) are
listed the same way, without a bound, to show what calibration removed.
Raw results go to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failures = 0
    run_s = []
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    with log.open("a", encoding="utf-8") as fh:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for name in names:
                cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
                elapsed = time.perf_counter() - start
                run_s.append(elapsed)
                info, result = (json.loads(ln) for ln in proc.stdout.strip().splitlines()[-2:])
                fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
                fh.flush()
                failures += result["failed"] > 0 or not result["correct"]
                for metric, entry in result["metrics"].items():
                    values[name].setdefault(metric, []).append(entry["value"])
                for key in ("raw_setup_s", "raw_wall_s"):
                    values[name].setdefault(key, []).append(info[key])
                print(f"seed {seed} {name} ({elapsed:.0f} s): " + " ".join(
                    f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    worst = 0.0
    for name in names:
        for metric, vals in values[name].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            line = f"{name:15s} {metric:12s} median={med:.4g} spread={spread:.3f}"
            if bound is not None:
                worst = max(worst, spread / bound)
                line += f" bound={bound} spread/bound={spread / bound:.2f}"
            print(line)
    print(f"runs with failures: {failures}; worst spread/bound: {worst:.2f}; "
          f"mean run {statistics.mean(run_s):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
