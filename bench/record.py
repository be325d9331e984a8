#!/usr/bin/env python3
"""Write the benchmark's committed files.

    python3 bench/record.py references   # bench/references.json
    python3 bench/record.py baseline     # bench/baseline.json

references: runs each workload's sweep once at --jobs $(nproc) and stores
its record count and digest.  It refuses a report in which any
record fails to hold or carries an error.

baseline: machine info, then for each workload the end-to-end
metrics (one run of BENCHMARK.json's run_seconds) and the per-layer metrics
(one traced run), then the scaling scan with its timings, then the ROADMAP
sweep `verify --grid 5,5 --pmax 200` once at --jobs 1 and once at
--jobs $(nproc).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time

import run


def references() -> None:
    refs = {}
    for args in map(run.workload_args, run.WORKLOADS):
        runner = run.Runner(time.monotonic())
        result = runner.cli(args, run.NPROC, "reference.out")
        rows = run.records(result["data"], run.report_format(args))
        hold, error = run.DIGEST_FIELDS.index("holds"), run.DIGEST_FIELDS.index("error")
        if result["code"] != 0 or any(r[hold] != "True" or r[error] for r in rows):
            raise SystemExit(f"record: '{' '.join(args)}' does not verify; no reference written")
        refs[" ".join(args)] = {"records": len(rows), "sha256": run.digest(rows)}
        print(f"{len(rows):6d} records  {result['wall_s']:6.1f} s  {' '.join(args)}", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


def _machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": run.NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "seed": 0,
    }


def _values(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def baseline() -> None:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"machine": _machine(), "run_seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        end_to_end, tally = run.measure(workload, seconds, time.monotonic())
        per_layer, tally_traced = run.trace(workload, time.monotonic())
        out["workloads"][workload] = {
            "args": run.workload_args(workload),
            "attempted": tally.attempted + tally_traced.attempted,
            "failed": tally.failed + tally_traced.failed,
            "end_to_end": _values(end_to_end),
            "per_layer": _values(per_layer),
        }
        print(f"{workload}: done", flush=True)
    scan = subprocess.run(
        [sys.executable, str(run.BENCH / "scaling.py")],
        env=run.Runner(time.monotonic()).env, capture_output=True, text=True, check=True,
    )
    out["scaling"] = json.loads(scan.stdout)
    args = "verify --grid 5,5 --pmax 200".split()
    roadmap = {"args": args}
    for jobs in (1, run.NPROC):
        runner = run.Runner(time.monotonic())
        runner.deadline += 3600  # this sweep is allowed minutes
        result = runner.cli(args, jobs, "roadmap.out")
        summary = result["data"].decode().splitlines()[-1]
        roadmap[f"jobs_{jobs}"] = {
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["rss_mb"],
            "exit_code": result["code"],
            "summary": summary,
        }
        print(f"roadmap --jobs {jobs}: {result['wall_s']:.1f} s, {summary}", flush=True)
    out["roadmap_sweep"] = roadmap
    path = run.BENCH / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["references"]:
        references()
    elif sys.argv[1:] == ["baseline"]:
        baseline()
    else:
        raise SystemExit(__doc__)
