#!/usr/bin/env python3
"""End-to-end benchmark of the lucanomial CLI.

    python3 bench/run.py --workload grid-all --seed 0 --seconds 60 --trace 0

Run from the root of a checkout.  Each workload is the real CLI, run as a
subprocess from src/, one sweep at a time (a closed loop: one user waits for
each report).  --trace 0 warms up, then repeats the workload's empty-range
command, its sweep at --jobs $(nproc) and its sweep at --jobs 1 in turn
while they fit in --seconds, and prints the median of each timing: the
end-to-end metrics.
--trace 1 runs the sweep once at --jobs 1 and once at --jobs $(nproc), then
once more at --jobs 1 in-process under bench/spans.py, then
bench/scaling.py, and prints the per-layer metrics.  Every report is
checked against bench/references.json.  Metrics are printed one
per line, then as one JSON object on the last line.  Exit code 0 when every
report is correct, 1 when any is not, 2 when the benchmark cannot run.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
NPROC = len(os.sched_getaffinity(0))
SETUPS_PER_STEP = 3
# Every process this benchmark starts is killed once the run is this old, so
# that a run always ends within the 180 s it is allowed.
DEADLINE_S = 170.0

# The 13 report columns the correctness digest covers.  Columns appended to
# the schema later are left out, so additive schema changes keep the digest.
DIGEST_FIELDS = (
    "theorem_id", "P", "Q", "p", "rho", "epsilon", "k", "l",
    "modulus_exponent", "lhs", "rhs", "holds", "error",
)

WORKLOADS = {
    "grid-all": "verify --grid 5,5 --theorem all --pmax 40 --format json",
    "lemmas-csv": "lemmas --grid 5,5 --pmax 250 --format csv",
}


def workload_args(workload: str) -> list[str]:
    """CLI arguments of a workload's sweep, without --jobs."""
    return WORKLOADS[workload].split()


def empty_range(args: list[str]) -> list[str]:
    """The same command over an empty prime range."""
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
        elif a in ("--pmin", "--pmax"):
            skip = True
        else:
            out.append(a)
    return out + ["--pmin", "0", "--pmax", "1"]


def report_format(args: list[str]) -> str:
    return args[args.index("--format") + 1]


def records(data: bytes, fmt: str) -> list[tuple[str, ...]]:
    """Report rows as strings, restricted to DIGEST_FIELDS, as csv writes them."""
    if fmt == "json":
        rows = json.loads(data)["records"]
        return [tuple("" if r.get(f) is None else str(r.get(f)) for f in DIGEST_FIELDS) for r in rows]
    reader = csv.DictReader(io.StringIO(data.decode()))
    return [tuple(row[f] for f in DIGEST_FIELDS) for row in reader]


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update("\x1f".join(row).encode() + b"\n")
    return h.hexdigest()


def count_failed(data: bytes, fmt: str, ref: dict) -> int:
    """Expected records that are missing, do not hold, carry an error, or
    differ from the reference.  A digest mismatch that cannot be pinned on a
    record counts every record as failed."""
    expected = ref["records"]
    try:
        rows = records(data, fmt)
    except (ValueError, KeyError):
        return expected
    hold, error = DIGEST_FIELDS.index("holds"), DIGEST_FIELDS.index("error")
    bad = max(expected - len(rows), 0) + sum(r[hold] != "True" or r[error] != "" for r in rows)
    if bad == 0 and digest(rows) != ref["sha256"]:
        bad = expected
    return min(bad, expected)


class Runner:
    """Starts CLI processes one at a time and kills them at the deadline."""

    def __init__(self, started: float) -> None:
        self.deadline = started + DEADLINE_S
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.env = env
        OUT.mkdir(exist_ok=True)

    def run(self, argv: list[str], out_name: str) -> dict:
        """Run python3 argv through launch.py, stdout to OUT/out_name: its
        exit code, wall time, peak resident set and report bytes."""
        out_path = OUT / out_name
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SystemExit("bench: out of time")
        with open(OUT / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "launch.py"), str(out_path), sys.executable] + argv,
                stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=self.env,
                start_new_session=True,
            )
            try:
                line, _ = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise SystemExit(f"bench: killed at the deadline: {' '.join(argv)}")
        wall, rss_kb, code = line.split()
        if int(code) != 0:
            sys.stderr.write((OUT / "stderr.txt").read_text()[-2000:])
        return {
            "code": int(code),
            "wall_s": float(wall),
            "rss_mb": int(rss_kb) / 1024,
            "data": out_path.read_bytes(),
        }

    def cli(self, args: list[str], jobs: int, out_name: str) -> dict:
        return self.run(["-m", "lucanomial.cli"] + args + ["--jobs", str(jobs)], out_name)


class Tally:
    """Attempted and failed results over all checked reports of one run.

    The first sweep report is checked against the reference.  Every later
    one, at --jobs 1 or --jobs $(nproc), must be byte-identical to it.
    """

    def __init__(self, ref: dict, fmt: str) -> None:
        self.ref, self.fmt = ref, fmt
        self.attempted = self.failed = 0
        self._first: tuple[bytes, int] | None = None

    def report(self, run: dict) -> None:
        expected = self.ref["records"]
        if run["code"] != 0:
            failed = expected
        elif self._first is None:
            failed = count_failed(run["data"], self.fmt, self.ref)
            self._first = (run["data"], failed)
        else:
            failed = self._first[1] if run["data"] == self._first[0] else expected
        self.attempted += expected
        self.failed += failed

    def setup(self, run: dict) -> None:
        """An empty-range run counts as one result: exit 0 and no records."""
        self.attempted += 1
        try:
            ok = run["code"] == 0 and records(run["data"], self.fmt) == []
        except (ValueError, KeyError):
            ok = False
        self.failed += not ok


def load_reference(args: list[str]) -> dict:
    refs = json.loads(REFERENCES.read_text())
    key = " ".join(args)
    if key not in refs:
        raise SystemExit(f"bench: no reference for '{key}' in {REFERENCES}")
    return refs[key]


def measure(workload: str, seconds: float, started: float) -> tuple[dict, Tally]:
    """End-to-end metrics, each the median of its samples.

    An untimed warm-up runs the empty-range command and one sweep.  Then
    the steps repeat in turn: the empty-range command SETUPS_PER_STEP
    times, the sweep at --jobs $(nproc), the sweep at --jobs 1.  After the
    first round, a step runs only if its last duration still fits in
    `seconds`, and the run ends when none does.
    """
    args = workload_args(workload)
    runner = Runner(started)
    tally = Tally(load_reference(args), report_format(args))
    # Untimed warm-up: the bytecode cache, then one sweep to fill the page cache.
    runner.cli(empty_range(args), NPROC, "setup.out")
    tally.report(runner.cli(args, NPROC, "sweep.out"))
    steps = ("setup_s", "wall_s", "serial_wall_s")
    samples: dict[str, list[float]] = {k: [] for k in steps + ("peak_rss_mb",)}
    took: dict[str, float] = {}
    end = min(time.monotonic() + seconds, runner.deadline)
    while True:
        todo = [s for s in steps if s not in took or time.monotonic() + took[s] <= end]
        if not todo:
            break
        step = todo[0]
        steps = steps[steps.index(step) + 1 :] + steps[: steps.index(step) + 1]
        s0 = time.monotonic()
        if step == "setup_s":
            for _ in range(SETUPS_PER_STEP):
                run = runner.cli(empty_range(args), NPROC, "setup.out")
                tally.setup(run)
                samples[step].append(run["wall_s"])
        else:
            jobs = NPROC if step == "wall_s" else 1
            run = runner.cli(args, jobs, "sweep.out")
            tally.report(run)
            samples[step].append(run["wall_s"])
            if jobs == NPROC:
                samples["peak_rss_mb"].append(run["rss_mb"])
        took[step] = time.monotonic() - s0
    med = {k: statistics.median(v) for k, v in samples.items()}
    metrics = {
        "wall_s": (med["wall_s"], "s"),
        "serial_wall_s": (med["serial_wall_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "setup_s": (med["setup_s"], "s"),
        "held_frac": (1 - tally.failed / tally.attempted, "fraction"),
    }
    return metrics, tally


def trace(workload: str, started: float) -> tuple[dict, Tally]:
    """Per-layer metrics from one traced in-process --jobs 1 run."""
    import spans

    args = workload_args(workload)
    runner = Runner(started)
    tally = Tally(load_reference(args), report_format(args))
    runner.cli(empty_range(args), NPROC, "setup.out")
    serial = runner.cli(args, 1, "sweep.out")
    tally.report(serial)
    parallel = runner.cli(args, NPROC, "sweep.out")
    tally.report(parallel)
    trace_path = OUT / "trace.bin"
    traced = runner.run(
        [str(BENCH / "spans.py"), str(trace_path)] + args + ["--jobs", "1"], "traced.out"
    )
    tally.report(traced)
    scan = runner.run([str(BENCH / "scaling.py")], "scaling.out")
    if traced["code"] != 0 or scan["code"] != 0:
        raise SystemExit("bench: the traced run or the scaling scan failed")
    s = spans.summarize(trace_path)
    calls, self_s, counts = s["calls"], s["self_s"], s["counts"]
    cells = calls.get("cli.cell", 0)
    skipped = counts.get("cli.cells_skipped", 0)
    ladders = calls.get("ranks.rank_ladder", 0)
    rungs = counts.get("ranks.ladder_rungs", 0)
    residues = calls.get(spans.RESIDUE_RANK, 0) + calls.get(spans.RESIDUE_EXACT, 0)
    cell_ms = sorted(s["cell_ms"]) or [0.0]
    metrics = {}
    for layer in (
        "lucas.uv_mod", "ranks.rank_ladder", "binomial.residue_rank", "binomial.residue_exact",
        "sums.compute", "theorems.N", "theorems.LjWe", "theorems.P5", "theorems.P6",
        "theorems.sweep", "reports.to_record",
    ):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in (
        "lucas.uv_mod", "ranks.rank_ladder", "ranks.rank_of_appearance",
        "binomial.residue_rank", "binomial.residue_exact", "binomial.exact",
        "lucas.uv_sequence", "binomial.generalized", "sums.compute", "sums.lemmas",
        "theorems.N", "theorems.LjWe", "theorems.P5", "theorems.P6", "theorems.sweep",
        "reports.to_record",
    ):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    metrics.update({
        "ranks.ladder_rungs": (rungs, "count"),
        "ranks.probes_per_rung": (s["ladder_probes"] / max(rungs - ladders, 1), "probes/rung"),
        "binomial.residues_per_cell": (residues / max(cells - skipped, 1), "residues/cell"),
        "sums.compute.terms": (counts.get("sums.compute.terms", 0), "count"),
        "cli.self_s": (s["cli_s"] - sum(s["cell_ms"]) / 1000, "s"),
        "cli.report_bytes": (len(traced["data"]), "bytes"),
        "cli.cells": (cells, "count"),
        "cli.cells_skipped_frac": (skipped / max(cells, 1), "fraction"),
        "cli.cell_ms.p50": (statistics.median(cell_ms), "ms"),
        # The highest percentile with at least ten cells beyond it.
        "cli.cell_ms.ptail": (cell_ms[max(len(cell_ms) - 11, 0)], "ms"),
        "cli.parallel_eff": (serial["wall_s"] / (NPROC * parallel["wall_s"]), "fraction"),
        "trace.overhead_frac": (traced["wall_s"] / serial["wall_s"] - 1, "fraction"),
    })
    for layer, exponent in json.loads(scan["data"])["exponents"].items():
        metrics[f"scale.{layer}.exponent"] = (exponent, "exponent")
    if s["missing"]:
        print(f"bench: not traced, missing: {', '.join(s['missing'])}", file=sys.stderr)
    return metrics, tally


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # Both workloads have fixed inputs: every seed gives the same ones.
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "lucanomial" / "cli.py").is_file():
        print(f"bench: no lucanomial sources under {SRC}", file=sys.stderr)
        return 2
    if opts.trace:
        metrics, tally = trace(opts.workload, started)
    else:
        metrics, tally = measure(opts.workload, opts.seconds, started)
    correct = tally.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6g} {unit}")
    print(f"correct={correct} attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
