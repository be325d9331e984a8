"""CLI behavior: subcommands, report formats, exit codes, determinism."""

import contextlib
import csv
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import pytest

from lucanomial import (
    RECORD_FIELDS,
    THEOREM_IDS,
    Cell,
    CongruenceReport,
    LucasParams,
    ValuedResidue,
    compute_sums,
    primes_in_range,
    rank_of_appearance,
    sweep,
    verify_sum_lemmas,
)
from lucanomial import cli
from lucanomial.cli import _emit_records, _render, build_parser, main
from lucanomial.ranks import maximal_ranks

FIB = LucasParams(1, -1)


def test_verify_exit_zero_and_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--P", "1", "--Q", "-1",
            "--theorem", "N",
            "--pmin", "7", "--pmax", "50",
            "--kmax", "3",
            "--format", "json",
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    records = payload["records"]
    expected = [r.to_record() for r in sweep([LucasParams(1, -1)], (7, 50), ("N",), range(4))]
    assert records == expected
    assert all(rec["holds"] for rec in records)
    assert all(isinstance(rec["lhs"], str) for rec in records)
    assert capsys.readouterr().err.startswith("checked=")


def test_verify_degenerate_equality_case(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--P", "2", "--Q", "2",
            "--theorem", "LjWe",
            "--pmin", "5", "--pmax", "5",
            "--kmax", "3",
            "--format", "json",
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert code == 0
    records = json.loads(out.read_text())["records"]
    case = [r for r in records if r["k"] == 3 and r["l"] == 2]
    assert len(case) == 1
    assert case[0]["lhs"] == case[0]["rhs"] == str(4096 % 125)


def test_verify_csv_columns(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "verify",
            "--P", "2", "--Q", "1",
            "--theorem", "N",
            "--pmin", "5", "--pmax", "20",
            "--kmax", "2",
            "--format", "csv",
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert tuple(rows[0].keys()) == RECORD_FIELDS
    assert all(row["holds"] == "True" for row in rows)


def test_verify_text_summary(capsys):
    code = main(
        [
            "verify",
            "--P", "2", "--Q", "1",
            "--theorem", "N",
            "--pmax", "20",
            "--kmax", "1",
            "--jobs", "1",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "all hold" in text
    assert "failed=0" in text


def test_parallel_output_matches_serial(tmp_path):
    sweep_n = "verify --grid 2,2 --theorem N --pmax 30 --kmax 2"
    for args, min_bytes in (
        (f"{sweep_n} --format json", 100),
        (f"{sweep_n} --format text", 100),
        ("lemmas --grid 1,1 --pmax 60 --format csv", 100),
        (f"{sweep_n} --cross-check 20 --format json", 100),
        (f"{sweep_n} --cross-check 20 --format text", 100),
        ("verify --grid 2,2 --pmin 0 --pmax 1 --format json", 10),
    ):
        args = args.split()
        serial = tmp_path / "serial.out"
        parallel = tmp_path / "parallel.out"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "4", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes(), args
        assert serial.stat().st_size > min_bytes, args


def test_cross_check_is_its_own_text_group(capsys):
    # A run of one cell draws that cell whatever the seed: the oracle
    # comparison gets its own summary line instead of adding to the cell's count.
    argv = "verify --P 1 --Q -1 --theorem N --pmin 23 --pmax 23 --kmax 1 --cross-check 1"
    assert main(argv.split() + ["--format", "text", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "P=1 Q=-1 p=23 rho=24 eps=-1: 2 checks, all hold",
        "P=1 Q=-1 p=23 rho=24 eps=-1: 1 checks, all hold",
        "checked=3 hold=3 failed=0",
    ]


def test_cross_check_draws_only_accepted_cells_of_the_run(capsys):
    # Every p of the run divides 2Q = 30, so `require_prime` refuses every
    # cell: nothing is drawn, and the run still ends.
    assert main("verify --P 1 --Q 15 --pmin 3 --pmax 5 --cross-check 5 --format json".split()) == 0
    assert json.loads(capsys.readouterr().out)["records"] == []
    # On a grid, every draw is a cell of the run's pairs and primes that
    # `require_prime` accepts; the ones it refuses (p = 2, or p | Q) are drawn
    # again, and the ones with p | D are drawn too.
    argv = "verify --grid 3,3 --pmin 2 --pmax 30 --cross-check 200 --format json"
    assert main(argv.split()) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    oracle = [r for r in records if r["theorem_id"] == "oracle"]
    assert len(oracle) == 200 and all(r["holds"] for r in oracle)
    primes = primes_in_range(2, 30)
    for r in oracle:
        assert abs(r["P"]) <= 3 and 1 <= abs(r["Q"]) <= 3 and r["p"] in primes, r
        assert (2 * r["Q"]) % r["p"] != 0, r
    assert any((r["P"] ** 2 - 4 * r["Q"]) % r["p"] == 0 for r in oracle)


def test_p_dividing_d_cell_is_witnessed_by_the_exact_path(monkeypatch, capsys):
    # (2, 1) has D = 0, so p = 7 divides D; its rank 7 is maximal, and the
    # cell has 32 checks.  With the cell's central binom(13, 6)_U off by one,
    # the exact path's witness disagrees: every N, P5 and P6 record, which
    # read the central value, carries it, LjWe's do not, and the run exits 1.
    real = Cell.residue

    def off_by_one(self, m, n, j):
        r = real(self, m, n, j)
        return ValuedResidue.from_integer(r.residue() + 1, r.p, j) if (m, n) == (13, 6) else r

    monkeypatch.setattr(Cell, "residue", off_by_one)
    argv = "verify --P 2 --Q 1 --pmin 7 --pmax 7 --format json --jobs 1"
    assert main(argv.split()) == 1
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == 32
    for r in records:
        if r["theorem_id"] == "LjWe":
            assert r["holds"] and r["error"] is None, r
        else:
            assert not r["holds"] and "rank and exact paths disagree" in r["error"], r
    assert {r["theorem_id"] for r in records if not r["holds"]} == {"N", *THEOREM_IDS[2:]}


def test_jobs_default_is_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    for command in ("verify", "lemmas"):
        args = build_parser().parse_args([command, "--P", "1", "--Q", "-1", "--pmax", "9"])
        assert args.jobs == 3, command
    # search forks no workers, so it has no --jobs.
    assert not hasattr(build_parser().parse_args(["search", "--grid", "1,1", "--pmax", "9"]), "jobs")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["verify", "--grid", "1,1", "--pmax", "9"]).jobs == 1


def _json_oracle(reports) -> str:
    return json.dumps({"records": [r.to_record() for r in reports]}, indent=2) + "\n"


def _csv_oracle(reports) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
    writer.writeheader()
    for rec in (r.to_record() for r in reports):
        writer.writerow({k: ("" if rec[k] is None else rec[k]) for k in RECORD_FIELDS})
    return buf.getvalue()


def _text_oracle(reports) -> str:
    """The text report as the parent built it: whole cells, then lines."""
    lines = []
    group_key = None
    group = []

    def flush():
        if group_key is None:
            return
        P, Q, p = group_key
        rank = group[0].rank
        bad = [r for r in group if not r.holds]
        status = "all hold" if not bad else f"{len(bad)} FAILED"
        lines.append(
            f"P={P} Q={Q} p={p} rho={rank.rho} eps={rank.epsilon}: "
            f"{len(group)} checks, {status}"
        )

    for r in reports:
        key = (r.params.P, r.params.Q, r.p)
        if key != group_key:
            flush()
            group_key, group = key, []
        group.append(r)
        if not r.holds:
            inputs = " ".join(f"{k}={v}" for k, v in r.inputs.items())
            lines.append(
                f"COUNTEREXAMPLE {r.theorem_id} P={r.params.P} Q={r.params.Q} "
                f"p={r.p} {inputs} lhs={r.lhs} rhs={r.rhs} mod p^{r.modulus_exponent}"
                + (f" error={r.error}" if r.error else "")
            )
    flush()
    held = sum(r.holds for r in reports)
    lines.append(f"checked={len(reports)} hold={held} failed={len(reports) - held}")
    return "\n".join(lines) + "\n"


ORACLES = {"json": _json_oracle, "csv": _csv_oracle, "text": _text_oracle}


def test_reports_match_the_oracle_encoders(tmp_path, capsys):
    # (2, 1) and (2, 2) are degenerate; (2, 1) has D = 0, so every prime
    # takes the exact path there.
    grid = [LucasParams(P, Q) for P in range(-2, 3) for Q in (-2, -1, 1, 2)]
    cases = (
        (["--pmin", "5", "--pmax", "23"], sweep(grid, (5, 23), THEOREM_IDS, range(3))),
        (["--pmin", "0", "--pmax", "1"], []),
    )
    for prime_range, reports in cases:
        for fmt, oracle in ORACLES.items():
            for jobs in ("1", "2"):
                out = tmp_path / f"report.{fmt}"
                argv = ["verify", "--grid", "2,2", "--kmax", "2", "--format", fmt, "--jobs", jobs]
                assert main(argv + prime_range + ["--out", str(out)]) == 0
                assert out.read_bytes() == oracle(reports).encode(), (fmt, prime_range, jobs)
                assert capsys.readouterr().err == (
                    f"checked={len(reports)} hold={len(reports)} failed=0\n"
                )


def test_emitter_escapes_like_the_oracle(tmp_path):
    rank = rank_of_appearance(FIB, 7)
    errors = (
        None, '"', "\\", "{", "}", '},\n  "holds": true', "},\n      {", "ρ = p − ε, 𝔽_p",
        "tab\there",
    )
    reports = [
        CongruenceReport(
            "LjWe", FIB, rank, {"k": i, "l": 0}, 3, 10**40 + i, 5, error is None, error
        )
        for i, error in enumerate(errors)
    ] + [CongruenceReport("P6", FIB, rank_of_appearance(FIB, 11), {}, 6, 0, 0, True)]
    for fmt, oracle in ORACLES.items():
        out = tmp_path / f"report.{fmt}"
        # Two fragments, split at the cell boundary, with an empty batch between.
        batches = [_render(reports[:-1], fmt), _render([], fmt), _render(reports[-1:], fmt)]
        assert _emit_records(iter(batches), fmt, str(out)) == (len(reports), 2)
        with open(out, newline="") as fh:
            assert fh.read() == oracle(reports), fmt


def test_records_are_built_in_schema_order():
    # The CSV rows are the record dicts' values, so each dict must be built in
    # RECORD_FIELDS order, for every kind of report.
    rank = rank_of_appearance(FIB, 11)
    reports = [sweep([FIB], (11, 11), (tid,), range(2))[0] for tid in ("N", "LjWe", "P6")]
    reports.append(verify_sum_lemmas(FIB, rank)[0])
    reports.append(CongruenceReport("LjWe", FIB, rank, {"k": 1, "l": 0}, 3, 1, 2, False, "boom"))
    for r in reports:
        assert tuple(r.to_record()) == RECORD_FIELDS, r.theorem_id


class _CountingStdout(io.TextIOBase):
    """A stdout that keeps nothing and only counts the characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def _synthetic_batches(count, size):
    """`count` distinct json batches of about `size` characters, each made
    only when it is consumed, as a worker's fragment arrives."""
    for i in range(count):
        yield f'\n    {{\n      "i": {i},\n      "pad": "{"x" * size}"\n    }}', 1, 1


def test_emitter_peak_does_not_grow_with_the_report(tmp_path):
    # The emitter holds one batch at a time and writes it straight out, so
    # the traced peak stays under one bound, a quarter of the smaller report,
    # whether the report is 4 MB or 16 MB.
    bound = 1_000_000

    def traced_peak(count, out_path) -> int:
        tracemalloc.start()
        try:
            batches = _synthetic_batches(count, 4000)
            assert _emit_records(batches, "json", out_path) == (count, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for count in (1000, 4000):
        stdout = _CountingStdout()
        assert not hasattr(stdout, "buffer")
        with contextlib.redirect_stdout(stdout):
            peak = traced_peak(count, None)
        assert stdout.size > count * 4000
        assert peak < bound, (count, peak)
        out = tmp_path / "report.json"
        peak = traced_peak(count, str(out))
        assert out.stat().st_size == stdout.size
        assert peak < bound, (count, peak)
        assert [r["i"] for r in json.loads(out.read_text())["records"]] == list(range(count))


def _recorded_sweep(monkeypatch, argv):
    """The worker and the tasks that `main(argv)` hands the pool, which checks
    no cell; and the traced peak of the run."""
    handed = []

    def record(worker, tasks, jobs):
        handed.append((worker, tasks))
        return iter(())

    monkeypatch.setattr(cli, "_map_cells", record)
    tracemalloc.start()
    try:
        assert main(argv.split()) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [(worker, tasks)] = handed
    return worker, tasks, peak


def test_sweep_holds_no_task_per_cell(monkeypatch):
    # A sweep's tasks are its cell numbers: the parent holds the (P, Q) list
    # and one prime list, not a task for each of the quarter million cells.
    # The cross-check draws from those two lists too.  Its residues are
    # stubbed: one exact residue near p = 20,000 walks ~80,000 exact terms.
    same = types.SimpleNamespace(residue=lambda: 0)
    monkeypatch.setattr(cli, "lucanomial_residue", lambda *args, **kwargs: same)
    for argv, cells in (
        ("lemmas --grid 5,5 --pmax 20000", 248_490),
        ("verify --grid 5,5 --pmax 20000", 248_600),
        ("verify --grid 5,5 --pmax 20000 --cross-check 1", 248_600),
    ):
        _, tasks, peak = _recorded_sweep(monkeypatch, argv)
        assert len(tasks) == cells, argv
        assert peak < 1_000_000, (argv, peak)


def test_sweep_cells_go_each_pair_then_each_prime(monkeypatch):
    grid = [LucasParams(P, Q) for P in range(-2, 3) for Q in range(-2, 3) if Q]
    for command, cell, pmin in (("verify", "_verify_cell", 5), ("lemmas", "_lemma_cell", 7)):
        monkeypatch.setattr(cli, cell, lambda params, p, *rest: (params, p))
        worker, tasks, _ = _recorded_sweep(monkeypatch, f"{command} --grid 2,2 --pmax 60")
        expected = [(params, p) for params in grid for p in primes_in_range(pmin, 60)]
        assert [worker(i) for i in tasks] == expected, command


def _sweep_that_raises_at_eleven(params_grid, p_range, *args):
    if p_range == (11, 11):
        raise ArithmeticError("cell failed")
    return sweep(params_grid, p_range, *args)


def test_sweep_that_dies_midway_writes_nothing(tmp_path, monkeypatch, capsys):
    # Every cell is spooled before the report is begun, so a cell that
    # raises after p = 5 and 7 are checked leaves no byte of the report.
    monkeypatch.setattr(cli, "sweep", _sweep_that_raises_at_eleven)
    out = tmp_path / "report.out"
    out.write_bytes(b"an earlier report\n")
    argv = "verify --P 1 --Q -1 --theorem N --pmax 30 --kmax 1 --jobs 1".split()
    for fmt in ORACLES:
        for dest in (["--out", str(out)], []):
            with pytest.raises(ArithmeticError, match="cell failed"):
                main(argv + ["--format", fmt] + dest)
    assert out.read_bytes() == b"an earlier report\n"
    assert capsys.readouterr().out == ""


class _FullSpool(io.BytesIO):
    """A spool on a full disk: its `failing` operation, "write" or "seek"
    (with which the spools are read back), raises ENOSPC."""

    failing = "write"

    def _check(self, op):
        if op == self.failing:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        self._check("write")
        return super().write(data)

    def seek(self, *args):
        self._check("seek")
        return super().seek(*args)


def _no_spool(*args, **kwargs):
    raise OSError(errno.ENOENT, os.strerror(errno.ENOENT))


def test_spool_that_fails_exits_two(tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.out"
    out.write_bytes(b"an earlier report\n")
    argv = "verify --P 1 --Q -1 --theorem N --pmax 30 --kmax 1".split()
    for spool, failing, reason in (
        (_FullSpool, "write", "No space left on device"),
        (_FullSpool, "seek", "No space left on device"),
        (_no_spool, None, "No such file"),
    ):
        monkeypatch.setattr(tempfile, "TemporaryFile", spool)
        monkeypatch.setattr(_FullSpool, "failing", failing)
        for jobs, fmt in itertools.product(("1", "2"), ORACLES):
            for dest in (["--out", str(out)], []):
                with pytest.raises(SystemExit) as err:
                    main(argv + ["--jobs", jobs, "--format", fmt] + dest)
                assert err.value.code == 2, (failing, jobs, fmt, dest)
                captured = capsys.readouterr()
                assert captured.out == "", (failing, jobs, fmt, dest)
                assert captured.err.startswith(
                    f"lucanomial: error: cannot spool the report: {reason}"
                )
                assert captured.err.count("\n") == 1
    assert out.read_bytes() == b"an earlier report\n"


def test_out_that_fails_midway_keeps_the_earlier_report(tmp_path, capsys):
    # The report (about 930 KB) is written beside --out and moved over it
    # only once whole, so a file-size limit of 600,000 bytes, met midway,
    # leaves the earlier report and no partial file.
    out = tmp_path / "prev.json"
    argv = "verify --grid 2,2 --pmax 60 --format json --jobs 2 --out".split() + [str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    earlier = out.read_bytes()
    assert len(earlier) > 600_000
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    assert out.stat().st_mode == plain.stat().st_mode  # not mkstemp's 0o600
    plain.unlink()
    code = (
        "import resource, sys\n"
        "from lucanomial.cli import main\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (600_000, resource.RLIM_INFINITY))\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"lucanomial: error: cannot write {out}: File too large"
    ]
    assert out.read_bytes() == earlier
    assert os.listdir(tmp_path) == ["prev.json"]
    # A destination that is not a regular file is written in place.
    assert main(argv[:-1] + [os.devnull]) == 0


def test_pool_starts_no_more_workers_than_cells(monkeypatch, capsys):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    for argv, workers in (
        ("verify --P 1 --Q -1 --pmax 7 --format json", 2),  # 2 cells: p = 5, 7
        ("verify --grid 1,1 --pmax 7 --format json", 4),  # 12 cells
    ):
        assert main(argv.split() + ["--jobs", "4"]) == 0
        pooled = capsys.readouterr()
        assert len(forks) == workers, argv
        forks.clear()
        assert main(argv.split() + ["--jobs", "1"]) == 0
        assert capsys.readouterr() == pooled, argv
    assert forks == []


def test_sweep_without_fork_runs_in_this_process(tmp_path, monkeypatch):
    argv = "verify --grid 1,1 --pmax 13".split()
    for fmt in ORACLES:
        serial = tmp_path / f"serial.{fmt}"
        assert main(argv + ["--format", fmt, "--jobs", "1", "--out", str(serial)]) == 0
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            unforked = tmp_path / f"unforked.{fmt}"
            assert main(argv + ["--format", fmt, "--jobs", "4", "--out", str(unforked)]) == 0
        assert unforked.read_bytes() == serial.read_bytes(), fmt
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_report_passes_through_tmpdir_once(tmp_path, monkeypatch):
    # One spool per worker and none more: the cells are copied from the
    # spools straight to the destination.  A duplicate of each temporary
    # file's descriptor keeps it open, so its final size can be read.
    made = []
    temporary_file = tempfile.TemporaryFile

    def counted(*args, **kwargs):
        spool = temporary_file(*args, **kwargs)
        made.append(os.dup(spool.fileno()))
        return spool

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    out = tmp_path / "report.json"
    argv = f"verify --grid 2,2 --pmax 60 --format json --out {out} --jobs".split()
    for jobs, files in (("2", 2), ("1", 1)):
        assert main(argv + [jobs]) == 0
        try:
            written = sum(os.fstat(fd).st_size for fd in made)
        finally:
            for fd in made:
                os.close(fd)
        assert len(made) == files, jobs
        assert written <= 1.05 * out.stat().st_size, (jobs, written)
        made.clear()


def test_parallel_output_matches_serial_on_uneven_chunks(tmp_path):
    # 12 cells over 3 workers, chunks of one cell; then 160 cells in 54
    # chunks of 3, the last chunk holding one cell.  Dealt over 7 workers,
    # the 160 one-cell chunks leave one worker a share shorter than the rest,
    # and so do the lemma sweep's 280 cells in 56 chunks of 5 over 3.
    sweep_n = "verify --grid 2,2 --theorem N --kmax 1 --pmax 29"
    for args, jobs in (
        ("verify --grid 1,1 --pmax 7", "3"),
        (sweep_n, "3"),
        (sweep_n, "7"),
        ("lemmas --grid 2,2 --pmax 60", "3"),
    ):
        for fmt in ORACLES:
            argv = args.split() + ["--format", fmt]
            serial = tmp_path / "serial.out"
            parallel = tmp_path / "parallel.out"
            assert main(argv + ["--jobs", "1", "--out", str(serial)]) == 0
            assert main(argv + ["--jobs", jobs, "--out", str(parallel)]) == 0
            assert serial.read_bytes() == parallel.read_bytes(), (argv, jobs)


def test_worker_whose_cell_raises_fails_the_sweep(tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "sweep", _sweep_that_raises_at_eleven)
    out = tmp_path / "report.json"
    argv = "verify --P 1 --Q -1 --theorem N --pmax 40 --kmax 1 --format json --jobs 2"
    with pytest.raises(RuntimeError, match="sweep worker exited with status 1"):
        main(argv.split() + ["--out", str(out)])
    assert not out.exists()
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "ArithmeticError: cell failed" in captured.err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_spool_that_fails_exits_two(tmp_path, monkeypatch, capfd):
    # Every worker's spool fails; the sweep exits 2 with one line.
    def full_disk(cells, spool):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.marshal, "dump", full_disk)
    out = tmp_path / "report.json"
    argv = "verify --grid 1,1 --theorem N --pmax 40 --kmax 1 --format json --jobs 2"
    with pytest.raises(SystemExit) as err:
        main(argv.split() + ["--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    assert capfd.readouterr() == (
        "", "lucanomial: error: cannot spool the report: No space left on device\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_counterexample_exits_one(tmp_path, capsys, monkeypatch):
    def sweep_with_one_failure(*args):
        reports = sweep(*args)
        if reports and reports[0].p == 11:
            reports[1] = reports[1]._replace(lhs=reports[1].lhs + 1, holds=False)
        return reports

    monkeypatch.setattr(cli, "sweep", sweep_with_one_failure)
    out = tmp_path / "report.json"
    argv = "verify --P 1 --Q -1 --theorem N --pmin 7 --pmax 30 --kmax 2 --format json --jobs 1"
    assert main(argv.split() + ["--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    n = len(records)
    assert capsys.readouterr().err == f"checked={n} hold={n - 1} failed=1\n"
    failed = [r for r in records if not r["holds"]]
    assert [(r["p"], r["k"]) for r in failed] == [(11, 1)]
    assert failed[0]["lhs"] != failed[0]["rhs"]


def test_parallel_sweep_imports_no_pool_machinery(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "report.json"
    argv = f"verify --grid 1,1 --pmax 13 --format json --jobs 2 --out {out}"
    code = (
        "import sys\n"
        "from lucanomial.cli import main\n"
        f"assert main({argv.split()!r}) == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
    assert len(json.loads(out.read_text())["records"]) > 0


def test_import_starts_no_pool_machinery():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, lucanomial.cli; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_import_loads_no_dataclasses_or_inspect():
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, lucanomial.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_closed_stdout_exits_two():
    # The json report (about 680 KB) overflows the 64 KiB pipe buffer, so the
    # writer meets the closed pipe mid-report.
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = "verify --grid 2,2 --pmax 40 --format json --jobs 1".split()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lucanomial.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "recor'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.splitlines() == ["lucanomial: error: cannot write to stdout: Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_a_full_disk_exits_two():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (
        "verify --P 1 --Q -1 --pmax 30 --format json --jobs 1",
        "search --P 1 --Q -1 --pmax 30",
    ):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "lucanomial.cli", *argv.split()],
                env=env,
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert result.returncode == 2, argv
        message = "lucanomial: error: cannot write to stdout: No space left on device"
        assert result.stderr.splitlines() == [message], argv


def test_theorem_tokens_select_registry_ids(tmp_path):
    def theorem_ids(*tokens):
        out = tmp_path / "report.csv"
        argv = "verify --grid 2,2 --pmin 7 --pmax 20 --kmax 1 --format csv --jobs 1".split()
        for token in tokens:
            argv += ["--theorem", token]
        assert main(argv + ["--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        cells: dict = {}
        for row in rows:
            cells.setdefault((row["P"], row["Q"], row["p"]), []).append(row["theorem_id"])
        return out.read_bytes(), cells

    _, cells = theorem_ids("P5", "N", "P5_2")
    assert cells
    for ids in cells.values():
        # Every cell has p >= 7, so all four P5 forms apply; then N, once per k.
        assert ids == ["P5_1", "P5_2", "P5_3", "P5_4", "N", "N"]
    assert theorem_ids("all")[0] == theorem_ids()[0]


def test_cross_check_records(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--P", "1", "--Q", "-1",
            "--theorem", "N",
            "--pmin", "7", "--pmax", "30",
            "--kmax", "1",
            "--cross-check", "25",
            "--seed", "7",
            "--format", "json",
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert code == 0
    records = json.loads(out.read_text())["records"]
    oracle = [r for r in records if r["theorem_id"] == "oracle"]
    assert len(oracle) == 25
    assert all(r["holds"] for r in oracle)


def test_cross_check_deterministic_for_seed(tmp_path):
    args = [
        "verify", "--P", "1", "--Q", "-1", "--theorem", "N",
        "--pmin", "7", "--pmax", "30", "--kmax", "0",
        "--cross-check", "10", "--seed", "42", "--format", "json", "--jobs", "1",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_text() == b.read_text()


def test_search_lists_maximal_primes(capsys):
    code = main(["search", "--P", "1", "--Q", "-1", "--pmin", "7", "--pmax", "30"])
    assert code == 0
    text = capsys.readouterr().out
    for p, rho in ((7, 8), (11, 10), (19, 18), (23, 24)):
        assert f"p={p} rho={rho}" in text
    assert "p=13" not in text
    assert "found=4" in text
    # Ranks are defined for odd primes only: a range reaching 2 starts at 3.
    assert main(["search", "--P", "1", "--Q", "-1", "--pmin", "2", "--pmax", "30"]) == 0
    text = capsys.readouterr().out
    assert "p=3 rho=4" in text and "p=2 " not in text and "found=6" in text


@pytest.mark.parametrize("exponents", [1, 3])
def test_search_shows_prime_power_ranks_in_every_format(exponents, capsys):
    # JSON's rho_prime_power is the reference; at one exponent the text and
    # CSV have no prime-power field.
    higher = [str(a) for a in range(2, exponents + 1)]
    args = ["search", "--grid", "1,1", "--pmax", "30", "--exponents", str(exponents), "--format"]
    assert main(args + ["json"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    # Each record is its pair, then the RankInfo that maximal_ranks yields,
    # field by field and in order; json writes the exponents as strings.
    parsed = build_parser().parse_args(args + ["json"])
    ranks = [
        {"P": params.P, "Q": params.Q, **info._asdict()}
        | {"rho_prime_power": {str(a): r for a, r in info.rho_prime_power.items()}}
        for params in parsed.grid
        for info in maximal_ranks(params, parsed.pmin, parsed.pmax, exponents)
    ]
    assert [list(r.items()) for r in records] == [list(r.items()) for r in ranks]
    fib5 = next(r for r in records if (r["P"], r["Q"], r["p"]) == (1, -1, 5))
    assert fib5["rho_prime_power"] == {a: 5 ** int(a) for a in ["1"] + higher}
    expected = [
        [r["P"], r["Q"], r["p"], r["rho"], r["epsilon"], r["maximal"]]
        + [r["rho_prime_power"][a] for a in higher]
        for r in records
    ]
    assert main(args + ["csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["P", "Q", "p", "rho", "epsilon", "maximal"] + [f"rho_p{a}" for a in higher]
    assert rows[1:] == [[str(x) for x in row] for row in expected]
    assert main(args + ["text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"found={len(records)}"
    assert lines[:-1] == [
        f"P={P} Q={Q} p={p} rho={rho} eps={eps} maximal"
        + "".join(f" rho(p^{a})={r}" for a, r in zip(higher, ranks))
        for P, Q, p, rho, eps, _, *ranks in expected
    ]


def test_empty_text_search_prints_the_count_alone(capsys):
    # No maximal-rank prime lies in [14, 16] for Fibonacci: no blank line either.
    assert main(["search", "--P", "1", "--Q", "-1", "--pmin", "14", "--pmax", "16"]) == 0
    assert capsys.readouterr().out == "found=0\n"


def test_lemmas_command(tmp_path):
    out = tmp_path / "lemmas.json"
    code = main(
        [
            "lemmas",
            "--P", "1", "--Q", "-1",
            "--pmin", "7", "--pmax", "30",
            "--format", "json",
            "--out", str(out),
            "--jobs", "1",
        ]
    )
    assert code == 0
    records = json.loads(out.read_text())["records"]
    assert records and all(r["holds"] for r in records)
    assert {r["theorem_id"] for r in records} >= {
        "power_sums",
        "pair_sum",
        "triple_sum",
        "quadruple_sum",
        "quintuple_sum",
        "weighted_sum",
        "sum_reflection",
        "pair_reduction",
    }


def test_table_command(capsys):
    code = main(["table", "--P", "2", "--Q", "1", "--p", "7", "--precision", "2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "rho=7" in text
    assert "S1 = 0" in text  # harmonic sum vanishes mod 49
    assert "S1,1,1,1,1" in text
    assert "SQ0" in text


def test_table_command_json(capsys):
    params = LucasParams(3, -2)
    assert main(["table", "--P", "3", "--Q", "-2", "--p", "13", "--precision", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    table = compute_sums(params, rank_of_appearance(params, 13), 3)
    assert (payload["P"], payload["Q"], payload["p"], payload["rho"]) == (3, -2, 13, table.rho)
    assert payload["precision"] == 3
    assert payload["modulus"] == str(13**3)
    expected = {f"S{nu}": value for nu, value in enumerate(table.power)}
    expected.update(("S" + ",".join(map(str, key)), value) for key, value in table.monomial.items())
    expected.update((f"SQ{nu}", value) for nu, value in enumerate(table.weighted))
    assert payload["sums"] == {key: str(value) for key, value in expected.items()}


GRID_RULE = "must be PBOUND,QBOUND with PBOUND >= 0 and QBOUND >= 1"


@pytest.mark.parametrize(
    "argv, option, message",
    [
        ("verify --P 1 --Q -1 --pmax 20 --kmax -1", "--kmax", "must be >= 0, not -1"),
        ("verify --P 1 --Q -1 --pmax 20 --cross-check -3", "--cross-check", "must be >= 0, not -3"),
        ("verify --P 1 --Q -1 --pmax 20 --jobs 0", "--jobs", "must be >= 1, not 0"),
        ("lemmas --P 1 --Q -1 --pmax 20 --jobs -1", "--jobs", "must be >= 1, not -1"),
        ("search --P 1 --Q -1 --pmax 20 --exponents 0", "--exponents", "must be >= 1, not 0"),
        ("table --P 1 --Q -1 --p 11 --precision 0", "--precision", "must be >= 1, not 0"),
        ("verify --P 1 --Q 0 --pmax 20", "--Q", "must be nonzero, not 0"),
        ("table --P 1 --Q 0 --p 11", "--Q", "must be nonzero, not 0"),
        ("verify --P 1 --Q -1 --pmax 20 --kmax x", "--kmax", "invalid int value: 'x'"),
        ("verify --grid 5 --pmax 20", "--grid", f"{GRID_RULE}, not 5"),
        ("verify --grid a,b --pmax 20", "--grid", f"{GRID_RULE}, not a,b"),
        # argparse reads a bare "-1,1" as an option, so the value is attached.
        ("search --grid=-1,1 --pmax 20", "--grid", f"{GRID_RULE}, not -1,1"),
        ("lemmas --grid 1,0 --pmax 20", "--grid", f"{GRID_RULE}, not 1,0"),
    ],
)
def test_option_ranges_are_the_parsers(capsys, argv, option, message):
    # An out-of-range option is refused while parsing: a usage line, then the
    # subcommand's error line naming the option, and exit 2.
    command = argv.split()[0]
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: lucanomial {command} ")
    assert lines[-1] == f"lucanomial {command}: error: argument {option}: {message}"


def test_usage_errors_exit_two(tmp_path, capsys):
    unwritable = str(tmp_path / "missing" / "report.out")
    for argv in (
        ["verify", "--P", "1", "--Q", "0", "--pmax", "20"],
        ["verify", "--P", "1", "--pmax", "20"],
        ["verify", "--P", "1", "--Q", "-1", "--pmin", "30", "--pmax", "20"],
        ["verify", "--P", "1", "--Q", "-1", "--pmax", "20", "--theorem", "bogus"],
        ["verify", "--grid", "oops", "--pmax", "20"],
        ["verify", "--P", "1", "--Q", "-1", "--pmax", "20", "--kmax", "-1"],
        ["verify", "--P", "1", "--Q", "-1", "--theorem", "LjWe", "--pmax", "30", "--lmax", "-1"],
        ["verify", "--P", "1", "--Q", "-1", "--pmax", "20", "--cross-check", "-3"],
        ["table", "--P", "1", "--Q", "-1", "--p", "9"],
        ["table", "--P", "1", "--Q", "7", "--p", "7"],
        ["table", "--P", "1", "--Q", "-1", "--p", "11", "--precision", "0"],
        ["search", "--P", "1", "--Q", "-1", "--pmax", "12", "--exponents", "-3"],
        ["search", "--P", "1", "--Q", "-1", "--pmax", "12", "--exponents", "0"],
        ["search", "--P", "1", "--Q", "-1", "--pmax", "12", "--jobs", "1"],
        ["search", "--P", "1", "--Q", "-1", "--pmax", "12", "--seed", "1"],
        ["lemmas", "--P", "1", "--Q", "-1", "--pmax", "12", "--seed", "1"],
        ["verify", "--P", "1", "--Q", "-1", "--pmax", "20", "--jobs", "1", "--out", unwritable],
        ["search", "--P", "1", "--Q", "-1", "--pmax", "20", "--out", unwritable],
        ["lemmas", "--P", "1", "--Q", "-1", "--pmax", "20", "--jobs", "1", "--out", unwritable],
        ["table", "--P", "1", "--Q", "-1", "--p", "11", "--out", unwritable],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.startswith("lucanomial") and "error:" in message, argv
