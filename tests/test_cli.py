"""CLI behavior: subcommands, report formats, exit codes, determinism."""

import csv
import json

import pytest

from lucanomial import RECORD_FIELDS, LucasParams, sweep
from lucanomial.cli import main


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
    args = [
        "verify",
        "--grid", "2,2",
        "--theorem", "N",
        "--pmax", "30",
        "--kmax", "2",
        "--format", "json",
    ]
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "4", "--out", str(parallel)]) == 0
    assert serial.read_text() == parallel.read_text()


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
    code = main(["search", "--P", "1", "--Q", "-1", "--pmin", "7", "--pmax", "30", "--jobs", "1"])
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


def test_usage_errors_exit_two(tmp_path, capsys):
    unwritable = str(tmp_path / "missing" / "report.out")
    for argv in (
        ["verify", "--P", "1", "--Q", "0", "--pmax", "20"],
        ["verify", "--P", "1", "--pmax", "20"],
        ["verify", "--P", "1", "--Q", "-1", "--pmin", "30", "--pmax", "20"],
        ["verify", "--P", "1", "--Q", "-1", "--pmax", "20", "--theorem", "bogus"],
        ["verify", "--grid", "oops", "--pmax", "20"],
        ["table", "--P", "1", "--Q", "-1", "--p", "9"],
        ["table", "--P", "1", "--Q", "7", "--p", "7"],
        ["table", "--P", "1", "--Q", "-1", "--p", "11", "--precision", "0"],
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
