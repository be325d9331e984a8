"""Self-tests of the benchmark: tracing is repeatable, leaves the package as
it found it, and does not change the report; the correctness gate catches a
changed record.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402

import lucanomial  # noqa: E402
from lucanomial import cli  # noqa: E402
from lucanomial.reports import CongruenceReport  # noqa: E402

# Small commands that still reach every traced layer: p = 5 divides D = 5
# for (1, -1), so the exact residue path runs too.
COMMANDS = (
    "verify --grid 1,1 --theorem all --pmax 60 --format json --jobs 1".split(),
    "lemmas --grid 1,1 --pmax 100 --format csv --jobs 1".split(),
)


def _run_cli(args, tracer=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = cli.main(args)
        else:
            with tracer:
                code = cli.main(args)
    assert code == 0
    return out.getvalue().encode()


def _traced(args, tmp_path):
    tracer = spans.Tracer()
    data = _run_cli(args, tracer)
    path = tmp_path / "trace.bin"
    tracer.dump(path)
    return data, spans.summarize(path)


def _bindings():
    modules = [lucanomial] + [
        importlib.import_module(f"lucanomial.{m.name}")
        for m in pkgutil.iter_modules(lucanomial.__path__)
    ]
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    names[("CongruenceReport", "to_record")] = CongruenceReport.__dict__["to_record"]
    return names


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
def test_traced_counts_repeat(args, tmp_path):
    first_data, first = _traced(args, tmp_path)
    second_data, second = _traced(args, tmp_path)
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["ladder_probes"] == second["ladder_probes"]
    assert len(first_data) == len(second_data)
    assert first["missing"] == []


def test_trace_reaches_each_layer(tmp_path):
    calls = {}
    for args in COMMANDS:
        _, summary = _traced(args, tmp_path)
        for name, n in summary["calls"].items():
            calls[name] = calls.get(name, 0) + n
    assert set(calls) == {span for _, _, span in spans.TRACED} | {spans.RESIDUE_EXACT}


def test_restore_puts_back_every_name():
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        patched = _bindings()
        assert patched[("lucanomial.binomial", "rank_ladder")] is not before[
            ("lucanomial.binomial", "rank_ladder")
        ]
        assert patched[("CongruenceReport", "to_record")] is not before[
            ("CongruenceReport", "to_record")
        ]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
def test_traced_report_has_untraced_digest(args):
    fmt = run.report_format(args)
    plain = _run_cli(args)
    traced = _run_cli(args, spans.Tracer())
    assert run.digest(run.records(traced, fmt)) == run.digest(run.records(plain, fmt))


def test_gate_counts_a_changed_record():
    args = COMMANDS[0]
    data = _run_cli(args)
    rows = run.records(data, "json")
    ref = {"records": len(rows), "sha256": run.digest(rows)}
    assert run.count_failed(data, "json", ref) == 0
    lhs = f'"lhs": "{rows[0][run.DIGEST_FIELDS.index("lhs")]}"'.encode()
    changed = data.replace(lhs, b'"lhs": "-1"', 1)
    assert changed != data
    assert run.count_failed(changed, "json", ref) == len(rows)
    assert run.count_failed(b"", "json", ref) == len(rows)


def test_empty_range_has_no_records():
    for args in COMMANDS:
        assert run.records(_run_cli(run.empty_range(args)), run.report_format(args)) == []
