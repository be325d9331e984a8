"""Command-line front end: verification sweeps, prime search, lemma suites,
sum tables, and JSON/CSV/text report export.

Exit codes: 0 when every checked congruence holds, 1 when any counterexample
or per-case error was recorded, 2 on usage errors and IO failures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import marshal
import os
import random
import sys
import tempfile
from typing import Callable, Iterator, NoReturn

from .binomial import lucanomial_residue
from .lucas import LucasParams
from .ranks import RankInfo, accepts_prime, maximal_ranks, primes_in_range, rank_of_appearance
from .reports import RECORD_FIELDS, CongruenceReport
from .sums import LEMMA_MIN_P, compute_sums, verify_sum_lemmas
from .theorems import THEOREM_IDS, sweep


def _family(tid: str) -> str:
    """The `--theorem` token that selects a whole family: "P5" for "P5_1"."""
    return tid.partition("_")[0]


# Every id, then each family token that is not an id itself ("P5"), then "all".
_THEOREM_CHOICES = tuple(dict.fromkeys(THEOREM_IDS + tuple(map(_family, THEOREM_IDS)) + ("all",)))


def _expand_theorems(tokens: list[str]) -> tuple[str, ...]:
    """The ids the `--theorem` tokens select, in token then registry order, once each."""
    ids = (tid for tok in tokens for tid in THEOREM_IDS if tok in ("all", tid, _family(tid)))
    return tuple(dict.fromkeys(ids))


def _params_list(args, parser) -> list[LucasParams]:
    if args.grid:
        return args.grid
    if args.P is None or args.Q is None:
        parser.error("either --P and --Q or --grid is required")
    return [LucasParams(args.P, args.Q)]


def _cell_at(cell, params_list, primes, rest, i):
    """`cell` of sweep cell i and `rest`.  A sweep's tasks are its cell numbers,
    a range, so no task per cell is held.  The cells run each (P, Q), then each
    p: cell i is (params_list[i // len(primes)], primes[i % len(primes)])."""
    return cell(params_list[i // len(primes)], primes[i % len(primes)], *rest)


def _verify_cell(params, p, theorems, ks, fmt) -> tuple[str, int, int] | None:
    return _render(sweep([params], (p, p), theorems, ks), fmt)


def _lemma_cell(params, p, fmt) -> tuple[str, int, int] | None:
    reports = (r for rank in maximal_ranks(params, p, p) for r in verify_sum_lemmas(params, rank))
    return _render(reports, fmt)


def _map_cells(worker, tasks, jobs) -> Iterator:
    """Each task's rendered cell, in task order, once every cell is spooled.

    The tasks go out in chunks, dealt in turn to the workers: of n workers,
    worker w spools chunks w, w + n, w + 2n, ..., each as its marshalled
    cells, to its own unnamed temporary file.  With more than one job and
    cell, forked workers check them (_fork_workers); else, or where os.fork
    is missing, this process spools every chunk in turn.  Nothing is yielded
    before the last chunk is spooled, so a cell that raises, or a spool that
    fails (exit 2), ends the sweep before its report is begun.  Chunk c is
    then read back from spool c % n, in turn, so no more than one chunk is
    held here.
    """
    workers = max(1, min(jobs, len(tasks))) if hasattr(os, "fork") else 1
    # A rendered cell is a short string, so finer chunks cost little to spool,
    # and dealt in turn they give every worker a share of each stretch of the
    # sweep: within a (P, Q) the cells ascend in p, and so does their cost.
    size = max(1, len(tasks) // (workers * 16))
    chunks = range(-(-len(tasks) // size))
    with contextlib.ExitStack() as stack:
        try:
            spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(workers)]
        except OSError as exc:
            _fail(f"cannot spool the report: {exc.strerror or exc}")
        if workers == 1:
            reason = _spool_chunks(worker, tasks, size, chunks, spools[0])
        else:
            reason = _fork_workers(worker, tasks, size, chunks, spools, stack)
        if reason:
            _fail(f"cannot spool the report: {reason}")
        try:
            for spool in spools:
                spool.seek(0)
            for chunk in chunks:
                yield from marshal.load(spools[chunk % workers])
        except OSError as exc:
            _fail(f"cannot spool the report: {exc.strerror or exc}")


def _spool_chunks(worker, tasks, size, chunks, spool) -> str | None:
    """Check each chunk that `chunks` numbers, in turn, and spool its
    marshalled cells.  Returns why the spool failed, or None when every chunk
    is in; a cell that raises propagates."""
    for chunk in chunks:
        cells = [worker(task) for task in tasks[chunk * size : (chunk + 1) * size]]
        try:
            marshal.dump(cells, spool)
            spool.flush()
        except OSError as exc:
            return str(exc.strerror or exc)


def _fork_workers(worker, tasks, size, chunks, spools, stack) -> str | None:
    """Fork one worker per spool and wait for every one; `stack` closes the
    pipe and kills what is left of the workers.  Worker w of n takes the
    fixed share chunks[w::n], so the workers need no word from here.
    Returns why a worker's spool failed, or None; a worker whose cell raised
    makes this raise."""
    pids: list[int] = []
    # On any way out of the sweep, no worker is left running or unreaped.
    stack.callback(_reap, pids)
    read_fd, write_fd = os.pipe()
    reasons = stack.enter_context(open(read_fd, "rb", 0))
    tell = stack.enter_context(open(write_fd, "wb", 0))
    # What is still buffered would otherwise be written by every child too.
    sys.stdout.flush()
    sys.stderr.flush()
    for w, spool in enumerate(spools):
        pid = os.fork()
        if pid == 0:
            _work(worker, tasks, size, chunks[w :: len(spools)], tell, spool)
        pids.append(pid)
    while pids:
        code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
        del pids[0]
        if code == 2:
            # Each worker whose spool failed sent one line; report the first.
            return reasons.read(4096).decode().partition("\n")[0]
        if code:
            raise RuntimeError(f"a sweep worker exited with status {code}")


def _reap(pids: list[int]) -> None:
    """Kill and reap the workers still in `pids`: a sweep cut short leaves some."""
    if not pids:
        return
    import signal  # only a sweep cut short needs it

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _work(worker, tasks, size, chunks, tell, spool) -> NoReturn:
    """A forked worker: spool its share of the chunks, `chunks`.  It leaves
    only through os._exit, so it flushes nothing it inherited.  It exits 0
    when done; 2 when its spool failed, after sending the reason to `tell`;
    and 1, with the traceback on stderr, when a cell raised."""
    code = 0
    try:
        if reason := _spool_chunks(worker, tasks, size, chunks, spool):
            tell.write(f"{reason}\n".encode())
            code = 2
    except BaseException:
        code = 1
        import traceback  # only a failed cell needs it

        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _cross_check_reports(params_list, primes, count, seed) -> Iterator[CongruenceReport]:
    """Seeded random rank-path vs exact-path residue comparisons on the run's
    cells: a pair and a prime are drawn, and drawn again while `require_prime`
    refuses them (p = 2, or p | Q)."""
    if not any(accepts_prime(params, p) for params in params_list for p in primes):
        return
    rng = random.Random(seed)
    for _ in range(count):
        while not accepts_prime(params := rng.choice(params_list), p := rng.choice(primes)):
            pass
        rank = rank_of_appearance(params, p)
        k = rng.randint(1, 4)
        m = rng.randint(0, 4 * rank.rho)
        n = rng.randint(0, m)
        fast = lucanomial_residue(params, m, n, p, k, method="rank")
        slow = lucanomial_residue(params, m, n, p, k, method="exact")
        yield CongruenceReport(
            "oracle", params, rank, {"k": k}, k, fast.residue(), slow.residue(), fast == slow
        )


_PROG = "lucanomial"


def _fail(message: str) -> NoReturn:
    """Exit 2 with a one-line message: a usage or IO failure, not a counterexample."""
    sys.stderr.write(f"{_PROG}: error: {message}\n")
    sys.exit(2)


def _write(report, out_path) -> None:
    """Write the text pieces of `report` in turn to `out_path`, or else to
    stdout as it is at the call.  A regular or new `out_path` is replaced
    once the last piece is in, so a write that fails keeps the earlier
    report; any other (a FIFO, a symlink such as `/dev/stdout`) is opened
    only now and written in place.  A destination that cannot be written
    exits 2: a full disk, say, or a stdout whose reader closed early."""
    try:
        if not out_path:
            sys.stdout.writelines(report)
            sys.stdout.flush()
        elif os.path.islink(out_path) or os.path.exists(out_path) and not os.path.isfile(out_path):
            with open(out_path, "w") as fh:
                fh.writelines(report)
        else:
            _replace_file(report, out_path)
    except OSError as exc:
        if not out_path:
            # What is still buffered goes to devnull, so the flush at
            # shutdown cannot raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _fail(f"cannot write {out_path or 'to stdout'}: {exc.strerror or exc}")


def _replace_file(report, path) -> None:
    """Write `report` to a new file beside `path`, made as open(path, "w")
    makes a new one, then move it over `path`; a write that fails removes it."""
    head, tail = os.path.split(path)
    spare = open(os.path.join(head, f".{tail}.{os.urandom(6).hex()}"), "x")
    try:
        with spare:
            spare.writelines(report)
        os.replace(spare.name, path)
    except BaseException:
        os.unlink(spare.name)
        raise


# A list of flat records in the layout json.dumps(..., indent=2) gives it
# inside the report, but from the C encoder, which indent would bypass: each
# key goes on its own line, and _render frames each record.  An encoded string
# never holds a raw newline, so "},\n      {" occurs only between records.
_JSON_RECORDS = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _render(reports, fmt) -> tuple[str, int, int] | None:
    """One batch of reports (a cell, or the cross-check) as a fragment of the
    report in `fmt`, with (fragment, checked, held); None for an empty batch.
    Fragments of consecutive batches join with "," in json and with nothing
    in csv and text; _emit_records adds the header and the footer."""
    reports = list(reports)
    if not reports:
        return None
    held = sum(r.holds for r in reports)
    if fmt == "json":
        body = _JSON_RECORDS([r.to_record() for r in reports])[2:-2]
        text = "\n    {\n      " + body.replace("},\n      {", "\n    },\n    {\n      ") + "\n    }"
    elif fmt == "csv":
        buf = io.StringIO()
        # to_record builds each dict in RECORD_FIELDS order: its values are the row.
        csv.writer(buf).writerows(r.to_record().values() for r in reports)  # None -> ""
        text = buf.getvalue()
    else:
        text = _text_lines(reports)
    return text, len(reports), held


def _text_lines(reports) -> str:
    """Each (P, Q, p) group's counterexamples, then its summary line."""
    lines = []
    for (P, Q, p), group in itertools.groupby(reports, lambda r: (r.params.P, r.params.Q, r.p)):
        count = bad = 0
        for r in group:
            count += 1
            if r.holds:
                continue
            bad += 1
            inputs = " ".join(f"{k}={v}" for k, v in r.inputs.items())
            lines.append(
                f"COUNTEREXAMPLE {r.theorem_id} P={P} Q={Q} p={p} {inputs} lhs={r.lhs} "
                f"rhs={r.rhs} mod p^{r.modulus_exponent}"
                + (f" error={r.error}" if r.error else "")
                + "\n"
            )
        # rho and eps depend on (P, Q, p) alone: any report of the group has them.
        status = "all hold" if not bad else f"{bad} FAILED"
        lines.append(f"P={P} Q={Q} p={p} rho={r.rho} eps={r.epsilon}: {count} checks, {status}\n")
    return "".join(lines)


def _emit_records(batches, fmt, out_path) -> tuple[int, int]:
    """Write the header, each rendered batch (empty ones are None and
    skipped), then the footer or the totals, holding one batch at a time.
    The destination is opened only once the first batch is in: _map_cells
    spools every cell before it yields one, so a sweep whose cell raises or
    whose spool fails writes nothing.  Returns (checked, held)."""
    batches = iter(batches)
    first = next(batches, None)
    checked = held = 0

    def report() -> Iterator[str]:
        nonlocal checked, held
        if fmt == "json":
            yield '{\n  "records": ['
        elif fmt == "csv":
            header = io.StringIO()
            csv.writer(header).writerow(RECORD_FIELDS)
            yield header.getvalue()
        for batch in itertools.chain([first], batches):
            if not batch:
                continue
            text, count, ok = batch
            if fmt == "json" and checked:
                yield ","
            yield text
            checked += count
            held += ok
        if fmt == "json":
            yield "\n  ]\n}\n" if checked else "]\n}\n"
        elif fmt == "text":
            yield f"checked={checked} hold={held} failed={checked - held}\n"

    _write(report(), out_path)
    return checked, held


def _finish(batches, args) -> int:
    """Emit a sweep's rendered batches; exit code 0 when every check held, else 1."""
    checked, held = _emit_records(batches, args.format, args.out)
    if args.format != "text" or args.out:
        print(f"checked={checked} hold={held} failed={checked - held}", file=sys.stderr)
    return 0 if held == checked else 1


def _run_verify(args, params_list) -> int:
    theorems = _expand_theorems(args.theorem or ["all"])
    ks = tuple(range(args.kmax + 1))
    primes = primes_in_range(args.pmin, args.pmax)
    rest = (theorems, ks, args.format)
    worker = functools.partial(_cell_at, _verify_cell, params_list, primes, rest)
    batches = _map_cells(worker, range(len(params_list) * len(primes)), args.jobs)
    if args.cross_check:
        # Made in this process, as one batch of its own after the cells.
        oracle = _cross_check_reports(params_list, primes, args.cross_check, args.seed)
        batches = itertools.chain(batches, [_render(oracle, args.format)])
    return _finish(batches, args)


def _run_search(args, params_list) -> int:
    rows = [
        (params, info)
        for params in params_list
        for info in maximal_ranks(params, args.pmin, args.pmax, args.exponents)
    ]
    # The prime-power exponents past rho's own, each shown as one more field.
    higher = range(2, args.exponents + 1)
    if args.format == "json":
        # json writes the int exponents of rho_prime_power as string keys.
        payload = [{"P": params.P, "Q": params.Q, **info._asdict()} for params, info in rows]
        text = json.dumps({"records": payload}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["P", "Q", *RankInfo._fields[:-1], *(f"rho_p{a}" for a in higher)])
        for params, info in rows:
            writer.writerow(
                [params.P, params.Q, *info[:-1], *(info.rho_prime_power[a] for a in higher)]
            )
        text = buf.getvalue()
    else:
        text = "".join(
            f"P={params.P} Q={params.Q} p={info.p} rho={info.rho} eps={info.epsilon} maximal"
            + "".join(f" rho(p^{a})={info.rho_prime_power[a]}" for a in higher)
            + "\n"
            for params, info in rows
        ) + f"found={len(rows)}\n"
    _write([text], args.out)
    return 0


def _run_lemmas(args, params_list) -> int:
    primes = primes_in_range(max(args.pmin, LEMMA_MIN_P), args.pmax)
    worker = functools.partial(_cell_at, _lemma_cell, params_list, primes, (args.format,))
    batches = _map_cells(worker, range(len(params_list) * len(primes)), args.jobs)
    return _finish(batches, args)


def _run_table(args) -> int:
    params = LucasParams(args.P, args.Q)
    try:
        rank = rank_of_appearance(params, args.p)
    except ValueError as exc:  # p not an odd prime, or p divides Q
        _fail(f"--p {args.p}: {exc}")
    table = compute_sums(params, rank, args.precision)
    entries = {f"S{nu}": table.power[nu] for nu in range(len(table.power))}
    entries.update(
        ("S" + ",".join(map(str, key)), value) for key, value in sorted(table.monomial.items())
    )
    entries.update((f"SQ{nu}", table.weighted[nu]) for nu in range(len(table.weighted)))
    if args.format == "json":
        text = (
            json.dumps(
                {
                    "P": params.P,
                    "Q": params.Q,
                    "p": table.p,
                    "rho": table.rho,
                    "precision": table.k,
                    "modulus": str(table.modulus),
                    "sums": {k: str(v) for k, v in entries.items()},
                },
                indent=2,
            )
            + "\n"
        )
    else:
        head = f"P={params.P} Q={params.Q} p={table.p} rho={table.rho} mod p^{table.k}\n"
        text = head + "".join(f"{k} = {v}\n" for k, v in entries.items())
    _write([text], args.out)
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _int_where(rule: str, ok: Callable[[int], bool]) -> Callable[[str], int]:
    """An argparse type: an int for which ok(value) holds.  The parser reports
    any other value as `argument --X: must be <rule>, not <value>`."""

    def parse(text: str) -> int:
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, not {value}")
        return value

    parse.__name__ = "int"  # the parser names the type when int() refuses the text
    return parse


def _grid(text: str) -> list[LucasParams]:
    """An argparse type: the pairs |P| <= PBOUND, 1 <= |Q| <= QBOUND of the
    text 'PBOUND,QBOUND', for PBOUND >= 0 and QBOUND >= 1."""
    try:
        pb, qb = map(int, text.split(","))
    except ValueError:
        pb = qb = -1
    if pb < 0 or qb < 1:
        rule = "PBOUND,QBOUND with PBOUND >= 0 and QBOUND >= 1"
        raise argparse.ArgumentTypeError(f"must be {rule}, not {text}")
    return [LucasParams(P, Q) for P in range(-pb, pb + 1) for Q in range(-qb, qb + 1) if Q]


_NONZERO = _int_where("nonzero", bool)
_NONNEGATIVE = _int_where(">= 0", (0).__le__)
_POSITIVE = _int_where(">= 1", (1).__le__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Verify Wolstenholme-type congruences for Lucanomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pmin_default):
        sp.add_argument("--P", type=int, help="first recurrence parameter")
        sp.add_argument("--Q", type=_NONZERO, help="second recurrence parameter (nonzero)")
        sp.add_argument(
            "--grid",
            type=_grid,
            help="sweep |P| <= PBOUND, 1 <= |Q| <= QBOUND instead of one pair: 'PBOUND,QBOUND'",
        )
        sp.add_argument("--pmin", type=int, default=pmin_default)
        sp.add_argument("--pmax", type=int, required=True)
        sp.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sp.add_argument("--out", help="write the report to this path instead of stdout")

    v = sub.add_parser("verify", help="run theorem verifications over a prime range")
    common(v, 5)
    v.add_argument("--seed", type=int, default=0, help="seed of the --cross-check draws")
    v.add_argument(
        "--theorem",
        action="append",
        choices=_THEOREM_CHOICES,
        help="theorem id to check (repeatable); default all",
    )
    v.add_argument("--kmax", type=_NONNEGATIVE, default=5)
    v.add_argument(
        "--cross-check",
        type=_NONNEGATIVE,
        default=0,
        metavar="N",
        help="additionally run N seeded random fast-path vs exact-path residue comparisons",
    )

    s = sub.add_parser("search", help="list maximal-rank primes with their ranks")
    common(s, 5)
    s.add_argument(
        "--exponents", type=_POSITIVE, default=1, help="prime-power ranks up to this exponent"
    )

    le = sub.add_parser("lemmas", help="run the tabulated-sum lemma suite")
    common(le, LEMMA_MIN_P)
    for sp in (v, le):  # the sweeps that fork workers
        sp.add_argument("--jobs", type=_POSITIVE, default=_usable_cpus())

    t = sub.add_parser("table", help="print the sum table for one (P, Q, p)")
    t.add_argument("--P", type=int, required=True)
    t.add_argument("--Q", type=_NONZERO, required=True)
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--precision", type=_POSITIVE, default=5)
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "table":
        return _run_table(args)
    if args.pmin > args.pmax:
        parser.error("need pmin <= pmax")
    run = {"verify": _run_verify, "search": _run_search, "lemmas": _run_lemmas}[args.command]
    return run(args, _params_list(args, parser))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
