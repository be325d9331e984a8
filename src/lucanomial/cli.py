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
import shutil
import sys
import tempfile
from typing import Iterator, NoReturn

from .binomial import lucanomial_residue, rank_path
from .lucas import LucasParams
from .ranks import maximal_ranks, primes_in_range, rank_of_appearance
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
        try:
            pb, qb = (int(x) for x in args.grid.split(","))
        except ValueError:
            parser.error("--grid expects 'PBOUND,QBOUND'")
        if pb < 0 or qb < 1:
            parser.error("--grid bounds must satisfy PBOUND >= 0, QBOUND >= 1")
        return [
            LucasParams(P, Q)
            for P in range(-pb, pb + 1)
            for Q in range(-qb, qb + 1)
            if Q != 0
        ]
    if args.P is None or args.Q is None:
        parser.error("either --P and --Q or --grid is required")
    if args.Q == 0:
        parser.error("Q must be nonzero")
    return [LucasParams(args.P, args.Q)]


def _cell_at(cell, params_list, primes, rest, i):
    """`cell` of sweep cell i and `rest`.  A sweep's tasks are its cell numbers,
    a range, so no task per cell is held.  The cells run each (P, Q), then each
    p: cell i is (params_list[i // len(primes)], primes[i % len(primes)])."""
    return cell(params_list[i // len(primes)], primes[i % len(primes)], *rest)


def _verify_cell(params, p, theorems, ks, ls, fmt) -> tuple[str, int, int] | None:
    return _render(sweep([params], (p, p), theorems, ks, ls), fmt)


def _lemma_cell(params, p, fmt) -> tuple[str, int, int] | None:
    if params.Q % p == 0:
        return None
    rank = rank_of_appearance(params, p)
    if not rank.maximal:
        return None
    return _render(verify_sum_lemmas(params, rank), fmt)


def _map_cells(worker, tasks, jobs) -> Iterator:
    """Each task's rendered cell, in task order.

    With more than one job and cell, forked workers check the cells.  The
    tasks go out in chunks: every chunk id waits in one pipe, and a worker
    claims the next id whenever it is free, so one that finishes early takes
    more work.  Each worker writes its chunks, as the id then the marshalled
    cells, to its own unnamed temporary file (its spool).  Once every worker
    has exited cleanly, the spools are read back chunk by chunk in id order,
    so no more than one chunk is held here.  A worker whose cell raised makes
    this raise; a spool that failed exits 2.  Where os.fork is missing the
    cells are checked in this process.
    """
    if jobs <= 1 or len(tasks) <= 1 or not hasattr(os, "fork"):
        yield from map(worker, tasks)
        return
    workers = min(jobs, len(tasks))
    # A rendered cell is a short string, so finer chunks cost little to spool
    # and even out the finish: the slowest chunk no longer sets the tail.
    size = max(1, len(tasks) // (workers * 16))
    chunks = range(-(-len(tasks) // size))
    pids: list[int] = []
    with contextlib.ExitStack() as stack:
        # Registered first, so it runs last: on any way out, no worker is
        # left running or unreaped.
        stack.callback(_reap, pids)
        claims, offers = _pipe(stack)
        reasons, tell = _pipe(stack)
        try:
            spools = [stack.enter_context(tempfile.TemporaryFile()) for _ in range(workers)]
        except OSError as exc:
            _spool_failed(exc.strerror or exc)
        # What is still buffered would otherwise be written by every child too.
        sys.stdout.flush()
        sys.stderr.flush()
        for spool in spools:
            pid = os.fork()
            if pid == 0:
                _work(worker, tasks, size, claims, offers, tell, spool)
            pids.append(pid)
        # Once the workers alone hold the read end, a write fails rather
        # than blocks should they all be gone.
        claims.close()
        tell.close()
        try:
            for chunk in chunks:
                # 4 bytes is below PIPE_BUF: each write, and so each 4-byte
                # read, moves one whole id.
                offers.write(chunk.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # every worker is gone; their exit statuses say why
        offers.close()
        while pids:
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code == 2:
                # Each worker whose spool failed sent one line; report the first.
                _spool_failed(reasons.read(4096).decode().partition("\n")[0])
            if code:
                raise RuntimeError(f"a sweep worker exited with status {code}")
        try:
            for spool in spools:
                spool.seek(0)
            ahead = [spool.read(4) for spool in spools]
            for chunk in chunks:
                # Each spool's ids ascend, so the next chunk's id is one spool's next.
                i = ahead.index(chunk.to_bytes(4, "little"))
                cells = marshal.load(spools[i])
                ahead[i] = spools[i].read(4)
                yield from cells
        except OSError as exc:
            _spool_failed(exc.strerror or exc)


def _pipe(stack: contextlib.ExitStack) -> tuple:
    """A new pipe's read and write ends, as unbuffered files `stack` closes."""
    read_fd, write_fd = os.pipe()
    reader = stack.enter_context(open(read_fd, "rb", 0))
    return reader, stack.enter_context(open(write_fd, "wb", 0))


def _reap(pids: list[int]) -> None:
    """Kill and reap the workers still in `pids`: a sweep cut short leaves some."""
    if not pids:
        return
    import signal  # only a sweep cut short needs it

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _work(worker, tasks, size, claims, offers, tell, spool) -> NoReturn:
    """A forked worker: claim chunk ids from `claims` until it is empty, and
    spool each chunk as its id then its marshalled cells.  It leaves only
    through os._exit, so it flushes nothing it inherited.  It exits 0 when
    done; 2 when its spool failed, after sending the reason to `tell`; and 1,
    with the traceback on stderr, when a cell raised."""
    code = 0
    try:
        offers.close()  # else the workers never see the end of the claims
        while claim := claims.read(4):
            start = int.from_bytes(claim, "little") * size
            cells = [worker(task) for task in tasks[start : start + size]]
            try:
                spool.write(claim)
                marshal.dump(cells, spool)
                spool.flush()
            except OSError as exc:
                tell.write(f"{exc.strerror or exc}\n".encode())
                code = 2
                break
    except BaseException:
        code = 1
        import traceback  # only a failed cell needs it

        traceback.print_exc()
    finally:
        try:
            sys.stderr.flush()
        finally:
            os._exit(code)


def _cross_check_reports(params_list, p_min, p_max, count, seed) -> Iterator[CongruenceReport]:
    """Seeded random fast-path vs exact-path residue comparisons."""
    primes = primes_in_range(max(p_min, 3), p_max)
    eligible = [(params, p) for params in params_list for p in primes if rank_path(params, p)]
    if not eligible:
        return
    rng = random.Random(seed)
    for _ in range(count):
        params, p = rng.choice(eligible)
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


def _fail(parser, message: str) -> NoReturn:
    """Exit 2 with a one-line message: a usage or IO failure, not a counterexample."""
    parser.exit(2, f"{parser.prog}: error: {message}\n")


def _spool_failed(reason) -> NoReturn:
    """Exit 2 as _fail does, for a spool that could not be made, written or
    read (a full TMPDIR, say), where no parser is at hand."""
    sys.stderr.write(f"{_PROG}: error: cannot spool the report: {reason}\n")
    sys.exit(2)


_CHUNK = 64 * 1024


def _write(report, out_path, parser) -> None:
    """Copy the readable text stream `report` to stdout or to `out_path`,
    which is opened only now, in chunks through the destination's own write,
    so no more than one chunk of the report is held.  A reader that closes
    stdout early (`| head`) exits 2."""
    if not out_path:
        try:
            shutil.copyfileobj(report, sys.stdout, _CHUNK)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # What is still buffered goes to devnull, so the flush at
            # shutdown cannot raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            _fail(parser, f"cannot write to stdout: {exc.strerror or exc}")
        return
    try:
        with open(out_path, "w") as fh:
            shutil.copyfileobj(report, fh, _CHUNK)
    except OSError as exc:
        _fail(parser, f"cannot write {out_path}: {exc.strerror or exc}")


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


def _emit_records(batches, fmt, out_path, parser) -> tuple[int, int]:
    """Spool the header, each rendered batch as it arrives (empty ones are
    None and skipped), then the footer or the totals, to an unnamed temporary
    file, and copy it to the destination only once every batch is in, so a
    failure midway leaves no partial report and no more than one fragment is
    held.  A spool that cannot be made or written exits 2.
    Returns (checked, held)."""

    def spooled(op, *args, **kwargs):
        """Run one spool operation; an OSError there (a full TMPDIR, say) exits 2."""
        try:
            return op(*args, **kwargs)
        except OSError as exc:
            _spool_failed(exc.strerror or exc)

    # newline="" keeps the csv module's "\r\n" row ends as they are.
    with spooled(tempfile.TemporaryFile, "w+", encoding="utf-8", newline="") as spool:

        def put(text: str) -> None:
            spooled(spool.write, text)

        checked = held = 0
        if fmt == "json":
            put('{\n  "records": [')
        elif fmt == "csv":
            header = io.StringIO()
            csv.writer(header).writerow(RECORD_FIELDS)
            put(header.getvalue())
        for batch in batches:
            if not batch:
                continue
            text, count, ok = batch
            if fmt == "json" and checked:
                put(",")
            put(text)
            checked += count
            held += ok
        if fmt == "json":
            put("\n  ]\n}\n" if checked else "]\n}\n")
        elif fmt == "text":
            put(f"checked={checked} hold={held} failed={checked - held}\n")
        spooled(spool.seek, 0)  # flushes what the spool still buffers
        _write(spool, out_path, parser)
    return checked, held


def _finish(batches, args, parser) -> int:
    """Emit a sweep's rendered batches; exit code 0 when every check held, else 1."""
    checked, held = _emit_records(batches, args.format, args.out, parser)
    if args.format != "text" or args.out:
        print(f"checked={checked} hold={held} failed={checked - held}", file=sys.stderr)
    return 0 if held == checked else 1


def _run_verify(args, parser) -> int:
    params_list = _params_list(args, parser)
    theorems = _expand_theorems(args.theorem or ["all"])
    ks = tuple(range(args.kmax + 1))
    lmax = args.kmax if args.lmax is None else args.lmax
    ls = tuple(range(lmax + 1))
    primes = primes_in_range(args.pmin, args.pmax)
    rest = (theorems, ks, ls, args.format)
    worker = functools.partial(_cell_at, _verify_cell, params_list, primes, rest)
    batches = _map_cells(worker, range(len(params_list) * len(primes)), args.jobs)
    if args.cross_check:
        # Made in this process, as one batch of its own; map defers it until
        # the cells are written.
        oracle = _cross_check_reports(
            params_list, args.pmin, args.pmax, args.cross_check, args.seed
        )
        batches = itertools.chain(batches, map(_render, [oracle], [args.format]))
    return _finish(batches, args, parser)


def _run_search(args, parser) -> int:
    params_list = _params_list(args, parser)
    if args.exponents < 1:
        _fail(parser, "--exponents must be positive")
    rows = [
        (params, info)
        for params in params_list
        for info in maximal_ranks(params, args.pmin, args.pmax, args.exponents)
    ]
    # The prime-power exponents past rho's own, each shown as one more field.
    higher = range(2, args.exponents + 1)
    if args.format == "json":
        payload = [
            {
                "P": params.P,
                "Q": params.Q,
                "p": info.p,
                "rho": info.rho,
                "epsilon": info.epsilon,
                "maximal": info.maximal,
                "rho_prime_power": {str(a): r for a, r in info.rho_prime_power.items()},
            }
            for params, info in rows
        ]
        text = json.dumps({"records": payload}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["P", "Q", "p", "rho", "epsilon", "maximal"] + [f"rho_p{a}" for a in higher]
        )
        for params, info in rows:
            writer.writerow(
                [params.P, params.Q, info.p, info.rho, info.epsilon, info.maximal]
                + [info.rho_prime_power[a] for a in higher]
            )
        text = buf.getvalue()
    else:
        text = "".join(
            f"P={params.P} Q={params.Q} p={info.p} rho={info.rho} eps={info.epsilon} maximal"
            + "".join(f" rho(p^{a})={info.rho_prime_power[a]}" for a in higher)
            + "\n"
            for params, info in rows
        ) + f"found={len(rows)}\n"
    _write(io.StringIO(text), args.out, parser)
    return 0


def _run_lemmas(args, parser) -> int:
    params_list = _params_list(args, parser)
    primes = primes_in_range(max(args.pmin, LEMMA_MIN_P), args.pmax)
    worker = functools.partial(_cell_at, _lemma_cell, params_list, primes, (args.format,))
    batches = _map_cells(worker, range(len(params_list) * len(primes)), args.jobs)
    return _finish(batches, args, parser)


def _run_table(args, parser) -> int:
    params_list = _params_list(args, parser)
    if len(params_list) != 1:
        parser.error("table needs a single --P/--Q pair")
    params = params_list[0]
    if args.precision < 1:
        _fail(parser, "--precision must be positive")
    try:
        rank = rank_of_appearance(params, args.p)
    except ValueError as exc:  # p not an odd prime, or p divides Q
        _fail(parser, f"--p {args.p}: {exc}")
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
    _write(io.StringIO(text), args.out, parser)
    return 0


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Verify Wolstenholme-type congruences for Lucanomial coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, pmin_default):
        sp.add_argument("--P", type=int, help="first recurrence parameter")
        sp.add_argument("--Q", type=int, help="second recurrence parameter (nonzero)")
        sp.add_argument(
            "--grid",
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
    v.add_argument("--kmax", type=int, default=5)
    v.add_argument("--lmax", type=int, default=None)
    v.add_argument(
        "--cross-check",
        type=int,
        default=0,
        metavar="N",
        help="additionally run N seeded random fast-path vs exact-path residue comparisons",
    )

    s = sub.add_parser("search", help="list maximal-rank primes with their ranks")
    common(s, 5)
    s.add_argument("--exponents", type=int, default=1, help="prime-power ranks up to this exponent")

    le = sub.add_parser("lemmas", help="run the tabulated-sum lemma suite")
    common(le, LEMMA_MIN_P)
    for sp in (v, le):  # the sweeps that fork workers
        sp.add_argument("--jobs", type=int, default=_usable_cpus())

    t = sub.add_parser("table", help="print the sum table for one (P, Q, p)")
    t.add_argument("--P", type=int, required=True)
    t.add_argument("--Q", type=int, required=True)
    t.add_argument("--grid", help=argparse.SUPPRESS, default=None)
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--precision", type=int, default=5)
    t.add_argument("--format", choices=("text", "json"), default="text")
    t.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "table":
        if args.pmin > args.pmax:
            parser.error("need pmin <= pmax")
        for name in ("kmax", "lmax", "cross_check"):
            if (getattr(args, name, None) or 0) < 0:
                parser.error(f"{name.replace('_', '-')} must be nonnegative")
        if getattr(args, "jobs", 1) < 1:
            parser.error("jobs must be positive")
    if args.command == "verify":
        return _run_verify(args, parser)
    if args.command == "search":
        return _run_search(args, parser)
    if args.command == "lemmas":
        return _run_lemmas(args, parser)
    return _run_table(args, parser)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
