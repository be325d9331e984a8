"""Command-line front end: verification sweeps, prime search, lemma suites,
sum tables, and JSON/CSV/text report export.

Exit codes: 0 when every checked congruence holds, 1 when any counterexample
or per-case error was recorded, 2 on usage errors and IO failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import random
import sys
from typing import Iterator, NoReturn

from .binomial import lucanomial_residue
from .lucas import LucasParams
from .ranks import primes_in_range, rank_of_appearance
from .reports import RECORD_FIELDS, CongruenceReport
from .sums import compute_sums, verify_sum_lemmas
from .theorems import THEOREM_IDS, sweep

_THEOREM_CHOICES = THEOREM_IDS + ("P5", "all")


def _expand_theorems(tokens: list[str]) -> tuple[str, ...]:
    out: list[str] = []
    for tok in tokens:
        if tok == "all":
            names = THEOREM_IDS
        elif tok == "P5":
            names = ("P5_1", "P5_2", "P5_3", "P5_4")
        else:
            names = (tok,)
        for name in names:
            if name not in out:
                out.append(name)
    return tuple(out)


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


def _verify_cell(task) -> list[CongruenceReport]:
    P, Q, p, theorems, ks, ls = task
    return sweep([LucasParams(P, Q)], (p, p), theorems, ks, ls)


def _lemma_cell(task) -> list[CongruenceReport]:
    P, Q, p = task
    params = LucasParams(P, Q)
    if Q % p == 0:
        return []
    rank = rank_of_appearance(params, p)
    if not rank.maximal or p < 7:
        return []
    return verify_sum_lemmas(params, rank)


def _map_cells(worker, tasks, jobs) -> Iterator[CongruenceReport]:
    """The reports of every task's cell, in task order, as the cells finish."""
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield from worker(task)
        return
    # Imported only when a pool starts: it is about a quarter of the time
    # `import lucanomial.cli` takes, which every run pays.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for cell in pool.map(worker, tasks, chunksize=chunk):
            yield from cell


def _cross_check_reports(params_list, p_min, p_max, count, seed) -> Iterator[CongruenceReport]:
    """Seeded random fast-path vs exact-path residue comparisons."""
    eligible = []
    for params in params_list:
        for p in primes_in_range(max(p_min, 3), p_max):
            if (2 * params.Q * params.D) % p != 0:
                eligible.append((params, p))
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


def _fail(parser, message: str) -> NoReturn:
    """Exit 2 with a one-line message: a usage or IO failure, not a counterexample."""
    parser.exit(2, f"{parser.prog}: error: {message}\n")


def _write(text: str, out_path, parser) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(parser, f"cannot write {out_path}: {exc.strerror or exc}")


# One flat record in the layout json.dumps(..., indent=2) gives it inside the
# report, but from the C encoder, which indent would bypass: each key goes on
# its own line, and the braces are added back by _emit_records.
_JSON_RECORD = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _emit_records(reports, fmt, out_path, parser) -> tuple[int, int]:
    """Build the report in one pass over `reports`, taking each as it arrives,
    and write it once at the end, so an IO failure leaves no partial report.
    Returns (checked, held)."""
    buf = io.StringIO()
    if fmt == "text":
        checked, held = _text_report(reports, buf)
    else:
        checked = held = 0
        if fmt == "json":
            buf.write('{\n  "records": [')
            for r in reports:
                buf.write(",\n    {\n      " if checked else "\n    {\n      ")
                buf.write(_JSON_RECORD(r.to_record())[1:-1])
                buf.write("\n    }")
                checked += 1
                held += r.holds
            buf.write("\n  ]\n}\n" if checked else "]\n}\n")
        else:
            writer = csv.writer(buf)
            writer.writerow(RECORD_FIELDS)
            for r in reports:
                rec = r.to_record()
                writer.writerow([rec[f] for f in RECORD_FIELDS])  # None is written as ""
                checked += 1
                held += r.holds
    _write(buf.getvalue(), out_path, parser)
    return checked, held


def _text_report(reports, buf) -> tuple[int, int]:
    """Each (P, Q, p) cell's counterexamples, then its summary line, then the
    totals; returns (checked, held)."""
    checked = held = 0
    for (P, Q, p), cell in itertools.groupby(reports, lambda r: (r.params.P, r.params.Q, r.p)):
        count = bad = 0
        for r in cell:
            count += 1
            if r.holds:
                continue
            bad += 1
            inputs = " ".join(f"{k}={v}" for k, v in r.inputs.items())
            buf.write(
                f"COUNTEREXAMPLE {r.theorem_id} P={P} Q={Q} p={p} {inputs} lhs={r.lhs} "
                f"rhs={r.rhs} mod p^{r.modulus_exponent}"
                + (f" error={r.error}" if r.error else "")
                + "\n"
            )
        # rho and eps depend on (P, Q, p) alone: any report of the cell has them.
        status = "all hold" if not bad else f"{bad} FAILED"
        buf.write(f"P={P} Q={Q} p={p} rho={r.rho} eps={r.epsilon}: {count} checks, {status}\n")
        checked += count
        held += count - bad
    buf.write(f"checked={checked} hold={held} failed={checked - held}\n")
    return checked, held


def _finish(reports, args, parser) -> int:
    """Emit a sweep's reports; exit code 0 when every check held, else 1."""
    checked, held = _emit_records(reports, args.format, args.out, parser)
    if args.format != "text" or args.out:
        print(f"checked={checked} hold={held} failed={checked - held}", file=sys.stderr)
    return 0 if held == checked else 1


def _run_verify(args, parser) -> int:
    params_list = _params_list(args, parser)
    theorems = _expand_theorems(args.theorem or ["all"])
    ks = tuple(range(args.kmax + 1))
    lmax = args.kmax if args.lmax is None else args.lmax
    ls = tuple(range(lmax + 1))
    tasks = [
        (params.P, params.Q, p, theorems, ks, ls)
        for params in params_list
        for p in primes_in_range(args.pmin, args.pmax)
    ]
    reports = _map_cells(_verify_cell, tasks, args.jobs)
    if args.cross_check:
        reports = itertools.chain(
            reports,
            _cross_check_reports(params_list, args.pmin, args.pmax, args.cross_check, args.seed),
        )
    return _finish(reports, args, parser)


def _run_search(args, parser) -> int:
    params_list = _params_list(args, parser)
    rows = []
    for params in params_list:
        for p in primes_in_range(max(args.pmin, 3), args.pmax):
            if params.Q % p == 0:
                continue
            info = rank_of_appearance(params, p, exponents=args.exponents)
            if info.maximal:
                rows.append((params, info))
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
        writer.writerow(["P", "Q", "p", "rho", "epsilon", "maximal"])
        for params, info in rows:
            writer.writerow([params.P, params.Q, info.p, info.rho, info.epsilon, info.maximal])
        text = buf.getvalue()
    else:
        text = (
            "\n".join(
                f"P={params.P} Q={params.Q} p={info.p} rho={info.rho} "
                f"eps={info.epsilon} maximal"
                for params, info in rows
            )
            + f"\nfound={len(rows)}\n"
        )
    _write(text, args.out, parser)
    return 0


def _run_lemmas(args, parser) -> int:
    params_list = _params_list(args, parser)
    tasks = [
        (params.P, params.Q, p)
        for params in params_list
        for p in primes_in_range(max(args.pmin, 7), args.pmax)
    ]
    return _finish(_map_cells(_lemma_cell, tasks, args.jobs), args, parser)


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
    _write(text, args.out, parser)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucanomial",
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
        sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("verify", help="run theorem verifications over a prime range")
    common(v, 5)
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
    common(le, 7)

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
        if getattr(args, "kmax", 0) < 0:
            parser.error("kmax must be nonnegative")
        if args.jobs < 1:
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
