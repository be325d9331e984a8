"""Span tracing of the lucanomial package from outside it.

Tracer.install() puts a wrapper around each traced function under every name
that refers to it anywhere in the package: the modules import these
functions by name, so patching only the defining module would miss most
callers.  Tracer.restore() puts the originals back.  Spans (name, parent,
start, end) are kept in flat arrays while the program runs and written out
by dump(); summarize() reads a dumped trace back into per-layer counts and
self times.  Nothing inside src/ is changed.

Run as a script, it traces one CLI command in this process:

    PYTHONPATH=src python3 bench/spans.py TRACE_FILE verify --P 1 --Q -1 --pmax 50 --jobs 1

The CLI's exit code is passed on.  Only --jobs 1 is traced: spans recorded
in worker processes would be lost.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter

RESIDUE_RANK = "binomial.residue_rank"
RESIDUE_EXACT = "binomial.residue_exact"

# (module, attribute, span name).  Each call of lucanomial_residue gets one of
# the two residue span names, by the path it takes (pick in Tracer._wrap).
TRACED = (
    ("lucas", "lucas_uv_mod", "lucas.uv_mod"),
    ("lucas", "uv_sequence", "lucas.uv_sequence"),
    ("ranks", "rank_of_appearance", "ranks.rank_of_appearance"),
    ("ranks", "rank_ladder", "ranks.rank_ladder"),
    ("binomial", "lucanomial_residue", RESIDUE_RANK),
    ("binomial", "lucanomial_exact", "binomial.exact"),
    ("binomial", "generalized_binomial", "binomial.generalized"),
    ("sums", "compute_sums", "sums.compute"),
    ("sums", "verify_sum_lemmas", "sums.lemmas"),
    ("theorems", "verify_wolstenholme", "theorems.N"),
    ("theorems", "verify_ljunggren", "theorems.LjWe"),
    ("theorems", "verify_fifth_power", "theorems.P5"),
    ("theorems", "verify_sixth_power", "theorems.P6"),
    ("theorems", "sweep", "theorems.sweep"),
    ("reports", "CongruenceReport.to_record", "reports.to_record"),
    # One cell is one (P, Q, p) task of a sweep; the workers are private but
    # are the only boundary around a whole cell.
    ("cli", "_verify_cell", "cli.cell"),
    ("cli", "_lemma_cell", "cli.cell"),
    ("cli", "main", "cli"),
)


class Tracer:
    """Records spans of the traced functions between install() and restore()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, counts = self._stack, time.perf_counter_ns, self.counts
        nid = self._id(name)
        if name == RESIDUE_RANK:
            rank_id, exact_id = nid, self._id(RESIDUE_EXACT)

            def pick(args, kwargs):
                # The rule method="auto" uses: the exact path when p | 2QD.
                params, p = args[0], args[3]
                method = kwargs.get("method", args[5] if len(args) > 5 else "auto")
                if method == "auto":
                    exact = (2 * params.Q * params.D) % p == 0
                else:
                    exact = method == "exact"
                return exact_id if exact else rank_id
        else:
            pick = None
        if name == "ranks.rank_ladder":
            def after(args, result):
                counts["ranks.ladder_rungs"] += len(result)
        elif name == "sums.compute":
            def after(args, result):
                counts["sums.compute.terms"] += args[1].rho - 1
        elif name == "cli.cell":
            def after(args, result):
                counts["cli.cells_skipped"] += not result
        else:
            after = None

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(pick(args, kwargs) if pick else nid)
            parent.append(stack[-1])
            stack.append(i)
            end.append(0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        import lucanomial

        modules = [lucanomial] + [
            importlib.import_module(f"lucanomial.{info.name}")
            for info in pkgutil.iter_modules(lucanomial.__path__)
        ]
        for module_name, attr, span in TRACED:
            owner = sys.modules.get(f"lucanomial.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patch(cls, method, original, self._wrap(original, span))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self, path) -> None:
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(fh)


def summarize(path) -> dict:
    """Per-span-name calls and self seconds, plus the counts the metrics need.

    Self time is a span's duration minus the durations of its child spans.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        columns = [array("H"), array("q"), array("q"), array("q")]
        for column in columns:
            column.fromfile(fh, n)
    name_id, parent, start, end = columns
    names = header["names"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = Counter()
    self_ns = Counter()
    for i, nid in enumerate(name_id):
        calls[nid] += 1
        self_ns[nid] += dur[i] - child[i]

    def ids(name):
        return names.index(name) if name in names else -1

    uv_id, ladder_id, cell_id, cli_id = (
        ids("lucas.uv_mod"), ids("ranks.rank_ladder"), ids("cli.cell"), ids("cli")
    )
    probes = sum(
        1 for i, nid in enumerate(name_id) if nid == uv_id and parent[i] >= 0
        and name_id[parent[i]] == ladder_id
    )
    cell_ns = [dur[i] for i, nid in enumerate(name_id) if nid == cell_id]
    return {
        "calls": {names[k]: v for k, v in calls.items()},
        "self_s": {names[k]: v / 1e9 for k, v in self_ns.items()},
        "counts": header["counts"],
        "ladder_probes": probes,
        "cell_ms": [d / 1e6 for d in cell_ns],
        "cli_s": sum(dur[i] for i, nid in enumerate(name_id) if nid == cli_id) / 1e9,
        "missing": header["missing"],
    }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    from lucanomial import cli

    tracer = Tracer()
    with tracer:
        code = cli.main(cli_args)
    sys.stdout.flush()
    tracer.dump(trace_path)
    if tracer.missing:
        print(f"spans: not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
