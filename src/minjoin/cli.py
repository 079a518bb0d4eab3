"""Command-line front end.

Subcommands: classify, eliminate, count, bool, enumerate, access, oracle,
bench. Exit codes: 0 ok, 1 query syntax error or a missing declaration
the command needs, 2 intractable or unsupported instance, 3 data error,
4 engine/oracle divergence, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

from .access import build_min_da, build_unranked_da_pred, count_with_predicate, is_nonempty
from .bench import bench_enum_pred, bench_min_da, bench_ranked, default_sizes
from .elim import eliminate_min_predicate
from .enumeration import AnswerStream, enumerate_ranked_min, enumerate_with_predicate
from .errors import (
    DataFileError, EngineError, InternalInvariantError, IntractableQueryError, OutOfBoundsError,
    QuerySyntaxError, UnsupportedPredicateError,
)
from .oracle import oracle_answers, oracle_sorted
from .parser import load_database_dir, parse_query_file
from .structure import classify_all

EXIT_OK, EXIT_SYNTAX, EXIT_INTRACTABLE, EXIT_DATA, EXIT_DIVERGENCE, EXIT_INTERNAL = 0, 1, 2, 3, 4, 5


def _load(args):
    q, p, r = parse_query_file(args.query)
    db = load_database_dir(args.data, q) if getattr(args, "data", None) else None
    return q, p, r, db


def _print_answer(a, *, json_mode=False):
    items = {k: v.base for k, v in a.assignment.items()}
    if json_mode:
        return items
    return ", ".join(f"{k}={v}" for k, v in sorted(items.items()))


def cmd_classify(args) -> int:
    q, p, r, _ = _load(args)
    verdicts = classify_all(q, p, r)
    if args.json:
        print(json.dumps([v.to_json() for v in verdicts], indent=2))
        return EXIT_OK
    width = max(len(v.task.value) for v in verdicts)
    for v in verdicts:
        verdict = "tractable" if v.tractable else f"{v.status.upper()}  [{v.reason()}]"
        print(f"{v.task.value:<{width}}  {verdict}")
    return EXIT_OK


def cmd_eliminate(args) -> int:
    q, p, r, db = _load(args)
    if p is None:
        print("eliminate: the query declares no PREDICATE", file=sys.stderr)
        return EXIT_SYNTAX
    res = eliminate_min_predicate(q, p, db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"source_query": q.to_text(), "predicate": str(p), "parts": []}
    for part in res.parts:
        for sym, rel in part.database.relations.items():
            with open(out / sym, "w") as fh:  # the input's values and the fork ids
                for row in rel.rows:
                    fh.write(",".join(map(str, row)) + "\n")
        manifest["parts"].append(
            {
                "query": part.query.to_text(),
                "relations": {sym: sym for sym in part.database.relations},
                "fresh_vars": [v for v in part.query.free_vars if v not in res.source_vars],
                "order": sorted(list(pair) for pair in part.order.pairs) if part.order else [],
                "min_var": part.min_var,
            }
        )
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    if args.explain:
        for i, part in enumerate(res.parts):
            print(f"part {i}: enforces [{part.order or 'nothing'}]")
            print(f"  {part.query.to_text()}  |D_{i}| = {part.database.size}")
            if part.tree is not None:
                for line in part.tree.pretty().splitlines():
                    print(f"  {line}")
    print(f"wrote {len(res.parts)} part(s) to {out}/manifest.json")
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    """`--range a..b`, the half-open index range [a, b)."""
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b with integers a and b, got {text!r}") from None


def _parse_limit(text: str) -> int:
    """`--limit n`, at most n answers, n >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_sizes(text: str) -> list[int]:
    """`--sizes n,n,...`, database sizes, each a positive integer."""
    sizes = text.split(",")
    if not all(n.isdecimal() and int(n) > 0 for n in sizes):
        raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")
    return [int(n) for n in sizes]


def _parse_max_exp(text: str) -> int:
    """`--max-exp e`, the largest size 2^e of the default sweep 2^10..2^e."""
    if not text.isdecimal() or int(text) < 10:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 10, got {text!r}")
    return int(text)


def _ranks_by_order(missing: str | None):
    """The declaration check of a task that ranks by the ORDER BY: without
    one it returns `missing`, and a PREDICATE next to it is refused."""
    def needs(p, r) -> str | None:
        if r is None:
            return missing
        if p is not None:
            raise UnsupportedPredicateError(
                None, f"the query declares both PREDICATE {p} and ORDER BY {r}; "
                "a ranking combined with a predicate is not supported"
            )
        return None
    return needs


def _build_da(q, p, r, db):
    """The direct-access structure for the declared order or predicate."""
    if r is None:
        return build_unranked_da_pred(q, p, db)
    return build_min_da(q, r, db)


class _OracleDA:
    """Direct access over the oracle's answers in `oracle_sorted` order."""

    def __init__(self, r, answers):
        self.ordered = oracle_sorted(answers, r.xs, maximize=r.maximize)
        self.total = len(self.ordered)
        self.key = r.key

    def access(self, k):
        if not 0 <= k < self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        return self.ordered[k]


def _show_count(args, n) -> None:
    print(json.dumps({"count": n}) if args.json else n)


def _show_bool(args, res) -> None:
    print(json.dumps({"nonempty": res}) if args.json else ("nonempty" if res else "empty"))


def _show_answers(args, answers) -> None:
    out = [_print_answer(a, json_mode=args.json) for a in islice(answers, args.limit)]
    if args.json:
        print(json.dumps({"answers": out}, indent=2))
    else:
        for line in out:
            print(line)
    # only an engine stream counts delays; the oracle's answers are a list
    if isinstance(answers, AnswerStream) and args.stats:
        print(
            f"# emitted={answers.emitted} max_delay={answers.max_delay} "
            f"avg_delay={answers.avg_delay:.2f} skips={answers.skips}",
            file=sys.stderr,
        )


def _indices(args) -> list[int]:
    """`--index`, then `--range`; index 0 when neither is given."""
    ks = list(args.index or [])
    if args.range:
        ks.extend(range(*args.range))
    elif args.index is None:
        ks = [0]
    return ks


def _show_access(args, da) -> None:
    results = []
    for k in _indices(args):
        try:
            results.append((k, _print_answer(da.access(k), json_mode=args.json)))
        except OutOfBoundsError:
            results.append((k, None))
    if args.json:
        answers = [{"index": k, "answer": a, "out_of_bounds": a is None} for k, a in results]
        print(json.dumps({"total": da.total, "answers": answers}, indent=2))
        return
    for k, a in results:
        print(f"[{k}] out of bounds (total {da.total})" if a is None else f"[{k}] {a}")


def _values_diverge(args, got, want) -> str | None:
    if got != want:
        return f"DIVERGENCE: engine={got} oracle={want}"
    return None


def _answers_diverge(args, stream, want) -> str | None:
    """The stream must emit each of the oracle's answers exactly once."""
    emitted = stream.drain()
    got = set(emitted)
    if len(emitted) != len(got):
        return f"DIVERGENCE: engine emitted {len(emitted)} answers, {len(got)} distinct"
    if got != set(want):
        return f"DIVERGENCE: engine has {len(got)} answers, oracle {len(want)}"
    return None


def _access_diverges(args, da, want) -> str | None:
    """The same total, and at each index an answer with the oracle's rank key."""
    if da.total != want.total:
        return f"DIVERGENCE: engine total={da.total} oracle={want.total}"
    for k in _indices(args):
        if 0 <= k < da.total:
            got = da.access(k)
            if got not in want.ordered:
                return f"DIVERGENCE: engine answer at index {k} is no answer: {got}"
            if want.key(got) != want.key(want.access(k)):
                return f"DIVERGENCE: rank key mismatch at index {k}"
    return None


class _Task(NamedTuple):
    """One CLI task. `engine(q, p, r, db)` and `oracle(r, answers)` return
    the same kind of result, which `show(args, result)` prints;
    `diverges(args, got, want)` names a difference between the two.
    `needs(p, r)`, checked before either side runs, returns the message
    for a missing declaration (exit 1) and raises for a conflict (exit 2)."""

    engine: Callable
    oracle: Callable
    show: Callable
    diverges: Callable = _values_diverge
    needs: Callable = lambda p, r: None


# Each engine side looks its library call up in this module when it runs,
# so a test can replace the call. Only the ranked tasks read the ORDER BY.
_TASKS = {
    "count": _Task(
        lambda q, p, r, db: count_with_predicate(q, p, db), lambda r, a: len(a), _show_count
    ),
    "bool": _Task(lambda q, p, r, db: is_nonempty(q, p, db), lambda r, a: bool(a), _show_bool),
    "enumerate": _Task(
        lambda q, p, r, db: enumerate_with_predicate(q, p, db),
        lambda r, a: sorted(a, key=lambda x: sorted(x.assignment.items())),
        _show_answers,
        _answers_diverge,
    ),
    "enumerate --ranked": _Task(
        lambda q, p, r, db: enumerate_ranked_min(q, r, db),
        lambda r, a: oracle_sorted(a, r.xs, maximize=r.maximize),
        _show_answers,
        _answers_diverge,
        _ranks_by_order("enumerate --ranked: the query declares no ORDER BY"),
    ),
    "access": _Task(
        lambda q, p, r, db: _build_da(q, p, r, db),
        _OracleDA,
        _show_access,
        _access_diverges,
        _ranks_by_order(None),
    ),
}
# the oracle has no arbitrary order to check unranked direct access against
_ORACLE_ACCESS_NEEDS = _ranks_by_order("oracle access needs an ORDER BY declaration")
_ORACLE_TASKS = dict(_TASKS, access=_TASKS["access"]._replace(needs=_ORACLE_ACCESS_NEEDS))


def cmd_task(args) -> int:
    """Print the engine's result, or the oracle's for a refusal under `--force-oracle`."""
    task = _TASKS[args.task]
    q, p, r, db = _load(args)
    missing = task.needs(p, r)
    if missing is not None:
        print(missing, file=sys.stderr)
        return EXIT_SYNTAX
    try:
        result = task.engine(q, p, r, db)
    except IntractableQueryError as err:
        if not args.force_oracle:
            raise
        result = task.oracle(r, oracle_answers(q, db, predicate=p))
        print(f"# oracle fallback ({err.verdict or err})", file=sys.stderr)
    task.show(args, result)
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Print the oracle's result, then cross-check the engine's: exit 4 on divergence."""
    task = _ORACLE_TASKS[args.task]
    q, p, r, db = _load(args)
    missing = task.needs(p, r)
    if missing is not None:
        print(missing, file=sys.stderr)
        return EXIT_SYNTAX
    if args.index:  # the cross-check reads one index: the first, or 0
        args.index = args.index[:1]
    want = task.oracle(r, oracle_answers(q, db, predicate=p))
    task.show(args, want)
    try:
        got = task.engine(q, p, r, db)
    except IntractableQueryError as err:
        print(f"# engine refused: {err.verdict or err}", file=sys.stderr)
        return EXIT_OK
    divergence = task.diverges(args, got, want)
    if divergence is not None:
        print(divergence, file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = args.sizes or default_sizes(10, args.max_exp)
    rows = []
    if args.family in ("star", "both"):
        rows += bench_min_da(sizes, seed=args.seed)
        rows += bench_ranked(sizes, seed=args.seed)
    if args.family in ("path", "both"):
        rows += bench_enum_pred(sizes, seed=args.seed)
    if args.json:
        print(json.dumps(rows, indent=2))
        return EXIT_OK
    for row in rows:
        parts = [f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()]
        print("  ".join(parts))
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minjoin", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--query", required=True, help="query file")
        if data:
            p.add_argument("--data", required=True, help="directory of relation files")
        p.add_argument("--json", action="store_true")

    def task_parser(name, help):
        p = sub.add_parser(name, help=help)
        common(p)
        p.set_defaults(fn=cmd_task, task=name, force_oracle=False)
        return p

    p = sub.add_parser("classify", help="dichotomy verdicts for all tasks")
    common(p, data=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("eliminate", help="write the predicate-elimination manifest")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=cmd_eliminate)

    task_parser("count", "answer count").add_argument("--force-oracle", action="store_true")
    task_parser("bool", "emptiness").add_argument("--force-oracle", action="store_true")

    p = task_parser("enumerate", "stream answers")
    p.add_argument("--ranked", action="store_const", dest="task", const="enumerate --ranked")
    p.add_argument("--limit", type=_parse_limit)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--force-oracle", action="store_true")

    p = task_parser("access", "k-th answer by the declared order")
    p.add_argument("--index", type=int, action="append")
    p.add_argument("--range", type=_parse_range, help="half-open a..b")

    p = sub.add_parser("oracle", help="brute-force cross-check")
    p.add_argument("task", choices=["count", "bool", "enumerate", "access"])
    common(p)
    p.add_argument("--index", type=int, action="append")
    p.add_argument("--limit", type=_parse_limit, default=50)
    p.set_defaults(fn=cmd_oracle, range=None)

    p = sub.add_parser("bench", help="scaling families")
    p.add_argument("--family", choices=["star", "path", "both"], default="both")
    p.add_argument("--sizes", type=_parse_sizes, help="comma-separated |D| values")
    p.add_argument("--max-exp", type=_parse_max_exp, default=14, dest="max_exp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QuerySyntaxError as err:
        print(f"query error: {err}", file=sys.stderr)
        return EXIT_SYNTAX
    except IntractableQueryError as err:
        print(f"refused: {err.verdict or err}", file=sys.stderr)
        return EXIT_INTRACTABLE
    except DataFileError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except InternalInvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
