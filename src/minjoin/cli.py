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
from pathlib import Path

from .access import (
    build_min_da,
    build_unranked_da_pred,
    count_with_predicate,
    is_nonempty,
)
from .bench import bench_enum_pred, bench_min_da, bench_ranked, default_sizes
from .elim import eliminate_min_predicate
from .enumeration import enumerate_ranked_min, enumerate_with_predicate
from .errors import (
    DataFileError,
    EngineError,
    InternalInvariantError,
    IntractableQueryError,
    OutOfBoundsError,
    QuerySyntaxError,
    UnsupportedPredicateError,
)
from .model import W
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
        status = "tractable  " if v.tractable else "INTRACTABLE"
        extra = "" if v.tractable else f"  [{v.witness}]"
        print(f"{v.task.value:<{width}}  {status}{extra}")
    return EXIT_OK


def cmd_eliminate(args) -> int:
    q, p, r, db = _load(args)
    if p is None:
        print("eliminate: the query declares no PREDICATE", file=sys.stderr)
        return EXIT_SYNTAX
    res = eliminate_min_predicate(q, p, db)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # tagged cells serialize as base * width + rank (order-preserving)
    width = len(q.variables) + 2
    manifest = {"source_query": q.to_text(), "predicate": str(p), "rank_width": width, "parts": []}
    for i, part in enumerate(res.parts):
        files = {}
        for sym, rel in part.database.relations.items():
            fname = sym
            files[sym] = fname
            with open(out / fname, "w") as fh:
                for row in rel.rows:
                    fh.write(",".join(str(c // W * width + c % W) for c in row) + "\n")
        manifest["parts"].append(
            {
                "query": part.query.to_text(),
                "relations": files,
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


def cmd_count(args) -> int:
    q, p, r, db = _load(args)
    try:
        n = count_with_predicate(q, p, db)
    except (IntractableQueryError, UnsupportedPredicateError) as err:
        if not args.force_oracle:
            raise
        n = len(oracle_answers(q, db, predicate=p))
        print(f"# oracle fallback ({err})", file=sys.stderr)
    print(json.dumps({"count": n}) if args.json else n)
    return EXIT_OK


def cmd_bool(args) -> int:
    q, p, r, db = _load(args)
    try:
        res = is_nonempty(q, p, db)
    except IntractableQueryError:
        if not args.force_oracle:
            raise
        res = bool(oracle_answers(q, db, predicate=p))
    print(json.dumps({"nonempty": res}) if args.json else ("nonempty" if res else "empty"))
    return EXIT_OK


def _refuse_ranking_with_predicate(p, r) -> None:
    """A ranked task over a query that declares a predicate too is refused."""
    if p is not None and r is not None:
        raise UnsupportedPredicateError(
            f"the query declares both PREDICATE {p} and ORDER BY {r}; "
            "a ranking combined with a predicate is not supported"
        )


def cmd_enumerate(args) -> int:
    q, p, r, db = _load(args)
    if args.ranked and r is None:
        print("enumerate --ranked: the query declares no ORDER BY", file=sys.stderr)
        return EXIT_SYNTAX
    if args.ranked:
        _refuse_ranking_with_predicate(p, r)
    try:
        stream = enumerate_ranked_min(q, r, db) if args.ranked else enumerate_with_predicate(q, p, db)
    except (IntractableQueryError, UnsupportedPredicateError):
        if not args.force_oracle:
            raise
        answers = oracle_answers(q, db, predicate=p)
        ordered = oracle_sorted(answers, r.xs, maximize=r.maximize) if args.ranked else sorted(
            answers, key=lambda a: sorted(a.assignment.items())
        )
        for a in ordered[: args.limit]:
            print(_print_answer(a))
        return EXIT_OK
    out = []
    n = 0
    while stream.has_next() and (args.limit is None or n < args.limit):
        a = stream.peek()
        stream.advance()
        out.append(_print_answer(a, json_mode=args.json))
        n += 1
    if args.json:
        print(json.dumps({"answers": out}, indent=2))
    else:
        for line in out:
            print(line)
    if args.stats:
        print(
            f"# emitted={stream.emitted} max_delay={stream.max_delay} "
            f"avg_delay={stream.avg_delay:.2f} skips={stream.skips}",
            file=sys.stderr,
        )
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


def _build_da(q, p, r, db):
    """The direct-access structure for the declared order or predicate."""
    if r is None:
        return build_unranked_da_pred(q, p, db)
    _refuse_ranking_with_predicate(p, r)
    return build_min_da(q, r, db)


def cmd_access(args) -> int:
    q, p, r, db = _load(args)
    da = _build_da(q, p, r, db)
    total = da.total
    ks = list(args.index or [])
    if args.range:
        ks.extend(range(*args.range))
    elif args.index is None:
        ks = [0]
    results = []
    for k in ks:
        try:
            a = da.access(k)
            results.append((k, _print_answer(a, json_mode=args.json)))
        except OutOfBoundsError:
            results.append((k, None))
    if args.json:
        print(
            json.dumps(
                {
                    "total": total,
                    "answers": [
                        {"index": k, "answer": a, "out_of_bounds": a is None}
                        for k, a in results
                    ],
                },
                indent=2,
            )
        )
    else:
        for k, a in results:
            if a is None:
                print(f"[{k}] out of bounds (total {total})")
            else:
                print(f"[{k}] {a}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Cross-check the engine against brute force; exit 4 on divergence."""
    q, p, r, db = _load(args)
    answers = oracle_answers(q, db, predicate=p)
    task = args.task
    if task == "count":
        want = len(answers)
        print(json.dumps({"count": want}) if args.json else want)
        try:
            got = count_with_predicate(q, p, db)
        except (IntractableQueryError, UnsupportedPredicateError) as err:
            print(f"# engine refused: {err}", file=sys.stderr)
            return EXIT_OK
        if got != want:
            print(f"DIVERGENCE: engine={got} oracle={want}", file=sys.stderr)
            return EXIT_DIVERGENCE
        return EXIT_OK
    if task == "bool":
        want = bool(answers)
        print(json.dumps({"nonempty": want}) if args.json else ("nonempty" if want else "empty"))
        got = is_nonempty(q, p, db)
        if got != want:
            print(f"DIVERGENCE: engine={got} oracle={want}", file=sys.stderr)
            return EXIT_DIVERGENCE
        return EXIT_OK
    if task == "enumerate":
        for a in sorted(answers, key=lambda a: sorted(a.assignment.items()))[: args.limit]:
            print(_print_answer(a))
        try:
            stream = enumerate_with_predicate(q, p, db)
        except (IntractableQueryError, UnsupportedPredicateError) as err:
            print(f"# engine refused: {err}", file=sys.stderr)
            return EXIT_OK
        got = set(stream.drain())
        if got != answers:
            print(
                f"DIVERGENCE: engine has {len(got)} answers, oracle {len(answers)}",
                file=sys.stderr,
            )
            return EXIT_DIVERGENCE
        return EXIT_OK
    if task == "access":
        if r is None:
            print("oracle access needs an ORDER BY declaration", file=sys.stderr)
            return EXIT_SYNTAX
        ordered = oracle_sorted(answers, r.xs, maximize=r.maximize)
        k = args.index[0] if args.index else 0
        if not 0 <= k < len(ordered):
            print(f"[{k}] out of bounds (total {len(ordered)})")
        else:
            print(f"[{k}] {_print_answer(ordered[k])}")
        da = _build_da(q, p, r, db)
        if da.total != len(ordered):
            print(f"DIVERGENCE: engine total={da.total} oracle={len(ordered)}", file=sys.stderr)
            return EXIT_DIVERGENCE
        if 0 <= k < da.total:
            got = da.access(k)
            if r.key(got) != r.key(ordered[k]):
                print("DIVERGENCE: rank key mismatch at index", k, file=sys.stderr)
                return EXIT_DIVERGENCE
        return EXIT_OK
    raise EngineError(f"unknown oracle task {task!r}")


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")] if args.sizes else default_sizes(10, args.max_exp)
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

    p = sub.add_parser("classify", help="dichotomy verdicts for all tasks")
    common(p, data=False)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("eliminate", help="write the predicate-elimination manifest")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--explain", action="store_true")
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("count", help="answer count")
    common(p)
    p.add_argument("--force-oracle", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("bool", help="emptiness")
    common(p)
    p.add_argument("--force-oracle", action="store_true")
    p.set_defaults(fn=cmd_bool)

    p = sub.add_parser("enumerate", help="stream answers")
    common(p)
    p.add_argument("--ranked", action="store_true")
    p.add_argument("--limit", type=_parse_limit)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--force-oracle", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("access", help="k-th answer by the declared order")
    common(p)
    p.add_argument("--index", type=int, action="append")
    p.add_argument("--range", type=_parse_range, help="half-open a..b")
    p.set_defaults(fn=cmd_access)

    p = sub.add_parser("oracle", help="brute-force cross-check")
    p.add_argument("task", choices=["count", "bool", "enumerate", "access"])
    common(p)
    p.add_argument("--index", type=int, action="append")
    p.add_argument("--limit", type=_parse_limit, default=50)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("bench", help="scaling families")
    p.add_argument("--family", choices=["star", "path", "both"], default="both")
    p.add_argument("--sizes", help="comma-separated |D| values")
    p.add_argument("--max-exp", type=int, default=14, dest="max_exp")
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
    except (IntractableQueryError, UnsupportedPredicateError) as err:
        print(f"refused: {err}", file=sys.stderr)
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
