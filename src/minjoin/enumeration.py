"""Constant-delay enumeration: plain full acyclic, predicate-pruned, and
min-ranked via a parallel merge of per-variable sorted streams.

Each stream is a generator of answers that adds its work to one
StepCounter, so delay properties are assertable without clocks.
"""

from __future__ import annotations

from typing import Iterator

from .errors import EngineError
from .instrument import StepCounter
from .model import Answer, ConjunctiveQuery, Database, MinPredicate, remove_self_joins
from .reduce import semijoin_reduce
from .semiring import thresholds
from .structure import TreePlan, group_by, tree_for_query


class AnswerStream:
    """Single-consumer cursor over a generator of answers, with delay
    instrumentation.

    `steps` reads the StepCounter that the generator adds its work to;
    `max_delay` tracks the largest step gap between consecutive
    emissions. `build_steps` counts the preprocessing rows; a predicate
    stream runs no semijoin pass, so its `build_steps` counts every input
    row, dangling ones included. Draining twice is not supported: the
    cursor is consumed.
    """

    def __init__(
        self,
        answers: Iterator[Answer],
        counter: StepCounter | None = None,
        build_steps: int = 0,
        skipped: StepCounter | None = None,
    ):
        self._answers = answers
        self._counter = counter if counter is not None else StepCounter()
        self._skipped = skipped
        self.build_steps = build_steps
        self.emitted = 0
        self.max_delay = 0
        self._last_steps = 0
        self._buffer = next(answers, None)

    @property
    def steps(self) -> int:
        return self._counter.steps

    @property
    def skips(self) -> int:
        return self._skipped.steps if self._skipped is not None else 0

    @property
    def avg_delay(self) -> float:
        """Mean step gap per emission, over the steps up to the last
        emission: like `max_delay`, it leaves out the prefetch of the next
        answer and the exhaustion probe, so avg_delay <= max_delay."""
        return self._last_steps / max(1, self.emitted)

    def has_next(self) -> bool:
        return self._buffer is not None

    def peek(self) -> Answer:
        if self._buffer is None:
            raise EngineError("stream is exhausted")
        return self._buffer

    def advance(self) -> None:
        if self._buffer is None:
            raise EngineError("stream is exhausted")
        self.emitted += 1
        steps = self._counter.steps
        delay = steps - self._last_steps
        if delay > self.max_delay:
            self.max_delay = delay
        self._last_steps = steps
        self._buffer = next(self._answers, None)

    def __iter__(self):
        while self.has_next():
            out = self.peek()
            self.advance()
            yield out

    def drain(self) -> list[Answer]:
        return list(self)


def _descend(buckets, parent_ix, parent_cols, root_rows, where, counter, cut, bound_col):
    """Nested-loop descent over a bucketed join tree (the odometer).

    Node i > 0 scans the bucket that its parent's row selects by the
    values in `parent_cols[i]`. An optional cut prunes bucket scans:
    bucket lists must then be sorted so that once one row fails, the rest
    of the bucket fails too. `where` gives each variable, in sorted order,
    the node and column that hold its value.
    """
    last = len(buckets) - 1
    lists = [root_rows] + [()] * last
    idx = [-1] * (last + 1)
    cur = [None] * (last + 1)
    bound = None
    i = steps = 0
    while True:
        steps += 1
        k = idx[i] = idx[i] + 1
        lst = lists[i]
        if k < len(lst) and (i == 0 or cut is None or cut(i, lst[k], bound)):
            row = cur[i] = lst[k]
            if i == 0 and bound_col is not None:
                bound = row[bound_col]
            if i == last:
                counter.add(steps)
                steps = 0
                yield Answer._of_sorted(tuple([(v, cur[j][c]) for v, j, c in where]))
                continue
            i += 1
            parent = cur[parent_ix[i]]
            lists[i] = buckets[i].get(tuple([parent[c] for c in parent_cols[i]]), ())
            idx[i] = -1
            continue
        i -= 1
        if i < 0:
            counter.add(steps)
            return


def _build_descent(
    plan: TreePlan,
    db: Database,
    counter: StepCounter,
    *,
    bucket_sort=None,
    root_sort=None,
    root_filter=None,
    cut=None,
    bound_var=None,
):
    """Shared preprocessing: bucket every non-root node, order the root.
    Returns the descent's answers and the build steps."""
    order = plan.order  # any topological order works for the odometer
    pos = {n: i for i, n in enumerate(order)}
    buckets: list[dict] = [{}]
    build_steps = 0
    for n in order[1:]:
        groups = group_by(plan.rows(db, n), plan.key[n])
        for rows in groups.values():
            rows.sort()
            if bucket_sort is not None:
                rows.sort(key=lambda r: bucket_sort(n, r), reverse=True)
            build_steps += len(rows)
        buckets.append(groups)
    root_rows = list(plan.rows(db, plan.root))
    if root_filter is not None:
        root_rows = [r for r in root_rows if root_filter(r)]
    root_rows.sort()
    if root_sort is not None:
        root_rows.sort(key=root_sort)
    build_steps += len(root_rows)
    where: dict[str, tuple[int, int]] = {}
    for j, n in enumerate(order):
        for c, v in enumerate(plan.schema[n]):
            where.setdefault(v, (j, c))
    answers = _descend(
        buckets,
        [-1] + [pos[plan.parent[n]] for n in order[1:]],
        [()] + [plan.parent_key[n] for n in order[1:]],
        root_rows,
        [(v, *where[v]) for v in sorted(where)],
        counter,
        cut,
        plan.schema[plan.root].index(bound_var) if bound_var is not None else None,
    )
    return answers, build_steps


def _full_descent(q: ConjunctiveQuery, db: Database, root_sort_var, counter: StepCounter):
    """The answers of a full self-join-free query after the semijoin
    reduction, sorted by `root_sort_var` when given, and the build steps."""
    plan = TreePlan(q, tree_for_query(q, at=root_sort_var))
    reduced = semijoin_reduce(q, db, plan.tree)
    root_sort = None
    if root_sort_var is not None:
        col = plan.schema[plan.root].index(root_sort_var)
        root_sort = lambda r: (r[col], r)
    return _build_descent(plan, reduced, counter, root_sort=root_sort)


def enumerate_full_acyclic(
    q: ConjunctiveQuery, db: Database, *, root_sort_var: str | None = None,
) -> AnswerStream:
    """All answers of a full acyclic query, constant delay after the
    semijoin reduction. With `root_sort_var`, answers come out in
    non-decreasing order of that variable."""
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    q, db = remove_self_joins(q, db)
    counter = StepCounter()
    answers, build_steps = _full_descent(q, db, root_sort_var, counter)
    return AnswerStream(answers, counter, build_steps)


def enumerate_with_predicate(
    q: ConjunctiveQuery, p: MinPredicate, db: Database
) -> AnswerStream:
    """Answers of Q AND (x0 <= min X) for any full acyclic query: no
    structural side condition.

    The tree is rooted at an atom containing x0; every tuple carries the
    best min-over-X value reachable below it (its threshold), buckets are
    scanned in decreasing threshold order, and a descent stops as soon as
    a threshold drops under the current x0 value.

    No semijoin pass runs first: a row with no full extension below it
    has threshold -inf, so the root filter and the cut drop it, and a row
    with no partner above is never looked up.
    """
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    p.check_vars(q)
    q, db = remove_self_joins(q, db)
    x0 = p.x0
    xs = [x for x in p.xs if x != x0]
    plan = TreePlan(q, tree_for_query(q, at=x0))
    ann = thresholds(q, xs, plan.tree, db)
    theta = {n: ann.as_map(n) for n in plan.order}
    order_nodes = plan.order
    root_id = plan.root
    x0_col = plan.schema[root_id].index(x0)
    below = p.below
    counter = StepCounter()
    answers, build_steps = _build_descent(
        plan, db, counter,
        bucket_sort=lambda n, r: theta[n][r],
        root_sort=lambda r: (r[x0_col], r),
        root_filter=lambda r: below(r[x0_col], theta[root_id][r]),
        cut=lambda i, r, bound: below(bound, theta[order_nodes[i]][r]),
        bound_var=x0,
    )
    return AnswerStream(answers, counter, db.size + build_steps)


def _ranked_merge(subs, xs, counter: StepCounter, skipped: StepCounter):
    """Merge sorted per-variable streams; emit each answer only from the
    stream whose variable attains its minimum (smallest index on ties)."""
    heads = [next(s, None) for s in subs]
    ids = range(len(xs))
    while True:
        best = None
        for i in ids:
            a = heads[i]
            if a is not None and (best is None or (a[xs[i]], i) < best):
                best = (a[xs[i]], i)
        counter.add(1)
        if best is None:
            return
        r = best[1]
        a = heads[r]
        heads[r] = next(subs[r], None)
        if min(ids, key=lambda j: (a[xs[j]], j)) == r:
            yield a
        else:
            skipped.add(1)


def enumerate_ranked_min(q: ConjunctiveQuery, xs, db: Database) -> AnswerStream:
    """Answers of a full acyclic query in non-decreasing min-over-xs
    order, one parallel sorted stream per ranking variable.

    Total work to the k-th emission is O(|D| + k*|xs|): an answer is
    skipped by a stream only if its responsible stream emits it, so skips
    are bounded by (|xs|-1) per emission.
    """
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    q, db = remove_self_joins(q, db)
    xs = tuple(dict.fromkeys(xs))
    qvars = set(q.variables)
    for x in xs:
        if x not in qvars:
            raise EngineError(f"ranking variable {x!r} not in the query")
    if not xs:
        raise EngineError("ranking needs at least one variable")
    counter, skipped = StepCounter(), StepCounter()
    subs, build_steps = [], 0
    for x in xs:
        answers, steps = _full_descent(q, db, x, counter)
        subs.append(answers)
        build_steps += steps
    return AnswerStream(_ranked_merge(subs, xs, counter, skipped), counter, build_steps, skipped)
