"""Constant-delay enumeration: plain full acyclic, predicate-pruned, and
min-ranked via a parallel merge of per-variable sorted streams.

Streams are single-consumer stateful cursors with has_next/peek/advance
and a step counter, so delay properties are assertable without clocks.
"""

from __future__ import annotations

from .errors import EngineError
from .model import Answer, ConjunctiveQuery, Database, MinPredicate, TaggedValue, remove_self_joins
from .reduce import semijoin_reduce
from .semiring import NEG_INF, POS_INF, below_threshold, thresholds
from .structure import TreePlan, group_by, tree_for_query


class AnswerStream:
    """Cursor over answers with delay instrumentation.

    `steps` counts cursor operations; `max_delay` tracks the largest step
    gap between consecutive emissions. Draining twice is not supported:
    the cursor is consumed.
    """

    def __init__(self, cursor, free_vars: tuple[str, ...], build_steps: int = 0):
        self._cursor = cursor
        self._free = free_vars
        self.build_steps = build_steps
        self.emitted = 0
        self.max_delay = 0
        self._last_steps = 0
        self._buffer = self._fetch()

    def _fetch(self):
        got = self._cursor.next_answer()
        if got is None:
            return None
        if isinstance(got, Answer):
            return got
        return Answer({v: got[v] for v in self._free})

    @property
    def steps(self) -> int:
        return self._cursor.steps

    @property
    def skips(self) -> int:
        return getattr(self._cursor, "skips", 0)

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
        delay = self.steps - self._last_steps
        if delay > self.max_delay:
            self.max_delay = delay
        self._last_steps = self.steps
        self._buffer = self._fetch()

    def __iter__(self):
        while self.has_next():
            out = self.peek()
            self.advance()
            yield out

    def drain(self) -> list[Answer]:
        return list(self)


class _DescentCursor:
    """Nested-loop descent over a bucketed join tree (the odometer).

    Buckets are keyed by the variables shared with the parent node. An
    optional cut predicate prunes bucket scans: bucket lists must then be
    sorted so that once one row fails, the rest of the bucket fails too.
    """

    __slots__ = (
        "steps", "_m", "_schemas", "_parent_ix", "_parent_cols", "_buckets",
        "_root_rows", "_cut", "_bound_col", "_bound", "_lists", "_idx",
        "_cur", "_started", "_done",
    )

    def __init__(self, preorder_nodes, schemas, parent_ix, parent_cols, buckets, root_rows,
                 cut=None, bound_col=None):
        self.steps = 0
        self._m = len(preorder_nodes)
        self._schemas = schemas
        self._parent_ix = parent_ix
        self._parent_cols = parent_cols
        self._buckets = buckets
        self._root_rows = root_rows
        self._cut = cut
        self._bound_col = bound_col
        self._bound = None
        self._lists: list = [None] * self._m
        self._idx = [0] * self._m
        self._cur: list = [None] * self._m
        self._started = False
        self._done = False

    def _passes(self, i: int, row) -> bool:
        if i == 0 or self._cut is None:
            return True
        return self._cut(i, row, self._bound)

    def next_answer(self):
        if self._done:
            return None
        if not self._started:
            self._started = True
            self._lists[0] = self._root_rows
            self._idx[0] = -1
            i = 0
        else:
            i = self._m - 1
        steps = 0
        while True:
            steps += 1
            self._idx[i] += 1
            lst = self._lists[i]
            if self._idx[i] < len(lst) and self._passes(i, lst[self._idx[i]]):
                row = lst[self._idx[i]]
                self._cur[i] = row
                if i == 0 and self._bound_col is not None:
                    self._bound = row[self._bound_col]
                if i == self._m - 1:
                    self.steps += steps
                    out: dict[str, TaggedValue] = {}
                    for j in range(self._m):
                        r = self._cur[j]
                        for v, c in zip(self._schemas[j], r):
                            out[v] = c
                    return out
                i += 1
                p = self._parent_ix[i]
                key = tuple(self._cur[p][c] for c in self._parent_cols[i])
                self._lists[i] = self._buckets[i].get(key, ())
                self._idx[i] = -1
                continue
            i -= 1
            if i < 0:
                self._done = True
                self.steps += steps
                return None


def _build_descent(
    plan: TreePlan,
    db: Database,
    *,
    bucket_sort=None,
    root_sort=None,
    root_filter=None,
    cut=None,
    bound_var=None,
):
    """Shared preprocessing: bucket every non-root node, order the root."""
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
    cursor = _DescentCursor(
        order,
        [plan.schema[n] for n in order],
        [-1] + [pos[plan.parent[n]] for n in order[1:]],
        [()] + [plan.parent_key[n] for n in order[1:]],
        buckets,
        root_rows,
        cut=cut,
        bound_col=plan.schema[plan.root].index(bound_var) if bound_var is not None else None,
    )
    return cursor, build_steps


def enumerate_full_acyclic(
    q: ConjunctiveQuery, db: Database, *, root_sort_var: str | None = None,
) -> AnswerStream:
    """All answers of a full acyclic query, constant delay after the
    semijoin reduction. With `root_sort_var`, answers come out in
    non-decreasing order of that variable."""
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    q, db = remove_self_joins(q, db)
    plan = TreePlan(q, tree_for_query(q, at=root_sort_var))
    reduced = semijoin_reduce(q, db, plan.tree)
    root_sort = None
    if root_sort_var is not None:
        col = plan.schema[plan.root].index(root_sort_var)
        root_sort = lambda r: (r[col], r)
    cursor, build_steps = _build_descent(plan, reduced, root_sort=root_sort)
    return AnswerStream(cursor, q.free_vars, build_steps)


def enumerate_with_predicate(
    q: ConjunctiveQuery, p: MinPredicate, db: Database
) -> AnswerStream:
    """Answers of Q AND (x0 <= min X) for any full acyclic query: no
    structural side condition.

    The tree is rooted at an atom containing x0; every tuple carries the
    best min-over-X value reachable below it (its threshold), buckets are
    scanned in decreasing threshold order, and a descent stops as soon as
    a threshold drops under the current x0 value.
    """
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    p.check_vars(q)
    q, db = remove_self_joins(q, db)
    x0 = p.x0
    xs = [x for x in p.xs if x != x0]
    plan = TreePlan(q, tree_for_query(q, at=x0))
    t = plan.tree
    reduced = semijoin_reduce(q, db, t)
    ann = thresholds(q, xs, t, reduced)
    theta = {n: ann.as_map(n) for n in plan.order}
    build_steps = reduced.size
    order_nodes = plan.order
    root_id = plan.root
    x0_col = plan.schema[root_id].index(x0)
    strict = p.strict

    def theta_key(n, row):
        v = theta[n][row]
        if v is POS_INF:
            return (2, TaggedValue(0, 0))
        if v is NEG_INF:
            return (0, TaggedValue(0, 0))
        return (1, v)

    def cut(i, row, bound):
        v = theta[order_nodes[i]][row]
        if v is POS_INF:
            return True
        if v is NEG_INF:
            return False
        return v > bound if strict else v >= bound

    cursor, more_steps = _build_descent(
        plan, reduced,
        bucket_sort=theta_key,
        root_sort=lambda r: (r[x0_col], r),
        root_filter=lambda r: below_threshold(r[x0_col], theta[root_id][r], strict),
        cut=cut,
        bound_var=x0,
    )
    return AnswerStream(cursor, q.free_vars, build_steps + more_steps)


class _RankedMergeCursor:
    """Merge sorted per-variable streams; emit each answer only from the
    stream whose variable attains its minimum (smallest index on ties)."""

    def __init__(self, substreams: list[AnswerStream], xs: tuple[str, ...]):
        self._subs = substreams
        self._xs = xs
        self.skips = 0
        self._merge_steps = 0

    @property
    def steps(self) -> int:
        return self._merge_steps + sum(s.steps for s in self._subs)

    def next_answer(self):
        while True:
            best = None
            for i, s in enumerate(self._subs):
                if not s.has_next():
                    continue
                v = s.peek()[self._xs[i]]
                if best is None or (v, i) < best[:2]:
                    best = (v, i, s)
            self._merge_steps += 1
            if best is None:
                return None
            _, r, stream = best
            a = stream.peek()
            stream.advance()
            responsible = min(range(len(self._xs)), key=lambda j: (a[self._xs[j]], j))
            if responsible == r:
                return a
            self.skips += 1


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
    subs = [
        enumerate_full_acyclic(q, db, root_sort_var=x)
        for x in xs
    ]
    cursor = _RankedMergeCursor(subs, xs)
    return AnswerStream(cursor, q.free_vars, sum(s.build_steps for s in subs))

