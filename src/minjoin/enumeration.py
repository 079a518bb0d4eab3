"""Constant-delay enumeration: plain full acyclic, predicate-pruned, and
min-ranked via a parallel merge of per-variable sorted streams.

Every stream is one odometer over join buckets. The full and ranked
streams read the buckets of the count pass (`semiring.count_buckets`),
as LexDA does; the predicate stream orders its buckets by threshold.
Each stream is a generator of answers that adds its work to one
StepCounter, so delay properties are assertable without clocks.

The task functions, `enumerate_with_predicate` (p None: the plain
stream) and `enumerate_ranked_min`, take the query as declared, check
its verdict and restrict it (`reduce.restrict_predicate_to_free`);
`enumerate_with_predicate` reads a full query as declared.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator

from .errors import EngineError
from .instrument import StepCounter
from .model import (
    Answer,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    MinRanking,
    negate_database,
    remove_self_joins,
)
from .reduce import restrict_predicate_to_free
from .semiring import count_buckets, thresholds
from .structure import Task, TreePlan, classify, group_by, tree_for_query


class AnswerStream:
    """Single-consumer cursor over a generator of answers, with delay
    instrumentation.

    `steps` reads the StepCounter that the generator adds its work to;
    `max_delay` tracks the largest step gap between consecutive
    emissions. No stream runs a semijoin pass, so `build_steps` counts
    every input row that preprocessing reads, dangling ones included; a
    predicate stream adds the rows that it buckets. Draining twice is not
    supported: the cursor is consumed.
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


def _descend(plan: TreePlan, buckets, counter: StepCounter, cut=None):
    """Nested-loop descent over a bucketed join tree (the odometer).

    `buckets[n]` maps each key of node n (`plan.key[n]`) to its rows; the
    root's one key is (). Node n scans the bucket that its parent's row
    selects by the values in `plan.parent_key[n]`, the key function that
    reads n's key from a parent row.

    Each visit to a bucket first computes `stop`, how many of its leading
    rows pass; with no cut that is the whole bucket. A cut is a triple
    (col, keys, search): col is the root column holding the bound, keys[i]
    the sort key of the buckets at position i > 0 of `plan.order`, and
    search a bisect function. Each such bucket must be sorted by its key,
    and `stop` is search(bucket, -bound, key=keys[i]), where bound is the
    current root row's value in col. The root is never cut.

    The upper levels step through their rows one at a time. The last node
    of `plan.order` emits its bucket's first `stop` rows as one run: the
    answer's cells from the upper levels are filled once per visit, and
    each row fills only the leaf's own variables. Every test of a row
    costs one step, as in a plain odometer: one per emission, and one for
    the test that fails (or finds the bucket's end) and closes a run.
    """
    order = plan.order  # any topological order works for the odometer
    pos = {n: i for i, n in enumerate(order)}
    tables = [buckets[n] for n in order]
    parent_ix = [-1] + [pos[plan.parent[n]] for n in order[1:]]
    parent_keys = [None] + [plan.parent_key[n] for n in order[1:]]
    # each variable, in sorted order, with the node and column that hold it
    first: dict[str, tuple[int, int]] = {}
    for j, n in enumerate(order):
        for c, v in enumerate(plan.schema[n]):
            first.setdefault(v, (j, c))
    last = len(order) - 1
    where = [(p, v, *first[v]) for p, v in enumerate(sorted(first))]
    upper = [(p, v, j, c) for p, v, j, c in where if j < last]
    leaf = [(p, v, c) for p, v, j, c in where if j == last]
    items: list = [None] * len(where)
    if cut is not None:
        bound_col, keys, search = cut
    of_sorted = Answer._of_sorted
    lists = [tables[0].get((), ())] + [()] * last
    stops = [len(lists[0])] + [0] * last
    idx = [-1] * (last + 1)
    cur = [None] * (last + 1)
    neg_bound = None
    i = steps = 0
    while True:
        if i < last:
            steps += 1
            k = idx[i] = idx[i] + 1
            if k < stops[i]:
                row = cur[i] = lists[i][k]
                if i == 0 and cut is not None:
                    neg_bound = -row[bound_col]
                i += 1
                parent = cur[parent_ix[i]]
                lst = lists[i] = tables[i].get(parent_keys[i](parent), ())
                stops[i] = len(lst) if cut is None else search(lst, neg_bound, key=keys[i])
                idx[i] = -1
                continue
        else:
            # the leaf run: one step per emission, and one to close it
            lst, stop = lists[i], stops[i]
            for p, v, j, c in upper:
                items[p] = (v, cur[j][c])
            counter.add(steps)
            steps = 0
            for row in (lst if stop == len(lst) else lst[:stop]):
                counter.steps += 1
                for p, v, c in leaf:
                    items[p] = (v, row[c])
                yield of_sorted(tuple(items))
            steps = 1
        i -= 1
        if i < 0:
            counter.add(steps)
            return


def enumerate_full_acyclic(
    q: ConjunctiveQuery, db: Database, *, root_sort_var: str | None = None,
) -> AnswerStream:
    """All answers of a full acyclic query, constant delay after one
    bottom-up count pass. With `root_sort_var`, answers come out in
    non-decreasing order of that variable."""
    if not q.is_full:
        raise EngineError("enumeration needs a full query")
    q, db = remove_self_joins(q, db)
    return _full_stream(q, db, root_sort_var)


def _full_stream(q: ConjunctiveQuery, db: Database, root_sort_var: str | None = None) -> AnswerStream:
    """`enumerate_full_acyclic` over a full self-join-free query."""
    counter, built = StepCounter(), StepCounter()
    plan, buckets, _ = count_buckets(q, db, root_sort_var, counter=built)
    return AnswerStream(_descend(plan, buckets, counter), counter, built.steps)


def enumerate_with_predicate(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> AnswerStream:
    """Answers of Q AND (x0 <= min X), or of Q when p is None, for any
    acyclic free-connex query: no side condition on the predicate.

    A query that is not full is restricted to its free variables first,
    a Boolean head to one nullary atom. A full query is enumerated as
    declared: restriction would only rename its relations, and would drop
    a predicate such as x <= MIN(x), which changes the emission order.
    With no predicate left, this is the plain stream of
    `enumerate_full_acyclic`. Otherwise the tree is
    rooted at an atom containing x0; every tuple carries the best
    min-over-X value reachable below it (its threshold), buckets are
    scanned in decreasing threshold order, and a descent stops as soon as
    a threshold drops under the current x0 value.

    No semijoin pass runs first: a row with no full extension below it
    has threshold -inf, so the root filter and the cut drop it, and a row
    with no partner above is never looked up.
    """
    classify(Task.ENUM_PRED, q, p).require()
    if q.is_full:
        if p is not None:
            p.check_vars(q)
        q, db = remove_self_joins(q, db)
    else:
        q, p, db = restrict_predicate_to_free(q, p, db)
    if p is None:
        return _full_stream(q, db)
    x0 = p.x0
    xs = [x for x in p.xs if x != x0]
    plan = TreePlan(q, tree_for_query(q, at=x0))
    theta = thresholds(q, xs, plan.tree, db)
    root = plan.root
    x0_col = plan.schema[root].index(x0)
    below = p.below
    # the root's rows whose x0 passes their threshold, by (x0, row); every
    # other bucket by decreasing threshold, ties in row order
    root_rows = sorted(r for r in plan.rows(db, root) if below(r[x0_col], theta[root][r]))
    root_rows.sort(key=itemgetter(x0_col))
    buckets = {root: {(): root_rows}}
    build_steps = db.size + len(root_rows)
    for n in plan.order[1:]:
        buckets[n] = group_by(plan.rows(db, n), plan.key[n])
        for rows in buckets[n].values():
            rows.sort()
            rows.sort(key=theta[n].__getitem__, reverse=True)
            build_steps += len(rows)
    # a bucket sorted by decreasing threshold is sorted by its negation
    keys = [None] + [(lambda r, t=theta[n]: -t[r]) for n in plan.order[1:]]
    counter = StepCounter()
    answers = _descend(
        plan, buckets, counter, cut=(x0_col, keys, bisect_left if p.strict else bisect_right),
    )
    return AnswerStream(answers, counter, build_steps)


def _ranked_merge(subs, xs, counter: StepCounter, skipped: StepCounter):
    """Merge sorted per-variable streams; emit each answer only from the
    stream whose variable attains its minimum (smallest index on ties)."""
    heads = [next(s, None) for s in subs]
    ids = range(len(xs))
    while True:
        best = None
        for i in ids:
            a = heads[i]
            if a is not None and (best is None or (a._cell(xs[i]), i) < best):
                best = (a._cell(xs[i]), i)
        counter.add(1)
        if best is None:
            return
        r = best[1]
        a = heads[r]
        heads[r] = next(subs[r], None)
        if min(ids, key=lambda j: (a._cell(xs[j]), j)) == r:
            yield a
        else:
            skipped.add(1)


def enumerate_ranked_min(q: ConjunctiveQuery, xs, db: Database) -> AnswerStream:
    """Answers of an acyclic free-connex query in non-decreasing
    min-over-xs order, one parallel sorted stream per ranking variable
    over the query restricted to its free variables.

    `xs` is the ranking's variables, which means MIN, or a MinRanking; a
    MAX ranking runs as MIN over the negated database, and the answers
    carry the original values. Total work to the k-th emission is
    O(|D| + k*|xs|): an answer is skipped by a stream only if its
    responsible stream emits it, so skips are bounded by (|xs|-1) per
    emission.
    """
    maximize = isinstance(xs, MinRanking) and xs.maximize
    if isinstance(xs, MinRanking):
        xs = xs.xs
    xs = tuple(dict.fromkeys(xs))
    qvars = set(q.variables)
    for x in xs:
        if x not in qvars:
            raise EngineError(f"ranking variable {x!r} not in the query")
    if not xs:
        raise EngineError("ranking needs at least one variable")
    classify(Task.RANKED_ENUM, q, xs).require()
    q, _, db = restrict_predicate_to_free(q, None, negate_database(db) if maximize else db)
    counter, skipped, built = StepCounter(), StepCounter(), StepCounter()
    subs = []
    for x in xs:
        plan, buckets, _ = count_buckets(q, db, x, counter=built)
        subs.append(_descend(plan, buckets, counter))
    answers = _ranked_merge(subs, xs, counter, skipped)
    if maximize:
        answers = (a.negated() for a in answers)
    return AnswerStream(answers, counter, built.steps, skipped)
