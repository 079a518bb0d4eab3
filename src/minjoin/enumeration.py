"""Constant-delay enumeration: plain full acyclic, predicate-pruned, and
min-ranked via a parallel merge of per-variable sorted streams.

Every stream is one odometer over join buckets. The full and ranked
streams read the buckets of the count pass (`semiring.count_buckets`),
as LexDA does; the predicate stream orders its buckets by threshold.
Each stream is a generator of answers that adds every step but its
yields to one StepCounter: the taker of an answer (the stream, or the
ranked merge) counts its step. Delays go to a record (`_Run`) updated
once per run, so they need no clock, and an answer costs no bookkeeping.

The task functions, `enumerate_with_predicate` (p None: the plain
stream) and `enumerate_ranked_min`, take the query as declared, check
its verdict and restrict it by the verdict's plan
(`reduce.restrict_predicate_to_free`);
`enumerate_with_predicate` reads a full query as declared.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
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
from .structure import Task, TreePlan, classify, group_by


class _Run:
    """A stream's delays, updated by its generator once per run of answers.

    A run is a stretch of answers whose every gap after the first is one
    step: a leaf run of the descent, or one emission of the ranked merge.
    The record holds the current run's `first` answer (its 1-based
    index), the step count `at` which it was yielded, its `gap` to the
    answer before it, and the `widest` gap of any answer before it.
    Nothing is recorded while `first` is 0.
    """

    __slots__ = ("first", "at", "gap", "widest")

    def __init__(self):
        self.first = self.at = self.gap = self.widest = 0

    def open(self, first: int, at: int) -> None:
        """Start the run whose first answer is answer `first`, yielded at
        step `at`; the last run ended with the answer before it."""
        if self.gap > self.widest:
            self.widest = self.gap
        self.gap = at - self.at - (first - 1 - self.first)
        self.first, self.at = first, at


class AnswerStream:
    """Single-consumer cursor over a generator of answers, with delay
    instrumentation.

    `advance` only checks the buffer, counts the emission and fetches the
    next answer, as iterating does. `steps` reads the generator's
    StepCounter plus one step per answer taken: `emitted` and the buffer.
    `max_delay`, the largest step gap between consecutive emissions, and
    `avg_delay` are computed when read, from `emitted` and the `run`
    record that the generator updates; a stream over an iterator that
    keeps no counter and no record reads every figure as 0.

    No stream runs a semijoin pass, so `build_steps` counts every input
    row that preprocessing reads, dangling ones included; a predicate
    stream adds the rows that it buckets. Draining twice is not
    supported: the cursor is consumed.
    """

    def __init__(
        self,
        answers: Iterator[Answer],
        counter: StepCounter | None = None,
        build_steps: int = 0,
        skipped: StepCounter | None = None,
        run: _Run | None = None,
    ):
        self._answers = answers
        self._counter = counter
        self._skipped = skipped
        self._run = run if run is not None else _Run()
        self.build_steps = build_steps
        self.emitted = 0
        self._buffer = next(answers, None)

    @property
    def steps(self) -> int:
        return self._counter.steps + self.emitted + (self._buffer is not None) if self._counter else 0

    @property
    def skips(self) -> int:
        return self._skipped.steps if self._skipped is not None else 0

    def _delays(self) -> tuple[int, int]:
        """(the step count at the last emission, the largest gap so far).

        The buffered answer may already have opened a new run: then the
        last emission closed the run before it, which ended `gap` steps
        before the record's first answer."""
        r, e = self._run, self.emitted
        if e < r.first or not r.first:
            return r.at - r.gap, r.widest
        return r.at + e - r.first, max(r.widest, r.gap)

    @property
    def max_delay(self) -> int:
        return self._delays()[1]

    @property
    def avg_delay(self) -> float:
        """Mean step gap per emission, over the steps up to the last
        emission: like `max_delay`, it leaves out the prefetch of the next
        answer and the exhaustion probe, so avg_delay <= max_delay."""
        return self._delays()[0] / max(1, self.emitted)

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
        self._buffer = next(self._answers, None)

    def __iter__(self):
        answers = self._answers
        while (out := self._buffer) is not None:
            self.emitted += 1
            self._buffer = next(answers, None)
            yield out

    def drain(self) -> list[Answer]:
        return list(self)


def _descend(plan: TreePlan, buckets, counter: StepCounter, run: _Run, cut=None):
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
    each row fills only the leaf's own variables (a leaf with none keys
    on them all: one row, filled from above). Every test of a row costs
    one step, as in a plain odometer: one per emission, counted by its
    taker, and one for the test that fails (or finds the bucket's end)
    and closes a run. Each emission after a run's first is one step
    after the one before, so `run` is opened once per run that emits.
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
    (p0, v0, c0), *rest = leaf or [(0, "", 0)]  # read only when leaf is not empty
    items: list = [None] * len(where)
    if cut is not None:
        bound_col, keys, search = cut
    new = object.__new__
    lists = [tables[0].get((), ())] + [()] * last
    stops = [len(lists[0])] + [0] * last
    idx = [-1] * (last + 1)
    cur = [None] * (last + 1)
    neg_bound = None
    i = steps = emitted = 0
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
            # the leaf run: one step to close it, and one per emission, which the taker counts
            lst, stop = lists[i], stops[i]
            counter.add(steps)
            steps = 1
            if stop:
                for p, v, j, c in upper:
                    items[p] = (v, cur[j][c])
                run.open(emitted + 1, counter.steps + emitted + 1)
                emitted += stop
                if leaf:
                    for row in (lst if stop == len(lst) else lst[:stop]):
                        items[p0] = (v0, row[c0])
                        for p, v, c in rest:
                            items[p] = (v, row[c])
                        a = new(Answer)
                        a._items = tuple(items)
                        yield a
                else:  # no own variable: one row, filled from above
                    yield Answer._of_sorted(tuple(items))
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
    counter, built, run = StepCounter(), StepCounter(), _Run()
    plan, buckets, _ = count_buckets(q, db, root_sort_var, counter=built)
    return AnswerStream(_descend(plan, buckets, counter, run), counter, built.steps, run=run)


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
    `enumerate_full_acyclic`. Otherwise the tree is the plan's, rooted at
    an atom containing x0 (`Plan.orders`); every tuple carries the best
    min-over-X value reachable below it (its threshold), buckets are
    scanned in decreasing threshold order, and a descent stops as soon as
    a threshold drops under the current x0 value.

    No semijoin pass runs first: a row with no full extension below it
    has threshold -inf, so the root filter and the cut drop it, and a row
    with no partner above is never looked up.
    """
    proved = classify(Task.ENUM_PRED, q, p).require()
    if q.is_full:
        q, db = remove_self_joins(q, db)
    else:
        q, p, db = restrict_predicate_to_free(q, p, db, proved)
    if p is None:
        return _full_stream(q, db)
    ((x0, pair),) = proved.orders  # no order: the tree rooted at x0
    xs = [x for x in p.xs if x != x0]
    plan = TreePlan(q, pair.tree)
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
    counter, run = StepCounter(), _Run()
    answers = _descend(
        plan, buckets, counter, run, cut=(x0_col, keys, bisect_left if p.strict else bisect_right),
    )
    return AnswerStream(answers, counter, build_steps, run=run)


def _ranked_merge(subs, take, counter: StepCounter, skipped: StepCounter, run: _Run):
    """Merge sorted per-variable streams; emit each answer only from the
    stream whose variable attains its minimum (smallest index on ties).

    `take[i]` is the position of stream i's variable in an answer's
    items. Each head's ranking cells are read once, when it is pulled:
    they give its key in its own stream and whether that stream is
    responsible for it. The heads sit in a heap by (key, stream index).
    A pick costs one step, and so does the probe that finds every stream
    exhausted; an emitted pick is the stream's to count, and a pulled
    answer the merge's. Each emission is a run of its own.
    """

    def pull(i):
        a = next(subs[i], None)
        if a is None:
            return None
        counter.steps += 1
        items = a._items
        cells = [items[p][1] for p in take]
        return cells[i], i, a, cells.index(min(cells)) == i

    heap = [h for h in map(pull, range(len(subs))) if h is not None]
    heapify(heap)
    emitted = 0
    while heap:
        _, r, a, mine = heap[0]
        h = pull(r)
        if h is None:
            heappop(heap)
        else:
            heapreplace(heap, h)
        if mine:
            emitted += 1
            run.open(emitted, counter.steps + emitted)
            yield a
        else:
            counter.steps += 1
            skipped.steps += 1
    counter.steps += 1


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
    plan = classify(Task.RANKED_ENUM, q, xs).require()
    q, _, db = restrict_predicate_to_free(q, None, negate_database(db) if maximize else db, plan)
    counter, skipped, built, run = StepCounter(), StepCounter(), StepCounter(), _Run()
    subs = []
    for x in xs:
        plan, buckets, _ = count_buckets(q, db, x, counter=built)
        subs.append(_descend(plan, buckets, counter, _Run()))
    take = [sorted(q.variables).index(x) for x in xs]
    answers = _ranked_merge(subs, take, counter, skipped, run)
    if maximize:
        answers = (a.negated() for a in answers)
    return AnswerStream(answers, counter, built.steps, skipped, run=run)
