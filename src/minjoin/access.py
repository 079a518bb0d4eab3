"""Direct access to query answers.

LexDA answers "give me the k-th answer ordered by one variable" by a
prefix-sum descent over the buckets of the count pass
(`semiring.count_buckets`). MinDAIndex layers a sorted entry array over
per-part LexDA structures so the k-th answer under a min-of-variables
order comes back in logarithmically many probes; both read parts that
the dyadic fork rewrite builds. Counting with a predicate partitions it
into the same enforced orders and counts each with the count pass over
its tree, with no rewrite. The Boolean task is one max-min threshold
pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import EngineError, IntractableQueryError, OutOfBoundsError
from .instrument import StepCounter
from .model import (
    Answer,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    TaggedValue,
    disjointify,
    remove_self_joins,
)
from .elim import (
    EliminationResult,
    _cut_at_x0,
    eliminate_min_predicate,
    eliminate_strict_min_tagged,
    min_predicate_orders,
)
from .partition import StrictPartialOrder
from .semiring import count_answers, count_buckets
# kept as a name of this module, which the benchmark's layer tracing wraps
from .semiring import aggregate_bottom_up  # noqa: F401
from .structure import Task, classify


class LexDA:
    """Direct access by the order <x> over a full acyclic query's answers.

    Build: one count pass (`semiring.count_buckets`) on the join tree
    rooted at the first atom containing x; `build_steps` counts the rows
    it reads. Access descends the tree, decomposing the index by
    child-bucket mixed radix and a binary search inside each bucket. The
    tie order below x is the sorted-tuple bucket order, fixed and
    deterministic.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, x: str):
        if not q.is_full or not q.is_self_join_free:
            raise EngineError("LexDA needs a full self-join-free query")
        self.query = q
        self.sort_var = x
        built = StepCounter()
        self._plan, self._rows, self._cum = count_buckets(q, db, x, counter=built)
        self.build_steps = built.steps
        root = self._plan.root
        self._x_col = self._plan.schema[root].index(x)
        self.total: int = self._cum[root].get((), [0])[-1]

    def root_groups(self):
        """[(x value, answer count, answers strictly below)] in x order."""
        root = self._plan.root
        rows, cum = self._rows[root].get((), []), self._cum[root].get((), [0])
        groups: list[list] = []
        for i, row in enumerate(rows):
            if not groups or groups[-1][0] != row[self._x_col]:
                groups.append([row[self._x_col], 0, cum[i]])
            groups[-1][1] += cum[i + 1] - cum[i]
        return [tuple(g) for g in groups]

    def access(self, k: int, probes: StepCounter | None = None) -> dict[str, TaggedValue]:
        """Full variable assignment of the k-th answer in <x> order."""
        if k < 0 or k >= self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        out: dict[str, TaggedValue] = {}
        plan = self._plan

        def descend(node: int, key, cum, local: int):
            i = bisect_right(cum, local) - 1
            if probes is not None:
                probes.add(max(1, len(cum).bit_length()))
            row = self._rows[node][key][i]
            local -= cum[i]
            for v, c in zip(plan.schema[node], row):
                out[v] = c
            kids = plan.children[node]
            if not kids:
                return
            sub = []
            block = 1
            for c in kids:
                ck = tuple(row[i2] for i2 in plan.parent_key[c])
                ccum = self._cum[c][ck]
                sub.append((c, ck, ccum))
                block *= ccum[-1]
            for c, ck, ccum in sub:
                block //= ccum[-1]
                q, local = divmod(local, block)
                if probes is not None:
                    probes.add(1)
                descend(c, ck, ccum, q)
            # local is now 0: the last child consumed the remainder

        descend(plan.root, (), self._cum[plan.root][()], k)
        return out


# ---------------------------------------------------------------------------
# Min-ranked direct access


@dataclass(frozen=True)
class MinDAEntry:
    min_val: TaggedValue
    qid: int
    count: int
    smaller_cq: int
    smaller_total: int


@dataclass
class MinDAIndex:
    """Sorted entry array plus per-part secondary structures.

    Global order: non-decreasing min-of-X value, ties by part id, then by
    the secondary structure's internal tie order. Reads are idempotent;
    the structure is immutable after build.
    """

    entries: list[MinDAEntry]
    secondary: dict[int, LexDA]
    part_info: list[tuple[ConjunctiveQuery, Database, StrictPartialOrder, str]]
    source_vars: tuple[str, ...]
    total: int
    build_steps: int = 0
    _smaller: list[int] = field(default_factory=list)

    def __post_init__(self):
        self._smaller = [e.smaller_total for e in self.entries]

    def access(self, k: int, probes: StepCounter | None = None) -> Answer:
        """The k-th answer in min-of-X order, untagged, over var(Q)."""
        if k < 0 or k >= self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        i = bisect_right(self._smaller, k) - 1
        if probes is not None:
            probes.add(max(1, len(self._smaller).bit_length()))
        e = self.entries[i]
        j = k - e.smaller_total + e.smaller_cq
        assignment = self.secondary[e.qid].access(j, probes)
        return Answer({v: assignment[v].untagged() for v in self.source_vars})


def build_min_da(q: ConjunctiveQuery, xs, db: Database) -> MinDAIndex:
    """Min-ranked direct access over a full acyclic self-join-free query.

    For each ranking variable x, the case "x attains the minimum" is
    eliminated into full acyclic parts over the disjointified database;
    each part gets a LexDA on its designated minimum variable, and the
    per-value counts merge into one prefix-summed entry array.
    """
    if not xs:
        raise EngineError("ranking needs at least one variable")
    verdict = classify(Task.RANKED_DA, q, xs)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    if not q.is_full:
        raise EngineError("build_min_da expects a full query (restrict first)")
    counter = StepCounter()
    q1, d1 = remove_self_joins(q, db)
    d2 = disjointify(d1, q1, q1.variables)
    counter.add(d2.size)

    var_pos = {v: i for i, v in enumerate(q1.variables)}
    xs = sorted(dict.fromkeys(xs), key=lambda v: var_pos[v])
    part_info = []
    secondary: dict[int, LexDA] = {}
    raw_entries: list[tuple[TaggedValue, int, int, int]] = []
    qid = 0
    for xi, x in enumerate(xs):
        others = [v for v in xs if v != x]
        for pq, pd, otp in eliminate_strict_min_tagged(
            q1, d2, x, others, part_tag=f"_m{xi}", counter=counter
        ):
            lex = LexDA(pq, pd, x)
            counter.add(lex.build_steps)
            secondary[qid] = lex
            part_info.append((pq, pd, otp.order, x))
            for val, cnt, below in lex.root_groups():
                raw_entries.append((val, qid, cnt, below))
            qid += 1

    raw_entries.sort(key=lambda e: (e[0], e[1]))
    entries: list[MinDAEntry] = []
    running = 0
    for val, qid_, cnt, below in raw_entries:
        entries.append(MinDAEntry(val, qid_, cnt, below, running))
        running += cnt
    return MinDAIndex(
        entries=entries,
        secondary=secondary,
        part_info=part_info,
        source_vars=q.free_vars,
        total=running,
        build_steps=counter.steps,
    )


def single_access(q: ConjunctiveQuery, xs, db: Database, k: int) -> Answer:
    """One-shot k-th answer by min over xs (builds the index, accesses once)."""
    return build_min_da(q, xs, db).access(k)


def count_via_access(da, probes: StepCounter | None = None) -> int:
    """Recover the answer count from out-of-bounds signals alone.

    Probe 0, gallop by doubling to the first out-of-bounds index, then
    binary search the boundary: at most 2*ceil(log2 total) + 2 probes.
    """

    def in_bounds(k: int) -> bool:
        if probes is not None:
            probes.add(1)
        try:
            da.access(k)
            return True
        except OutOfBoundsError:
            return False

    if not in_bounds(0):
        return 0
    hi = 1
    while in_bounds(hi):
        hi *= 2
    lo = hi // 2  # total in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if in_bounds(mid):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# Unranked direct access / counting / Boolean with a predicate


@dataclass
class UnrankedPredDA:
    """Concatenation of per-part LexDA structures in part order."""

    elimination: EliminationResult
    secondary: list[LexDA]
    total: int
    _smaller: list[int]

    def access(self, k: int, probes: StepCounter | None = None) -> Answer:
        if k < 0 or k >= self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        i = bisect_right(self._smaller, k) - 1
        if probes is not None:
            probes.add(max(1, len(self._smaller).bit_length()))
        assignment = self.secondary[i].access(k - self._smaller[i], probes)
        return Answer(
            {v: assignment[v].untagged() for v in self.elimination.source_vars}
        )


class BooleanAnswers:
    """A Boolean query's answers, the empty assignment if the query holds
    and none otherwise, as a direct-access structure."""

    def __init__(self, holds: bool):
        self.total = int(holds)

    def access(self, k: int, probes: StepCounter | None = None) -> Answer:
        if not 0 <= k < self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        return Answer({})


def build_unranked_da_pred(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> UnrankedPredDA | BooleanAnswers:
    """Direct access (arbitrary order) to the answers of Q AND P, or of Q
    when p is None. A Boolean query has one (empty) answer or none."""
    verdict = classify(Task.UNRANKED_DA_PRED, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    if q.is_boolean:
        return BooleanAnswers(is_nonempty(q, p, db))
    res = eliminate_min_predicate(q, p, db)
    secondary, smaller = [], []
    running = 0
    for part in res.parts:
        lex = LexDA(part.query, part.database, part.query.free_vars[0])
        secondary.append(lex)
        smaller.append(running)
        running += lex.total
    return UnrankedPredDA(res, secondary, running, smaller)


def count_with_predicate(q: ConjunctiveQuery, p: MinPredicate | None, db: Database) -> int:
    """|(Q AND P)(D)|, or |Q(D)| when p is None. A Boolean query has one
    (empty) answer or none.

    The predicate is restricted to the free variables and partitioned into
    enforced strict orders over the disjointified data; every answer
    satisfies exactly one order, and each order is counted by one
    bottom-up pass over its enforcing tree, with no fork rewrite.
    """
    verdict = classify(Task.COUNTING, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    if q.is_boolean:
        return int(is_nonempty(q, p, db))
    q2, d, otps = min_predicate_orders(q, p, db)
    if otps is None:
        return count_answers(q2, d)
    return sum(count_answers(q2, d, otp) for otp in otps)


def is_nonempty(q: ConjunctiveQuery, p: MinPredicate | None, db: Database) -> bool:
    """Boolean task for Q AND P (for Q when p is None); needs only
    acyclicity. Q AND P holds when the cut of an atom holding x0 keeps a
    row (see `elim._cut_at_x0`)."""
    verdict = classify(Task.BOOLEAN, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    return _cut_at_x0(q, p, db)[2] > 0
