"""Bottom-up passes over rooted join trees.

`count_buckets` is the one count pass, which LexDA, the full and ranked
streams and counting read: per row, the number of answers below it, in
join buckets with prefix sums; an enforced order enters it as filters
and b-sorted child buckets. `aggregate_bottom_up` is the plain semiring
fold agg(t) = PLUS over the partial answers below t of the TIMES of
their val(.) values; the max-min thresholds are its instance.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import EngineError, InternalInvariantError, SemiringLawError
from .instrument import StepCounter
from .model import ConjunctiveQuery, Database, Row, TaggedValue
from .partition import OrderTreePair
from .structure import RootedJoinTree, TreePlan, group_by, tree_for_query


# The max-min aggregation's zero and one: cells below and above every
# cell of every rank.
NEG_INF = TaggedValue(-math.inf)
POS_INF = TaggedValue(math.inf)


@dataclass(frozen=True)
class Semiring:
    """Commutative semiring: (carrier, plus, times, zero, one)."""

    name: str
    plus: Callable
    times: Callable
    zero: object
    one: object

    def __repr__(self):
        return f"Semiring({self.name})"


COUNTING = Semiring("counting", operator.add, operator.mul, 0, 1)
MAX_MIN = Semiring("max-min", max, min, NEG_INF, POS_INF)


def check_semiring_laws(s: Semiring, samples, rng: random.Random | None = None) -> None:
    """Sample-based law check; catches wiring mistakes, not a proof."""
    rng = rng or random.Random(0)
    pool = list(samples) + [s.zero, s.one]
    if len(pool) < 3:
        return
    for _ in range(64):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if s.plus(a, b) != s.plus(b, a) or s.times(a, b) != s.times(b, a):
            raise SemiringLawError(f"{s.name}: commutativity fails on {a!r},{b!r}")
        if s.plus(s.plus(a, b), c) != s.plus(a, s.plus(b, c)):
            raise SemiringLawError(f"{s.name}: plus associativity fails")
        if s.times(s.times(a, b), c) != s.times(a, s.times(b, c)):
            raise SemiringLawError(f"{s.name}: times associativity fails")
        if s.times(a, s.plus(b, c)) != s.plus(s.times(a, b), s.times(a, c)):
            raise SemiringLawError(f"{s.name}: distributivity fails on {a!r},{b!r},{c!r}")
        if s.plus(a, s.zero) != a or s.times(a, s.one) != a:
            raise SemiringLawError(f"{s.name}: identity fails on {a!r}")
        if s.times(a, s.zero) != s.zero:
            raise SemiringLawError(f"{s.name}: zero not absorbing on {a!r}")


# ---------------------------------------------------------------------------
# Aggregation


class AggAnnotation:
    """agg values per (node, tuple), stored as lists parallel to the rows."""

    def __init__(self, rows_of, values_of):
        self.rows_of: dict[int, Sequence[Row]] = rows_of
        self.values_of: dict[int, list] = values_of

    def as_map(self, node: int) -> dict[Row, object]:
        return dict(zip(self.rows_of[node], self.values_of[node]))


def aggregate_bottom_up(
    q: ConjunctiveQuery,
    db: Database,
    t: RootedJoinTree,
    val: Callable[[int, Row], object],
    s: Semiring,
    *,
    counter: StepCounter | None = None,
) -> AggAnnotation:
    """Children-to-parent message passing over the join tree.

    Each child relation is grouped into join buckets keyed by the
    variables shared with its parent; bucket messages fold with PLUS and
    a tuple combines its received messages with its own val via TIMES.
    Linear in the database size.
    """
    if not q.is_self_join_free:
        raise EngineError("aggregation requires a self-join-free query")
    plan = TreePlan(q, t)
    plus, times, zero = s.plus, s.times, s.zero

    rows_of: dict[int, Sequence[Row]] = {}
    values_of: dict[int, list] = {}
    messages: dict[int, dict] = {}  # child id -> {key: folded message}

    for n in reversed(plan.order):
        rows = rows_of[n] = plan.rows(db, n)
        vals = [val(n, r) for r in rows]
        for c in plan.children[n]:
            idx = plan.parent_key[c]
            cmsg = messages.pop(c)
            for i, r in enumerate(rows):
                vals[i] = times(vals[i], cmsg.get(tuple([r[j] for j in idx]), zero))
        values_of[n] = vals
        if counter is not None:
            counter.add(len(rows))
        if n != plan.root:
            idx = plan.key[n]
            msg: dict = {}
            for r, v in zip(rows, vals):
                key = tuple([r[j] for j in idx])
                prev = msg.get(key)
                msg[key] = v if prev is None else plus(prev, v)
            messages[n] = msg
            if counter is not None:
                counter.add(len(rows))

    return AggAnnotation(rows_of, values_of)


def count_buckets(
    q: ConjunctiveQuery,
    db: Database,
    x: str | None = None,
    pair: OrderTreePair | None = None,
    counter: StepCounter | None = None,
):
    """The count pass: one bottom-up pass over a full self-join-free
    query's join tree, the pair's tree or else the query's own, rooted at
    the first atom containing x when x is given.

    Each row gets the number of partial answers below it, the product of
    what its children's buckets send it; rows whose count is 0 are
    dropped. Returns the plan and, per node, {parent key: kept rows} and
    {parent key: prefix sums of their counts}; the root's one key is ().
    A kept row has a non-empty bucket under every child, and a row in no
    answer sits only in buckets that no kept parent looks up, so a
    descent from the root needs no semijoin pass first. With no pair,
    every bucket is sorted by row, the root's by (x, row).

    With a pair, only the partial answers that satisfy its strict order
    are counted. A pair a<b inside a node filters that node's rows. A
    pair across an edge has a in the parent and b in the child: the
    child's buckets are sorted by b alone, and a parent row takes the
    bucket's total minus the prefix sum at `bisect_right` of its a.
    Other buckets keep the input order.
    """
    if x is not None and x not in q.variables:
        raise EngineError(f"sort variable {x!r} not in the query")
    plan = TreePlan(q, tree_for_query(q, at=x) if pair is None else pair.tree)
    filters: dict[int, list[tuple[int, int]]] = {}  # node -> [(a col, b col)]
    bounded: dict[int, tuple] = {}  # child -> (a col in the parent, b getter)
    for (a, b), site in (pair.placements() if pair is not None else {}).items():
        if site is None:
            raise InternalInvariantError(f"tree does not enforce {a}<{b}")
        for n in site.nodes:
            filters.setdefault(n, []).append((plan.schema[n].index(a), plan.schema[n].index(b)))
        if site.edge is not None:
            p, c = site.edge
            if a not in plan.tree.vars_of[p] or c in bounded:
                raise InternalInvariantError(
                    f"{a}<{b} across edge {p}-{c}: need the smaller variable "
                    "in the parent and one pair per edge"
                )
            bounded[c] = (plan.schema[p].index(a), operator.itemgetter(plan.schema[c].index(b)))
    root = plan.root
    x_of = operator.itemgetter(plan.schema[root].index(x)) if x is not None else None
    rows_of: dict[int, dict] = {}
    cum_of: dict[int, dict] = {}
    for n in reversed(plan.order):
        rows = plan.rows(db, n)
        for ai, bi in filters.get(n, ()):
            rows = [r for r in rows if r[ai] < r[bi]]
        groups = group_by(rows, plan.key.get(n, ()))
        for group in groups.values():
            if n in bounded:
                group.sort(key=bounded[n][1])
            elif pair is None:
                group.sort()
                if n == root and x_of is not None:  # stable: by (x, row)
                    group.sort(key=x_of)
        # per child: parent key columns, prefix sums, rows, and (a col, b getter) if bounded
        kids = [(plan.parent_key[c], cum_of[c], rows_of[c], *bounded.get(c, (None, None)))
                for c in plan.children[n]]
        kept_of = rows_of[n] = {}
        sums_of = cum_of[n] = {}
        for key, group in groups.items():
            if not kids:  # a leaf keeps every row, each with count 1
                kept_of[key] = group
                sums_of[key] = list(range(len(group) + 1))
                continue
            kept, cum = [], [0]
            for row in group:
                cnt = 1
                for ck, sums, brows, ai, by_b in kids:
                    ckey = tuple([row[i] for i in ck])
                    s = sums.get(ckey)
                    if s is None:
                        break
                    if by_b is None:
                        cnt *= s[-1]
                    else:
                        m = s[-1] - s[bisect_right(brows[ckey], row[ai], key=by_b)]
                        if not m:
                            break
                        cnt *= m
                else:
                    kept.append(row)
                    cum.append(cum[-1] + cnt)
            if kept:
                kept_of[key] = kept
                sums_of[key] = cum
        if counter is not None:
            counter.add(len(rows))
    return plan, rows_of, cum_of


# ---------------------------------------------------------------------------
# Instantiations


def count_answers(q: ConjunctiveQuery, db: Database, pair: OrderTreePair | None = None) -> int:
    """|Q(D)| for a full acyclic self-join-free query; with an order-tree
    pair, the number of answers that satisfy its order, counted over its
    tree. The order's comparisons are strict (see count_buckets)."""
    if not q.is_full or not q.is_self_join_free:
        raise EngineError("count_answers expects a full self-join-free query")
    plan, _, cum_of = count_buckets(q, db, pair=pair)
    return cum_of[plan.root].get((), [0])[-1]


def thresholds(
    q: ConjunctiveQuery, xr: Iterable[str], t: RootedJoinTree, db: Database
) -> AggAnnotation:
    """Max-min aggregation: per tuple, the best (largest) value that the
    minimum over `xr` can reach among the partial answers below it.

    val(t) is the minimum over the xr-variables present in that relation,
    +inf when none occurs there.
    """
    xr = frozenset(xr)
    rows_cols = {
        n: tuple(i for i, v in enumerate(q.atoms[t.atom_of[n]].vars) if v in xr) for n in t.nodes()
    }

    def val(n, row):
        cols = rows_cols[n]
        if not cols:
            return POS_INF
        return min(row[i] for i in cols)

    return aggregate_bottom_up(q, db, t, val, MAX_MIN)
