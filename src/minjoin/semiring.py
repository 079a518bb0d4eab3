"""The two bottom-up passes over rooted join trees.

`count_buckets` is the count pass, which LexDA, the full and ranked
streams and counting read: per row, the number of answers below it, in
join buckets with prefix sums; an enforced order enters it as filters
and b-sorted child buckets. `thresholds` is the threshold pass, the
max-min fold: per row, the max over the partial answers below it of
their min over X, which the Boolean task, predicate enumeration and the
existential folds read.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Iterable

from .errors import EngineError, InternalInvariantError
from .instrument import StepCounter
from .model import ConjunctiveQuery, Database, Row
from .partition import OrderTreePair
from .structure import RootedJoinTree, TreePlan, group_by, tree_for_query


# The max-min fold's bottom and top: cells below and above every cell of
# every rank.
NEG_INF = -math.inf
POS_INF = math.inf


def thresholds(
    q: ConjunctiveQuery, xr: Iterable[str], t: RootedJoinTree, db: Database
) -> dict[int, dict[Row, int | float]]:
    """The threshold pass, the max-min fold children to parent over `t`:
    per node, {row: the best (largest) value that the minimum over `xr`
    reaches among the partial answers below the row}, -inf for a row with
    no partial answer below it.

    A row's own value is the minimum of its xr cells, +inf when it has
    none. Each child relation is grouped into join buckets keyed by the
    variables shared with its parent; a bucket sends the max of its rows'
    values, and a row takes the min of its own value and what its
    children send. Linear in the database size.
    """
    if not q.is_self_join_free:
        raise EngineError("aggregation requires a self-join-free query")
    xr = frozenset(xr)
    plan = TreePlan(q, t)
    out: dict[int, dict[Row, int | float]] = {}
    messages: dict[int, dict] = {}  # child id -> {key: max of its bucket}
    for n in reversed(plan.order):
        rows = plan.rows(db, n)
        cols = [i for i, v in enumerate(plan.schema[n]) if v in xr]
        if not cols:
            own = repeat(POS_INF)
        elif len(cols) == 1:
            own = map(operator.itemgetter(*cols), rows)
        else:
            own = map(min, map(operator.itemgetter(*cols), rows))
        agg = out[n] = dict(zip(rows, own))
        for c in plan.children[n]:
            pk, cmsg = plan.parent_key[c], messages.pop(c)
            for r, v in agg.items():
                m = cmsg.get(pk(r), NEG_INF)
                if m < v:
                    agg[r] = m
        if n != plan.root:
            msg = messages[n] = {}
            for k, v in zip(map(plan.key[n], agg), agg.values()):
                if v > msg.get(k, NEG_INF):
                    msg[k] = v
    return out


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
    dropped. Returns the plan and, per node n, {key: kept rows} and
    {key: prefix sums of their counts}, keyed by `plan.key[n]`; a parent
    row finds its bucket by `plan.parent_key[n]`, and the root's one key
    is (). A kept row has a non-empty bucket under every child, and a
    row in no answer sits only in buckets that no kept parent looks up,
    so a descent from the root needs no semijoin pass first. With no
    pair, every bucket is sorted by row, the root's by (x, row).

    With a pair, only the partial answers that satisfy its strict order
    are counted. A pair a<b inside a node filters that node's rows. A
    pair across an edge bounds the child's variable w by the parent's
    variable u: from below when the parent holds a, from above when it
    holds b, which only LexDA's build (x given) asks for. The child's
    buckets are sorted by w. Once a bucket's rows are counted, its w
    column is taken from the kept rows as an int list, aligned with the
    prefix sums, and a parent row bisects that list for u to take the
    part of the prefix sums on its side of u. With no x, the bounded
    buckets are sorted by w alone and the others keep the input order.
    With x, every bucket is sorted by row, the bounded ones then by w,
    and the counter also gets each bucket sort as len*ceil(log2 len)
    steps, since rows read alone understate that build.
    """
    if x is not None and x not in q.variables:
        raise EngineError(f"sort variable {x!r} not in the query")
    plan = TreePlan(q, tree_for_query(q, at=x) if pair is None else pair.tree)
    filters: dict[int, list[tuple[int, int]]] = {}  # node -> [(a col, b col)]
    # child -> (u col in the parent, w getter, whether the parent holds a)
    bounded: dict[int, tuple] = {}
    for (a, b), site in (pair.placements() if pair is not None else {}).items():
        if site is None:
            raise InternalInvariantError(f"tree does not enforce {a}<{b}")
        for n in site.nodes:
            filters.setdefault(n, []).append((plan.schema[n].index(a), plan.schema[n].index(b)))
        if site.edge is not None:
            p, c = site.edge
            up = a in plan.tree.vars_of[p]
            if c in bounded or (not up and x is None):
                raise InternalInvariantError(
                    f"{a}<{b} across edge {p}-{c}: need one pair per edge, and to "
                    "count, the smaller variable in the parent"
                )
            u, w = (a, b) if up else (b, a)
            bounded[c] = (plan.schema[p].index(u), operator.itemgetter(plan.schema[c].index(w)), up)
    root = plan.root
    x_of = operator.itemgetter(plan.schema[root].index(x)) if x is not None else None
    rows_of: dict[int, dict] = {}
    cum_of: dict[int, dict] = {}
    w_of: dict[int, dict] = {}  # bounded child -> {key: w of its kept rows}
    for n in reversed(plan.order):
        rows = plan.rows(db, n)
        for ai, bi in filters.get(n, ()):
            rows = [r for r in rows if r[ai] < r[bi]]
        groups = group_by(rows, plan.key[n])
        for group in groups.values():
            if x is not None or pair is None:
                group.sort()
                if n == root and x_of is not None:  # stable: by (x, row)
                    group.sort(key=x_of)
                if x is not None and pair is not None and counter is not None:
                    counter.add(len(group) * (len(group) - 1).bit_length())
            if n in bounded:  # stable: by (w, row) with x
                group.sort(key=bounded[n][1])
        # per child: parent key, prefix sums, and if bounded, its w lists and (u col, w getter, up)
        kids = [(plan.parent_key[c], cum_of[c], w_of.pop(c, None), *bounded.get(c, (None,) * 3))
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
                for pk, sums, ws, ui, _, up in kids:
                    ckey = pk(row)
                    s = sums.get(ckey)
                    if s is None:
                        break
                    if ws is None:
                        cnt *= s[-1]
                    else:
                        if up:  # the rows with w > u
                            m = s[-1] - s[bisect_right(ws[ckey], row[ui])]
                        else:  # the rows with w < u
                            m = s[bisect_left(ws[ckey], row[ui])]
                        if not m:
                            break
                        cnt *= m
                else:
                    kept.append(row)
                    cum.append(cum[-1] + cnt)
            if kept:
                kept_of[key] = kept
                sums_of[key] = cum
        if n in bounded:  # the w column of the kept rows, aligned with their prefix sums
            w_of[n] = {key: list(map(bounded[n][1], kept)) for key, kept in kept_of.items()}
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
