"""Bottom-up semiring aggregation over rooted join trees.

One pass computes, for every tuple t of every node relation, the fold
agg(t) = PLUS over partial answers of the subtree below t of the TIMES
over their tuples' val(.) values. Counting and max-min thresholds are
instances.
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
from .partition import OrderTreePair, StrictPartialOrder
from .structure import RootedJoinTree, TreePlan, tree_for_query


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
    order: StrictPartialOrder | None = None,
    counter: StepCounter | None = None,
) -> AggAnnotation:
    """Children-to-parent message passing over the join tree.

    Each child relation is grouped into join buckets keyed by the
    variables shared with its parent; bucket messages fold with PLUS and
    a tuple combines its received messages with its own val via TIMES.
    Linear in the database size.

    With an `order` that t enforces, only partial answers satisfying it
    are folded; its comparisons are strict, as on a disjointified
    database. A pair a<b inside a node filters that node's rows. A pair
    across an edge has a in the parent and b in the child: the child's
    bucket is sorted by b and sends suffix PLUS-folds, and a parent row
    takes the fold of the rows with b above its a, found by bisection.
    """
    if not q.is_self_join_free:
        raise EngineError("aggregation requires a self-join-free query")
    plan = TreePlan(q, t)
    plus, times, zero = s.plus, s.times, s.zero

    filters: dict[int, list[tuple[int, int]]] = {}  # node -> [(a col, b col)]
    bounded: dict[int, tuple[int, int]] = {}  # child -> (a col in parent, b col)
    if order is not None:
        for (a, b), site in OrderTreePair(order, t).placements().items():
            if site is None:
                raise InternalInvariantError(f"tree does not enforce {a}<{b}")
            for n in site.nodes:
                sch = plan.schema[n]
                filters.setdefault(n, []).append((sch.index(a), sch.index(b)))
            if site.edge is not None:
                p, c = site.edge
                if a not in t.vars_of[p] or c in bounded:
                    raise InternalInvariantError(
                        f"{a}<{b} across edge {p}-{c}: need the smaller variable "
                        "in the parent and one pair per edge"
                    )
                bounded[c] = (plan.schema[p].index(a), plan.schema[c].index(b))

    rows_of: dict[int, Sequence[Row]] = {}
    values_of: dict[int, list] = {}
    # child id -> {key: folded message}, or for a bounded child
    # {key: (sorted b values, suffix folds)}
    messages: dict[int, dict] = {}

    for n in reversed(plan.order):
        rows = plan.rows(db, n)
        for ai, bi in filters.get(n, ()):
            rows = [r for r in rows if r[ai] < r[bi]]
        rows_of[n] = rows
        vals = [val(n, r) for r in rows]
        for c in plan.children[n]:
            idx = plan.parent_key[c]
            cmsg = messages.pop(c)
            if c in bounded:
                ai = bounded[c][0]
                for i, r in enumerate(rows):
                    got = cmsg.get(tuple(r[j] for j in idx))
                    m = zero if got is None else got[1][bisect_right(got[0], r[ai])]
                    vals[i] = times(vals[i], m)
            elif idx:
                for i, r in enumerate(rows):
                    m = cmsg.get(tuple(r[j] for j in idx), zero)
                    vals[i] = times(vals[i], m)
            else:
                m = cmsg.get((), zero)
                vals = [times(v, m) for v in vals]
        values_of[n] = vals
        if counter is not None:
            counter.add(len(rows))
        if n != plan.root:
            idx = plan.key[n]
            msg: dict = {}
            if n in bounded:
                bi = bounded[n][1]
                for r, v in zip(rows, vals):
                    msg.setdefault(tuple(r[j] for j in idx), []).append((r[bi], v))
                for key, bucket in msg.items():
                    bucket.sort(key=operator.itemgetter(0))
                    suffix = [zero] * (len(bucket) + 1)
                    for i in range(len(bucket) - 1, -1, -1):
                        suffix[i] = plus(bucket[i][1], suffix[i + 1])
                    msg[key] = ([b for b, _ in bucket], suffix)
            else:
                for r, v in zip(rows, vals):
                    key = tuple(r[j] for j in idx)
                    prev = msg.get(key)
                    msg[key] = v if prev is None else plus(prev, v)
            messages[n] = msg
            if counter is not None:
                counter.add(len(rows))

    return AggAnnotation(rows_of, values_of)


# ---------------------------------------------------------------------------
# Instantiations


def count_answers(q: ConjunctiveQuery, db: Database, pair: OrderTreePair | None = None) -> int:
    """|Q(D)| for a full acyclic self-join-free query; with an order-tree
    pair, the number of answers that satisfy its order, counted over its
    tree. The order's comparisons are strict (see aggregate_bottom_up)."""
    if not q.is_full:
        raise EngineError("count_answers expects a full query")
    t, order = (tree_for_query(q), None) if pair is None else (pair.tree, pair.order)
    ann = aggregate_bottom_up(q, db, t, lambda n, r: 1, COUNTING, order=order)
    return sum(ann.values_of[t.root])


def thresholds(
    q: ConjunctiveQuery, xr: Iterable[str], t: RootedJoinTree, db: Database
) -> AggAnnotation:
    """Max-min aggregation: per tuple, the best (largest) value that the
    minimum over `xr` can reach among the partial answers below it.

    val(t) is the minimum over the xr-variables present in that relation,
    +inf when none occurs there.
    """
    if not q.is_full:
        raise EngineError("thresholds expects a full query")
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
