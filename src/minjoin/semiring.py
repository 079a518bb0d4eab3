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
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import EngineError, SemiringLawError
from .instrument import StepCounter
from .model import ConjunctiveQuery, Database, Row, TaggedValue
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
            if idx:
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


def count_answers(q: ConjunctiveQuery, db: Database) -> int:
    """|Q(D)| for a full acyclic self-join-free query."""
    if not q.is_full:
        raise EngineError("count_answers expects a full query")
    t = tree_for_query(q)
    ann = aggregate_bottom_up(q, db, t, lambda n, r: 1, COUNTING)
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
