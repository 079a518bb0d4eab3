"""Elimination of an enforced strict order from a full acyclic query, and
the end-to-end min-predicate elimination. Its steps before the rewrite,
`min_predicate_orders`, also feed counting, which enforces each order in
its counting pass instead.

Order pairs whose variables share a node are plain tuple filters. Pairs
spanning an edge are realized with one fresh join variable per pair: a
balanced dyadic decomposition over the merged active domain assigns each
side a logarithmic set of fork ids such that a < b holds iff the two
sides share exactly one fork id. This keeps the rewritten databases
quasilinear and makes the answer projection a bijection.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import EngineError, InternalInvariantError, IntractableQueryError
from .instrument import StepCounter
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    Relation,
    TaggedValue,
    disjointify,
    fresh_symbol,
    remove_self_joins,
)
from .partition import OrderTreePair, StrictPartialOrder, partition_min_orders
from .reduce import restrict_predicate_to_free
from .semiring import thresholds
from .structure import Task, TreePlan, classify, tree_for_query


@dataclass(frozen=True)
class EliminationPart:
    query: ConjunctiveQuery
    database: Database
    order: StrictPartialOrder | None
    min_var: str | None
    tree: object | None = None  # enforcing RootedJoinTree over the rewritten query


@dataclass(frozen=True)
class EliminationResult:
    """Disjoint acyclic parts whose projected answers tile (Q AND P)(D):
    full ones, or for a Boolean head one Boolean part."""

    parts: tuple[EliminationPart, ...]
    source_vars: tuple[str, ...]


def _fork_sides(values_a, values_b):
    """Dyadic fork ids for both sides of a strict inequality a < b.

    Ranks over the merged sorted domain are padded to L bits; position i
    with prefix p yields fork id (1 << i) | p. The a side owns positions
    where its bit is 0, the b side those where its bit is 1, so a pair
    shares a fork id exactly at the first differing bit, and only when
    a < b. Each value gets at most L ids.
    """
    dom = sorted(set(values_a) | set(values_b))
    rank = {v: i for i, v in enumerate(dom)}
    L = max(1, (len(dom) - 1).bit_length())
    fork_cache: dict[int, TaggedValue] = {}

    def fid(i: int, prefix: int) -> TaggedValue:
        code = (1 << i) | prefix
        got = fork_cache.get(code)
        if got is None:
            got = fork_cache[code] = TaggedValue(code, 0)
        return got

    a_side: dict = {}
    b_side: dict = {}
    for v, r in rank.items():
        a_ids, b_ids = [], []
        for i in range(L):
            prefix = r >> (L - i)
            if (r >> (L - i - 1)) & 1:
                b_ids.append(fid(i, prefix))
            else:
                a_ids.append(fid(i, prefix))
        a_side[v] = tuple(a_ids)
        b_side[v] = tuple(b_ids)
    return a_side, b_side, L


def eliminate_enforced_order(
    q: ConjunctiveQuery,
    db: Database,
    pair: OrderTreePair,
    part_tag: str = "",
    *,
    counter: StepCounter | None = None,
) -> tuple[ConjunctiveQuery, Database]:
    """Rewrite (q, db) so the rewritten query's answers are exactly the
    answers of q satisfying pair.order, projected onto var(q).

    Requires a disjointified database (all comparisons strict) and a tree
    that enforces the order. Fresh symbols and variables are namespaced
    with `part_tag`.
    """
    if not q.is_full or not q.is_self_join_free:
        raise EngineError("enforced-order elimination needs a full self-join-free query")
    t = pair.tree
    plan = TreePlan(q, t)
    rows_of = {n: list(plan.rows(db, n)) for n in t.nodes()}
    schema_of = {n: list(plan.schema[n]) for n in t.nodes()}
    var_pos = {v: i for i, v in enumerate(q.variables)}
    ordered_pairs = sorted(pair.order.pairs, key=lambda ab: (var_pos[ab[0]], var_pos[ab[1]]))
    placed = pair.placements()
    fresh_vars: list[str] = []
    taken_vars = set(q.variables)

    for j, (a, b) in enumerate(ordered_pairs):
        site = placed[a, b]
        if site is None:
            raise InternalInvariantError(f"tree does not enforce {a}<{b}")
        for n in site.nodes:
            sch = schema_of[n]
            ai, bi = sch.index(a), sch.index(b)
            rows_of[n] = [r for r in rows_of[n] if r[ai] < r[bi]]
            if counter is not None:
                counter.add(len(rows_of[n]))
        if site.edge is None:
            continue
        u, v = site.edge
        na, nb = (u, v) if a in t.vars_of[u] else (v, u)
        acol = schema_of[na].index(a)
        bcol = schema_of[nb].index(b)
        a_side, b_side, _ = _fork_sides(
            {r[acol] for r in rows_of[na]}, {r[bcol] for r in rows_of[nb]}
        )
        fv = f"v{j + 1}{part_tag}"
        n = 0
        while fv in taken_vars:
            n += 1
            fv = f"v{j + 1}{part_tag}_{n}"
        taken_vars.add(fv)
        fresh_vars.append(fv)
        rows_of[na] = [r + (f,) for r in rows_of[na] for f in a_side[r[acol]]]
        schema_of[na].append(fv)
        rows_of[nb] = [r + (f,) for r in rows_of[nb] for f in b_side[r[bcol]]]
        schema_of[nb].append(fv)
        if counter is not None:
            counter.add(len(rows_of[na]) + len(rows_of[nb]))

    taken = set(db.relations) | {a.symbol for a in q.atoms}
    atoms: list[Atom] = []
    rels: dict[str, Relation] = {}
    for n in sorted(t.nodes(), key=lambda n: t.atom_of[n]):
        sym = fresh_symbol(f"{plan.symbol[n]}{part_tag}", taken)
        vars_ = tuple(schema_of[n])
        atoms.append(Atom(sym, vars_))
        rels[sym] = Relation(sym, len(vars_), tuple(rows_of[n]))
    head = q.free_vars + tuple(fresh_vars)
    q2 = ConjunctiveQuery(tuple(atoms), head, q.name)
    return q2, Database(rels)


def _min_orders(q: ConjunctiveQuery, x0: str, xs) -> list[OrderTreePair]:
    """The enforced orders, with their trees, that partition "x0 strictly
    below all of xs" over q's join tree rooted at x0."""
    xs = [x for x in xs if x != x0]
    tree = tree_for_query(q, at=x0)
    if not xs:
        return [OrderTreePair(StrictPartialOrder(frozenset()), tree)]
    return partition_min_orders(tree, x0, xs, var_order=q.variables)


def eliminate_strict_min_tagged(
    q: ConjunctiveQuery,
    db: Database,
    x0: str,
    xs,
    part_tag: str = "",
    *,
    counter: StepCounter | None = None,
) -> list[tuple[ConjunctiveQuery, Database, OrderTreePair]]:
    """Eliminate "x0 strictly below all of xs" from a full self-join-free
    query over an already disjointified database. Inner engine of the
    ranked direct-access build."""
    parts = []
    for i, otp in enumerate(_min_orders(q, x0, xs)):
        q2, d2 = eliminate_enforced_order(q, db, otp, f"{part_tag}_p{i}", counter=counter)
        parts.append((q2, d2, otp))
    return parts


def min_predicate_orders(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> tuple[ConjunctiveQuery, Database, list[OrderTreePair] | None]:
    """(Q AND P, D) as a full self-join-free query over the free
    variables, its database, and the enforced orders that partition the
    residual predicate; every answer satisfies exactly one order.

    Folds existential inequalities into the data and restricts to the
    free variables, then disjointifies (x0 gets the smallest rank, or the
    largest for the strict variant, so that every comparison is strict)
    and partitions. With no residual predicate the orders are None and
    the database is not disjointified.
    """
    q2, residual, d2 = restrict_predicate_to_free(q, p, db)
    if residual is None:
        return q2, d2, None
    x0 = residual.x0
    others = [v for v in q2.variables if v != x0]
    rank_order = [x0] + others if not residual.strict else others + [x0]
    d3 = disjointify(d2, q2, rank_order)
    return q2, d3, _min_orders(q2, x0, residual.xs)


def _cut_at_x0(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> tuple[ConjunctiveQuery, Database, int]:
    """Q after self-join removal; its database with the relation of an
    atom holding x0 cut to the rows through which some homomorphism of
    Q's body satisfies P; and the number of rows kept.

    All variables are treated as existential: per row, the max-min
    threshold says how large min(X) can get among the homomorphisms
    through it, so the cut is one scan of that atom. Without a predicate,
    x0 is Q's first variable, X is empty and the threshold is +inf
    exactly for the rows that extend to a homomorphism.
    """
    if p is None:
        x0, xs, below = q.variables[0], [], operator.le
    else:
        p.check_vars(q)
        x0, xs, below = p.x0, [x for x in p.xs if x != p.x0], p.below
    q1, d1 = remove_self_joins(q, db)
    t = tree_for_query(q1, at=x0)
    theta = thresholds(q1, xs, t, d1)[t.root]
    atom = q1.atoms[t.atom_of[t.root]]
    xi = atom.vars.index(x0)
    kept = tuple(row for row, th in theta.items() if below(row[xi], th))
    return q1, d1.replace(Relation(atom.symbol, atom.arity, kept)), len(kept)


def eliminate_min_predicate(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> EliminationResult:
    """Transform (Q AND P, D) into disjoint full acyclic query-database
    parts whose projections onto the free variables tile the answers.
    With p None the result is the single part (Q, D) restricted to the
    free variables. A Boolean head gives one Boolean part with no order:
    Q after self-join removal, with an atom holding x0 cut to the rows
    through which Q AND P holds (see `_cut_at_x0`).

    Pipeline: `min_predicate_orders` (remove self-joins, fold, restrict,
    disjointify, partition), then eliminate each enforced order.
    """
    verdict = classify(Task.ELIMINATION, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    if q.is_boolean:
        q1, d1, _ = _cut_at_x0(q, p, db)
        return EliminationResult((EliminationPart(q1, d1, None, None),), ())

    q2, d, otps = min_predicate_orders(q, p, db)
    if otps is None:
        parts = [EliminationPart(q2, d, None, None)]
    else:
        parts = []
        for i, otp in enumerate(otps):
            pq, pd = eliminate_enforced_order(q2, d, otp, f"_p{i}")
            parts.append(EliminationPart(pq, pd, otp.order, p.x0, otp.tree))
    return EliminationResult(tuple(parts), q.free_vars)
