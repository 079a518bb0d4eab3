"""Elimination of an enforced strict order from a full acyclic query, and
the end-to-end min-predicate elimination. The orders that a tractable
verdict carries (`Plan.orders`, built by `plan_orders` with `min_orders`
and `fork_tree`) also feed counting and direct access, which enforce
each order in the count pass instead and build no forked parts;
`eliminate` and the tests still run the rewrite.

Each order pair is rewritten at its site in the tree, in rewrite order
(`OrderTreePair.sites`). Order pairs whose variables share a node are
plain tuple filters. Pairs spanning an edge are realized with one fresh
join variable per pair: a balanced dyadic decomposition over the merged
active domain assigns each side a logarithmic set of fork ids such that
a < b holds iff the two sides share exactly one fork id. This keeps the
rewritten databases quasilinear and makes the answer projection a
bijection. Every step reads the cells as stored and takes each pair's
side on a tie from its site: a filter keeps a tie exactly when the pair
passes it, and a fork domain keeps a tie's two cells apart (`fork_bits`),
a's below b's exactly then. One replay, `fork_replay`, works out the rows
that an order's filters and forks leave and each fork's domain. The
rewrite forks those rows; direct access cuts its fork blocks over those
domains, on the tree that `fork_tree` gives, and forks no row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import EngineError
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    MinRanking,
    Relation,
    fresh_symbol,
)
from .partition import OrderTreePair, StrictPartialOrder, partition_min_orders
from .reduce import cut_at_x0, restrict_predicate_to_free
from .structure import (
    Hypergraph,
    Plan,
    RootedJoinTree,
    Task,
    TreePlan,
    classify,
    free_columns,
    join_tree,
    tree_for_query,
)


@dataclass(frozen=True)
class EliminationPart:
    query: ConjunctiveQuery
    database: Database
    order: StrictPartialOrder | None
    min_var: str | None
    tree: RootedJoinTree | None = None  # enforces the order; its nodes hold q's variables, no fork variable


@dataclass(frozen=True)
class EliminationResult:
    """Disjoint acyclic parts whose projected answers tile (Q AND P)(D):
    full ones, or for a Boolean head one Boolean part."""

    parts: tuple[EliminationPart, ...]
    source_vars: tuple[str, ...]


def fork_bits(le: bool) -> tuple[int, int]:
    """The bits that key a cell c of a, and of b, as 2*c + bit in the
    fork domain of a pair a<b: a's 1 and b's 0 when a tie fails the pair
    (not `le`), the other way round when it passes. Keys sort as their
    cells do, and a tie's two cells as the pair's side says."""
    return (0, 1) if le else (1, 0)


def _fork_sides(dom):
    """Dyadic fork ids for both sides of a strict inequality a < b, per
    fork key of the pair's sorted domain (`fork_replay`).

    Ranks in dom are padded to L bits; position i with prefix p yields
    fork id (1 << i) | p. The a side owns positions where its bit is 0,
    the b side those where its bit is 1, so a pair shares a fork id
    exactly at the first differing bit, and only when a < b. Each key
    gets at most L ids: an a key at rank 2^L-1 and a b key at rank 0
    get none, which drops their rows.
    """
    L = max(1, (len(dom) - 1).bit_length())
    a_side, b_side = {}, {}
    for r, key in enumerate(dom):
        a_ids, b_ids = [], []
        for i in range(L):
            (b_ids if r >> (L - i - 1) & 1 else a_ids).append((1 << i) | r >> (L - i))
        a_side[key], b_side[key] = tuple(a_ids), tuple(b_ids)
    return a_side, b_side, L


def eliminate_enforced_order(
    q: ConjunctiveQuery,
    db: Database,
    pair: OrderTreePair,
    part_tag: str = "",
) -> tuple[ConjunctiveQuery, Database]:
    """Rewrite (q, db) so the rewritten query's answers are exactly the
    answers of q satisfying pair.order, projected onto var(q).

    Requires a tree that enforces the order; each pair decides a tie by
    its site's side. The rows are those that `fork_replay` leaves, each
    forked by `_fork_sides` over its pairs' domains, first pair
    outermost. The part keeps q's cells as they are, and a fork id is a
    positive int. Fresh symbols and variables are namespaced with
    `part_tag`.
    """
    if not q.is_full or not q.is_self_join_free:
        raise EngineError("enforced-order elimination needs a full self-join-free query")
    t = pair.tree
    doms, rows_of = fork_replay(q, db, pair)
    forks: dict[int, list] = {n: [] for n in t.nodes()}  # node -> (fork variable, column, bit, ids per key)
    fresh_vars: list[str] = []
    taken = set(q.variables)
    for j, (a, b, _, ends, le) in enumerate(pair.sites(q.variables)):
        if ends is None:
            continue
        fv = f"v{j + 1}{part_tag}"
        k = 0
        while fv in taken:
            k += 1
            fv = f"v{j + 1}{part_tag}_{k}"
        taken.add(fv)
        fresh_vars.append(fv)
        a_side, b_side, _ = _fork_sides(doms[a, b])
        for n, v, bit, side in zip(ends, (a, b), fork_bits(le), (a_side, b_side)):
            forks[n].append((fv, q.atoms[n].vars.index(v), bit, side))

    taken = set(db.relations) | {a.symbol for a in q.atoms}
    atoms: list[Atom] = []
    rels: dict[str, Relation] = {}
    for n in t.nodes():
        rows, vars_ = rows_of[n], q.atoms[n].vars
        for fv, col, bit, side in forks[n]:
            rows = [r + (f,) for r in rows for f in side[2 * r[col] + bit]]
            vars_ += (fv,)
        sym = fresh_symbol(f"{q.atoms[n].symbol}{part_tag}", taken)
        atoms.append(Atom(sym, vars_))
        rels[sym] = Relation._of_distinct(sym, len(vars_), tuple(rows))
    head = q.free_vars + tuple(fresh_vars)
    q2 = ConjunctiveQuery(tuple(atoms), head, q.name)
    return q2, Database(rels)


def fork_tree(q: ConjunctiveQuery, pair: OrderTreePair, x: str) -> RootedJoinTree:
    """The join tree that LexDA descends over `eliminate_enforced_order`'s
    part, found from the query alone: GYO over q's atoms, each with the
    fork variables of its edges, rooted at the lowest-index atom holding
    x. Its nodes are numbered and carry variables as q's atoms do. It
    enforces the pair's order, but it can differ from `pair.tree`, and
    can put b's side of a fork edge in the parent. GYO reads only which
    edges contain which, so the vertex (a, b), which no variable name
    equals, stands for the fork variable of a<b."""
    own = [frozenset(atom.vars) for atom in q.atoms]
    edges = list(own)
    for a, b, _, ends, _ in pair.sites(q.variables):
        for n in ends or ():
            edges[n] = edges[n] | {(a, b)}
    g = join_tree(Hypergraph(frozenset().union(*edges), tuple(edges)))
    g = g.reroot(min(i for i, vs in enumerate(own) if x in vs))
    return RootedJoinTree(dict(enumerate(own)), g.parent, g.root)


def fork_replay(q: ConjunctiveQuery, db: Database, pair: OrderTreePair) -> tuple[dict[tuple, list], dict]:
    """The one replay of an order's row filters and fork drops, in
    rewrite order (`OrderTreePair.sites`), on the pair's tree. Returns,
    per pair a<b across an edge, its sorted fork domain: the fork keys
    (`fork_bits`) of the a cells of the node holding a and of the b
    cells of the node holding b, among the rows that the pairs before it
    leave. Also returns, per node, the rows that every pair leaves, in
    stored order. A pair's row filter drops rows, and so does a fork: it
    gives no fork id to an a key at rank 2^L-1 or to a b key at rank 0
    (see `_fork_sides`). Rows that join nothing count in a domain, and
    so do rows that a later filter drops. `eliminate_enforced_order`
    forks the rows, and `LexDA` cuts its fork blocks over the domains."""
    plan = TreePlan(q, pair.tree)
    rows = {n: plan.rows(db, n) for n in plan.order}
    doms = {}
    for a, b, nodes, ends, le in pair.sites(q.variables):
        for n in nodes:
            ai, bi = plan.schema[n].index(a), plan.schema[n].index(b)
            rows[n] = [r for r in rows[n] if r[ai] <= r[bi]] if le else [r for r in rows[n] if r[ai] < r[bi]]
        if ends is None:
            continue
        (na, ca), (nb, cb) = [(n, plan.schema[n].index(v)) for n, v in zip(ends, (a, b))]
        ka, kb = fork_bits(le)
        dom = doms[a, b] = sorted({2 * r[ca] + ka for r in rows[na]} | {2 * r[cb] + kb for r in rows[nb]})
        if len(dom) == 1 << max(1, (len(dom) - 1).bit_length()):  # rank 2^L-1 exists
            rows[na] = [r for r in rows[na] if 2 * r[ca] + ka != dom[-1]]
        rows[nb] = [r for r in rows[nb] if 2 * r[cb] + kb != dom[0]]
    return doms, rows


def min_orders(q: ConjunctiveQuery, x0: str, xs, rank: Sequence[str] | None = None) -> list[OrderTreePair]:
    """The enforced orders, with their trees, that partition "x0 below
    all of xs" over q's join tree rooted at x0. `rank` lists q's variables
    from the smallest rank to the largest, q's declaration order when
    None: a tie between a and b passes a pair a<b exactly when a ranks
    below b (`OrderTreePair.ties`), as if each cell were tagged with its
    variable's rank, so every answer satisfies exactly one order."""
    xs = [x for x in xs if x != x0]
    tree = tree_for_query(q, at=x0)
    if not xs:
        return [OrderTreePair(StrictPartialOrder(frozenset()), tree)]
    position = {v: i for i, v in enumerate(rank or q.variables)}
    return [replace(otp, ties=frozenset(ab for ab in otp.order.pairs if position[ab[0]] < position[ab[1]]))
            for otp in partition_min_orders(tree, x0, xs, var_order=q.variables)]


def plan_orders(task: Task, q: ConjunctiveQuery, spec, tree: RootedJoinTree) -> tuple | None:
    """`Plan.orders` for `classify`, over restriction's shape
    (`structure.free_columns`), whose variables are q's free ones: for
    ranked access, per ranking variable x in head order, the orders in
    which x is the minimum, on `fork_tree` at x; for a residual predicate,
    its orders, x0 ranked first, or last when strict (see `min_orders`),
    on `fork_tree` at the first free variable for unranked access; for
    predicate enumeration, the restricted tree rooted at x0, with no
    order, its predicate read as declared for a full query."""
    if q.is_boolean or spec is None or task in (Task.RANKED_ENUM, Task.SINGLE_ACCESS):
        return None
    free = q.free_vars  # a full query restricts to its own shape
    shape = q if q.is_full else ConjunctiveQuery(
        tuple(Atom(a.symbol, tuple(a.vars[i] for i in cols)) for a, cols in free_columns(q)), free, q.name)
    if task is Task.RANKED_DA:
        xs = sorted(set(spec.xs if isinstance(spec, MinRanking) else spec), key=free.index)
        return tuple((x, replace(otp, tree=fork_tree(shape, otp, x)))
                     for x in xs for otp in min_orders(shape, x, [v for v in xs if v != x]))
    x0, xs = spec.x0, tuple(x for x in spec.xs if x in free and x != spec.x0)
    if task is Task.ENUM_PRED and q.is_full:  # the restricted tree is q's own, same edges
        return ((x0, OrderTreePair(StrictPartialOrder(frozenset()), tree.rooted_at(x0))),)
    if x0 not in free or not xs:
        return None
    others = [v for v in free if v != x0]
    rank = others + [x0] if spec.strict else [x0] + others
    otps = min_orders(shape, x0, () if task is Task.ENUM_PRED else xs, rank)
    if task is Task.UNRANKED_DA_PRED:
        return tuple((free[0], replace(otp, tree=fork_tree(shape, otp, free[0]))) for otp in otps)
    return tuple((x0, otp) for otp in otps)


def min_predicate_orders(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database, plan: Plan | None = None
) -> tuple[ConjunctiveQuery, Database, list[OrderTreePair] | None]:
    """(Q AND P, D) restricted by `plan`, the verdict's, or else
    counting's (`reduce.restrict_predicate_to_free`): a full
    self-join-free query over the free variables, its database, and the
    plan's orders, which partition the residual predicate, or None when
    there is none. A Boolean head is one nullary atom that holds the
    empty row or none."""
    if plan is None:
        plan = classify(Task.COUNTING, q, p).require()
    q2, _, d2 = restrict_predicate_to_free(q, p, db, plan)
    return q2, d2, None if plan.orders is None else [otp for _, otp in plan.orders]


def eliminate_min_predicate(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> EliminationResult:
    """Transform (Q AND P, D) into disjoint full acyclic query-database
    parts whose projections onto the free variables tile the answers.
    With p None the result is the single part (Q, D) restricted to the
    free variables. A Boolean head gives one Boolean part with no order:
    Q after self-join removal, with an atom holding x0 cut to the rows
    through which Q AND P holds (see `reduce.cut_at_x0`).

    Pipeline: `min_predicate_orders` (remove self-joins, fold, restrict,
    and the verdict's orders), then eliminate each enforced order. The
    parts hold the input's own cells and the fork ids.
    """
    plan = classify(Task.ELIMINATION, q, p).require()
    if q.is_boolean:
        q1, d1, _ = cut_at_x0(q, p, db, plan.tree)
        return EliminationResult((EliminationPart(q1, d1, None, None),), ())

    q2, d, otps = min_predicate_orders(q, p, db, plan)
    parts = [EliminationPart(q2, d, None, None)] if otps is None else [
        EliminationPart(*eliminate_enforced_order(q2, d, otp, f"_p{i}"), otp.order, p.x0, otp.tree)
        for i, otp in enumerate(otps)]
    return EliminationResult(tuple(parts), q.free_vars)
