"""Elimination of an enforced strict order from a full acyclic query, and
the end-to-end min-predicate elimination. Its steps before the rewrite,
`min_predicate_orders` and `min_orders`, also feed counting and direct
access, which enforce each order in the count pass instead and build no
forked parts; `eliminate` and the tests still run the rewrite.

Order pairs whose variables share a node are plain tuple filters. Pairs
spanning an edge are realized with one fresh join variable per pair: a
balanced dyadic decomposition over the merged active domain assigns each
side a logarithmic set of fork ids such that a < b holds iff the two
sides share exactly one fork id. This keeps the rewritten databases
quasilinear and makes the answer projection a bijection. The rewrite's
tie order is kept without it: `fork_tree` and `fork_domains` give
direct access the tree that LexDA would descend over the rewritten
part, and the domains that its fork blocks are cut over.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EngineError, InternalInvariantError
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    Relation,
    W,
    disjointify,
    fresh_symbol,
)
from .partition import OrderTreePair, StrictPartialOrder, partition_min_orders
from .reduce import cut_at_x0, restrict_predicate_to_free
from .structure import (
    Hypergraph,
    RootedJoinTree,
    Task,
    TreePlan,
    classify,
    join_tree,
    tree_for_query,
)


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
    a_side, b_side = {}, {}
    for v, r in rank.items():
        a_ids, b_ids = [], []
        for i in range(L):
            fid = ((1 << i) | r >> (L - i)) * W  # an untagged cell
            (b_ids if r >> (L - i - 1) & 1 else a_ids).append(fid)
        a_side[v] = tuple(a_ids)
        b_side[v] = tuple(b_ids)
    return a_side, b_side, L


def _rewrite_steps(q: ConjunctiveQuery, pair: OrderTreePair, part_tag: str = ""):
    """The pair's order pairs in rewrite order (by the query's variable
    order), each as (a, b, nodes, ends, fork variable). A pair inside
    `nodes` is a row filter, with ends and variable None. A pair across
    an edge has ends (node holding a, node holding b) and a fresh
    variable namespaced with `part_tag`."""
    t = pair.tree
    var_pos = {v: i for i, v in enumerate(q.variables)}
    placed = pair.placements()
    taken = set(q.variables)
    steps = []
    for j, (a, b) in enumerate(sorted(pair.order.pairs, key=lambda ab: (var_pos[ab[0]], var_pos[ab[1]]))):
        site = placed[a, b]
        if site is None:
            raise InternalInvariantError(f"tree does not enforce {a}<{b}")
        if site.edge is None:
            steps.append((a, b, site.nodes, None, None))
            continue
        u, v = site.edge
        ends = (u, v) if a in t.vars_of[u] else (v, u)
        fv = f"v{j + 1}{part_tag}"
        n = 0
        while fv in taken:
            n += 1
            fv = f"v{j + 1}{part_tag}_{n}"
        taken.add(fv)
        steps.append((a, b, (), ends, fv))
    return steps


def eliminate_enforced_order(
    q: ConjunctiveQuery,
    db: Database,
    pair: OrderTreePair,
    part_tag: str = "",
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
    fresh_vars: list[str] = []

    for a, b, nodes, ends, fv in _rewrite_steps(q, pair, part_tag):
        for n in nodes:
            sch = schema_of[n]
            ai, bi = sch.index(a), sch.index(b)
            rows_of[n] = [r for r in rows_of[n] if r[ai] < r[bi]]
        if ends is None:
            continue
        na, nb = ends
        acol = schema_of[na].index(a)
        bcol = schema_of[nb].index(b)
        a_side, b_side, _ = _fork_sides(
            {r[acol] for r in rows_of[na]}, {r[bcol] for r in rows_of[nb]}
        )
        fresh_vars.append(fv)
        rows_of[na] = [r + (f,) for r in rows_of[na] for f in a_side[r[acol]]]
        schema_of[na].append(fv)
        rows_of[nb] = [r + (f,) for r in rows_of[nb] for f in b_side[r[bcol]]]
        schema_of[nb].append(fv)

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


def fork_tree(q: ConjunctiveQuery, pair: OrderTreePair, x: str) -> RootedJoinTree:
    """The join tree that LexDA descends over `eliminate_enforced_order`'s
    part, found from the query alone: GYO over q's atoms, each with the
    fork variables of its edges, rooted at the lowest-index atom holding
    x. Its nodes are numbered and carry variables as q's atoms do. It
    enforces the pair's order, but it can differ from `pair.tree`, and
    can put b's side of a fork edge in the parent."""
    t = pair.tree
    nodes = sorted(t.nodes(), key=t.atom_of.__getitem__)
    forks: dict[int, set[str]] = {n: set() for n in nodes}
    for _, _, _, ends, fv in _rewrite_steps(q, pair):
        for n in ends or ():
            forks[n].add(fv)
    own = [frozenset(q.atoms[t.atom_of[n]].vars) for n in nodes]
    edges = tuple(vs | forks[n] for vs, n in zip(own, nodes))
    g = join_tree(Hypergraph(frozenset().union(*edges), edges))
    g = g.reroot(min(i for i, vs in enumerate(own) if x in vs))
    return RootedJoinTree(dict(enumerate(own)), {i: t.atom_of[n] for i, n in enumerate(nodes)},
                          g.parent, g.root)


def fork_domains(q: ConjunctiveQuery, db: Database, pair: OrderTreePair) -> dict[tuple, list]:
    """Per pair a<b across an edge, the sorted domain over which
    `eliminate_enforced_order` cuts its dyadic fork blocks: the a values
    of the node holding a and the b values of the node holding b, among
    the rows that the pairs before it in rewrite order leave. A pair's
    row filter drops rows, and so does a fork: it gives no fork id to an
    a at rank 2^L-1 or to a b at rank 0 (see `_fork_sides`). Rows that
    join nothing count, and so do rows that a later filter drops."""
    plan = TreePlan(q, pair.tree)
    left: dict[int, list] = {}  # node -> its rows left, once a step touched it

    def rows(n):
        return left[n] if n in left else plan.rows(db, n)

    doms = {}
    for a, b, nodes, ends, _ in _rewrite_steps(q, pair):
        for n in nodes:
            ai, bi = plan.schema[n].index(a), plan.schema[n].index(b)
            left[n] = [r for r in rows(n) if r[ai] < r[bi]]
        if ends is None:
            continue
        (na, ca), (nb, cb) = [(n, plan.schema[n].index(v)) for n, v in zip(ends, (a, b))]
        dom = doms[a, b] = sorted({r[ca] for r in rows(na)} | {r[cb] for r in rows(nb)})
        if len(dom) == 1 << max(1, (len(dom) - 1).bit_length()):  # rank 2^L-1 exists
            left[na] = [r for r in rows(na) if r[ca] != dom[-1]]
        left[nb] = [r for r in rows(nb) if r[cb] != dom[0]]
    return doms


def min_orders(q: ConjunctiveQuery, x0: str, xs) -> list[OrderTreePair]:
    """The enforced orders, with their trees, that partition "x0 strictly
    below all of xs" over q's join tree rooted at x0."""
    xs = [x for x in xs if x != x0]
    tree = tree_for_query(q, at=x0)
    if not xs:
        return [OrderTreePair(StrictPartialOrder(frozenset()), tree)]
    return partition_min_orders(tree, x0, xs, var_order=q.variables)


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
    the database is not disjointified; a Boolean head is one nullary atom
    that holds the empty row or none.
    """
    q2, residual, d2 = restrict_predicate_to_free(q, p, db)
    if residual is None:
        return q2, d2, None
    x0 = residual.x0
    others = [v for v in q2.variables if v != x0]
    rank_order = [x0] + others if not residual.strict else others + [x0]
    d3 = disjointify(d2, q2, rank_order)
    return q2, d3, min_orders(q2, x0, residual.xs)


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
    disjointify, partition), then eliminate each enforced order.
    """
    classify(Task.ELIMINATION, q, p).require()
    if q.is_boolean:
        q1, d1, _ = cut_at_x0(q, p, db)
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
