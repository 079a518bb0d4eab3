"""Elimination of an enforced strict order from a full acyclic query, and
the end-to-end min-predicate elimination.

Order pairs whose variables share a node are plain tuple filters. Pairs
spanning an edge are realized with one fresh join variable per pair: a
balanced dyadic decomposition over the merged active domain assigns each
side a logarithmic set of fork ids such that a < b holds iff the two
sides share exactly one fork id. This keeps the rewritten databases
quasilinear and makes the answer projection a bijection.
"""

from __future__ import annotations

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
from .structure import Task, classify, tree_for_query


@dataclass(frozen=True)
class EliminationPart:
    query: ConjunctiveQuery
    database: Database
    order: StrictPartialOrder | None
    min_var: str | None
    tree: object | None = None  # enforcing RootedJoinTree over the rewritten query


@dataclass(frozen=True)
class EliminationResult:
    """Disjoint full acyclic parts whose projected answers tile (Q AND P)(D)."""

    parts: tuple[EliminationPart, ...]
    source_vars: tuple[str, ...]

    def __len__(self):
        return len(self.parts)


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
    for n in t.nodes():
        if t.atom_of[n] is None:
            raise EngineError("enforcing tree must not contain relaxed nodes")

    rows_of = {n: list(db.relation(q.atoms[t.atom_of[n]].symbol).rows) for n in t.nodes()}
    schema_of = {n: list(q.atoms[t.atom_of[n]].vars) for n in t.nodes()}
    var_pos = {v: i for i, v in enumerate(q.variables)}
    ordered_pairs = sorted(pair.order.pairs, key=lambda ab: (var_pos[ab[0]], var_pos[ab[1]]))
    edge_list = sorted((min(e), max(e)) for e in t.edges())
    fresh_vars: list[str] = []
    taken_vars = set(q.variables)

    for j, (a, b) in enumerate(ordered_pairs):
        shared = [n for n in t.nodes() if a in t.vars_of[n] and b in t.vars_of[n]]
        if shared:
            for n in shared:
                sch = schema_of[n]
                ai, bi = sch.index(a), sch.index(b)
                rows_of[n] = [r for r in rows_of[n] if r[ai] < r[bi]]
                if counter is not None:
                    counter.add(len(rows_of[n]))
            continue
        site = None
        for u, v in edge_list:
            if a in t.vars_of[u] and b in t.vars_of[v]:
                site = (u, v)
                break
            if a in t.vars_of[v] and b in t.vars_of[u]:
                site = (v, u)
                break
        if site is None:
            raise InternalInvariantError(f"tree does not enforce {a}<{b}")
        na, nb = site
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
        base = q.atoms[t.atom_of[n]].symbol
        sym = fresh_symbol(f"{base}{part_tag}", taken)
        vars_ = tuple(schema_of[n])
        atoms.append(Atom(sym, vars_))
        rels[sym] = Relation(sym, len(vars_), tuple(rows_of[n]))
    head = q.free_vars + tuple(fresh_vars)
    q2 = ConjunctiveQuery(tuple(atoms), head, q.name)
    return q2, Database(rels)


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
    query over an already disjointified database. Inner engine of both
    the public elimination and the ranked direct-access build."""
    xs = [x for x in xs if x != x0]
    tree = tree_for_query(q)
    root = min(
        (n for n in tree.nodes() if x0 in tree.vars_of[n]),
        key=lambda n: tree.atom_of[n],
    )
    tree = tree.reroot(root)
    parts = []
    if xs:
        otps = partition_min_orders(tree, x0, xs, var_order=q.variables)
    else:
        otps = [OrderTreePair(StrictPartialOrder(frozenset()), tree)]
    for i, otp in enumerate(otps):
        tag = f"{part_tag}_p{i}"
        q2, d2 = eliminate_enforced_order(q, db, otp, tag, counter=counter)
        parts.append((q2, d2, otp))
    return parts


def eliminate_min_predicate(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> EliminationResult:
    """Transform (Q AND P, D) into disjoint full acyclic query-database
    parts whose projections onto the free variables tile the answers.
    With p None the result is the single part (Q, D) restricted to the
    free variables.

    Pipeline: fold existential inequalities into the data and restrict to
    the free variables; remove self-joins; disjointify (x0 gets the
    smallest rank, or the largest for the strict variant); partition the
    residual predicate into enforced orders; eliminate each order.
    """
    verdict = classify(Task.ELIMINATION, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    if q.is_boolean:
        raise EngineError("Boolean queries take the is_nonempty route")

    q1, residual, d1 = restrict_predicate_to_free(q, p, db)
    q2, d2 = remove_self_joins(q1, d1)
    source_vars = q.free_vars

    if residual is None:
        return EliminationResult(
            (EliminationPart(q2, d2, None, None),), source_vars
        )

    x0 = residual.x0
    others = [v for v in q2.variables if v != x0]
    rank_order = [x0] + others if not residual.strict else others + [x0]
    d3 = disjointify(d2, q2, rank_order)
    parts = [
        EliminationPart(pq, pd, otp.order, x0, otp.tree)
        for pq, pd, otp in eliminate_strict_min_tagged(
            q2, d3, x0, list(residual.xs)
        )
    ]
    return EliminationResult(tuple(parts), source_vars)
