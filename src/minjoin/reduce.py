"""Semijoin reduction, restriction to free variables, and elimination of
predicate inequalities that touch existential variables.

`restrict_predicate_to_free` prepares every task function's instance:
it alone checks free-connexity and removes self-joins.

The existential eliminations here filter tuples of carefully chosen
relations. A filter on relation R is sound only when the predicate's
truth, restricted to answers through a tuple of R, is a function of that
tuple alone; the interface-atom analysis below identifies exactly those
relations. Configurations without a sound filtering site are refused
with UnsupportedPredicateError instead of being answered incorrectly.
"""

from __future__ import annotations

import operator

from .errors import EngineError, UnsupportedPredicateError
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    Relation,
    fresh_symbol,
    remove_self_joins,
)
from .semiring import NEG_INF, thresholds
from .structure import TreePlan, hypergraph_of, is_free_connex, join_tree, tree_for_query


def semijoin_reduce(q: ConjunctiveQuery, db: Database) -> Database:
    """Full Yannakakis reducer: bottom-up then top-down semijoin passes.

    Afterwards every remaining tuple participates in at least one answer
    of the full query; the answer set is unchanged. Nodes glued across
    connected components key on the empty tuple, so emptiness propagates
    between components as it must.
    """
    if not q.is_self_join_free:
        raise EngineError("semijoin reduction requires a self-join-free query")
    plan = TreePlan(q, tree_for_query(q))
    rows = {n: plan.rows(db, n) for n in plan.order}
    edges = [(n, plan.parent[n], plan.key[n], plan.parent_key[n]) for n in plan.order[1:]]
    for n, p, kn, kp in reversed(edges):
        keys = set(map(kn, rows[n]))
        rows[p] = [r for r in rows[p] if kp(r) in keys]
    for n, p, kn, kp in edges:
        keys = set(map(kp, rows[p]))
        rows[n] = [r for r in rows[n] if kn(r) in keys]

    out = dict(db.relations)
    for n in plan.order:  # each a subset of the relation's rows, kept as given
        sym = plan.symbol[n]
        out[sym] = Relation._of_distinct(sym, len(plan.schema[n]), tuple(rows[n]))
    return Database(out)


def _project_to_free(q: ConjunctiveQuery, db: Database) -> tuple[ConjunctiveQuery, Database]:
    """An acyclic free-connex query over a prepared (self-join-free)
    instance as a full one over its free variables, with fresh relation
    symbols and the same answer set.

    A full query is only renamed: each atom keeps its rows as given, and
    the passes that read them drop the rows that join nothing. Otherwise
    relations are fully reduced first, which only projection needs, then
    projected per-atom; atoms left with no free variables are dropped
    (their only residual effect, emptiness, has already propagated through
    the reduction to every relation).
    """
    taken = set(db.relations) | {a.symbol for a in q.atoms}
    full = q.is_full
    if not full:
        db = semijoin_reduce(q, db)
    free = set(q.free_vars)
    new_atoms: list[Atom] = []
    new_rels: dict[str, Relation] = {}
    for a in q.atoms:
        keep_cols = tuple(i for i, v in enumerate(a.vars) if v in free)
        if not keep_cols and not full:
            continue
        sym = fresh_symbol(f"{a.symbol}_f", taken)
        vars_ = tuple(a.vars[i] for i in keep_cols)
        rel = db.relation(a.symbol)
        new_atoms.append(Atom(sym, vars_))
        if len(keep_cols) == a.arity == rel.arity:  # renamed: its rows are kept as they are
            new_rels[sym] = Relation._of_distinct(sym, rel.arity, rel.rows)
            continue
        rows = rel.rows if len(keep_cols) == a.arity else tuple(tuple(r[i] for i in keep_cols) for r in rel.rows)
        new_rels[sym] = Relation(sym, len(vars_), rows)
    q2 = ConjunctiveQuery(tuple(new_atoms), q.free_vars, q.name)
    return q2, Database(new_rels)


def cut_at_x0(
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
    atom = q1.atoms[t.root]
    xi = atom.vars.index(x0)
    kept = tuple(row for row, th in theta.items() if below(row[xi], th))
    return q1, d1.replace(Relation(atom.symbol, atom.arity, kept)), len(kept)


# ---------------------------------------------------------------------------
# Interface decomposition: where may an existential inequality be filtered?


def _interface_groups(q: ConjunctiveQuery):
    """Partition existential variables by the join-tree branch that hosts
    them once a free-variables node is rooted.

    Returns (host, branch_vars): host maps each existential variable to
    its branch atom index, the unique atom closest to the free-variables
    node on that variable's side; branch_vars maps each branch atom index
    to the variables of its whole branch. Every free variable occurring in
    a branch also occurs in its branch atom, which is what makes per-tuple
    filtering there sound.
    """
    free = set(q.free_vars)
    tplus = join_tree(hypergraph_of(q).with_edge(q.free_vars))
    if tplus is None:
        raise EngineError("interface decomposition needs a free-connex query")
    f_id = len(q.atoms)
    tplus = tplus.reroot(f_id)
    host: dict[str, int] = {}
    branch_vars: dict[int, set[str]] = {}
    for c in tplus.children()[f_id]:
        branch_vars[c] = set().union(*(tplus.vars_of[i] for i in tplus.subtree_ids(c)))
        for v in branch_vars[c] - free:
            host[v] = c
    return host, branch_vars


def _branch_thresholds(q: ConjunctiveQuery, group: list[str], branch: int, db: Database):
    """{row of atom `branch`: the best value min(group) reaches among the
    answers of the all-free query through that row}. A row whose repeated
    columns disagree is absent: it joins nothing."""
    # join-tree node ids are atom indices
    return thresholds(q, group, tree_for_query(q).reroot(branch), db)[branch]


def _filter_atom(db: Database, atom: Atom, keep) -> Database:
    """`db` with the relation of `atom` cut down to the rows passing `keep`."""
    rel = db.relation(atom.symbol)
    return db.replace(Relation._of_distinct(atom.symbol, rel.arity, tuple(r for r in rel.rows if keep(r))))


def _first_atom_with(q: ConjunctiveQuery, x: str) -> tuple[Atom, int]:
    atom = next(a for a in q.atoms if x in a.vars)
    return atom, atom.vars.index(x)


# ---------------------------------------------------------------------------
# Restriction of a query plus predicate to the free variables


def restrict_predicate_to_free(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database
) -> tuple[ConjunctiveQuery, MinPredicate | None, Database]:
    """Rewrite (Q AND P, D) into (full query over free vars, residual
    predicate over free vars or None, database) with equal answer sets.

    Inequalities whose two sides are free survive into the residual
    predicate; the rest are folded into the database, grouped per hosting
    branch so that several existential MIN members in one branch are
    handled simultaneously. A branch atom holding x0 keeps the tuples
    whose threshold covers their own x0 entry; a branch sharing no free
    variable with the rest has one best value overall, which bounds x0.
    Configurations without a sound filtering site are refused with
    UnsupportedPredicateError. With p None, only the projection to the
    free variables remains (`_project_to_free`).

    A Boolean head restricts to one nullary atom, which holds the empty
    row exactly when the cut of an atom holding x0 keeps a row (see
    `cut_at_x0`).
    """
    if not is_free_connex(q):
        raise EngineError("restriction requires an acyclic free-connex query")
    if q.is_boolean:
        holds = cut_at_x0(q, p, db)[2] > 0
        sym = fresh_symbol(f"{q.name}_f", set(db.relations))
        return (ConjunctiveQuery((Atom(sym, ()),), (), q.name), None,
                Database({sym: Relation(sym, 0, ((),) if holds else ())}))
    if p is not None:
        p.check_vars(q)
    q, db = remove_self_joins(q, db)
    if p is None:
        q2, d2 = _project_to_free(q, db)
        return q2, None, d2

    free = set(q.free_vars)
    x0, below = p.x0, p.below
    xs = [x for x in p.xs if x != x0]
    d = db

    if x0 in free:
        exist_xs = [x for x in xs if x not in free]
        if exist_xs:
            host, branch_vars = _interface_groups(q)
            groups: dict[int, list[str]] = {}
            for x in exist_xs:  # declaration order within each group
                groups.setdefault(host[x], []).append(x)
            for branch, group in groups.items():
                batom = q.atoms[branch]
                if x0 not in batom.vars and branch_vars[branch] & free:
                    raise UnsupportedPredicateError(
                        f"{x0} <= min({','.join(group)}): {x0!r} does not reach "
                        f"branch atom {batom.symbol}, and the branch is not independent"
                    )
                theta = _branch_thresholds(q, group, branch, d)
                if x0 in batom.vars:
                    xi = batom.vars.index(x0)
                    d = _filter_atom(d, batom, lambda r: below(r[xi], theta.get(r, NEG_INF)))
                else:  # independent branch: min(group) has one best value overall
                    best = max(theta.values(), default=NEG_INF)
                    xa, xi = _first_atom_with(q, x0)
                    d = _filter_atom(d, xa, lambda r: below(r[xi], best))
        residual_xs = tuple(x for x in p.xs if x in free and x != x0)
        residual = MinPredicate(x0, residual_xs, p.strict) if residual_xs else None
    else:
        # x0 existential: every inequality is folded into the data
        coatomic = all(
            any(x0 in a.vars and x in a.vars for a in q.atoms) for x in xs
        )
        if coatomic:
            for x in xs:
                atom = next(a for a in q.atoms if x0 in a.vars and x in a.vars)
                xi0, xi = atom.vars.index(x0), atom.vars.index(x)
                d = _filter_atom(d, atom, lambda r: below(r[xi0], r[xi]))
        else:
            d = _eliminate_with_independent_x0(q, p, xs, d)
        residual = None

    q2, d2 = _project_to_free(q, d)
    return q2, residual, d2


def _eliminate_with_independent_x0(q, p: MinPredicate, xs: list[str], db: Database) -> Database:
    """x0 existential in a branch that shares no free variable with the
    rest and hosts no MIN member: its best value is one global constant,
    and each inequality becomes a per-tuple comparison against it."""
    free, below = set(q.free_vars), p.below
    host, branch_vars = _interface_groups(q)
    b0_vars = branch_vars[host[p.x0]]
    if (b0_vars & free) or any(x in b0_vars for x in xs):
        raise UnsupportedPredicateError(
            f"{p}: existential {p.x0!r} is coupled to the rest of the query; "
            "no sound tuple-removal rewrite exists"
        )
    # every tuple left by the full reduction is in some answer of the
    # all-free query, so x0's best value is its smallest surviving entry
    xa, x0i = _first_atom_with(q, p.x0)
    x0_vals = [r[x0i] for r in semijoin_reduce(q, db).relation(xa.symbol).rows]
    if not x0_vals:  # the all-free query has no answers at all
        return db.replace(*(Relation(a.symbol, a.arity, ()) for a in q.atoms))
    best = min(x0_vals)
    d = db
    for x in (x for x in xs if x in free):
        xa, xi = _first_atom_with(q, x)
        d = _filter_atom(d, xa, lambda r: below(best, r[xi]))
    groups: dict[int, list[str]] = {}
    for x in (x for x in xs if x not in free):
        groups.setdefault(host[x], []).append(x)
    for branch, group in groups.items():
        theta = _branch_thresholds(q, group, branch, d)
        d = _filter_atom(d, q.atoms[branch], lambda r: below(best, theta.get(r, NEG_INF)))
    return d
