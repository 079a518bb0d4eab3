"""Semijoin reduction, restriction to free variables, and the folding of
predicate inequalities that touch existential variables into the data.

`restrict_predicate_to_free` prepares every task function's instance: it
removes self-joins, folds and projects. It carries out the plan of the
task's verdict (`structure.Plan`) and tests no shape: `classify` built
the join tree, found each fold site, and refused a query with none.
A fold filters the tuples of one relation, which is sound only where the
predicate's truth on the answers through a tuple is a function of that
tuple alone (`structure.Fold`). Every such cut, the Boolean task's cut at
x0 (`cut_at_x0`) included, runs through one loop (`_fold`) that reads
the threshold pass; only the projection to the free variables runs the
full reducer.
"""

from __future__ import annotations

import operator

from .errors import EngineError
from .model import (
    Atom,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    Relation,
    fresh_symbol,
    remove_self_joins,
)
from .semiring import NEG_INF, POS_INF, thresholds
from .structure import Fold, Plan, RootedJoinTree, Task, TreePlan, classify, free_columns, tree_for_query


def semijoin_reduce(q: ConjunctiveQuery, db: Database, tree: RootedJoinTree | None = None) -> Database:
    """Full Yannakakis reducer: bottom-up then top-down semijoin passes
    over `tree`, q's join tree (`tree_for_query(q)` when None).

    Afterwards every remaining tuple participates in at least one answer
    of the full query; the answer set is unchanged. Nodes glued across
    connected components key on the empty tuple, so emptiness propagates
    between components as it must.
    """
    if not q.is_self_join_free:
        raise EngineError("semijoin reduction requires a self-join-free query")
    plan = TreePlan(q, tree or tree_for_query(q))
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


def _project_to_free(q: ConjunctiveQuery, db: Database, tree: RootedJoinTree) -> tuple[ConjunctiveQuery, Database]:
    """An acyclic free-connex query over a prepared (self-join-free)
    instance, with join tree `tree`, as a full one over its free
    variables, with fresh relation symbols and the same answer set.

    A full query is only renamed: each atom keeps its rows as given, and
    the passes that read them drop the rows that join nothing. Otherwise
    relations are fully reduced first, which only projection needs, then
    projected per-atom (`structure.free_columns`); atoms left with no
    free variables are dropped (their only residual effect, emptiness,
    has already propagated through the reduction to every relation).
    """
    taken = set(db.relations) | {a.symbol for a in q.atoms}
    if not q.is_full:
        db = semijoin_reduce(q, db, tree)
    new_atoms: list[Atom] = []
    new_rels: dict[str, Relation] = {}
    for a, keep_cols in free_columns(q):
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
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database, tree: RootedJoinTree
) -> tuple[ConjunctiveQuery, Database, int]:
    """Q after self-join removal; its database with the relation of the
    first atom holding x0 cut to the rows through which some homomorphism
    of Q's body satisfies P; and the number of rows kept. `tree` is Q's
    join tree (`Plan.tree`).

    All variables are treated as existential, so the cut is one row fold
    (`_fold`) of min(X) at that atom. Without a predicate, x0 is Q's
    first variable, X is empty and the threshold is +inf exactly for the
    rows that extend to a homomorphism.
    """
    if p is None:
        x0, xs, below = q.variables[0], (), operator.le
    else:
        p.check_vars(q)
        x0, xs, below = p.x0, tuple(x for x in p.xs if x != p.x0), p.below
    q1, d1 = remove_self_joins(q, db)
    n = next(i for i, a in enumerate(q1.atoms) if x0 in a.vars)
    d1 = _fold(q1, x0, below, (Fold("row", n, xs),), tree, d1)
    return q1, d1, len(d1.relation(q1.atoms[n].symbol))


def restrict_predicate_to_free(
    q: ConjunctiveQuery, p: MinPredicate | None, db: Database, plan: Plan | None = None
) -> tuple[ConjunctiveQuery, MinPredicate | None, Database]:
    """Rewrite (Q AND P, D) into (full query over free vars, residual
    predicate over free vars or None, database) with equal answer sets.

    `plan` is the task's verdict's (`Verdict.require`); with None, q is
    classified for predicate enumeration, and refused as that verdict
    is. Inequalities whose two sides are free survive into the residual
    predicate; the rest are folded into the database at the plan's fold
    sites (`_fold`). With p None, only the projection to the free
    variables remains (`_project_to_free`).

    A Boolean head restricts to one nullary atom, which holds the empty
    row exactly when the cut of an atom holding x0 keeps a row (see
    `cut_at_x0`).
    """
    if plan is None:
        plan = classify(Task.ENUM_PRED, q, p).require()
    if q.is_boolean:
        holds = cut_at_x0(q, p, db, plan.tree)[2] > 0
        sym = fresh_symbol(f"{q.name}_f", set(db.relations))
        return (ConjunctiveQuery((Atom(sym, ()),), (), q.name), None,
                Database({sym: Relation(sym, 0, ((),) if holds else ())}))
    q, db = remove_self_joins(q, db)
    residual = None
    if p is not None:
        db = _fold(q, p.x0, p.below, plan.folds, plan.tree, db)
        if p.x0 in q.free_vars:
            xs = tuple(x for x in p.xs if x in q.free_vars and x != p.x0)
            residual = MinPredicate(p.x0, xs, p.strict) if xs else None
    q2, d2 = _project_to_free(q, db, plan.tree)
    return q2, residual, d2


def _fold(
    q: ConjunctiveQuery, x0: str, below, folds: tuple[Fold, ...], tree: RootedJoinTree, db: Database
) -> Database:
    """`db` with the fold sites `folds` (`structure.Fold`) of x0 `below`
    min(xs) carried out in order, each over one atom's rows. A threshold
    is that of the all-free query, on `tree` rerooted at the site; a row
    whose repeated columns disagree has none: it joins nothing. An x0
    site reads the pass with no members: its rows above -inf are those
    in some answer, and x0's best value is their least x0 cell, +inf,
    which no later site passes, when there is none."""
    best = None  # x0's best value, once an "x0" site has found it
    for kind, n, xs in folds:
        atom = q.atoms[n]
        if kind == "pair":
            value = operator.itemgetter(atom.vars.index(xs[0]))
        else:
            theta = thresholds(q, xs, tree.reroot(n), db)[n]
            if kind == "x0":
                xi = atom.vars.index(x0)
                best = min((r[xi] for r, th in theta.items() if th > NEG_INF), default=POS_INF)
                continue
            value = lambda r: theta.get(r, NEG_INF)
        left = (lambda r: best) if best is not None else operator.itemgetter(atom.vars.index(x0))
        kept = tuple(r for r in db.relation(atom.symbol).rows if below(left(r), value(r)))
        db = db.replace(Relation._of_distinct(atom.symbol, atom.arity, kept))
    return db
