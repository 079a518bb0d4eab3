"""Brute-force ground truth: naive join, predicate filter, ranked sort.

Deliberately simple and allowed to be superlinear; every other module is
checked against it. Comparisons elsewhere use sets, counts, and min-value
sequences, never tie-broken positions: the engine's tie-breaks are its
own documented orders, not the oracle's.
"""

from __future__ import annotations

from typing import Iterable

from .errors import OracleGuardError
from .model import Answer, ConjunctiveQuery, Database, MinPredicate

CROSS_PRODUCT_GUARD = 10**7


def oracle_answers(
    q: ConjunctiveQuery,
    db: Database,
    predicate: MinPredicate | None = None,
) -> set[Answer]:
    """All homomorphisms, filtered by `predicate` before projection,
    projected to the free variables and deduplicated.

    The optional pre-projection filter is what gives (Q AND P) semantics
    when the predicate touches existential variables.
    """
    est = 1
    for a in q.atoms:
        est *= max(1, len(db.relation(a.symbol)))
        if est > CROSS_PRODUCT_GUARD:
            raise OracleGuardError(f"estimated cross product exceeds {CROSS_PRODUCT_GUARD}")

    answers: set[Answer] = set()
    free = q.free_vars
    atoms = q.atoms

    def extend(i: int, assignment: dict[str, int]):
        if i == len(atoms):
            if predicate is None or predicate.holds(assignment):
                answers.add(Answer({v: assignment[v] for v in free}))
            return
        atom = atoms[i]
        rel = db.relation(atom.symbol)
        for row in rel.rows:
            local = assignment
            ok = True
            added: list[str] = []
            for v, c in zip(atom.vars, row):
                bound = local.get(v)
                if bound is None:
                    local[v] = c
                    added.append(v)
                elif bound != c:
                    ok = False
                    break
            if ok:
                extend(i + 1, local)
            for v in added:
                del local[v]

    extend(0, {})
    return answers


def oracle_filter(answers: Iterable[Answer], p: MinPredicate) -> set[Answer]:
    """Literal filter over answers; `p` is a MinPredicate over answer
    variables."""
    return {a for a in answers if p.holds(a.assignment)}


def oracle_sorted(
    answers: Iterable[Answer], xs: Iterable[str], *, maximize: bool = False
) -> list[Answer]:
    """Sort by min (or max) over `xs`, ties by the answer's sorted items;
    reference for monotonicity checks only, the tie order carries no
    meaning beyond being the same in every process."""
    xs = tuple(xs)
    by_items = sorted(answers, key=lambda a: sorted(a.assignment.items()))
    if maximize:
        return sorted(by_items, key=lambda a: max(a[x] for x in xs), reverse=True)
    return sorted(by_items, key=lambda a: min(a[x] for x in xs))
