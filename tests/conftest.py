"""Shared helpers: seeded random query/database generators and oracles."""

from __future__ import annotations

import random

import pytest

from minjoin import Atom, ConjunctiveQuery, Database, MinPredicate, Relation, parse_query
from minjoin.model import W


def rand_acyclic_query(
    rng: random.Random,
    *,
    max_atoms: int = 5,
    max_arity: int = 3,
    full: bool = False,
    min_free: int = 1,
) -> ConjunctiveQuery:
    """Random acyclic query, built as a join forest: each new atom shares
    a (possibly empty) subset of one earlier atom's variables."""
    n_atoms = rng.randint(1, max_atoms)
    atoms: list[Atom] = []
    fresh = 0

    def new_var():
        nonlocal fresh
        fresh += 1
        return f"v{fresh}"

    for i in range(n_atoms):
        arity = rng.randint(1, max_arity)
        vars_: list[str] = []
        if atoms:
            parent = rng.choice(atoms)
            n_share = rng.randint(0, min(arity, len(parent.vars)))
            vars_.extend(rng.sample(list(dict.fromkeys(parent.vars)), min(n_share, len(set(parent.vars)))))
        while len(vars_) < arity:
            vars_.append(new_var())
        rng.shuffle(vars_)
        atoms.append(Atom(f"R{i}", tuple(vars_)))

    all_vars = list(dict.fromkeys(v for a in atoms for v in a.vars))
    if full:
        head = tuple(all_vars)
    else:
        k = rng.randint(min(min_free, len(all_vars)), len(all_vars))
        head = tuple(rng.sample(all_vars, k))
    return ConjunctiveQuery(tuple(atoms), head)


def rand_database(
    rng: random.Random,
    q: ConjunctiveQuery,
    *,
    dom: int = 8,
    max_rows: int = 12,
    base_shift: int = 0,
) -> Database:
    rels = {}
    for a in q.atoms:
        if a.symbol in rels:
            continue
        n = rng.randint(0, max_rows)
        rows = [
            tuple(rng.randrange(dom) + base_shift for _ in range(a.arity))
            for _ in range(n)
        ]
        rels[a.symbol] = Relation.from_ints(a.symbol, a.arity, rows)
    return Database(rels)


def rand_predicate(rng: random.Random, q: ConjunctiveQuery, *, strict_ok: bool = True) -> MinPredicate:
    vars_ = list(q.variables)
    x0 = rng.choice(vars_)
    k = rng.randint(1, min(3, len(vars_)))
    xs = tuple(rng.sample(vars_, k))
    strict = strict_ok and x0 not in xs and rng.random() < 0.3
    return MinPredicate(x0, xs, strict=strict)


def with_dangling_rows(rng, q, db):
    """db plus, in every relation of q, one row of values no other
    relation holds and one random row."""
    rels = []
    for k, sym in enumerate(dict.fromkeys(a.symbol for a in q.atoms)):
        rel = db.relation(sym)
        rows = [[c // W for c in row] for row in rel.rows]
        rows += [[100 + k] * rel.arity, [rng.randrange(6) for _ in range(rel.arity)]]
        rels.append(Relation.from_ints(sym, rel.arity, rows))
    return db.replace(*rels)


# Inputs the random generator never makes: a variable repeated in an
# atom, a relation symbol used by two atoms, and a Boolean head.
EDGE_QUERIES = (
    "Q(x,y) :- R(x,x), S(x,y).",
    "Q(x,z) :- R(x,y,y), S(y,z).",
    "Q(x,y,z) :- R(x,y), R(y,z).",
    "Q(y,z) :- R(x,y), R(y,z), S(z,z).",
    "Q() :- R(x,y), S(y,z).",
    "Q() :- R(x,x), R(x,y).",
)


def edge_instances(rng: random.Random, *, full: bool = False, dbs: int = 4):
    """(query, database) pairs over EDGE_QUERIES, `dbs` random databases
    each; with `full`, every variable of a non-Boolean query is free."""
    for text in EDGE_QUERIES:
        q = parse_query(text)[0]
        if full:
            if q.is_boolean:
                continue
            q = ConjunctiveQuery(q.atoms, q.variables, q.name)
        for _ in range(dbs):
            yield q, rand_database(rng, q, dom=4, max_rows=7)


def extended_by(order, total) -> bool:
    """True iff the total order (ascending sequence) refines the strict
    partial order `order`."""
    pos = {v: i for i, v in enumerate(total)}
    return all(pos[a] < pos[b] for a, b in order.pairs)


def is_maximally_branching(t) -> bool:
    """True iff no node of `t` can move up to an ancestor above its parent
    and keep the join-tree property."""
    for n in t.nodes():
        p = t.parent[n]
        a = None if p is None else t.parent[p]
        while a is not None:
            if t.can_reattach(n, a):
                return False
            a = t.parent[a]
    return True


@pytest.fixture
def rng():
    return random.Random(20260810)
