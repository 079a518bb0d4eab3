"""Shared helpers: seeded random query/database generators and oracles."""

from __future__ import annotations

import random

import pytest

from minjoin import Answer, Atom, ConjunctiveQuery, Database, EngineError, MinPredicate, Relation, parse_query
from minjoin.model import fresh_symbol
from minjoin.structure import TreePlan


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
        rows = [*rel.rows, [100 + k] * rel.arity, [rng.randrange(6) for _ in range(rel.arity)]]
        rels.append(Relation.from_ints(sym, rel.arity, rows))
    return db.replace(*rels)


TAG = 1 << 16  # disjointify's rank width: a tagged cell is c * TAG + rank


def disjointify(db: Database, q: ConjunctiveQuery, rank_order) -> Database:
    """The reference for the engine's tie rule: db with every cell c of
    q's atoms tagged as c * TAG + its variable's rank, so that distinct
    variables never take equal values. `rank_order` lists the variables
    from the smallest rank to the largest, ranks from 1. A tie between a
    and b passes a<b over db exactly when a comparison of the tagged
    cells does, that is when a ranks below b."""
    if not q.is_self_join_free:
        raise EngineError("disjointify requires a self-join-free query")
    ranks = {v: i + 1 for i, v in enumerate(rank_order)}
    assert len(ranks) < TAG and set(q.variables) <= set(ranks)
    rels = []
    for a in q.atoms:
        rel = db.relation(a.symbol)
        rows = [tuple(c * TAG + ranks[v] for c, v in zip(row, a.vars)) for row in rel.rows]
        rels.append(Relation(a.symbol, rel.arity, tuple(rows)))
    return db.replace(*rels)


def predicate_rank_order(q: ConjunctiveQuery, p: MinPredicate) -> list[str]:
    """The variables of q, a query that `min_predicate_orders` restricted
    for p, from the smallest rank to the largest: p's x0 first, or last
    when p is strict, the others in declaration order."""
    others = [v for v in q.variables if v != p.x0]
    return others + [p.x0] if p.strict else [p.x0] + others


def untagged(answer: Answer) -> Answer:
    """An answer over `disjointify`'s cells mapped back to the values."""
    return Answer({v: c.base // TAG for v, c in answer.assignment.items()})



def _fork_sides(values_a, values_b):
    """Dyadic fork ids for both sides of a strict inequality a < b, over
    the merged sorted domain of a's and b's fork keys: ranks padded to L
    bits, position i with prefix p yields fork id (1 << i) | p, the a
    side at the 0 bits and the b side at the 1 bits."""
    dom = sorted(set(values_a) | set(values_b))
    rank = {v: i for i, v in enumerate(dom)}
    L = max(1, (len(dom) - 1).bit_length())
    a_side, b_side = {}, {}
    for v, r in rank.items():
        a_ids, b_ids = [], []
        for i in range(L):
            (b_ids if r >> (L - i - 1) & 1 else a_ids).append((1 << i) | r >> (L - i))
        a_side[v] = tuple(a_ids)
        b_side[v] = tuple(b_ids)
    return a_side, b_side


def fork_rewrite_reference(q: ConjunctiveQuery, db: Database, pair, part_tag: str = ""):
    """The reference for `elim.eliminate_enforced_order`, independent of
    the engine's replay (`elim.fork_replay`): it applies each order
    pair's row filter, then forks its rows, in rewrite order, each fork
    domain taken from the forked rows left so far. Each pair decides a
    tie by its site's side, and the part keeps q's cells as stored."""
    t = pair.tree
    plan = TreePlan(q, t)
    rows_of = {n: list(plan.rows(db, n)) for n in t.nodes()}
    schema_of = {n: list(plan.schema[n]) for n in t.nodes()}
    fresh_vars: list[str] = []
    taken = set(q.variables)

    for j, (a, b, nodes, ends, le) in enumerate(pair.sites(q.variables)):
        for n in nodes:
            sch = schema_of[n]
            ai, bi = sch.index(a), sch.index(b)
            rows = rows_of[n]
            rows_of[n] = [r for r in rows if r[ai] <= r[bi]] if le else [r for r in rows if r[ai] < r[bi]]
        if ends is None:
            continue
        fv = f"v{j + 1}{part_tag}"
        k = 0
        while fv in taken:
            k += 1
            fv = f"v{j + 1}{part_tag}_{k}"
        taken.add(fv)
        na, nb = ends
        acol = schema_of[na].index(a)
        bcol = schema_of[nb].index(b)
        # fork keys 2*c + bit: a tie's a below its b exactly when it passes
        ka, kb = (0, 1) if le else (1, 0)
        a_side, b_side = _fork_sides(
            {2 * r[acol] + ka for r in rows_of[na]}, {2 * r[bcol] + kb for r in rows_of[nb]}
        )
        fresh_vars.append(fv)
        rows_of[na] = [r + (f,) for r in rows_of[na] for f in a_side[2 * r[acol] + ka]]
        schema_of[na].append(fv)
        rows_of[nb] = [r + (f,) for r in rows_of[nb] for f in b_side[2 * r[bcol] + kb]]
        schema_of[nb].append(fv)

    taken = set(db.relations) | {a.symbol for a in q.atoms}
    atoms: list[Atom] = []
    rels: dict[str, Relation] = {}
    for n in t.nodes():
        sym = fresh_symbol(f"{plan.symbol[n]}{part_tag}", taken)
        vars_ = tuple(schema_of[n])
        atoms.append(Atom(sym, vars_))
        rels[sym] = Relation(sym, len(vars_), tuple(rows_of[n]))
    head = q.free_vars + tuple(fresh_vars)
    return ConjunctiveQuery(tuple(atoms), head, q.name), Database(rels)


def part_cells(q: ConjunctiveQuery, db: Database):
    """A part as output: its query's text, then each relation's symbol,
    arity and rows, in order."""
    return q.to_text(), [(sym, rel.arity, rel.rows) for sym, rel in db.relations.items()]


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


def enforced_by(order, t) -> bool:
    """True iff every pair a<b of the strict partial order `order` has
    both variables in one node of the tree `t`, or one in each end of an
    edge."""
    return all(
        any({a, b} <= t.vars_of[n] for n in t.nodes())
        or any({a, b} <= t.vars_of[c] | t.vars_of[p] for c, p in t.parent.items() if p is not None)
        for a, b in order.pairs
    )


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
