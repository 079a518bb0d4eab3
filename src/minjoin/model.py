"""Core data model: values, relations, databases, queries, predicates.

Every algorithm in the engine works over these types. A cell is one
int, `base * W + rank`, whose order is that of (base, rank); an Answer
decodes it to a TaggedValue only when it is read. Databases are
immutable after construction and safe to share across threads; the
transformations here (self-join removal, domain disjointification,
negation) return new databases instead of mutating.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .errors import EngineError

Row = tuple  # tuple[int, ...], one cell per column

W = 1 << 16  # the rank width: a cell is base * W + rank, 0 <= rank < W


class TaggedValue(NamedTuple):
    """The decoded view of one cell: its domain value and variable rank.

    Rank 0 is reserved for untagged data; a disjointified database gives
    each variable a distinct rank >= 1 so two distinct variables can never
    be assigned equal values. The total order is lexicographic (base,
    then rank), the order of the cells themselves.
    """

    base: int
    rank: int = 0

    def __repr__(self):
        return f"{self.base}r{self.rank}" if self.rank else str(self.base)


@dataclass(frozen=True)
class Relation:
    """A named, set-semantics relation over rows of cells.

    Duplicate rows are dropped on construction (first occurrence kept);
    every row must have exactly `arity` entries.
    """

    symbol: str
    arity: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise EngineError(f"relation {self.symbol}: negative arity")
        deduped = tuple(dict.fromkeys(self.rows))
        for r in deduped:
            if len(r) != self.arity:
                raise EngineError(
                    f"relation {self.symbol}: row {r} has {len(r)} entries, arity is {self.arity}"
                )
        object.__setattr__(self, "rows", deduped)

    def __len__(self):
        return len(self.rows)

    @classmethod
    def from_ints(cls, symbol: str, arity: int, rows: Iterable[Iterable[int]]) -> "Relation":
        cells = []  # each an untagged cell
        for r in map(tuple, rows):
            if len(r) != arity:
                raise EngineError(f"relation {symbol}: row {r} has {len(r)} entries, arity is {arity}")
            try:
                cells.append(tuple([operator.index(c) * W for c in r]))
            except TypeError:
                raise EngineError(f"relation {symbol}: row {r!r} holds a non-integer value") from None
        return cls(symbol, arity, tuple(cells))


@dataclass(frozen=True)
class Database:
    """Map from relation symbol to relation; |D| is the total tuple count."""

    relations: Mapping[str, Relation]

    def __post_init__(self):
        object.__setattr__(self, "relations", dict(self.relations))
        for sym, rel in self.relations.items():
            if rel.symbol != sym:
                raise EngineError(f"database key {sym!r} bound to relation {rel.symbol!r}")

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def relation(self, symbol: str) -> Relation:
        try:
            return self.relations[symbol]
        except KeyError:
            raise EngineError(f"no relation named {symbol!r}") from None

    def replace(self, *relations: Relation) -> "Database":
        new = dict(self.relations)
        for rel in relations:
            new[rel.symbol] = rel
        return Database(new)


@dataclass(frozen=True)
class Atom:
    symbol: str
    vars: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.vars)

    def __str__(self):
        return f"{self.symbol}({','.join(self.vars)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: head over free variables, body of atoms.

    `free_vars` keeps head order; `variables` lists free variables first
    and then remaining body variables in first-occurrence order, which is
    the declaration order used for every deterministic tie-break in the
    engine.
    """

    atoms: tuple[Atom, ...]
    free_vars: tuple[str, ...]
    name: str = "Q"

    def __post_init__(self):
        if not self.atoms:
            raise EngineError("query has no atoms")
        body = {v for a in self.atoms for v in a.vars}
        if len(set(self.free_vars)) != len(self.free_vars):
            raise EngineError("duplicate variable in head")
        for v in self.free_vars:
            if v not in body:
                raise EngineError(f"head variable {v!r} not in body")

    @property
    def variables(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.free_vars)
        for a in self.atoms:
            for v in a.vars:
                seen.setdefault(v)
        return tuple(seen)

    @property
    def is_full(self) -> bool:
        return set(self.free_vars) == set(self.variables)

    @property
    def is_boolean(self) -> bool:
        return not self.free_vars

    @property
    def is_self_join_free(self) -> bool:
        syms = [a.symbol for a in self.atoms]
        return len(syms) == len(set(syms))

    def to_text(self) -> str:
        head = f"{self.name}({','.join(self.free_vars)})"
        return f"{head} :- {', '.join(map(str, self.atoms))}."

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class MinPredicate:
    """Condition `x0 <= min X` (non-strict) or `x0 < min X` (strict).

    The strict variant requires x0 to be strictly below every member of
    X, and x0 must not belong to X.
    """

    x0: str
    xs: tuple[str, ...]
    strict: bool = False

    def __post_init__(self):
        if not self.xs:
            raise EngineError("predicate needs a non-empty variable set")
        if len(set(self.xs)) != len(self.xs):
            raise EngineError("duplicate variable in predicate set")
        if self.strict and self.x0 in self.xs:
            raise EngineError("strict predicate requires x0 outside the MIN set")

    def check_vars(self, q: ConjunctiveQuery) -> None:
        qvars = set(q.variables)
        for v in (self.x0, *self.xs):
            if v not in qvars:
                raise EngineError(f"predicate variable {v!r} not in the query")

    @property
    def below(self):
        """The comparison that `x0` must pass against each member of X:
        `<` when strict, `<=` otherwise."""
        return operator.lt if self.strict else operator.le

    def holds(self, assignment: Mapping[str, int]) -> bool:
        v0, below = assignment[self.x0], self.below
        return all(below(v0, assignment[x]) for x in self.xs)

    def __str__(self):
        op = "<" if self.strict else "<="
        return f"{self.x0} {op} MIN({','.join(self.xs)})"


@dataclass(frozen=True)
class MinRanking:
    """Order answers by min (or max) over a variable set."""

    xs: tuple[str, ...]
    maximize: bool = False

    def __post_init__(self):
        if not self.xs:
            raise EngineError("ranking needs a non-empty variable set")
        if len(set(self.xs)) != len(self.xs):
            raise EngineError("duplicate variable in ranking set")

    def key(self, assignment: Mapping[str, int]) -> int:
        vals = [assignment[x] for x in self.xs]
        return max(vals) if self.maximize else min(vals)

    def __str__(self):
        return f"{'MAX' if self.maximize else 'MIN'}({','.join(self.xs)})"


class Answer:
    """An assignment of the free variables, hashable and order-insensitive.

    Built from cells or TaggedValues, it holds cells; `answer[x]` and
    `answer.assignment` decode them to TaggedValues."""

    __slots__ = ("_items",)

    def __init__(self, assignment: Mapping[str, int | TaggedValue]):
        self._items = tuple(sorted((k, v if isinstance(v, int) else v.base * W + v.rank)
                                   for k, v in assignment.items()))

    @classmethod
    def _of_sorted(cls, items: tuple[tuple[str, int], ...]) -> "Answer":
        """The answer whose (variable, cell) items, sorted by variable,
        are `items`; the tuple is kept as it is."""
        a = object.__new__(cls)
        a._items = items
        return a

    @property
    def assignment(self) -> dict[str, TaggedValue]:
        return {k: TaggedValue(*divmod(c, W)) for k, c in self._items}

    def _cell(self, var: str) -> int:
        for k, c in self._items:
            if k == var:
                return c
        raise KeyError(var)

    def __getitem__(self, var: str) -> TaggedValue:
        return TaggedValue(*divmod(self._cell(var), W))

    def untagged(self) -> "Answer":
        return Answer._of_sorted(tuple((k, c - c % W) for k, c in self._items))

    def negated(self) -> "Answer":
        """Every base value negated, as `negate_database` does to cells."""
        return Answer._of_sorted(tuple((k, -c) for k, c in self._items))

    def project(self, vars: Iterable[str]) -> "Answer":
        keep = set(vars)
        return Answer._of_sorted(tuple((k, c) for k, c in self._items if k in keep))

    def __eq__(self, other):
        return isinstance(other, Answer) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        inner = ", ".join(f"{k}={TaggedValue(*divmod(c, W))!r}" for k, c in self._items)
        return f"Answer({inner})"


# ---------------------------------------------------------------------------
# Domain transformations


def fresh_symbol(base: str, taken: set[str]) -> str:
    """Deterministically uniquify `base` against `taken` (and reserve it)."""
    name = base
    n = 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    taken.add(name)
    return name


def remove_self_joins(q: ConjunctiveQuery, db: Database) -> tuple[ConjunctiveQuery, Database]:
    """Give each repeated relation symbol a fresh copy so no symbol repeats.

    Answer sets are unchanged; queries already free of self-joins are
    returned as-is (same objects).
    """
    if q.is_self_join_free:
        return q, db
    counts: dict[str, int] = {}
    for a in q.atoms:
        counts[a.symbol] = counts.get(a.symbol, 0) + 1
    taken = set(db.relations) | {a.symbol for a in q.atoms}
    new_atoms = []
    new_rels = dict(db.relations)
    occurrence: dict[str, int] = {}
    for a in q.atoms:
        if counts[a.symbol] == 1:
            new_atoms.append(a)
            continue
        occurrence[a.symbol] = occurrence.get(a.symbol, 0) + 1
        sym = fresh_symbol(f"{a.symbol}_{occurrence[a.symbol]}", taken)
        src = db.relation(a.symbol)
        new_rels[sym] = Relation(sym, src.arity, src.rows)
        new_atoms.append(Atom(sym, a.vars))
    for sym, n in counts.items():
        if n > 1:
            del new_rels[sym]
    return (
        ConjunctiveQuery(tuple(new_atoms), q.free_vars, q.name),
        Database(new_rels),
    )


def disjointify(db: Database, q: ConjunctiveQuery, rank_order: Iterable[str]) -> Database:
    """Tag every cell with its variable's rank so variable domains are disjoint.

    `rank_order` lists variables from smallest to largest rank (ranks start
    at 1). The rewrite preserves the relative order of distinct base values
    across any two columns, and makes all cross-variable comparisons strict.
    """
    if not q.is_self_join_free:
        raise EngineError("disjointify requires a self-join-free query")
    ranks = {v: i + 1 for i, v in enumerate(rank_order)}
    if len(ranks) >= W:
        raise EngineError(f"disjointify supports fewer than {W} variables")
    for v in q.variables:
        if v not in ranks:
            raise EngineError(f"rank order misses variable {v!r}")
    new_rels = {}
    for a in q.atoms:
        rel = db.relation(a.symbol)
        if any(map(W.__rmod__, chain.from_iterable(rel.rows))):  # a cell c % W != 0
            raise EngineError("disjointify expects an untagged database")
        col_ranks = tuple(ranks[v] for v in a.vars)
        rows = tuple([tuple(map(operator.add, row, col_ranks)) for row in rel.rows])
        new_rels[a.symbol] = Relation(a.symbol, rel.arity, rows)
    # relations not referenced by the query pass through untouched
    for sym, rel in db.relations.items():
        new_rels.setdefault(sym, rel)
    return Database(new_rels)


def negate_database(db: Database) -> Database:
    """Negate every cell of an untagged database, that is every base
    value; turns MAX problems into MIN problems."""
    new_rels = {
        sym: Relation(sym, rel.arity, tuple([tuple(map(operator.neg, row)) for row in rel.rows]))
        for sym, rel in db.relations.items()
    }
    return Database(new_rels)
