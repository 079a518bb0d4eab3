"""Core data model: values, relations, databases, queries, predicates.

Every algorithm in the engine works over these types. A cell is the
data's own int, from load to answer; an Answer shows it as a
TaggedValue only when it is read. Where the paper assumes that distinct
variables never take equal values, each order pair decides a tie by its
side (`partition.Site`). Databases are immutable after construction and
safe to share across threads; the transformations here (self-join
removal, negation) return new databases instead of mutating.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import EngineError

Row = tuple  # tuple[int, ...], one cell per column


class TaggedValue(NamedTuple):
    """The view of one cell that `answer[x]` gives: its value, as `base`."""

    base: int

    def __repr__(self):
        return str(self.base)


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
    def _of_distinct(cls, symbol: str, arity: int, rows: tuple[Row, ...]) -> "Relation":
        """The relation over `rows`, distinct and of `arity` entries each, kept as given."""
        rel = object.__new__(cls)
        rel.__dict__.update(symbol=symbol, arity=arity, rows=rows)
        return rel

    @classmethod
    def from_ints(cls, symbol: str, arity: int, rows: Iterable[Iterable[int]]) -> "Relation":
        cells = []
        for r in map(tuple, rows):
            if len(r) != arity:
                raise EngineError(f"relation {symbol}: row {r} has {len(r)} entries, arity is {arity}")
            try:
                cells.append(tuple(map(operator.index, r)))
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
    `answer.assignment` show them as TaggedValues."""

    __slots__ = ("_items",)

    def __init__(self, assignment: Mapping[str, int | TaggedValue]):
        items = {k: v.base if isinstance(v, TaggedValue) else v for k, v in assignment.items()}
        for k, c in items.items():
            if not isinstance(c, int):
                raise EngineError(f"answer: {k}={c!r} holds a non-integer value")
        self._items = tuple(sorted(items.items()))

    @classmethod
    def _of_sorted(cls, items: tuple[tuple[str, int], ...]) -> "Answer":
        """The answer whose (variable, cell) items, sorted by variable,
        are `items`; the tuple is kept as it is."""
        a = object.__new__(cls)
        a._items = items
        return a

    @property
    def assignment(self) -> dict[str, TaggedValue]:
        return {k: TaggedValue(c) for k, c in self._items}

    def _cell(self, var: str) -> int:
        for k, c in self._items:
            if k == var:
                return c
        raise KeyError(var)

    def __getitem__(self, var: str) -> TaggedValue:
        return TaggedValue(self._cell(var))

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
        inner = ", ".join(f"{k}={c}" for k, c in self._items)
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
    counts = Counter(a.symbol for a in q.atoms)
    taken = set(db.relations) | set(counts)
    new_atoms = []
    new_rels = {sym: rel for sym, rel in db.relations.items() if counts[sym] < 2}
    occurrence: Counter[str] = Counter()
    for a in q.atoms:
        if counts[a.symbol] == 1:
            new_atoms.append(a)
            continue
        occurrence[a.symbol] += 1
        sym = fresh_symbol(f"{a.symbol}_{occurrence[a.symbol]}", taken)
        src = db.relation(a.symbol)  # each copy keeps its rows as they are
        new_rels[sym] = Relation._of_distinct(sym, src.arity, src.rows)
        new_atoms.append(Atom(sym, a.vars))
    return (
        ConjunctiveQuery(tuple(new_atoms), q.free_vars, q.name),
        Database(new_rels),
    )


def negate_database(db: Database) -> Database:
    """Negate every cell; turns MAX problems into MIN problems. Negation
    keeps distinct rows distinct, so the rows are not checked again."""
    neg = operator.neg
    new_rels = {
        sym: Relation._of_distinct(sym, rel.arity, tuple([tuple(map(neg, row)) for row in rel.rows]))
        for sym, rel in db.relations.items()
    }
    return Database(new_rels)
