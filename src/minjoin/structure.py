"""Hypergraph and join-tree machinery, plus the task classifier.

Join trees are rooted, node-identity-stable structures: rearrangement
algorithms move edges around but keep the same node ids, so "same node
multiset" and "union of trees" are well defined across rearrangements.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .errors import EngineError, InternalInvariantError, IntractableQueryError, UnsupportedPredicateError
from .model import Atom, ConjunctiveQuery, Database, MinPredicate, MinRanking, Row


@dataclass(frozen=True)
class Hypergraph:
    vertices: frozenset[str]
    edges: tuple[frozenset[str], ...]

    def __post_init__(self):
        for e in self.edges:
            if not e <= self.vertices:
                raise EngineError("edge not contained in the vertex set")

    def with_edge(self, edge: Iterable[str]) -> "Hypergraph":
        e = frozenset(edge)
        return Hypergraph(self.vertices | e, self.edges + (e,))

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            for u in e:
                adj[u].update(e - {u})
        return adj


def hypergraph_of(q: ConjunctiveQuery) -> Hypergraph:
    return Hypergraph(frozenset(q.variables), tuple(frozenset(a.vars) for a in q.atoms))


def free_columns(q: ConjunctiveQuery) -> list[tuple[Atom, tuple[int, ...]]]:
    """Restriction's shape: each atom that holds a free variable, every
    atom of a full query, with the columns of its free variables."""
    free, full = set(q.free_vars), q.is_full
    return [(a, cols) for a in q.atoms for cols in [tuple(i for i, v in enumerate(a.vars) if v in free)]
            if cols or full]


class RootedJoinTree:
    """Rooted tree over variable-set nodes; node i stands for the query's
    atom i.
    """

    __slots__ = ("vars_of", "parent", "root")

    def __init__(self, vars_of, parent, root):
        self.vars_of: dict[int, frozenset[str]] = dict(vars_of)
        self.parent: dict[int, int | None] = dict(parent)
        self.root: int = root
        if self.parent.get(root, None) is not None:
            raise EngineError("root must have no parent")

    # -- basic shape ---------------------------------------------------

    def nodes(self) -> list[int]:
        return sorted(self.vars_of)

    def children(self) -> dict[int, list[int]]:
        ch: dict[int, list[int]] = {i: [] for i in self.vars_of}
        for i, p in self.parent.items():
            if p is not None:
                ch[p].append(i)
        for lst in ch.values():
            lst.sort()
        return ch

    def bfs_order(self) -> list[int]:
        order = self.subtree_ids(self.root)
        if len(order) != len(self.vars_of):
            raise InternalInvariantError("tree is disconnected")
        return order

    def edges(self) -> set[frozenset[int]]:
        return {frozenset((i, p)) for i, p in self.parent.items() if p is not None}

    def subtree_ids(self, r: int) -> list[int]:
        ch = self.children()
        out, queue = [], [r]
        while queue:
            n = queue.pop(0)
            out.append(n)
            queue.extend(ch[n])
        return out

    def copy(self) -> "RootedJoinTree":
        return RootedJoinTree(self.vars_of, self.parent, self.root)

    def subtree(self, r: int) -> "RootedJoinTree":
        ids = set(self.subtree_ids(r))
        return RootedJoinTree(
            {i: self.vars_of[i] for i in ids},
            {i: (self.parent[i] if i != r and self.parent[i] in ids else None) for i in ids},
            r,
        )

    def reroot(self, new_root: int) -> "RootedJoinTree":
        """Same edges, different root."""
        return RootedJoinTree.from_edges(self, self.edges(), new_root)

    def rooted_at(self, v: str) -> "RootedJoinTree":
        """Same edges, rooted at the lowest-index node that holds v."""
        return self.reroot(min(n for n in self.nodes() if v in self.vars_of[n]))

    @classmethod
    def from_edges(cls, template: "RootedJoinTree", edges: set[frozenset[int]], root: int):
        """Rebuild a tree over the template's nodes from an undirected edge set."""
        adj: dict[int, list[int]] = {i: [] for i in template.vars_of}
        for e in edges:
            a, b = sorted(e)
            adj[a].append(b)
            adj[b].append(a)
        parent: dict[int, int | None] = {root: None}
        queue = [root]
        while queue:
            n = queue.pop(0)
            for m in sorted(adj[n]):
                if m not in parent:
                    parent[m] = n
                    queue.append(m)
        if len(parent) != len(template.vars_of):
            raise InternalInvariantError("edge union does not connect all nodes")
        return cls(template.vars_of, parent, root)

    # -- variable placement --------------------------------------------

    def highest(self, v: str) -> int:
        """The node containing v closest to the root (unique by connectivity):
        the first in BFS order."""
        top = next((n for n in self.bfs_order() if v in self.vars_of[n]), None)
        if top is None:
            raise EngineError(f"variable {v!r} not in the tree")
        return top

    # -- validity ------------------------------------------------------

    def satisfies_running_intersection(self) -> bool:
        """Each variable's nodes must form a connected subtree: exactly
        one of them, its top, has no parent or a parent without it."""
        tops = Counter(
            v for n, vs in self.vars_of.items() for v in vs - self.vars_of.get(self.parent[n], frozenset())
        )
        return all(k == 1 for k in tops.values())

    def can_reattach(self, n: int, target: int) -> bool:
        """True iff moving n under `target` keeps the join-tree property.

        Valid exactly when the separator vars(n) & vars(parent(n)) is
        contained in the target node, for targets on the root path.
        """
        p = self.parent[n]
        if p is None or target == p:
            return False
        sep = self.vars_of[n] & self.vars_of[p]
        return sep <= self.vars_of[target]

    def pretty(self) -> str:
        ch = self.children()
        lines: list[str] = []

        def walk(n: int, depth: int):
            label = ",".join(sorted(self.vars_of[n]))
            lines.append("  " * depth + "{" + label + "} @atom" + str(n))
            for c in ch[n]:
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def __repr__(self):
        return f"RootedJoinTree(root={self.root}, nodes={len(self.vars_of)})"


# ---------------------------------------------------------------------------
# GYO construction


def _gyo(h: Hypergraph):
    """Ear-removal reduction. Returns (tree | None, irreducible core edges).

    An edge is an ear when its vertices shared with other remaining edges
    all fit inside a single witness edge; the ear attaches below the
    witness (preferring a superset witness so contained edges nest).
    Deterministic: lowest-index ear with lowest-index witness each round.
    """
    remaining: dict[int, frozenset[str]] = {i: e for i, e in enumerate(h.edges)}
    parent: dict[int, int | None] = {}
    while len(remaining) > 1:
        ear = witness = None
        ids = sorted(remaining)
        for i in ids:
            e = remaining[i]
            shared = e & frozenset().union(*(remaining[j] for j in ids if j != i))
            supersets = [j for j in ids if j != i and e <= remaining[j]]
            covers = [j for j in ids if j != i and shared <= remaining[j]]
            if supersets:
                ear, witness = i, min(supersets)
                break
            if covers:
                ear, witness = i, min(covers)
                break
        if ear is None:
            return None, tuple(remaining[i] for i in sorted(remaining))
        parent[ear] = witness
        del remaining[ear]
    if not remaining:
        return None, ()
    root = next(iter(remaining))
    parent[root] = None
    return RootedJoinTree(dict(enumerate(h.edges)), parent, root), ()


def join_tree(h: Hypergraph) -> RootedJoinTree | None:
    """A join tree of `h` (running intersection holds), or None if cyclic.

    Disconnected hypergraphs still yield a single tree: an edge sharing no
    variables with the rest is an ear with an empty separator, so the
    components end up glued; cross-component semijoins then key on the
    empty tuple, which is exactly cross-product semantics.
    """
    tree, _ = _gyo(h)
    return tree


def tree_for_query(q: ConjunctiveQuery, at: str | None = None) -> RootedJoinTree:
    """The query's join tree, node ids equal to atom indices; with `at`,
    rooted at the lowest-index atom that holds that variable."""
    t = join_tree(hypergraph_of(q))
    if t is None:
        raise EngineError("query is cyclic; no join tree exists")
    return t if at is None else t.rooted_at(at)


def no_key(row: Row) -> tuple:
    """The key of a node that shares no variable with its parent: ()."""
    return ()


def group_by(rows: Sequence[Row], key: Callable[[Row], Hashable]) -> dict[Hashable, list[Row]]:
    """{key(row): its rows}, keys and rows in first-seen order; with
    `no_key`, every row in the one group ()."""
    if key is no_key:
        return {(): list(rows)} if rows else {}
    groups: defaultdict[Hashable, list[Row]] = defaultdict(list)
    for r in rows:
        groups[key(r)].append(r)
    return dict(groups)


class TreePlan:
    """The per-node facts every pass over one rooted join tree reads.

    `order` is the BFS order (root first) and `children` the sorted child
    lists. Per node n: `schema[n]` and `symbol[n]` come from its atom,
    and `key[n]` is the key function of n's join bucket: an itemgetter
    over the columns of the variables n shares with its parent, in sorted
    variable order, which gives the cell itself for one column; `no_key`
    when there are none, as at the root. Per non-root node n,
    `parent_key[n]` reads the same variables from a parent row, so a
    parent row finds its bucket under n by `parent_key[n](row)`.
    """

    __slots__ = ("tree", "root", "parent", "order", "children", "schema", "symbol",
                 "key", "parent_key", "_repeats")

    def __init__(self, q: ConjunctiveQuery, t: RootedJoinTree):
        self.tree = t
        self.root = t.root
        self.parent = t.parent
        self.order = t.bfs_order()
        self.children = t.children()
        self.schema = {n: q.atoms[n].vars for n in self.order}
        self.symbol = {n: q.atoms[n].symbol for n in self.order}
        self.key: dict[int, Callable[[Row], Hashable]] = {self.root: no_key}
        self.parent_key: dict[int, Callable[[Row], Hashable]] = {}
        for n in self.order[1:]:
            shared = sorted(t.vars_of[n] & t.vars_of[t.parent[n]])
            self.key[n], self.parent_key[n] = (operator.itemgetter(*map(self.schema[m].index, shared))
                                               if shared else no_key for m in (n, t.parent[n]))
        # (first column, later column) per repeated variable of a node
        self._repeats = {
            n: [(sch.index(v), i) for i, v in enumerate(sch) if sch.index(v) != i]
            for n, sch in self.schema.items()
        }

    def rows(self, db: Database, n: int) -> Sequence[Row]:
        """Node n's rows; an atom that repeats a variable keeps only the
        rows whose repeated columns agree."""
        rows = db.relation(self.symbol[n]).rows
        same = self._repeats[n]
        if same:
            return [r for r in rows if all(r[i] == r[j] for i, j in same)]
        return rows


def is_free_connex(q: ConjunctiveQuery) -> bool:
    """Acyclic and free-connex: the structural verdict of `classify`."""
    return classify(Task.ENUM_PRED, q, None).tractable


# ---------------------------------------------------------------------------
# Chordless paths


def find_bad_path(
    h: Hypergraph, a_set: Iterable[str], b_set: Iterable[str]
) -> tuple[str, ...] | None:
    """Some chordless path of length >= 3 with one endpoint in each set.

    Returns the lexicographically least such path (over both orientations),
    or None. Exhaustive search: query sizes are constants, so this never
    touches data complexity.
    """
    A, B = frozenset(a_set), frozenset(b_set)
    if not A or not B:
        return None
    adj = h.adjacency()
    best: tuple[str, ...] | None = None

    def extend(path: tuple[str, ...], members: frozenset[str]):
        nonlocal best
        last = path[-1]
        for v in sorted(adj[last]):
            if v in members:
                continue
            if any(v in adj[u] for u in path[:-1]):
                continue  # chord
            np = path + (v,)
            if len(np) >= 4 and ((np[0] in A and v in B) or (np[0] in B and v in A)):
                cand = min(np, np[::-1])
                if best is None or cand < best:
                    best = cand
            extend(np, members | {v})

    for s in sorted(A | B):
        if s in h.vertices:
            extend((s,), frozenset((s,)))
    return best


# ---------------------------------------------------------------------------
# Maximally-branching rearrangement


def make_maximally_branching(t: RootedJoinTree) -> RootedJoinTree:
    """Reattach every node to its highest legal ancestor, root to leaf.

    Output has the same nodes and root, keeps running intersection, and no
    node can be moved to any strict ancestor of its parent afterwards.
    """
    out = t.copy()
    for n in t.bfs_order():
        p = out.parent[n]
        if p is None or out.parent[p] is None:
            continue
        # ancestors of parent(n), root first
        chain = []
        a = out.parent[p]
        while a is not None:
            chain.append(a)
            a = out.parent[a]
        for target in reversed(chain):
            if out.can_reattach(n, target):
                out.parent[n] = target
                break
    if not out.satisfies_running_intersection():
        raise InternalInvariantError("rearrangement broke running intersection")
    return out


# ---------------------------------------------------------------------------
# The dichotomy classifier


class Task(Enum):
    ELIMINATION = "elimination"
    COUNTING = "counting"
    BOOLEAN = "boolean"
    RANKED_DA = "ranked_da"
    UNRANKED_DA_PRED = "unranked_da_pred"
    RANKED_ENUM = "ranked_enum"
    ENUM_PRED = "enum_pred"
    SINGLE_ACCESS = "single_access"


RANKING_TASKS = {Task.RANKED_DA, Task.RANKED_ENUM, Task.SINGLE_ACCESS}


@dataclass(frozen=True)
class Witness:
    """Why a verdict refuses: lower bounds, a `core` that GYO leaves
    (without or with the free-variables edge) or a chordless `path`; or no
    fold site for `members` in branch `atom`, which `detail` explains."""

    kind: str  # "cyclic" | "not_free_connex" | "bad_path" | "no_fold_site"
    path: tuple[str, ...] | None = None
    core: tuple[frozenset, ...] | None = None
    members: tuple[str, ...] | None = None
    atom: str | None = None
    detail: str | None = None

    def to_json(self):
        out: dict = {"kind": self.kind}
        if self.path is not None:
            out["path"] = list(self.path)
        if self.core is not None:
            out["core"] = [sorted(e) for e in self.core]
        if self.members is not None:
            out["members"], out["atom"] = list(self.members), self.atom
        return out

    def __str__(self):
        if self.kind == "bad_path":
            return "chordless path " + "-".join(self.path)
        if self.kind == "cyclic":
            return "cyclic core " + ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.core)
        if self.kind == "no_fold_site":
            return f"no fold site for {','.join(self.members)} in {self.atom}"
        return "not free-connex"


class Fold(NamedTuple):
    """A fold site: restriction keeps the rows of atom `atom` (an index)
    whose x0 passes, by kind: row, the threshold of min(xs) through the
    row, at the branch atom of xs (`_fold_sites`); pair, the row's xs[0].
    An x0 site is an existential x0 whose component has no free interface
    and holds no member: its best value, its least cell over `atom`'s
    rows in some answer, takes x0's place at the sites after it."""

    kind: str
    atom: int
    xs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Plan:
    """What `classify` built for a tractable verdict, for its task to carry
    out: the query's GYO join tree (node i is atom i); the fold sites, in
    restriction's order; and the orders that the task enforces, each as
    (x, an order-tree pair whose tree is rooted at x), or None
    (`elim.plan_orders`)."""

    tree: RootedJoinTree
    folds: tuple[Fold, ...] = ()
    orders: tuple | None = None


@dataclass(frozen=True)
class Verdict:
    """A task's verdict; `plan`, None for a refusal, and `self_joins` take
    no part in equality, repr or `to_json`."""

    task: Task
    tractable: bool
    witness: Witness | None = None
    plan: Plan | None = field(default=None, compare=False, repr=False)
    self_joins: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        if self.tractable == (self.witness is not None):
            raise EngineError("witness present iff intractable")

    def to_json(self):
        return {
            "task": self.task.value,
            "tractable": self.tractable,
            "witness": self.witness.to_json() if self.witness else None,
        }

    @property
    def status(self) -> str:
        if self.tractable:
            return "tractable"
        return "unsupported" if self.witness.kind == "no_fold_site" else "intractable"

    def reason(self) -> str:
        """A refusal's witness and what it shows; the paper's lower bounds
        are for self-join-free queries, the copy of one with self-joins."""
        if self.status == "unsupported":
            return f"{self.witness}; an implementation limit, not a lower bound"
        if self.self_joins:
            return f"{self.witness}; the lower bound is for the query's self-join-free copy"
        return str(self.witness)

    def require(self) -> Plan:
        """The plan, or for a refusal IntractableQueryError with this
        verdict: for no fold site, UnsupportedPredicateError."""
        if self.tractable:
            return self.plan
        if self.status == "unsupported":
            raise UnsupportedPredicateError(self, self.witness.detail)
        raise IntractableQueryError(self)

    def __str__(self):
        if self.tractable:
            return f"{self.task.value}: tractable"
        return f"{self.task.value}: {self.status} ({self.reason()})"


def _fold_sites(q: ConjunctiveQuery, p: MinPredicate) -> tuple[Fold, ...] | Witness:
    """p's fold sites (`Fold`) in restriction's order, or the witness of
    the first inequality with none. Existential members group by their
    component's branch atom, in declaration order: the first atom that
    holds x0 and the interface (the free variables of the atoms that touch
    the component), else the first that holds the interface. With x0
    existential, pair sites need every member to share an atom with x0, and
    a refusal names the first atom that holds x0."""
    free = set(q.free_vars)
    xs = [x for x in p.xs if x != p.x0]
    comp = {v: {v} for v in q.variables if v not in free}  # existential variable -> its component
    for a in q.atoms:
        c = set().union(*(comp[v] for v in a.vars if v in comp))
        comp.update(dict.fromkeys(c, c))

    def first(*vs) -> int:
        return next(i for i, a in enumerate(q.atoms) if set(vs) <= set(a.vars))

    def branch(x: str) -> tuple[set[str], int]:  # the interface of x's component, and its branch atom
        interface = free & {v for a in q.atoms if comp[x] & set(a.vars) for v in a.vars}
        holds = [i for i, a in enumerate(q.atoms) if interface <= set(a.vars)]
        return interface, min(holds, key=lambda i: p.x0 not in q.atoms[i].vars)

    groups: dict[int, list[str]] = {}  # branch atom -> its existential members
    for x in (x for x in xs if x not in free):
        groups.setdefault(branch(x)[1], []).append(x)
    if p.x0 in free:
        for b, group in groups.items():
            if p.x0 not in (atom := q.atoms[b]).vars:
                return Witness("no_fold_site", members=tuple(group), atom=atom.symbol, detail=(
                    f"{p.x0} <= min({','.join(group)}): {p.x0!r} does not reach "
                    f"branch atom {atom.symbol}, and the branch is not independent"))
        return tuple(Fold("row", b, tuple(group)) for b, group in groups.items())
    if all(any({p.x0, x} <= set(a.vars) for a in q.atoms) for x in xs):
        return tuple(Fold("pair", first(p.x0, x), (x,)) for x in xs)
    if branch(p.x0)[0] or comp[p.x0] & set(xs):
        return Witness("no_fold_site", members=(p.x0,), atom=q.atoms[first(p.x0)].symbol, detail=(
            f"{p}: existential {p.x0!r} is coupled to the rest of the query; "
            "no sound tuple-removal rewrite exists"))
    return (Fold("x0", first(p.x0)), *(Fold("pair", first(x), (x,)) for x in xs if x in free),
            *(Fold("row", b, tuple(group)) for b, group in groups.items()))


def classify(task: Task, q: ConjunctiveQuery, spec) -> Verdict:
    """Structural verdict for one task; purely query-level, data-free. A
    tractable verdict carries the plan that its task carries out (`Plan`),
    its orders partitioned here.

    Tractability conditions:
      boolean                      acyclic
      ranked_enum / single_access  acyclic free-connex
      enum_pred                    acyclic free-connex, and fold sites
      elimination / counting /
      unranked_da_pred             acyclic free-connex, not (x0 free with a
                                   chordless >=3-path from x0 to a free MIN
                                   var, or between two that avoids x0 and
                                   its neighbours), and fold sites
      ranked_da                    acyclic free-connex, and no chordless
                                   >=3-path between two ranking variables

    Fold sites: one per branch atom with existential members (`Fold`),
    save for a Boolean head, cut at x0. An existential component's branch
    atom is the first atom holding its free interface and x0, else the
    first holding the interface. If one lacks a site once the path test
    passes, the verdict is "unsupported", a limit, not a lower bound.

    A predicate task with spec None (no predicate) gets the structural
    verdict, without the path condition.
    """
    h = hypergraph_of(q)
    tree, core = _gyo(h)
    joins = not q.is_self_join_free
    if tree is None:
        return Verdict(task, False, Witness("cyclic", core=core), self_joins=joins)
    if task is Task.BOOLEAN:
        return Verdict(task, True, plan=Plan(tree))

    tree2, core2 = _gyo(h.with_edge(q.free_vars))
    if tree2 is None:
        return Verdict(task, False, Witness("not_free_connex", core=core2), self_joins=joins)

    free, path, folds = set(q.free_vars), None, ()
    if task in RANKING_TASKS:
        if isinstance(spec, MinPredicate):
            raise EngineError("ranking task classified with a predicate spec")
        xs = spec.xs if isinstance(spec, MinRanking) else tuple(spec)
        if not set(xs) <= free:
            raise EngineError(f"{task.value}: ranking variables must be free")
        if task is Task.RANKED_DA:
            path = find_bad_path(h, xs, xs)
    elif spec is not None:
        if not isinstance(spec, MinPredicate):
            raise EngineError(f"{task.value}: needs a MinPredicate spec")
        spec.check_vars(q)
        if task is not Task.ENUM_PRED and spec.x0 in free:
            near, members = h.adjacency()[spec.x0] | {spec.x0}, (set(spec.xs) & free) - {spec.x0}
            far = Hypergraph(h.vertices - near, tuple(e - near for e in h.edges))  # x0's neighbours removed
            path = find_bad_path(h, {spec.x0}, members) or find_bad_path(far, members - near, members - near)
        if path is None and not q.is_boolean:
            folds = _fold_sites(q, spec)
            if isinstance(folds, Witness):
                return Verdict(task, False, folds, self_joins=joins)
    if path is not None:
        return Verdict(task, False, Witness("bad_path", path=path), self_joins=joins)
    from . import elim  # elim imports this module
    return Verdict(task, True, plan=Plan(tree, folds, elim.plan_orders(task, q, spec, tree)))


def classify_all(q: ConjunctiveQuery, p: MinPredicate | None, r: MinRanking | None) -> list[Verdict]:
    """Verdicts for all eight tasks.

    Missing declarations degrade to the structural core: a predicate task
    with no predicate is classified with spec None, and a ranking task with
    no ranking with an empty variable set, collapsing the side condition.
    """
    return [
        classify(task, q, (r.xs if r else ()) if task in RANKING_TASKS else p)
        for task in Task
    ]
