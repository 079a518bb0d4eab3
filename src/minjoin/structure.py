"""Hypergraph and join-tree machinery, plus the task classifier.

Join trees are rooted, node-identity-stable structures: rearrangement
algorithms move edges around but keep the same node ids, so "same node
multiset" and "union of trees" are well defined across rearrangements.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Iterable, Sequence

from .errors import EngineError, InternalInvariantError, IntractableQueryError
from .model import ConjunctiveQuery, Database, MinPredicate, MinRanking, Row


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


class RootedJoinTree:
    """Rooted tree over variable-set nodes, each linked to an atom.

    `atom_of[i]` is the index of the source atom of node i.
    """

    __slots__ = ("vars_of", "atom_of", "parent", "root")

    def __init__(self, vars_of, atom_of, parent, root):
        self.vars_of: dict[int, frozenset[str]] = dict(vars_of)
        self.atom_of: dict[int, int] = dict(atom_of)
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

    def depths(self) -> dict[int, int]:
        d = {self.root: 0}
        for n in self.bfs_order()[1:]:
            d[n] = d[self.parent[n]] + 1
        return d

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
        return RootedJoinTree(self.vars_of, self.atom_of, self.parent, self.root)

    def subtree(self, r: int) -> "RootedJoinTree":
        ids = set(self.subtree_ids(r))
        return RootedJoinTree(
            {i: self.vars_of[i] for i in ids},
            {i: self.atom_of[i] for i in ids},
            {i: (self.parent[i] if i != r and self.parent[i] in ids else None) for i in ids},
            r,
        )

    def reroot(self, new_root: int) -> "RootedJoinTree":
        """Same edges, different root."""
        return RootedJoinTree.from_edges(self, self.edges(), new_root)

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
        return cls(template.vars_of, template.atom_of, parent, root)

    # -- variable placement --------------------------------------------

    def highest(self, v: str) -> int:
        """The node containing v closest to the root (unique by connectivity)."""
        depths = self.depths()
        cands = [i for i in self.nodes() if v in self.vars_of[i]]
        if not cands:
            raise EngineError(f"variable {v!r} not in the tree")
        return min(cands, key=lambda i: (depths[i], i))

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
            lines.append("  " * depth + "{" + label + "} @atom" + str(self.atom_of[n]))
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
    vars_of = {i: e for i, e in enumerate(h.edges)}
    atom_of = {i: i for i in vars_of}
    return RootedJoinTree(vars_of, atom_of, parent, root), ()


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
    if at is None:
        return t
    return t.reroot(min(n for n in t.nodes() if at in t.vars_of[n]))


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
        self.schema = {n: q.atoms[t.atom_of[n]].vars for n in self.order}
        self.symbol = {n: q.atoms[t.atom_of[n]].symbol for n in self.order}
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
    h = hypergraph_of(q)
    if join_tree(h) is None:
        return False
    return join_tree(h.with_edge(q.free_vars)) is not None


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
    kind: str  # "cyclic" | "not_free_connex" | "bad_path"
    path: tuple[str, ...] | None = None
    core: tuple[frozenset, ...] | None = None

    def to_json(self):
        out: dict = {"kind": self.kind}
        if self.path is not None:
            out["path"] = list(self.path)
        if self.core is not None:
            out["core"] = [sorted(e) for e in self.core]
        return out

    def __str__(self):
        if self.kind == "bad_path":
            return "chordless path " + "-".join(self.path)
        if self.kind == "cyclic":
            return "cyclic core " + ", ".join("{" + ",".join(sorted(e)) + "}" for e in self.core)
        return "not free-connex"


@dataclass(frozen=True)
class Verdict:
    task: Task
    tractable: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.tractable == (self.witness is not None):
            raise EngineError("witness present iff intractable")

    def to_json(self):
        return {
            "task": self.task.value,
            "tractable": self.tractable,
            "witness": self.witness.to_json() if self.witness else None,
        }

    def require(self) -> None:
        """Refuse an intractable task: raise IntractableQueryError with
        this verdict and its witness."""
        if not self.tractable:
            raise IntractableQueryError(self)

    def __str__(self):
        if self.tractable:
            return f"{self.task.value}: tractable"
        return f"{self.task.value}: intractable ({self.witness})"


def _normalize_ranking(spec) -> tuple[str, ...]:
    if isinstance(spec, MinRanking):
        return spec.xs
    if isinstance(spec, MinPredicate):
        raise EngineError("ranking task classified with a predicate spec")
    return tuple(spec)


def classify(task: Task, q: ConjunctiveQuery, spec) -> Verdict:
    """Structural verdict for one task; purely query-level, data-free.

    Tractability conditions:
      boolean                      acyclic
      ranked_enum / enum_pred /
      single_access                acyclic free-connex
      elimination / counting /
      unranked_da_pred             acyclic free-connex, and not (x0 free with a
                                   chordless >=3-path from x0 to a free MIN var)
      ranked_da                    acyclic free-connex, and no chordless
                                   >=3-path between two ranking variables

    A predicate task with spec None (no predicate) gets the structural
    verdict, without the path condition.
    """
    h = hypergraph_of(q)
    tree, core = _gyo(h)
    if tree is None:
        return Verdict(task, False, Witness("cyclic", core=core))
    if task is Task.BOOLEAN:
        return Verdict(task, True)

    tree2, core2 = _gyo(h.with_edge(q.free_vars))
    if tree2 is None:
        return Verdict(task, False, Witness("not_free_connex", core=core2))

    free = set(q.free_vars)
    if task in (Task.RANKED_ENUM, Task.SINGLE_ACCESS, Task.RANKED_DA):
        xs = _normalize_ranking(spec)
        if not set(xs) <= free:
            raise EngineError(f"{task.value}: ranking variables must be free")
        if task is Task.RANKED_DA:
            path = find_bad_path(h, xs, xs)
            if path is not None:
                return Verdict(task, False, Witness("bad_path", path=path))
        return Verdict(task, True)

    if task is Task.ENUM_PRED:
        return Verdict(task, True)

    if task in (Task.ELIMINATION, Task.COUNTING, Task.UNRANKED_DA_PRED):
        p = spec
        if p is None:
            return Verdict(task, True)
        if not isinstance(p, MinPredicate):
            raise EngineError(f"{task.value}: needs a MinPredicate spec")
        p.check_vars(q)
        if p.x0 in free:
            targets = (set(p.xs) & free) - {p.x0}
            path = find_bad_path(h, {p.x0}, targets)
            if path is not None:
                return Verdict(task, False, Witness("bad_path", path=path))
        return Verdict(task, True)

    raise EngineError(f"unknown task {task!r}")


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
