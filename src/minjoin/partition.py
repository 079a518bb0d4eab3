"""Partition "x0 is the minimum" into strict partial orders, each paired
with a join-tree rearrangement that enforces it.

An order is enforced by a tree when both sides of every emitted pair sit
in one node or in adjacent nodes; the recursive construction guarantees
this by rearranging trees to be maximally branching and reattaching each
branch through the topmost node of its candidate minimum.

That place is the pair's site (`OrderTreePair.sites`), which every
reader of an order takes from there: the nodes holding both variables,
whose rows the pair filters, or else the one edge between a node holding
a and a node holding b, which the fork rewrite forks and the count pass
bounds. The site also carries the pair's side on a tie, where a and b
hold equal cells: the pair passes it exactly when the pair is among the
order's `ties` (see `elim.min_orders`, which `classify` runs through
`elim.plan_orders`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import EngineError, InternalInvariantError
from .structure import RootedJoinTree, make_maximally_branching


@dataclass(frozen=True)
class StrictPartialOrder:
    """Strict partial order given by its covering pairs (a, b) = a < b.

    The emitted pairs always form a forest (each variable has at most one
    direct predecessor), so they are exactly the covering pairs of the
    transitive closure.
    """

    pairs: frozenset[tuple[str, str]]

    def __post_init__(self):
        succ: dict[str, set[str]] = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        seen: set[str] = set()

        def visit(v, stack):
            if v in stack:
                raise EngineError("cyclic order")
            if v in seen:
                return
            stack.add(v)
            for w in succ.get(v, ()):
                visit(w, stack)
            stack.discard(v)
            seen.add(v)

        for v in list(succ):
            visit(v, set())

    def __str__(self):
        return ", ".join(f"{a}<{b}" for a, b in sorted(self.pairs))


class Site(NamedTuple):
    """Where a tree enforces the order pair a<b: in the `nodes` that hold
    both variables, or across the one edge whose `ends` are (the node
    holding a, the node holding b). `le`: a<b holds on equal cells."""

    a: str
    b: str
    nodes: tuple[int, ...] = ()
    ends: tuple[int, int] | None = None
    le: bool = False


@dataclass(frozen=True)
class OrderTreePair:
    """An order with a tree that enforces it; `ties` holds the order's
    pairs a<b that a tie between a and b passes, and every other pair
    fails a tie."""

    order: StrictPartialOrder
    tree: RootedJoinTree
    ties: frozenset[tuple[str, str]] = frozenset()

    def sites(self, var_order: Sequence[str]) -> list[Site]:
        """The order's pairs in rewrite order, by the positions of a and
        then b in `var_order`, each at its site in the tree. Raises
        InternalInvariantError for a pair that the tree does not enforce."""
        t = self.tree
        position = {v: i for i, v in enumerate(var_order)}
        out = []
        for a, b in sorted(self.order.pairs, key=lambda ab: (position[ab[0]], position[ab[1]])):
            nodes = tuple(n for n in t.nodes() if a in t.vars_of[n] and b in t.vars_of[n])
            # else a's nodes and b's nodes are two disjoint subtrees: at
            # most one edge joins them
            ends = None if nodes else next(
                ((p, c) if a in t.vars_of[p] else (c, p)
                 for c, p in t.parent.items()
                 if p is not None and {a, b} <= t.vars_of[p] | t.vars_of[c]),
                None,
            )
            if not nodes and ends is None:
                raise InternalInvariantError(f"tree does not enforce {a}<{b}")
            out.append(Site(a, b, nodes, ends, (a, b) in self.ties))
        return out


def partition_min_orders(
    t: RootedJoinTree,
    x0: str,
    xs: Iterable[str],
    var_order: Sequence[str],
) -> list[OrderTreePair]:
    """All the ways x0 can be the strict minimum of {x0} | xs, partitioned
    into enforceable strict partial orders with their enforcing trees.

    Preconditions: x0 occurs in the root node; x0 not in xs; no chordless
    path of length >= 3 between two of the participating variables (the
    caller checks via classify). Violations surface loudly. A branch's
    variables are tried in `var_order`, the query's declaration order.
    """
    xs = list(dict.fromkeys(xs))
    if x0 in xs:
        raise EngineError("x0 must not appear in the comparison set")
    if x0 not in t.vars_of[t.root]:
        raise EngineError("x0 must occur in the root node")
    tree_vars = {v for vs in t.vars_of.values() for v in vs}
    for x in xs:
        if x not in tree_vars:
            raise EngineError(f"variable {x!r} not in the tree")
    position = {v: i for i, v in enumerate(var_order)}

    def rec(tree: RootedJoinTree, x0: str, xs: list[str]) -> list[tuple[frozenset, set]]:
        # returns [(pair set, undirected edge set over node ids)]
        tree = make_maximally_branching(tree)
        xs = [x for x in xs if x != x0]
        trunk_neighbors = set().union(*(vs for vs in tree.vars_of.values() if x0 in vs)) - {x0}
        x_trunk = [x for x in xs if x in trunk_neighbors]
        residual_set = set(xs) - trunk_neighbors

        branch_roots = []
        covered: set[str] = set()
        for r in tree.nodes():
            p = tree.parent[r]
            if p is None or x0 in tree.vars_of[r] or x0 not in tree.vars_of[p]:
                continue
            hit = residual_set & set().union(*(tree.vars_of[i] for i in tree.subtree_ids(r)))
            if hit:
                branch_roots.append((r, sorted(hit, key=position.__getitem__)))
                covered |= hit
        if covered != residual_set:
            raise InternalInvariantError(
                f"variables {sorted(residual_set - covered)} unreachable from the trunk; "
                "the no-chordless-path precondition does not hold"
            )

        trunk_pairs = frozenset((x0, x) for x in x_trunk)
        removed = set().union(*(tree.subtree_ids(r) for r, _ in branch_roots))
        trunk_edges = {e for e in tree.edges() if not (e & removed)}

        per_branch: list[list[tuple[frozenset, set]]] = []
        for r, x_r in branch_roots:
            options: list[tuple[frozenset, set]] = []
            attach = tree.parent[r]
            for x in x_r:
                top = tree.highest(x)  # within the branch by connectivity
                sub = tree.subtree(r).reroot(top)
                options += [(pairs | {(x0, x)}, edges | {frozenset((attach, top))})
                            for pairs, edges in rec(sub, x, [v for v in x_r if v != x])]
            per_branch.append(options)

        return [(trunk_pairs.union(*(ps for ps, _ in combo)), trunk_edges.union(*(es for _, es in combo)))
                for combo in itertools.product(*per_branch)]

    out: list[OrderTreePair] = []
    for pairs, edges in rec(t.copy(), x0, list(xs)):
        tree = RootedJoinTree.from_edges(t, edges, t.root)
        if not tree.satisfies_running_intersection():
            raise InternalInvariantError("rearranged tree is not a join tree; precondition violated")
        pair = OrderTreePair(StrictPartialOrder(pairs), tree)
        pair.sites(var_order)  # raises unless the tree enforces every pair
        out.append(pair)
    return out
