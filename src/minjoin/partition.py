"""Partition "x0 is the minimum" into strict partial orders, each paired
with a join-tree rearrangement that enforces it.

An order is enforced by a tree when both sides of every emitted pair sit
in one node or in adjacent nodes; the recursive construction guarantees
this by rearranging trees to be maximally branching and reattaching each
branch through the topmost node of its candidate minimum.
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

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(v for ab in self.pairs for v in ab)

    def __str__(self):
        return ", ".join(f"{a}<{b}" for a, b in sorted(self.pairs))


class Placement(NamedTuple):
    """Where an order pair sits in a tree: in `nodes`, or across `edge`."""

    nodes: tuple[int, ...] = ()
    edge: tuple[int, int] | None = None  # (parent, child)


@dataclass(frozen=True)
class OrderTreePair:
    order: StrictPartialOrder
    tree: RootedJoinTree

    def placements(self) -> dict[tuple[str, str], Placement | None]:
        """Per pair a<b: the nodes holding both variables, or else the one
        (parent, child) edge joining a node of one to a node of the other;
        None when the tree does not enforce the pair."""
        t = self.tree
        out: dict[tuple[str, str], Placement | None] = {}
        for a, b in self.order.pairs:
            nodes = tuple(n for n in t.nodes() if a in t.vars_of[n] and b in t.vars_of[n])
            if nodes:
                out[a, b] = Placement(nodes=nodes)
                continue
            # a's nodes and b's nodes are two disjoint subtrees: at most one
            # edge joins them
            out[a, b] = next(
                (
                    Placement(edge=(p, c))
                    for c, p in t.parent.items()
                    if p is not None and {a, b} <= t.vars_of[p] | t.vars_of[c]
                ),
                None,
            )
        return out

    def enforcement_holds(self) -> bool:
        """Each pair's variables share a node or sit in adjacent nodes."""
        return None not in self.placements().values()


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
        trunk_nodes = [n for n in tree.nodes() if x0 in tree.vars_of[n]]
        trunk_neighbors: set[str] = set()
        for n in trunk_nodes:
            trunk_neighbors |= tree.vars_of[n]
        trunk_neighbors.discard(x0)
        x_trunk = [x for x in xs if x in trunk_neighbors]
        residual = [x for x in xs if x not in trunk_neighbors]

        branch_roots = []
        residual_set = set(residual)
        covered: set[str] = set()
        for r in tree.nodes():
            p = tree.parent[r]
            if p is None or x0 in tree.vars_of[r] or x0 not in tree.vars_of[p]:
                continue
            sub_vars = set()
            for i in tree.subtree_ids(r):
                sub_vars |= tree.vars_of[i]
            hit = residual_set & sub_vars
            if hit:
                branch_roots.append((r, sorted(hit, key=position.__getitem__)))
                covered |= hit
        if covered != residual_set:
            raise InternalInvariantError(
                f"variables {sorted(residual_set - covered)} unreachable from the trunk; "
                "the no-chordless-path precondition does not hold"
            )

        trunk_pairs = frozenset((x0, x) for x in x_trunk)
        removed = set()
        for r, _ in branch_roots:
            removed |= set(tree.subtree_ids(r))
        trunk_edges = {
            e for e in tree.edges() if not (e & removed)
        }

        per_branch: list[list[tuple[frozenset, set]]] = []
        for r, x_r in branch_roots:
            options: list[tuple[frozenset, set]] = []
            attach = tree.parent[r]
            for x in x_r:
                top = tree.highest(x)  # within the branch by connectivity
                sub = tree.subtree(r).reroot(top)
                for pairs, edges in rec(sub, x, [v for v in x_r if v != x]):
                    options.append(
                        (pairs | {(x0, x)}, edges | {frozenset((attach, top))})
                    )
            per_branch.append(options)

        results: list[tuple[frozenset, set]] = []
        for combo in itertools.product(*per_branch):
            pairs = set(trunk_pairs)
            edges = set(trunk_edges)
            for ps, es in combo:
                pairs |= ps
                edges |= es
            results.append((frozenset(pairs), edges))
        return results

    out: list[OrderTreePair] = []
    for pairs, edges in rec(t.copy(), x0, list(xs)):
        tree = RootedJoinTree.from_edges(t, edges, t.root)
        if not tree.satisfies_running_intersection():
            raise InternalInvariantError(
                "rearranged tree is not a join tree; precondition violated"
            )
        pair = OrderTreePair(StrictPartialOrder(pairs), tree)
        if not pair.enforcement_holds():
            raise InternalInvariantError("constructed tree does not enforce its order")
        out.append(pair)
    return out
