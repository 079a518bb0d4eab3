import itertools

import pytest

from minjoin import (
    EngineError,
    LexDA,
    Task,
    classify,
    count_answers,
    eliminate_enforced_order,
    MinPredicate,
    parse_query,
    partition_min_orders,
    tree_for_query,
)
from minjoin.errors import InternalInvariantError
from minjoin.model import ConjunctiveQuery, Database, Relation, remove_self_joins
from minjoin.partition import OrderTreePair, Site, StrictPartialOrder
from minjoin.structure import RootedJoinTree

from conftest import EDGE_QUERIES, enforced_by, extended_by, rand_acyclic_query, rand_database


def _root_at(t, var):
    return t.reroot(min(n for n in t.nodes() if var in t.vars_of[n]))


def _check_partition(pairs, x0, xs):
    """Every total order with x0 minimum extends exactly one returned order;
    no returned order extends to one with x0 not minimum."""
    xs = list(xs)
    for perm in itertools.permutations([x0] + xs):
        matches = [p for p in pairs if extended_by(p.order, perm)]
        if perm[0] == x0:
            assert len(matches) == 1, (perm, [str(p.order) for p in pairs])
        else:
            assert not matches, (perm, [str(p.order) for p in pairs])


def test_partition_star_two_total_orders():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    t = _root_at(tree_for_query(q), "x0")
    pairs = partition_min_orders(t, "x0", ["x1", "x2"], var_order=q.variables)
    assert len(pairs) == 2
    orders = {str(p.order) for p in pairs}
    assert orders == {"x0<x1, x1<x2", "x0<x2, x2<x1"}
    _check_partition(pairs, "x0", ["x1", "x2"])


def test_partition_trunk_only_base_case():
    q, _, _ = parse_query("Q(x0,x1,x2) :- R(x0,x1,x2).")
    t = _root_at(tree_for_query(q), "x0")
    pairs = partition_min_orders(t, "x0", ["x1", "x2"], var_order=q.variables)
    assert len(pairs) == 1
    assert pairs[0].order.pairs == frozenset({("x0", "x1"), ("x0", "x2")})


def test_partition_example_four_pairs():
    # trunk vars x1,x2 in the root; a hoistable node carrying x3; two
    # two-candidate branches (x4,x5) and (x6,x7)
    q, _, _ = parse_query(
        "Q(x0,x1,x2,x3,x4,x5,x6,x7,y1,y5,z1,w1) :- "
        "Root(x0,x1,x2,y1), A(y1,y5), B(y1,x3), C1(z1,x4), C2(z1,x5), D1(w1,x6), D2(w1,x7)."
    )
    t = tree_for_query(q)
    by_vars = {frozenset(q.atoms[n].vars): n for n in t.nodes()}
    root = by_vars[frozenset({"x0", "x1", "x2", "y1"})]
    # shape the initial tree explicitly: Root-A-B chain, Root-C1-C2, Root-D1-D2
    parent = {
        root: None,
        by_vars[frozenset({"y1", "y5"})]: root,
        by_vars[frozenset({"y1", "x3"})]: by_vars[frozenset({"y1", "y5"})],
        by_vars[frozenset({"z1", "x4"})]: root,
        by_vars[frozenset({"z1", "x5"})]: by_vars[frozenset({"z1", "x4"})],
        by_vars[frozenset({"w1", "x6"})]: root,
        by_vars[frozenset({"w1", "x7"})]: by_vars[frozenset({"w1", "x6"})],
    }
    t = RootedJoinTree(t.vars_of, parent, root)
    assert t.satisfies_running_intersection()
    xs = [f"x{i}" for i in range(1, 8)]
    pairs = partition_min_orders(t, "x0", xs, var_order=q.variables)
    assert len(pairs) == 4
    for p in pairs:
        assert p.tree.satisfies_running_intersection()
        assert enforced_by(p.order, p.tree)
        # the hoisted x3 neighbours the trunk in every output tree
        assert ("x0", "x3") in p.order.pairs
    _check_partition(pairs, "x0", xs)


def test_partition_deep_branch_rearranges():
    # branch chain C1{z,x4} - C2{z,x5}: the x5-minimum case must rehang the
    # branch from the x5 node
    q, _, _ = parse_query("Q(x0,z,x4,x5) :- R(x0), C1(z,x4), C2(z,x5).")
    t = _root_at(tree_for_query(q), "x0")
    pairs = partition_min_orders(t, "x0", ["x4", "x5"], var_order=q.variables)
    assert len(pairs) == 2
    _check_partition(pairs, "x0", ["x4", "x5"])
    for p in pairs:
        assert p.tree.satisfies_running_intersection() and enforced_by(p.order, p.tree)


def test_partition_preserves_node_multiset(rng):
    done = 0
    while done < 50:
        q = rand_acyclic_query(rng, max_atoms=5, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        x0 = vars_[0]
        xs = [v for v in vars_[1:]][:3]
        if not xs:
            continue
        p = MinPredicate(x0, tuple(xs))
        if not classify(Task.ELIMINATION, q, p).tractable:
            continue
        t = _root_at(tree_for_query(q), x0)
        pairs = partition_min_orders(t, x0, xs, var_order=q.variables)
        assert len(pairs) >= 1
        for otp in pairs:
            assert sorted(otp.tree.nodes()) == sorted(t.nodes())
            assert otp.tree.root == t.root
            assert otp.tree.satisfies_running_intersection()
            assert enforced_by(otp.order, otp.tree)
        _check_partition(pairs, x0, xs)
        done += 1


def test_partition_count_is_data_independent():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    t = _root_at(tree_for_query(q), "x0")
    a = partition_min_orders(t, "x0", ["x1", "x2"], var_order=q.variables)
    b = partition_min_orders(t, "x0", ["x1", "x2"], var_order=q.variables)
    assert [str(p.order) for p in a] == [str(p.order) for p in b]


def test_partition_requires_x0_in_root():
    q, _, _ = parse_query("Q(x0,x1,y) :- R0(x0), R1(x1,y).")
    t = _root_at(tree_for_query(q), "x1")
    with pytest.raises(EngineError):
        partition_min_orders(t, "x0", ["x1"], var_order=q.variables)


def _cross_edge_pairs(q, otp):
    """Check the shape the counting pass relies on and return the number
    of pairs across an edge: a pair whose variables share no node crosses
    exactly one tree edge, with a in the parent and b in the child, and
    no edge carries two pairs."""
    t = otp.tree
    sites = {(s.a, s.b): s for s in otp.sites(q.variables)}
    carried = []
    for a, b in otp.order.pairs:
        if any({a, b} <= t.vars_of[n] for n in t.nodes()):
            continue
        down = [(p, c) for c, p in t.parent.items() if p is not None and a in t.vars_of[p] and b in t.vars_of[c]]
        up = [(p, c) for c, p in t.parent.items() if p is not None and b in t.vars_of[p] and a in t.vars_of[c]]
        assert len(down) == 1 and not up, (str(otp.order), a, b)
        assert sites[a, b] == Site(a, b, ends=down[0])
        carried += down
    assert len(carried) == len(set(carried)), str(otp.order)
    return len(carried)


def _partitions(q, rng, tries):
    """partition_min_orders outputs for random (x0, xs) choices that the
    classifier calls tractable."""
    for _ in range(tries):
        x0 = rng.choice(q.variables)
        xs = rng.sample(q.variables, rng.randint(1, len(q.variables)))
        xs = [x for x in xs if x != x0]
        if not xs or not classify(Task.ELIMINATION, q, MinPredicate(x0, tuple(xs))).tractable:
            continue
        t = tree_for_query(q, at=x0)
        try:
            yield partition_min_orders(t, x0, xs, var_order=q.variables)
        except InternalInvariantError:
            # known open defect: a disconnected body can fail the rebuild
            if all(t.vars_of[n] & t.vars_of[p] for n, p in t.parent.items() if p is not None):
                raise


def test_partition_cross_edge_pairs_point_down(rng):
    crossing = parts = 0
    for _ in range(300):
        q = rand_acyclic_query(rng, max_atoms=7, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        for otps in _partitions(q, rng, 3):
            for otp in otps:
                crossing += _cross_edge_pairs(q, otp)
                parts += 1
    for text in EDGE_QUERIES:
        q = parse_query(text)[0]
        if q.is_boolean:
            continue
        q = ConjunctiveQuery(q.atoms, q.variables, q.name)
        q, _ = remove_self_joins(q, rand_database(rng, q))
        for otps in _partitions(q, rng, 6):
            for otp in otps:
                crossing += _cross_edge_pairs(q, otp)
                parts += 1
    assert parts >= 1000 and crossing >= 2000, (parts, crossing)


def test_every_reader_refuses_an_order_its_tree_does_not_enforce():
    # x0 and x1 share no node and no edge of the path R0 - R1 - R2
    q, _, _ = parse_query("Q(x0,y,z,x1) :- R0(x0,y), R1(y,z), R2(z,x1).")
    db = Database({a.symbol: Relation.from_ints(a.symbol, 2, [[0, 1], [1, 2]]) for a in q.atoms})
    otp = OrderTreePair(StrictPartialOrder(frozenset({("x0", "x1")})), tree_for_query(q, at="x0"))
    readers = [
        lambda: otp.sites(q.variables),
        lambda: count_answers(q, db, otp),
        lambda: LexDA(q, db, "x0", otp),
        lambda: eliminate_enforced_order(q, db, otp),
    ]
    for read in readers:
        with pytest.raises(InternalInvariantError, match="x0<x1"):
            read()
