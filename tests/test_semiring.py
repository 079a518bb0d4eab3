import itertools
import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minjoin import (
    COUNTING,
    MAX_MIN,
    NEG_INF,
    POS_INF,
    Semiring,
    SemiringLawError,
    StepCounter,
    TaggedValue,
    aggregate_bottom_up,
    check_semiring_laws,
    count_answers,
    oracle_answers,
    parse_query,
    thresholds,
    tree_for_query,
)
from minjoin.errors import InternalInvariantError
from minjoin.model import Database, Relation
from minjoin.partition import OrderTreePair, StrictPartialOrder

from conftest import rand_acyclic_query, rand_database

STAR = "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y)."


def star_db():
    return Database(
        {
            "R0": Relation.from_ints("R0", 1, [[1], [2]]),
            "R1": Relation.from_ints("R1", 2, [[1, 0], [2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 0], [3, 0]]),
        }
    )


def test_semiring_laws_hold_for_instances():
    check_semiring_laws(COUNTING, [0, 1, 2, 5, 9])
    vals = [TaggedValue(i, 0) for i in (-3, 0, 2, 7)]
    check_semiring_laws(MAX_MIN, vals)


@given(st.builds(TaggedValue, st.integers(), st.integers(min_value=0)))
def test_infinities_bound_every_cell(v):
    assert NEG_INF < v < POS_INF
    assert MAX_MIN.plus(v, NEG_INF) == v == MAX_MIN.times(v, POS_INF)


def test_semiring_law_checker_catches_breakage():
    broken = Semiring("broken", operator.add, operator.sub, 0, 0)
    with pytest.raises(SemiringLawError):
        check_semiring_laws(broken, [1, 2, 3])


def test_counting_aggregation_star():
    q, _, _ = parse_query(STAR)
    db = star_db()
    t = tree_for_query(q)
    ann = aggregate_bottom_up(q, db, t, lambda n, r: 1, COUNTING)
    root_vals = ann.values_of[t.root]
    # every root tuple co-joins with 2*2 combinations
    assert sorted(root_vals) == [4, 4] or sum(root_vals) == 8
    assert count_answers(q, db) == 8
    assert count_answers(q, db) == len(oracle_answers(q, db))


def test_counting_empty_relation_gives_zero():
    q, _, _ = parse_query(STAR)
    db = star_db().replace(Relation("R1", 2, ()))
    assert count_answers(q, db) == 0


def test_counting_single_atom():
    q, _, _ = parse_query("Q(x) :- R(x).")
    db = Database({"R": Relation.from_ints("R", 1, [[i] for i in range(5)])})
    assert count_answers(q, db) == 5


def _brute_subtree_agg(q, db, t, val, s, node, row):
    """Definitional double fold over the partial answers below `row`."""
    sub = t.subtree_ids(node)
    schemas = {n: (q.atoms[t.atom_of[n]].vars if t.atom_of[n] is not None else tuple(sorted(t.vars_of[n]))) for n in sub}
    rel_rows = {}
    for n in sub:
        if t.atom_of[n] is not None:
            rel_rows[n] = db.relation(q.atoms[t.atom_of[n]].symbol).rows
    order = [n for n in sub if n in rel_rows]
    total = s.zero
    for combo in itertools.product(*(rel_rows[n] for n in order)):
        assignment = {}
        ok = True
        for n, r in zip(order, combo):
            for v, c in zip(schemas[n], r):
                if assignment.setdefault(v, c) != c:
                    ok = False
                    break
            if not ok:
                break
        if not ok or dict(zip(schemas[node], row)) != {
            v: assignment[v] for v in schemas[node]
        }:
            continue
        prod = s.one
        for n, r in zip(order, combo):
            prod = s.times(prod, val(n, r))
        total = s.plus(total, prod)
    return total


@pytest.mark.parametrize("which", ["counting", "maxmin"])
def test_aggregate_matches_definitional_fold(rng, which):
    for _ in range(25):
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free:
            continue
        db = rand_database(rng, q, dom=5, max_rows=4)
        t = tree_for_query(q)
        if which == "counting":
            s, val = COUNTING, lambda n, r: 1
        else:
            s = MAX_MIN
            xr = set(rng.sample(list(q.variables), min(2, len(q.variables))))

            def val(n, r, xr=xr):
                sch = q.atoms[t.atom_of[n]].vars
                vals = [c for v, c in zip(sch, r) if v in xr]
                return min(vals) if vals else POS_INF

        ann = aggregate_bottom_up(q, db, t, val, s)
        for n in t.nodes():
            for row, got in zip(ann.rows_of[n], ann.values_of[n]):
                want = _brute_subtree_agg(q, db, t, val, s, n, row)
                assert got == want, (q, n, row)


def test_thresholds_examples():
    q, _, _ = parse_query(STAR)
    db = star_db()
    t = tree_for_query(q)
    ann = thresholds(q, {"x1", "x2"}, t, db)
    # leaf tuple carrying x1=1: threshold is its own value
    for n in t.nodes():
        sch = q.atoms[t.atom_of[n]].vars
        if "x1" in sch and len(t.children()[n]) == 0:
            col = sch.index("x1")
            for row, theta in zip(ann.rows_of[n], ann.values_of[n]):
                assert theta == row[col]
    # empty ranking set: every threshold that joins is +inf
    ann2 = thresholds(q, set(), t, db)
    for n in t.nodes():
        for theta in ann2.values_of[n]:
            assert theta is POS_INF or theta is NEG_INF
    # thresholds read the body alone: a query that is not full gets the
    # thresholds of its all-free copy
    q1, _, _ = parse_query("Q(x1) :- R0(x0), R1(x1,y), R2(x2,y).")
    ann3 = thresholds(q1, {"x1", "x2"}, tree_for_query(q1), db)
    assert ann3.rows_of == ann.rows_of and ann3.values_of == ann.values_of


def test_aggregate_step_counter_linear():
    q, _, _ = parse_query(STAR)
    sizes = []
    for scale in (50, 100, 200, 400):
        db = Database(
            {
                "R0": Relation.from_ints("R0", 1, [[i] for i in range(scale)]),
                "R1": Relation.from_ints("R1", 2, [[i, i % 20] for i in range(scale)]),
                "R2": Relation.from_ints("R2", 2, [[i, i % 20] for i in range(scale)]),
            }
        )
        c = StepCounter()
        aggregate_bottom_up(q, db, tree_for_query(q), lambda n, r: 1, COUNTING, counter=c)
        sizes.append((db.size, c.steps))
    for (n1, s1), (n2, s2) in zip(sizes, sizes[1:]):
        assert n2 == 2 * n1 and s2 / s1 <= 2.3


@pytest.mark.parametrize(
    "text, pairs",
    [
        ("Q(a,b,c) :- R(a,b), S(b,c).", {("c", "a")}),  # smaller variable in the child
        ("Q(a,b,c,d,e) :- R(a,b,e), S(e,c,d).", {("a", "c"), ("b", "d")}),  # two pairs on one edge
        ("Q(a,c,e,f) :- R(a,e), S(e,f), T(f,c).", {("a", "c")}),  # not adjacent
    ],
)
def test_count_with_order_refuses_other_pair_shapes(text, pairs):
    q = parse_query(text)[0]
    db = Database({a.symbol: Relation.from_ints(a.symbol, a.arity, [list(range(a.arity))]) for a in q.atoms})
    otp = OrderTreePair(StrictPartialOrder(frozenset(pairs)), tree_for_query(q, at="a"))
    with pytest.raises(InternalInvariantError):
        count_answers(q, db, otp)
