import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minjoin import (
    NEG_INF,
    POS_INF,
    StepCounter,
    count_answers,
    oracle_answers,
    parse_query,
    thresholds,
    tree_for_query,
)
from minjoin.elim import min_orders
from minjoin.errors import InternalInvariantError
from minjoin.model import W, Database, MinPredicate, Relation, disjointify
from minjoin.structure import Task, classify
from minjoin.partition import OrderTreePair, StrictPartialOrder
from minjoin.semiring import count_buckets

from conftest import rand_acyclic_query, rand_database, with_dangling_rows

STAR = "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y)."


def star_db():
    return Database(
        {
            "R0": Relation.from_ints("R0", 1, [[1], [2]]),
            "R1": Relation.from_ints("R1", 2, [[1, 0], [2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 0], [3, 0]]),
        }
    )


@given(st.builds(lambda base, rank: base * W + rank, st.integers(), st.integers(0, W - 1)))
def test_infinities_bound_every_cell(v):
    assert NEG_INF < v < POS_INF
    assert max(v, NEG_INF) == v == min(v, POS_INF)


def test_counting_aggregation_star():
    q, _, _ = parse_query(STAR)
    db = star_db()
    plan, _, cum_of = count_buckets(q, db)
    cum = cum_of[plan.root][()]
    root_vals = [b - a for a, b in zip(cum, cum[1:])]
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


def _brute_partial_answers(q, db, t, node, row):
    """The partial answers below `row` of `node`: one row per node of its
    subtree, `row` itself at `node`, agreeing on every shared variable."""
    sub = t.subtree_ids(node)
    schemas = {n: q.atoms[t.atom_of[n]].vars for n in sub}
    rel_rows = {n: db.relation(q.atoms[t.atom_of[n]].symbol).rows for n in sub}
    rel_rows[node] = [row]
    out = []
    for combo in itertools.product(*(rel_rows[n] for n in sub)):
        assignment = {}
        if all(
            assignment.setdefault(v, c) == c
            for n, r in zip(sub, combo)
            for v, c in zip(schemas[n], r)
        ):
            out.append(list(zip(sub, combo)))
    return out


def test_aggregate_matches_definitional_fold(rng):
    for _ in range(25):
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free:
            continue
        db = rand_database(rng, q, dom=5, max_rows=4)
        t = tree_for_query(q)
        xr = set(rng.sample(list(q.variables), min(2, len(q.variables))))

        def val(n, r, xr=xr):
            sch = q.atoms[t.atom_of[n]].vars
            vals = [c for v, c in zip(sch, r) if v in xr]
            return min(vals) if vals else POS_INF

        agg = thresholds(q, xr, t, db)
        for n in t.nodes():
            for row, got in agg[n].items():
                want = max(
                    (min(val(m, r) for m, r in pa) for pa in _brute_partial_answers(q, db, t, n, row)),
                    default=NEG_INF,
                )
                assert got == want, (q, n, row)


def test_count_buckets_per_row_counts_match_brute_force(rng):
    checked = 0
    while checked < 40:
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free:
            continue
        checked += 1
        db = rand_database(rng, q, dom=5, max_rows=4)
        plan, rows_of, cum_of = count_buckets(q, db, rng.choice(q.variables))
        for n in plan.order:
            counts = {}
            for key, rows in rows_of[n].items():
                cum = cum_of[n][key]
                counts.update((r, cum[i + 1] - cum[i]) for i, r in enumerate(rows))
            for row in db.relation(plan.symbol[n]).rows:
                want = len(_brute_partial_answers(q, db, plan.tree, n, row))
                # a kept row has its count; a dropped row has no partial answer below it
                assert counts.get(row, 0) == want, (q, n, row)
            assert 0 not in counts.values()


def _check_order_counts(q, db, x0, xs):
    """count_buckets with each of min_orders' pairs over the disjointified
    database, with x0 given and with no x, against brute force: a row's
    count is the number of partial answers below it that satisfy every
    pair of the order whose two variables they assign."""
    d = disjointify(db, q, [x0] + [v for v in q.variables if v != x0])
    for otp in min_orders(q, x0, xs):
        t = otp.tree
        want = {}
        for n in t.nodes():
            for row in d.relation(q.atoms[t.atom_of[n]].symbol).rows:
                got = 0
                for pa in _brute_partial_answers(q, d, t, n, row):
                    cells = {v: c for m, r in pa for v, c in zip(q.atoms[t.atom_of[m]].vars, r)}
                    got += all(cells[a] < cells[b] for a, b in otp.order.pairs if a in cells and b in cells)
                want[n, row] = got
        for x in (x0, None):
            plan, rows_of, cum_of = count_buckets(q, d, x, otp)
            counts = {}
            for n in plan.order:
                for key, rows in rows_of[n].items():
                    cum = cum_of[n][key]
                    assert len(cum) == len(rows) + 1
                    counts.update(((n, r), cum[i + 1] - cum[i]) for i, r in enumerate(rows))
            assert 0 not in counts.values()
            assert {k: v for k, v in want.items() if v} == counts, (q.to_text(), otp.order.pairs, x)


def test_count_buckets_with_order_pairs_match_brute_force(rng):
    # a bounded child (S, by x0<a) with a child of its own (T) that drops
    # S's rows with z=9: the bisect reads the w column of the kept rows
    q = parse_query("Q(x0,y,a,z,c) :- R(x0,y), S(y,a,z), T(z,c).")[0]
    rels = {
        "R": [[1, 0], [5, 0], [3, 1]],
        "S": [[0, 2, 7], [0, 3, 9], [0, 4, 7], [0, 6, 9], [0, 8, 7], [1, 4, 9]],
        "T": [[7, 0], [7, 1]],
    }
    db = Database({s: Relation.from_ints(s, len(rows[0]), rows) for s, rows in rels.items()})
    for xs in (["a"], ["a", "y"], ["a", "z"]):
        _check_order_counts(q, db, "x0", xs)
    for sym in rels:  # an empty relation: no row has a partial answer
        _check_order_counts(q, db.replace(Relation(sym, db.relation(sym).arity, ())), "x0", ["a"])
    # a disconnected body: the edge between R and S has key ()
    q = parse_query("Q(x0,a,b) :- R(x0), S(a,b).")[0]
    db = Database({"R": Relation.from_ints("R", 1, [[1], [4], [6]]),
                   "S": Relation.from_ints("S", 2, [[2, 5], [5, 0], [7, 7], [0, 3]])})
    _check_order_counts(q, db, "x0", ["a"])
    _check_order_counts(q, db, "x0", ["a", "b"])
    checked = 0
    while checked < 40:
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free or len(q.variables) < 2:
            continue
        x0, *xs = rng.sample(q.variables, rng.randint(2, min(3, len(q.variables))))
        if not classify(Task.COUNTING, q, MinPredicate(x0, tuple(xs))).tractable:
            continue
        checked += 1
        _check_order_counts(q, with_dangling_rows(rng, q, rand_database(rng, q, dom=5, max_rows=5)), x0, xs)


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
            for row, theta in ann[n].items():
                assert theta == row[col]
    # empty ranking set: every threshold that joins is +inf
    ann2 = thresholds(q, set(), t, db)
    for n in t.nodes():
        for theta in ann2[n].values():
            assert theta is POS_INF or theta is NEG_INF
    # thresholds read the body alone: a query that is not full gets the
    # thresholds of its all-free copy
    q1, _, _ = parse_query("Q(x1) :- R0(x0), R1(x1,y), R2(x2,y).")
    ann3 = thresholds(q1, {"x1", "x2"}, tree_for_query(q1), db)
    assert ann3 == ann


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
        count_buckets(q, db, counter=c)
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
