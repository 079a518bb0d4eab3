import pytest

from minjoin import (
    IntractableQueryError,
    LexDA,
    MinPredicate,
    MinRanking,
    OutOfBoundsError,
    StepCounter,
    Task,
    UnsupportedPredicateError,
    build_min_da,
    build_unranked_da_pred,
    classify,
    count_via_access,
    count_with_predicate,
    disjointify,
    eliminate_enforced_order,
    enumerate_ranked_min,
    enumerate_with_predicate,
    is_nonempty,
    min_predicate_orders,
    oracle_answers,
    oracle_sorted,
    parse_query,
    remove_self_joins,
    single_access,
)
from minjoin.elim import fork_tree, min_orders
from minjoin.model import Database, Relation

from conftest import (
    edge_instances,
    rand_acyclic_query,
    rand_database,
    rand_predicate,
    with_dangling_rows,
)


def _star():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    db = Database(
        {
            "R0": Relation.from_ints("R0", 1, [[1], [2]]),
            "R1": Relation.from_ints("R1", 2, [[1, 0], [2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 0], [3, 0]]),
        }
    )
    return q, db


# -- LexDA --------------------------------------------------------------------


def test_lex_da_single_relation_sorted():
    q, _, _ = parse_query("Q(x) :- R(x).")
    db = Database({"R": Relation.from_ints("R", 1, [[5], [1], [3]])})
    da = LexDA(q, db, "x")
    assert da.total == 3
    got = [da.access(k)["x"].base for k in range(3)]
    assert got == [1, 3, 5]


def test_lex_da_join_first_answer_minimal():
    q, db = _star()
    da = LexDA(q, db, "x1")
    a0 = da.access(0)
    assert a0["x1"].base == 1


def test_lex_da_empty_total_zero():
    q, _, _ = parse_query("Q(x) :- R(x).")
    da = LexDA(q, Database({"R": Relation("R", 1, ())}), "x")
    assert da.total == 0
    with pytest.raises(OutOfBoundsError):
        da.access(0)


def _check_lex_da(q, db):
    x = q.variables[0]
    da = LexDA(q, db, x)
    want = oracle_answers(q, db)
    assert da.total == len(want), q.to_text()
    got = [da.access(k) for k in range(da.total)]
    assert set(got) == want, q.to_text()
    xs_vals = [m[x] for m in got]
    assert xs_vals == sorted(xs_vals)


def test_lex_da_full_sweep_matches_oracle(rng):
    done = 0
    while done < 40:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        _check_lex_da(q, rand_database(rng, q, dom=5, max_rows=6))
        done += 1
    for q, db in edge_instances(rng, full=True):
        if q.is_self_join_free:
            _check_lex_da(q, db)


def test_access_sequences_pinned_with_ties():
    # the documented tie orders, position by position, on a star with
    # repeated y values and repeated minima; tuples follow (x0, x1, x2, y)
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    db = Database(
        {
            "R0": Relation.from_ints("R0", 1, [[2], [1]]),
            "R1": Relation.from_ints("R1", 2, [[2, 0], [1, 0], [1, 1]]),
            "R2": Relation.from_ints("R2", 2, [[1, 0], [2, 0], [3, 1]]),
        }
    )

    def seq(da):
        return [tuple(da.access(k)[v].base for v in q.variables) for k in range(da.total)]

    assert seq(LexDA(q, db, "y")) == [
        (1, 1, 1, 0), (1, 1, 2, 0), (2, 1, 1, 0), (2, 1, 2, 0), (1, 2, 1, 0),
        (1, 2, 2, 0), (2, 2, 1, 0), (2, 2, 2, 0), (1, 1, 3, 1), (2, 1, 3, 1),
    ]
    assert seq(LexDA(q, db, "x1")) == [
        (1, 1, 1, 0), (1, 1, 2, 0), (2, 1, 1, 0), (2, 1, 2, 0), (1, 1, 3, 1),
        (2, 1, 3, 1), (1, 2, 1, 0), (1, 2, 2, 0), (2, 2, 1, 0), (2, 2, 2, 0),
    ]
    assert seq(build_min_da(q, ("x0", "x1", "x2"), db)) == [
        (1, 2, 2, 0), (1, 1, 2, 0), (1, 1, 1, 0), (1, 1, 3, 1), (1, 2, 1, 0),
        (2, 1, 2, 0), (2, 1, 1, 0), (2, 1, 3, 1), (2, 2, 1, 0), (2, 2, 2, 0),
    ]
    assert seq(build_unranked_da_pred(q, MinPredicate("x0", ("x1", "x2")), db)) == [
        (1, 2, 2, 0), (1, 1, 2, 0), (1, 1, 1, 0), (1, 1, 3, 1), (2, 2, 2, 0), (1, 2, 1, 0),
    ]


# -- LexDA with an enforced order ---------------------------------------------


def _tally():
    return dict.fromkeys(("parts", "other tree", "b in the parent", "rows not in b order"), 0)


def _check_against_forked_part(q, db, x, otp, seen):
    """LexDA that enforces otp's order returns, for every k, the answer
    that LexDA over the fork rewrite's part returns."""
    forked = LexDA(*eliminate_enforced_order(q, db, otp, "_f"), x)
    direct = LexDA(q, db, x, otp)
    assert direct.total == forked.total, (q.to_text(), x, str(otp.order))
    for k in range(forked.total):
        want = forked.access(k)
        assert direct.access(k) == want.project(q.variables), (q.to_text(), x, str(otp.order), k)
    seen["parts"] += 1
    seen["other tree"] += fork_tree(q, otp, x).edges() != otp.tree.edges()
    for _, up, runs in (f for fs in direct._fenced.values() for f in fs):
        seen["b in the parent"] += not up
        seen["rows not in b order"] += runs is not None


def _check_ranked_parts(q, xs, db, seen):
    q1, d1 = remove_self_joins(q, db)
    d2 = disjointify(d1, q1, q1.variables)
    for x in xs:
        for otp in min_orders(q1, x, [v for v in xs if v != x]):
            _check_against_forked_part(q1, d2, x, otp, seen)


def _check_predicate_parts(q, p, db, seen):
    # every variable as the sort variable, so that b's side of an edge
    # also lands in the parent
    try:
        q2, d, otps = min_predicate_orders(q, p, db)
    except UnsupportedPredicateError:
        return
    for otp in otps or ():
        for x in q2.variables:
            _check_against_forked_part(q2, d, x, otp, seen)


def test_lexda_with_order_matches_forked_part(rng):
    seen = _tally()
    done = 0
    while done < 60:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        xs = tuple(rng.sample(q.variables, rng.randint(1, min(4, len(q.variables)))))
        if not classify(Task.RANKED_DA, q, xs).tractable:
            continue
        db = with_dangling_rows(rng, q, rand_database(rng, q, dom=8, max_rows=8))
        _check_ranked_parts(q, xs, db, seen)
        p = rand_predicate(rng, q)
        if classify(Task.UNRANKED_DA_PRED, q, p).tractable:
            _check_predicate_parts(q, p, db, seen)
        done += 1
    for q, db in edge_instances(rng, full=True):
        if classify(Task.RANKED_DA, q, q.variables).tractable:
            _check_ranked_parts(q, q.variables, db, seen)
        p = rand_predicate(rng, q)
        if classify(Task.UNRANKED_DA_PRED, q, p).tractable:
            _check_predicate_parts(q, p, db, seen)
    # b behind a column outside the join key: row order is not b order
    q, _, _ = parse_query("Q(x0,z,x1,y) :- R0(x0,y), R1(z,x1,y).")
    shape = _tally()
    for _ in range(5):
        _check_ranked_parts(q, ("x0", "x1"), rand_database(rng, q, dom=6, max_rows=12), shape)
    assert shape["rows not in b order"] == 5
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("dangling", [False, True])
def test_lexda_with_order_keeps_the_tie_order_of_rows_that_join_nothing(dangling):
    # the S row (9,1) joins no R row but enters the fork domain of x<z,
    # which moves the order of (2,0,3) and (2,0,5)
    q, _, _ = parse_query("Q(x,y,z) :- R(x,y), S(y,z).")
    s_rows = [[0, 3], [0, 5], [1, 0], [1, 3], [1, 5]] + [[9, 1]] * dangling
    db = Database(
        {
            "R": Relation.from_ints("R", 2, [[0, 1], [1, 1], [2, 0]]),
            "S": Relation.from_ints("S", 2, s_rows),
        }
    )
    seen = _tally()
    _check_ranked_parts(q, ("x", "z"), db, seen)
    assert seen["parts"] == 2
    ix = build_min_da(q, ("x", "z"), db)
    at = [tuple(ix.access(k)[v].base for v in "xyz") for k in (6, 7)]
    assert at == ([(2, 0, 5), (2, 0, 3)] if dangling else [(2, 0, 3), (2, 0, 5)])


def test_build_min_da_needs_no_fork_rewrite(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("direct access called the fork rewrite")

    monkeypatch.setattr("minjoin.elim.eliminate_enforced_order", broken)
    q, db = _star()
    ix = build_min_da(q, ("x0", "x1", "x2"), db)
    assert {ix.access(k) for k in range(ix.total)} == oracle_answers(q, db)
    p = MinPredicate("x0", ("x1", "x2"))
    da = build_unranked_da_pred(q, p, db)
    assert {da.access(k) for k in range(da.total)} == oracle_answers(q, db, predicate=p)


def test_order_by_max_in_the_library(rng):
    # a MinRanking is served as it says; its MAX answers carry the data's
    # own values, in oracle_sorted's MAX order of keys
    checked = 0
    while checked < 25:
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        r = MinRanking(tuple(q.variables[: rng.randint(1, min(3, len(q.variables)))]), maximize=True)
        if not classify(Task.RANKED_DA, q, r).tractable:
            continue
        db = rand_database(rng, q, dom=6, max_rows=6)
        want = oracle_sorted(oracle_answers(q, db), r.xs, maximize=True)
        ix = build_min_da(q, r, db)
        for got in ([ix.access(k) for k in range(ix.total)], enumerate_ranked_min(q, r, db).drain()):
            assert len(got) == len(want) and set(got) == set(want), q.to_text()
            assert [r.key(a) for a in got] == [r.key(a) for a in want], q.to_text()
        checked += 1
    # the README's call, and a bare tuple of names, which means MIN
    q, _, r = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\nORDER BY MAX(x0,x1,x2).\n")
    _, db = _star()
    for ranking, top in ((r, [3, 3, 3, 3, 2, 2, 2, 2]), (r.xs, [1, 1, 1, 1, 1, 1, 2, 2])):
        ix = build_min_da(q, ranking, db)
        assert [(max if ranking is r else min)(ix.access(k)[x].base for x in r.xs) for k in range(8)] == top


# -- MinDA --------------------------------------------------------------------


def test_min_da_star_partition_shape():
    q, db = _star()
    ix = build_min_da(q, ("x0", "x1", "x2"), db)
    # the x0 case splits into two parts; x1 and x2 give one each
    assert len(ix.part_info) == 4
    by_min_var = {}
    for _, _, _, mv in ix.part_info:
        by_min_var[mv] = by_min_var.get(mv, 0) + 1
    assert by_min_var == {"x0": 2, "x1": 1, "x2": 1}
    assert ix.total == len(oracle_answers(q, db))


def test_min_da_entries_sorted_and_prefix_consistent():
    q, db = _star()
    ix = build_min_da(q, ("x0", "x1", "x2"), db)
    keys = [(e.min_val, e.qid) for e in ix.entries]
    assert keys == sorted(keys)
    running = 0
    for e in ix.entries:
        assert e.smaller_total == running
        running += e.count
    assert running == ix.total


def test_min_da_singleton_ranking_degenerates():
    q, db = _star()
    ix = build_min_da(q, ("x1",), db)
    assert len(ix.part_info) == 1
    vals = [ix.access(k)["x1"].base for k in range(ix.total)]
    assert vals == sorted(vals)


def _check_min_da(q, xs, db):
    ix = build_min_da(q, xs, db)
    want = oracle_answers(q, db)
    assert ix.total == len(want), q.to_text()
    seq = [ix.access(k) for k in range(ix.total)]
    assert set(seq) == want and len(set(seq)) == len(seq)
    mins = [min(a[x] for x in xs) for a in seq]
    assert mins == sorted(mins)
    if ix.total:
        again = ix.access(0)
        assert again == seq[0]  # idempotent reads


def test_min_da_access_order_and_bijection(rng):
    done = 0
    while done < 30:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=True)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        xs = tuple(vars_[: rng.randint(1, min(3, len(vars_)))])
        if not classify(Task.RANKED_DA, q, xs).tractable:
            continue
        _check_min_da(q, xs, rand_database(rng, q, dom=6, max_rows=6))
        done += 1
    for q, db in edge_instances(rng, full=True):
        xs = tuple(q.variables[: rng.randint(1, len(q.variables))])
        if classify(Task.RANKED_DA, q, xs).tractable:
            _check_min_da(q, xs, db)


def test_min_da_out_of_bounds_and_probe_budget(rng):
    q, db = _star()
    ix = build_min_da(q, ("x0", "x1", "x2"), db)
    with pytest.raises(OutOfBoundsError):
        ix.access(ix.total)
    probes = StepCounter()
    n = count_via_access(ix, probes)
    assert n == ix.total
    budget = 2 * max(1, (max(ix.total, 1) - 1).bit_length()) + 2
    assert probes.steps <= budget + 1


def test_min_da_rejects_intractable():
    q, _, _ = parse_query("Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).")
    db = Database(
        {s: Relation.from_ints(s, 2, [[0, 0]]) for s in ("R0", "R1", "R2", "R3")}
    )
    with pytest.raises(IntractableQueryError):
        build_min_da(q, ("x0", "x1"), db)


def test_single_access_matches_index():
    q, db = _star()
    ix = build_min_da(q, ("x0", "x1"), db)
    for k in (0, ix.total - 1):
        assert single_access(q, ("x0", "x1"), db, k) == ix.access(k)
    with pytest.raises(OutOfBoundsError):
        single_access(q, ("x0", "x1"), db, ix.total)


# -- count_via_access ---------------------------------------------------------


class _FakeDA:
    def __init__(self, total):
        self.total = total

    def access(self, k):
        if 0 <= k < self.total:
            return k
        raise OutOfBoundsError(str(k))


@pytest.mark.parametrize("total", [0, 1, 2, 3, 5, 8, 17, 64, 100, 1000])
def test_count_via_access_probe_bound(total):
    probes = StepCounter()
    assert count_via_access(_FakeDA(total), probes) == total
    if total == 0:
        assert probes.steps == 1
    else:
        budget = 2 * max(1, (max(total - 1, 1)).bit_length()) + 2
        assert probes.steps <= budget


# -- unranked DA with predicate / counting / boolean --------------------------


def test_unranked_da_pred_covers_filtered_answers():
    q, db = _star()
    p = MinPredicate("x0", ("x1", "x2"))
    da = build_unranked_da_pred(q, p, db)
    want = oracle_answers(q, db, predicate=p)
    got = [da.access(k) for k in range(da.total)]
    assert set(got) == want and len(set(got)) == da.total == 6
    with pytest.raises(OutOfBoundsError):
        da.access(6)


def test_count_with_predicate_examples():
    q, db = _star()
    assert count_with_predicate(q, MinPredicate("x0", ("x1", "x2")), db) == 6
    assert count_with_predicate(q, MinPredicate("x0", ("x0",)), db) == 8
    empty = Database({s: Relation(s, r.arity, ()) for s, r in db.relations.items()})
    assert count_with_predicate(q, MinPredicate("x0", ("x1", "x2")), empty) == 0


def test_count_with_predicate_needs_no_fork_rewrite(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("counting called the fork rewrite")

    monkeypatch.setattr("minjoin.elim.eliminate_enforced_order", broken)
    q, db = _star()
    for p in (
        MinPredicate("x0", ("x1", "x2")),
        MinPredicate("x0", ("x1", "x2"), strict=True),
        MinPredicate("x1", ("x0", "x2")),
    ):
        assert count_with_predicate(q, p, db) == len(oracle_answers(q, db, predicate=p))


def test_count_with_predicate_calls_no_aggregate_bottom_up(monkeypatch, rng):
    # counting reads the count pass alone; on a full query no existential
    # inequality is folded, so nothing calls thresholds either
    def broken(*args, **kwargs):
        raise AssertionError("counting called thresholds")

    monkeypatch.setattr("minjoin.semiring.thresholds", broken)
    monkeypatch.setattr("minjoin.reduce.thresholds", broken)

    def check(q, p, db):
        if not classify(Task.COUNTING, q, p).tractable:
            return False
        want = len(oracle_answers(q, db, predicate=p))
        assert count_with_predicate(q, p, db) == want, (q.to_text(), str(p))
        return True

    checked = strict = 0
    while checked < 80:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=True)
        p = rand_predicate(rng, q)
        if check(q, p, rand_database(rng, q, dom=5, max_rows=6)):
            checked += 1
            strict += p.strict
    edges = 0
    for q, db in edge_instances(rng, full=True):
        for p in (rand_predicate(rng, q), None):
            edges += check(q, p, db)
    assert strict >= 10 and edges >= 20, (strict, edges)


def test_is_nonempty_cases():
    q, db = _star()
    p = MinPredicate("x0", ("x1", "x2"))
    assert is_nonempty(q, p, db)
    empty = db.replace(Relation("R1", 2, ()))
    assert not is_nonempty(q, p, empty)
    # strict variant excludes the tie-only situation
    tie = Database(
        {
            "R0": Relation.from_ints("R0", 1, [[2]]),
            "R1": Relation.from_ints("R1", 2, [[2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[5, 0]]),
        }
    )
    assert is_nonempty(q, p, tie)
    assert not is_nonempty(q, MinPredicate("x0", ("x1", "x2"), strict=True), tie)


def test_is_nonempty_works_on_non_free_connex_acyclic():
    q, _, _ = parse_query("Q(x,z) :- R(x,y), S(y,z).")
    p = MinPredicate("x", ("z",))
    db = Database(
        {
            "R": Relation.from_ints("R", 2, [[4, 1]]),
            "S": Relation.from_ints("S", 2, [[1, 3]]),
        }
    )
    assert not is_nonempty(q, p, db)
    db2 = db.replace(Relation.from_ints("S", 2, [[1, 4]]))
    assert is_nonempty(q, p, db2)


def test_is_nonempty_random_agrees_with_oracle(rng):
    done = 0
    while done < 60:
        q = rand_acyclic_query(rng, max_atoms=4, full=False)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        x0 = rng.choice(vars_)
        xs = tuple(rng.sample(vars_, min(2, len(vars_))))
        p = MinPredicate(x0, xs)
        db = rand_database(rng, q, dom=5, max_rows=5)
        for pred in (p, None):
            want = bool(oracle_answers(q, db, predicate=pred))
            assert is_nonempty(q, pred, db) == want, (q.to_text(), str(pred))
        done += 1
    for q, db in edge_instances(rng):
        for pred in (rand_predicate(rng, q), None):
            want = bool(oracle_answers(q, db, predicate=pred))
            assert is_nonempty(q, pred, db) == want, (q.to_text(), str(pred))


@pytest.mark.parametrize("shift", [-(2**62), 2**62])
def test_values_at_64_bit_scale_agree_with_oracle(rng, shift):
    # a cell of base +-2^62 is base * W + rank, far beyond 64 bits: every
    # order, fold and answer must still be the oracle's
    counted = ranked = 0
    while counted < 30 or ranked < 30:
        q = rand_acyclic_query(rng, max_atoms=4)
        db = rand_database(rng, q, dom=5, max_rows=6, base_shift=shift)
        p = rand_predicate(rng, q)
        want = oracle_answers(q, db, predicate=p)
        assert all(abs(v.base) >= 2**62 - 5 for a in want for v in a.assignment.values())
        if classify(Task.COUNTING, q, p).tractable and classify(Task.ENUM_PRED, q, p).tractable:
            try:
                assert count_with_predicate(q, p, db) == len(want), (q.to_text(), str(p))
                got = enumerate_with_predicate(q, p, db).drain()
            except UnsupportedPredicateError:
                continue
            assert len(got) == len(want) and set(got) == want, (q.to_text(), str(p))
            counted += 1
        answers = oracle_answers(q, db)
        for maximize in (False, True):
            r = MinRanking(tuple(rng.sample(q.free_vars, rng.randint(1, len(q.free_vars)))), maximize)
            if not classify(Task.RANKED_DA, q, r).tractable:
                continue
            ix = build_min_da(q, r, db)
            got = [ix.access(k) for k in range(ix.total)]
            want_sorted = oracle_sorted(answers, r.xs, maximize=maximize)
            assert len(got) == len(answers) and set(got) == answers, (q.to_text(), str(r))
            assert [r.key(a) for a in got] == [r.key(a) for a in want_sorted], (q.to_text(), str(r))
            ranked += 1
