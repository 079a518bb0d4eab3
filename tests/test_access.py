import pytest

from minjoin import (
    Answer,
    IntractableQueryError,
    MinPredicate,
    OutOfBoundsError,
    StepCounter,
    Task,
    build_lex_da,
    build_min_da,
    build_unranked_da_pred,
    classify,
    count_via_access,
    count_with_predicate,
    is_nonempty,
    oracle_answers,
    parse_query,
    single_access,
)
from minjoin.model import Database, Relation

from conftest import edge_instances, rand_acyclic_query, rand_database, rand_predicate


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
    da = build_lex_da(q, db, "x")
    assert da.total == 3
    got = [da.access(k)["x"].base for k in range(3)]
    assert got == [1, 3, 5]


def test_lex_da_join_first_answer_minimal():
    q, db = _star()
    da = build_lex_da(q, db, "x1")
    a0 = da.access(0)
    assert a0["x1"].base == 1


def test_lex_da_empty_total_zero():
    q, _, _ = parse_query("Q(x) :- R(x).")
    da = build_lex_da(q, Database({"R": Relation("R", 1, ())}), "x")
    assert da.total == 0
    with pytest.raises(OutOfBoundsError):
        da.access(0)


def _check_lex_da(q, db):
    x = q.variables[0]
    da = build_lex_da(q, db, x)
    want = oracle_answers(q, db)
    assert da.total == len(want), q.to_text()
    got = [da.access(k) for k in range(da.total)]
    assert {Answer(m) for m in got} == want, q.to_text()
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

    assert seq(build_lex_da(q, db, "y")) == [
        (1, 1, 1, 0), (1, 1, 2, 0), (2, 1, 1, 0), (2, 1, 2, 0), (1, 2, 1, 0),
        (1, 2, 2, 0), (2, 2, 1, 0), (2, 2, 2, 0), (1, 1, 3, 1), (2, 1, 3, 1),
    ]
    assert seq(build_lex_da(q, db, "x1")) == [
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
