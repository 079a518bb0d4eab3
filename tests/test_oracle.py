import pytest

from minjoin import (
    Answer,
    MinPredicate,
    OracleGuardError,
    TaggedValue,
    oracle_answers,
    oracle_sorted,
    parse_query,
)
from minjoin.model import Database, Relation


def star():
    q, p, _ = parse_query(
        "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\nPREDICATE x0 <= MIN(x1,x2).\n"
    )
    db = Database(
        {
            "R0": Relation.from_ints("R0", 1, [[1], [2]]),
            "R1": Relation.from_ints("R1", 2, [[1, 0], [2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 0], [3, 0]]),
        }
    )
    return q, p, db


def test_oracle_eight_answers():
    q, p, db = star()
    assert len(oracle_answers(q, db)) == 8
    assert len(oracle_answers(q, db, predicate=p)) == 6


def test_oracle_strict_excludes_ties():
    q, _, db = star()
    strict = MinPredicate("x0", ("x1", "x2"), strict=True)
    nonstrict = MinPredicate("x0", ("x1", "x2"))
    assert oracle_answers(q, db, predicate=strict) < oracle_answers(q, db, predicate=nonstrict)


def test_oracle_empty_and_boolean():
    q, _, _ = parse_query("Q(x) :- R(x).")
    db = Database({"R": Relation("R", 1, ())})
    assert oracle_answers(q, db) == set()
    qb, _, _ = parse_query("Q() :- R(x).")
    dbb = Database({"R": Relation.from_ints("R", 1, [[1]])})
    assert oracle_answers(qb, dbb) == {Answer({})}
    assert oracle_answers(qb, db.replace(Relation("R", 1, ()))) == set()


def test_oracle_identity_filter():
    q, _, db = star()
    assert oracle_answers(q, db, predicate=MinPredicate("x0", ("x0",))) == oracle_answers(q, db)


def test_oracle_sorted_min_and_max():
    q, _, db = star()
    ans = oracle_answers(q, db)
    srt = oracle_sorted(ans, ("x1", "x2"))
    keys = [min(a["x1"], a["x2"]) for a in srt]
    assert keys == sorted(keys)
    srt2 = oracle_sorted(ans, ("x1", "x2"), maximize=True)
    keys2 = [max(a["x1"], a["x2"]) for a in srt2]
    assert keys2 == sorted(keys2, reverse=True)


def test_oracle_guard_trips():
    q, _, _ = parse_query("Q(a,b,c,d,e) :- R0(a), R1(b), R2(c), R3(d), R4(e).")
    big = Relation.from_ints("X", 1, [[i] for i in range(30)])
    db = Database(
        {f"R{i}": Relation.from_ints(f"R{i}", 1, [[j] for j in range(30)]) for i in range(5)}
    )
    with pytest.raises(OracleGuardError):
        oracle_answers(q, db)


def test_oracle_predicate_with_existential_vars():
    q, _, _ = parse_query("Q(x) :- R(x,y).")
    db = Database({"R": Relation.from_ints("R", 2, [[5, 3], [5, 9], [7, 1]])})
    p = MinPredicate("x", ("y",))
    got = oracle_answers(q, db, predicate=p)
    assert got == {Answer({"x": TaggedValue(5)})}
