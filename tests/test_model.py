import pytest
from hypothesis import given
from hypothesis import strategies as st

from minjoin import (
    NEG_INF,
    POS_INF,
    Answer,
    ConjunctiveQuery,
    Database,
    EngineError,
    MinPredicate,
    Relation,
    TaggedValue,
    negate_database,
    oracle_answers,
    remove_self_joins,
)
from minjoin.parser import parse_query

from conftest import TAG, disjointify, rand_acyclic_query, rand_database, untagged

big = st.integers(-(2**70), 2**70)


@given(big, big)
def test_tagged_value_order_is_lexicographic(c1, c2):
    a, b = TaggedValue(c1), TaggedValue(c2)
    assert (a < b) == ((a.base,) < (b.base,)) == (c1 < c2) and (a == b) == (c1 == c2)


@given(big, st.integers(0, TAG - 1), big, st.integers(0, TAG - 1))
def test_cells_encode_base_and_rank_in_order(b1, r1, b2, r2):
    # a cell is the value itself; the conftest reference's tagged cells
    # c * TAG + rank decode back and keep the (base, rank) order
    assert Answer({"x": b1})["x"] == TaggedValue(b1) and Answer({"x": b1}).assignment == {"x": TaggedValue(b1)}
    assert Answer({"x": TaggedValue(b1)}) == Answer({"x": b1})
    c1, c2 = b1 * TAG + r1, b2 * TAG + r2
    assert divmod(c1, TAG) == (b1, r1)
    assert untagged(Answer({"x": c1})) == Answer({"x": b1})
    assert (c1 < c2) == ((b1, r1) < (b2, r2)) and (c1 == c2) == ((b1, r1) == (b2, r2))
    assert NEG_INF < b1 < POS_INF and NEG_INF < c1 < POS_INF


def test_from_ints_rejects_non_integers():
    assert Relation.from_ints("R", 1, [[True], [-3]]).rows == ((1,), (-3,))
    for bad in (1.5, "2", None, TaggedValue(1)):
        with pytest.raises(EngineError, match=r"relation R: row \(.*\) holds a non-integer value"):
            Relation.from_ints("R", 1, [[0], [bad]])
    for bad in (1.5, "2", None, TaggedValue(1.5), (1,)):
        with pytest.raises(EngineError, match=r"answer: x=.* holds a non-integer value"):
            Answer({"y": 0, "x": bad})
    # the arity error names the row as given
    with pytest.raises(EngineError, match=r"relation R: row \(1,\) has 1 entries, arity is 2"):
        Relation.from_ints("R", 2, [[1]])


def test_relation_dedup_and_arity():
    r = Relation.from_ints("R", 2, [[1, 0], [1, 0], [2, 0]])
    assert len(r) == 2
    with pytest.raises(EngineError):
        Relation("R", 2, ((TaggedValue(1),),))


def test_database_size_and_lookup():
    db = Database({"R": Relation.from_ints("R", 1, [[1], [2]])})
    assert db.size == 2
    with pytest.raises(EngineError):
        db.relation("S")


def test_query_invariants():
    q, _, _ = parse_query("Q(x) :- R(x), S(x,y).")
    assert q.variables == ("x", "y")
    assert not q.is_full and q.is_self_join_free
    with pytest.raises(EngineError):
        ConjunctiveQuery((), ("x",))


def test_min_predicate_validation():
    with pytest.raises(EngineError):
        MinPredicate("x", ())
    with pytest.raises(EngineError):
        MinPredicate("x", ("x",), strict=True)
    p = MinPredicate("x", ("y",), strict=True)
    assert p.holds({"x": TaggedValue(1), "y": TaggedValue(2)})
    assert not p.holds({"x": TaggedValue(2), "y": TaggedValue(2)})


# -- remove_self_joins -------------------------------------------------------


def test_remove_self_joins_copies_relations():
    q, _, _ = parse_query("Q(x,y) :- R(x), R(y).")
    db = Database({"R": Relation.from_ints("R", 1, [[1], [2]])})
    q2, db2 = remove_self_joins(q, db)
    assert q2.is_self_join_free
    syms = [a.symbol for a in q2.atoms]
    assert len(set(syms)) == 2 and "R" not in syms
    assert oracle_answers(q, db) == oracle_answers(q2, db2)


def test_remove_self_joins_identity_when_free():
    q, _, _ = parse_query("Q(x,y) :- R(x), S(y).")
    db = Database(
        {
            "R": Relation.from_ints("R", 1, [[1]]),
            "S": Relation.from_ints("S", 1, [[2]]),
        }
    )
    q2, db2 = remove_self_joins(q, db)
    assert q2 is q and db2 is db


def test_remove_self_joins_random_preserves_answers(rng):
    for _ in range(30):
        q = rand_acyclic_query(rng, max_atoms=4, full=False)
        # introduce a self-join by reusing the first symbol when arities match
        atoms = list(q.atoms)
        for i, a in enumerate(atoms[1:], start=1):
            if a.arity == atoms[0].arity:
                atoms[i] = type(a)(atoms[0].symbol, a.vars)
                break
        q = ConjunctiveQuery(tuple(atoms), q.free_vars)
        db = rand_database(rng, q, dom=5, max_rows=6)
        q2, db2 = remove_self_joins(q, db)
        assert q2.is_self_join_free
        assert oracle_answers(q, db) == oracle_answers(q2, db2)


# -- disjointify, the tests' reference for the tie rule -----------------------


def test_disjointify_per_cell_rewrite():
    q, _, _ = parse_query("Q(x1,y) :- R1(x1,y).")
    db = Database({"R1": Relation.from_ints("R1", 2, [[1, 0]])})
    d2 = disjointify(db, q, ["x1", "y"])
    assert d2.relation("R1").rows[0] == (1 * TAG + 1, 0 * TAG + 2)


def test_disjointify_requires_self_join_free():
    q, _, _ = parse_query("Q(x,y) :- R(x), R(y).")
    db = Database({"R": Relation.from_ints("R", 1, [[1]])})
    with pytest.raises(EngineError):
        disjointify(db, q, ["x", "y"])


def test_disjointify_is_order_embedding(rng):
    q = rand_acyclic_query(rng, max_atoms=3, full=True)
    db = rand_database(rng, q, dom=6, max_rows=8)
    d2 = disjointify(db, q, list(q.variables))
    for a in q.atoms:
        rows, rows2 = db.relation(a.symbol).rows, d2.relation(a.symbol).rows
        for r1, t1 in zip(rows, rows2):
            for r2, t2 in zip(rows, rows2):
                for i in range(len(r1)):
                    for j in range(len(r2)):
                        if r1[i] < r2[j]:
                            assert t1[i] < t2[j]


def test_disjointify_nonstrict_predicate_becomes_strict(rng):
    # x0 ranked first: ties resolve in favour of the non-strict predicate
    for _ in range(40):
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        x0 = rng.choice(vars_)
        xs = tuple(rng.sample(vars_, min(2, len(vars_))))
        p = MinPredicate(x0, xs)
        db = rand_database(rng, q, dom=4, max_rows=5)
        d2 = disjointify(db, q, [x0] + [v for v in vars_ if v != x0])
        strict_tagged = MinPredicate(x0, tuple(x for x in xs if x != x0), strict=True) if set(xs) - {x0} else None
        got = oracle_answers(q, d2, predicate=strict_tagged)
        want = oracle_answers(q, db, predicate=p)
        assert {untagged(a) for a in got} == want


def test_negate_database_roundtrip():
    db = Database({"R": Relation.from_ints("R", 1, [[3], [-1]])})
    assert negate_database(negate_database(db)).relation("R").rows == db.relation("R").rows
