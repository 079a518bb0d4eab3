import random

import pytest

from minjoin import (
    EngineError,
    MinPredicate,
    Task,
    classify,
    enumerate_full_acyclic,
    enumerate_ranked_min,
    enumerate_with_predicate,
    oracle_answers,
    parse_query,
    remove_self_joins,
    semijoin_reduce,
)
from minjoin.model import Database, Relation

from conftest import (
    edge_instances,
    rand_acyclic_query,
    rand_database,
    rand_predicate,
    with_dangling_rows,
)

PATH = "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\nPREDICATE x0 <= MIN(x1,x2).\n"


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


def _path_db(rng, n=10, dom=6):
    def rel(sym):
        rows = [[rng.randrange(dom), rng.randrange(dom)] for _ in range(n)]
        return Relation.from_ints(sym, 2, rows)

    return Database({s: rel(s) for s in ("R0", "R1", "R2", "R3")})


def _ties():
    """An instance with ties: z=3 twice and z=4 twice in one S bucket,
    x0=3 twice in R, and u and w values shared across buckets."""
    q, _, _ = parse_query("Q(x0,y,z,u,w) :- R(x0,y), S(y,z,u), T(y,w).")
    db = Database(
        {
            "R": Relation.from_ints("R", 2, [[3, 1], [1, 1], [3, 2], [5, 1], [4, 2]]),
            "S": Relation.from_ints(
                "S", 3, [[1, 3, 1], [1, 5, 0], [1, 3, 0], [2, 4, 1], [2, 4, 0], [2, 6, 0]]
            ),
            "T": Relation.from_ints("T", 2, [[1, 9], [1, 7], [2, 8]]),
        }
    )
    return q, db


def test_enumerate_single_relation():
    q, _, _ = parse_query("Q(x) :- R(x).")
    db = Database({"R": Relation.from_ints("R", 1, [[2], [1]])})
    s = enumerate_full_acyclic(q, db)
    assert {a["x"].base for a in s.drain()} == {1, 2}


def test_enumerate_star_eight_distinct():
    q, db = _star()
    s = enumerate_full_acyclic(q, db)
    got = s.drain()
    assert len(got) == 8 and len(set(got)) == 8
    assert set(got) == oracle_answers(q, db)


def test_enumerate_empty_join_immediately_done():
    q, db = _star()
    s = enumerate_full_acyclic(q, db.replace(Relation("R1", 2, ())))
    assert not s.has_next()


def test_enumerate_unknown_root_sort_var_is_engine_error():
    q, db = _star()
    with pytest.raises(EngineError, match="'nope' not in the query"):
        enumerate_full_acyclic(q, db, root_sort_var="nope")


def test_enumerate_full_random(rng):
    done = 0
    while done < 40:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        if not q.is_self_join_free:
            continue
        db = rand_database(rng, q, dom=5, max_rows=7)
        got = enumerate_full_acyclic(q, db).drain()
        assert len(got) == len(set(got))
        assert set(got) == oracle_answers(q, db)
        done += 1
    for q, db in edge_instances(rng, full=True):
        got = enumerate_full_acyclic(q, db).drain()
        assert len(got) == len(set(got)) and set(got) == oracle_answers(q, db), q.to_text()


# -- with predicate -----------------------------------------------------------


def test_enumerate_with_predicate_path_query(rng):
    q, p, _ = parse_query(PATH)
    assert not classify(Task.ELIMINATION, q, p).tractable
    for _ in range(50):
        db = _path_db(rng)
        got = enumerate_with_predicate(q, p, db).drain()
        want = oracle_answers(q, db, predicate=p)
        assert set(got) == want and len(got) == len(want)


def test_enumerate_with_predicate_full_pruning():
    q, db = _star()
    # raise x0 above every threshold
    db = db.replace(Relation.from_ints("R0", 1, [[99]]))
    p = MinPredicate("x0", ("x1", "x2"))
    assert enumerate_with_predicate(q, p, db).drain() == []


def test_enumerate_with_predicate_root_filter_variant():
    q, _, _ = parse_query("Q(x0,x1) :- R(x0,x1).")
    db = Database({"R": Relation.from_ints("R", 2, [[1, 5], [7, 5], [5, 5]])})
    p = MinPredicate("x0", ("x1",))
    got = {(a["x0"].base, a["x1"].base) for a in enumerate_with_predicate(q, p, db).drain()}
    assert got == {(1, 5), (5, 5)}
    strict = MinPredicate("x0", ("x1",), strict=True)
    got2 = {(a["x0"].base, a["x1"].base) for a in enumerate_with_predicate(q, strict, db).drain()}
    assert got2 == {(1, 5)}


def test_enumerate_with_predicate_emission_order_pinned():
    # equal thresholds in one S bucket (z=3 twice, z=4 twice), equal x0 at
    # the root (x0=3 twice), and T, which holds no MIN variable, so every T
    # row has threshold +inf; tuples follow (x0, y, z, u, w)
    q, db = _ties()

    def run(strict):
        s = enumerate_with_predicate(q, MinPredicate("x0", ("z",), strict), db)
        got = [tuple(a[v].base for v in q.variables) for a in s]
        return got, s.build_steps, s.steps, s.max_delay

    assert run(False) == (
        [
            (1, 1, 5, 0, 7), (1, 1, 5, 0, 9), (1, 1, 3, 0, 7), (1, 1, 3, 0, 9),
            (1, 1, 3, 1, 7), (1, 1, 3, 1, 9), (3, 1, 5, 0, 7), (3, 1, 5, 0, 9),
            (3, 1, 3, 0, 7), (3, 1, 3, 0, 9), (3, 1, 3, 1, 7), (3, 1, 3, 1, 9),
            (3, 2, 6, 0, 8), (3, 2, 4, 0, 8), (3, 2, 4, 1, 8), (4, 2, 6, 0, 8),
            (4, 2, 4, 0, 8), (4, 2, 4, 1, 8), (5, 1, 5, 0, 7), (5, 1, 5, 0, 9),
        ],
        28, 57, 5,
    )
    assert run(True) == (
        [
            (1, 1, 5, 0, 7), (1, 1, 5, 0, 9), (1, 1, 3, 0, 7), (1, 1, 3, 0, 9),
            (1, 1, 3, 1, 7), (1, 1, 3, 1, 9), (3, 1, 5, 0, 7), (3, 1, 5, 0, 9),
            (3, 2, 6, 0, 8), (3, 2, 4, 0, 8), (3, 2, 4, 1, 8), (4, 2, 6, 0, 8),
        ],
        27, 37, 5,
    )


def test_streams_emission_order_and_steps_pinned():
    # the plain, root-sorted and ranked streams on the instance with ties;
    # tuples follow (x0, y, z, u, w)
    q, db = _ties()

    def run(s):
        got = [tuple(a[v].base for v in q.variables) for a in s]
        return got, s.build_steps, s.steps, s.max_delay, s.avg_delay, s.skips

    y1 = [(x0, 1, z, u, w) for w in (7, 9) for z, u in ((3, 0), (3, 1), (5, 0)) for x0 in (1, 3, 5)]
    y2 = [(x0, 2, z, u, 8) for z, u in ((4, 0), (4, 1), (6, 0)) for x0 in (3, 4)]
    assert run(enumerate_full_acyclic(q, db)) == (y1 + y2, 14, 49, 5, 46 / 24, 0)

    def at_z(z, u):
        if z in (4, 6):
            return [(x0, 2, z, u, 8) for x0 in (3, 4)]
        return [(x0, 1, z, u, w) for x0 in (1, 3, 5) for w in (7, 9)]

    by_z = at_z(3, 0) + at_z(3, 1) + at_z(4, 0) + at_z(4, 1) + at_z(5, 0) + at_z(6, 0)
    assert run(enumerate_full_acyclic(q, db, root_sort_var="z")) == (by_z, 14, 67, 5, 64 / 24, 0)

    ranked = [
        (1, 1, 3, 0, 7), (1, 1, 3, 0, 9), (1, 1, 3, 1, 7), (1, 1, 3, 1, 9),
        (1, 1, 5, 0, 7), (1, 1, 5, 0, 9), (3, 1, 3, 0, 7), (3, 1, 3, 0, 9),
        (3, 1, 3, 1, 7), (3, 1, 3, 1, 9), (3, 1, 5, 0, 7), (3, 1, 5, 0, 9),
        (3, 2, 4, 0, 8), (3, 2, 4, 1, 8), (3, 2, 6, 0, 8), (5, 1, 3, 0, 7),
        (5, 1, 3, 0, 9), (5, 1, 3, 1, 7), (5, 1, 3, 1, 9), (4, 2, 4, 0, 8),
        (4, 2, 4, 1, 8), (4, 2, 6, 0, 8), (5, 1, 5, 0, 7), (5, 1, 5, 0, 9),
    ]
    assert run(enumerate_ranked_min(q, ("x0", "z"), db)) == (ranked, 28, 181, 34, 152 / 24, 24)


def test_step_count_after_every_emission_pinned():
    # s.steps before the first advance, after each one, and at exhaustion,
    # so every gap between emissions is pinned, not only the total and the
    # largest; a single atom is its own root and leaf
    q, db = _ties()
    single, _, _ = parse_query("Q(x0,y) :- R(x0,y).")
    boolean, _, _ = parse_query("Q() :- R(x0,y), S(y,z,u), T(y,w).")

    def trace(s):
        seen = [s.steps]
        while s.has_next():
            s.advance()
            seen.append(s.steps)
        return seen

    streams = {
        "plain": enumerate_full_acyclic(q, db),
        "root_sorted": enumerate_full_acyclic(q, db, root_sort_var="z"),
        "ranked": enumerate_ranked_min(q, ("x0", "z"), db),
        "predicate": enumerate_with_predicate(q, MinPredicate("x0", ("z",)), db),
        "strict": enumerate_with_predicate(q, MinPredicate("x0", ("z",), True), db),
        "single": enumerate_full_acyclic(single, db),
        "single_predicate": enumerate_with_predicate(single, MinPredicate("y", ("x0",)), db),
        "single_ranked": enumerate_ranked_min(single, ("x0", "y"), db),
        "boolean": enumerate_with_predicate(boolean, None, db),
        "boolean_predicate": enumerate_with_predicate(boolean, MinPredicate("x0", ("z",)), db),
    }
    assert {name: trace(s) for name, s in streams.items()} == {
        "plain": [
            3, 4, 5, 8, 9, 10, 13, 14, 15, 20, 21, 22, 25,
            26, 27, 30, 31, 32, 37, 38, 41, 42, 45, 46, 49,
        ],
        "root_sorted": [
            3, 4, 7, 8, 11, 12, 17, 18, 21, 22, 25, 26, 31,
            34, 39, 42, 47, 48, 51, 52, 55, 56, 61, 64, 67,
        ],
        "ranked": [
            8, 12, 14, 18, 20, 26, 28, 32, 34, 38, 40, 46, 50,
            54, 60, 74, 80, 94, 100, 104, 108, 114, 148, 152, 181,
        ],
        "predicate": [
            3, 4, 7, 8, 11, 12, 17, 18, 21, 22, 25, 26, 31, 34, 37, 42, 45, 48, 53, 54, 57,
        ],
        "strict": [3, 4, 7, 8, 11, 12, 17, 18, 23, 26, 29, 34, 37],
        "single": [1, 2, 3, 4, 5, 6],
        "single_predicate": [1, 2, 3, 4, 5, 6],
        "single_ranked": [4, 8, 10, 12, 14, 23],
        "boolean": [1, 2],
        "boolean_predicate": [1, 2],
    }


def test_enumerate_with_predicate_random(rng):
    done = 0
    while done < 50:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        x0 = rng.choice(vars_)
        xs = tuple(rng.sample(vars_, min(3, len(vars_))))
        p = MinPredicate(x0, xs)
        db = rand_database(rng, q, dom=6, max_rows=7)
        got = enumerate_with_predicate(q, p, db).drain()
        want = oracle_answers(q, db, predicate=p)
        assert set(got) == want and len(got) == len(want), (q.to_text(), str(p))
        done += 1
    for q, db in edge_instances(rng, full=True):
        p = rand_predicate(rng, q)
        got = enumerate_with_predicate(q, p, db).drain()
        want = oracle_answers(q, db, predicate=p)
        assert set(got) == want and len(got) == len(want), (q.to_text(), str(p))


def test_enumerate_with_predicate_needs_no_semijoin_pass(rng, monkeypatch):
    # a row with no full extension below has threshold -inf, so the root
    # filter and the cut drop it; the same stream over reduced data is
    # the reference for order and steps
    def broken(*args, **kwargs):
        raise AssertionError("predicate enumeration called semijoin_reduce")

    instances = []
    while len(instances) < 60:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        instances.append((q, with_dangling_rows(rng, q, rand_database(rng, q, dom=6, max_rows=7))))
    instances += [(q, with_dangling_rows(rng, q, db)) for q, db in edge_instances(rng, full=True)]
    for q, db in instances:
        p = rand_predicate(rng, q)
        q1, d1 = remove_self_joins(q, db)
        reduced = semijoin_reduce(q1, d1)
        with monkeypatch.context() as m:
            m.setattr("minjoin.reduce.semijoin_reduce", broken)
            s = enumerate_with_predicate(q, p, db)
            got = s.drain()
            ref = enumerate_with_predicate(q1, p, reduced)
            want = ref.drain()
        assert set(got) == oracle_answers(q, db, predicate=p), (q.to_text(), str(p))
        assert (got, s.steps, s.max_delay) == (want, ref.steps, ref.max_delay), (q.to_text(), str(p))


def test_full_and_ranked_streams_need_no_semijoin_pass(rng, monkeypatch):
    # a row in no answer is either dropped by the count pass or sits in a
    # bucket that no kept parent looks up; the same streams over reduced
    # data, built before the patch, are the reference for order and steps
    def broken(*args, **kwargs):
        raise AssertionError("full or ranked enumeration called semijoin_reduce")

    def run(s):
        return s.drain(), s.steps, s.max_delay, s.skips

    instances = []
    while len(instances) < 60:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        instances.append((q, with_dangling_rows(rng, q, rand_database(rng, q, dom=6, max_rows=7))))
    instances += [(q, with_dangling_rows(rng, q, db)) for q, db in edge_instances(rng, full=True)]
    for q, db in instances:
        xs = tuple(rng.sample(q.variables, rng.randint(1, len(q.variables))))
        streams = [lambda q, db: enumerate_full_acyclic(q, db)]
        streams += [
            lambda q, db, v=v: enumerate_full_acyclic(q, db, root_sort_var=v) for v in q.variables
        ]
        streams.append(lambda q, db: enumerate_ranked_min(q, xs, db))
        q1, d1 = remove_self_joins(q, db)
        reduced = semijoin_reduce(q1, d1)
        want = [run(make(q1, reduced)) for make in streams]
        with monkeypatch.context() as m:
            m.setattr("minjoin.reduce.semijoin_reduce", broken)
            got = [run(make(q, db)) for make in streams]
        oracle = oracle_answers(q, db)
        for answers, *_ in got:
            assert set(answers) == oracle and len(answers) == len(oracle), q.to_text()
        assert got == want, q.to_text()


# -- ranked -------------------------------------------------------------------


def test_ranked_single_variable_plain_sorted():
    q, db = _star()
    s = enumerate_ranked_min(q, ("x1",), db)
    got = s.drain()
    vals = [a["x1"] for a in got]
    assert vals == sorted(vals) and s.skips == 0


def test_ranked_star_sorted_no_dups():
    q, db = _star()
    xs = ("x1", "x2")
    s = enumerate_ranked_min(q, xs, db)
    got = s.drain()
    assert set(got) == oracle_answers(q, db) and len(got) == len(set(got))
    keys = [min(a[x] for x in xs) for a in got]
    assert keys == sorted(keys)
    assert s.skips <= (len(xs) - 1) * len(got)


def _check_ranked(q, xs, db):
    s = enumerate_ranked_min(q, xs, db)
    got = s.drain()
    want = oracle_answers(q, db)
    assert set(got) == want and len(got) == len(want), q.to_text()
    keys = [min(a[x] for x in xs) for a in got]
    assert keys == sorted(keys)
    assert s.skips <= (len(xs) - 1) * len(got)


def test_ranked_random(rng):
    done = 0
    while done < 40:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        if not q.is_self_join_free:
            continue
        vars_ = list(q.variables)
        xs = tuple(rng.sample(vars_, min(rng.randint(1, 3), len(vars_))))
        _check_ranked(q, xs, rand_database(rng, q, dom=5, max_rows=7))
        done += 1
    for q, db in edge_instances(rng, full=True):
        _check_ranked(q, tuple(rng.sample(q.variables, rng.randint(1, len(q.variables)))), db)


# -- delay properties ---------------------------------------------------------


def test_avg_delay_within_max_delay(rng):
    q1, _, _ = parse_query("Q(x) :- R(x).")
    one = enumerate_full_acyclic(q1, Database({"R": Relation.from_ints("R", 1, [[7]])}))
    assert len(one.drain()) == 1
    # one emission: the average is that emission's delay, which is the max
    assert one.avg_delay == one.max_delay
    q, db = _star()
    qp, p, _ = parse_query(PATH)
    for s in (
        enumerate_full_acyclic(q, db),
        enumerate_ranked_min(q, ("x0", "x1"), db),
        enumerate_with_predicate(qp, p, _path_db(rng)),
    ):
        assert len(s.drain()) > 1
        assert 0 < s.avg_delay <= s.max_delay


def _scaled_path_db(n, seed):
    rnd = random.Random(seed)
    def rel(sym):
        rows = [[rnd.randrange(max(4, n // 2)), rnd.randrange(max(4, n // 2))] for _ in range(n)]
        return Relation.from_ints(sym, 2, rows)
    return Database({s: rel(s) for s in ("R0", "R1", "R2", "R3")})


def test_delay_constant_across_doubling():
    q, p, _ = parse_query(PATH)
    delays = []
    plain_delays = []
    for n in (64, 128, 256, 512, 1024):
        db = _scaled_path_db(n, seed=n)
        s = enumerate_with_predicate(q, p, db)
        count = 0
        while s.has_next() and count < 2000:
            s.advance()
            count += 1
        delays.append(max(s.max_delay, 1))
        s2 = enumerate_full_acyclic(q, db)
        count = 0
        while s2.has_next() and count < 2000:
            s2.advance()
            count += 1
        plain_delays.append(max(s2.max_delay, 1))
    for seq in (delays, plain_delays):
        for d1, d2 in zip(seq, seq[1:]):
            assert d2 <= 1.5 * max(seq[0], d1) + 2


def test_ranked_linear_partial_time():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0,y), R1(x1,y), R2(x2,y).")
    xs = ("x0", "x1", "x2")
    ratios = []
    for n in (64, 128, 256, 512):
        rnd = random.Random(n)
        db = Database(
            {
                s: Relation.from_ints(
                    s, 2, [[rnd.randrange(n), rnd.randrange(8)] for _ in range(n)]
                )
                for s in ("R0", "R1", "R2")
            }
        )
        s = enumerate_ranked_min(q, xs, db)
        k = 0
        while s.has_next() and k < 500:
            s.advance()
            k += 1
        total = s.build_steps + s.steps
        ratios.append(total / (db.size + max(k, 1) * len(xs)))
    assert max(ratios) <= 4 * min(ratios) + 4
