import hashlib
import json
import random
from collections import Counter

import pytest

from minjoin import (
    EngineError,
    IntractableQueryError,
    MinPredicate,
    MinRanking,
    Task,
    UnsupportedPredicateError,
    build_min_da,
    build_unranked_da_pred,
    classify,
    count_with_predicate,
    eliminate_min_predicate,
    enumerate_ranked_min,
    enumerate_with_predicate,
    is_nonempty,
    is_free_connex,
    oracle_answers,
    oracle_sorted,
    parse_query,
    restrict_predicate_to_free,
    semijoin_reduce,
)
from minjoin.cli import main
from minjoin.model import Database, Relation

from conftest import (
    EDGE_QUERIES,
    edge_instances,
    rand_acyclic_query,
    rand_database,
    rand_predicate,
    with_dangling_rows,
)


def test_semijoin_reduce_disjoint_keys_empty_both():
    q, _, _ = parse_query("Q(x1,x2,y) :- R1(x1,y), R2(x2,y).")
    db = Database(
        {
            "R1": Relation.from_ints("R1", 2, [[1, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 9]]),
        }
    )
    red = semijoin_reduce(q, db)
    assert len(red.relation("R1")) == 0 and len(red.relation("R2")) == 0


def test_semijoin_reduce_fixpoint_and_monotone(rng):
    for _ in range(40):
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        if not q.is_self_join_free:
            continue
        db = rand_database(rng, q, dom=5, max_rows=8)
        red = semijoin_reduce(q, db)
        again = semijoin_reduce(q, red)
        for a in q.atoms:
            assert set(red.relation(a.symbol).rows) <= set(db.relation(a.symbol).rows)
            assert again.relation(a.symbol).rows == red.relation(a.symbol).rows


def test_semijoin_reduce_survivors_participate(rng):
    for _ in range(30):
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        if not q.is_self_join_free:
            continue
        db = rand_database(rng, q, dom=4, max_rows=6)
        red = semijoin_reduce(q, db)
        answers = oracle_answers(q, db)
        used = {a.symbol: set() for a in q.atoms}
        for ans in answers:
            m = {v: c.base for v, c in ans.assignment.items()}
            for a in q.atoms:
                used[a.symbol].add(tuple(m[v] for v in a.vars))
        for a in q.atoms:
            assert set(red.relation(a.symbol).rows) == used[a.symbol]


# -- restriction without a predicate -----------------------------------------


def test_restrict_full_query_is_symbol_refresh():
    q, _, _ = parse_query("Q(x,y) :- R(x,y).")
    db = Database({"R": Relation.from_ints("R", 2, [[1, 2]])})
    q2, _, d2 = restrict_predicate_to_free(q, None, db)
    assert q2.is_full and q2.atoms[0].symbol != "R"
    assert oracle_answers(q2, d2) == oracle_answers(q, db)


def test_restrict_single_projection():
    q, _, _ = parse_query("Q(x) :- R(x,y).")
    db = Database({"R": Relation.from_ints("R", 2, [[1, 5], [1, 6], [2, 0]])})
    q2, _, d2 = restrict_predicate_to_free(q, None, db)
    assert q2.atoms[0].vars == ("x",)
    assert len(d2.relation(q2.atoms[0].symbol)) == 2


def test_restrict_random_free_connex(rng):
    done = 0
    while done < 60:
        q = rand_acyclic_query(rng, max_atoms=4, full=False)
        if not q.is_self_join_free or q.is_boolean or not is_free_connex(q):
            continue
        db = rand_database(rng, q, dom=5, max_rows=7)
        q2, _, d2 = restrict_predicate_to_free(q, None, db)
        assert q2.is_full and q2.is_self_join_free and is_free_connex(q2)
        assert oracle_answers(q2, d2) == oracle_answers(q, db)
        done += 1


def test_restrict_drops_disconnected_existential_atom():
    q, _, _ = parse_query("Q(x) :- R(x), S(y).")
    db = Database(
        {"R": Relation.from_ints("R", 1, [[1]]), "S": Relation("S", 1, ())}
    )
    q2, _, d2 = restrict_predicate_to_free(q, None, db)
    assert oracle_answers(q2, d2) == set() == oracle_answers(q, db)
    db2 = db.replace(Relation.from_ints("S", 1, [[9]]))
    q3, _, d3 = restrict_predicate_to_free(q, None, db2)
    assert oracle_answers(q3, d3) == oracle_answers(q, db2)


def test_restrict_full_query_needs_no_semijoin_pass(rng, monkeypatch, tmp_path, capsys):
    # a full query projects nothing, so restriction only renames it; the
    # passes that read the renamed data drop the rows that join nothing
    def broken(*args, **kwargs):
        raise AssertionError("restricting a full query called semijoin_reduce")

    monkeypatch.setattr("minjoin.reduce.semijoin_reduce", broken)
    instances = []
    while len(instances) < 60:
        q = rand_acyclic_query(rng, max_atoms=4, full=True)
        instances.append((q, with_dangling_rows(rng, q, rand_database(rng, q, dom=6, max_rows=7))))
    instances += [(q, with_dangling_rows(rng, q, db)) for q, db in edge_instances(rng, full=True)]
    checked = ranked = 0
    for i, (q, db) in enumerate(instances):
        for p in (rand_predicate(rng, q), None):
            if not classify(Task.ELIMINATION, q, p).tractable:
                continue
            want = oracle_answers(q, db, predicate=p)
            assert count_with_predicate(q, p, db) == len(want), (q.to_text(), str(p))
            res = eliminate_min_predicate(q, p, db)
            parts = [
                {a.project(res.source_vars) for a in oracle_answers(part.query, part.database)}
                for part in res.parts
            ]
            assert sum(map(len, parts)) == len(want) and set().union(*parts) == want, (q.to_text(), str(p))
            da = build_unranked_da_pred(q, p, db)
            assert da.total == len(want) and {da.access(k) for k in range(da.total)} == want
            checked += 1
        xs = tuple(rng.sample(q.variables, rng.randint(1, len(q.variables))))
        if not classify(Task.RANKED_DA, q, xs).tractable:
            continue
        d = tmp_path / f"i{i}"
        d.mkdir()
        for sym, rel in db.relations.items():
            (d / sym).write_text("".join(",".join(map(str, r)) + "\n" for r in rel.rows))
        (tmp_path / f"i{i}.mq").write_text(f"{q.to_text()}\nORDER BY MIN({','.join(xs)}).\n")
        want = [min(a[x].base for x in xs) for a in oracle_sorted(oracle_answers(q, db), xs)]
        args = ["--query", str(tmp_path / f"i{i}.mq"), "--data", str(d), "--json"]
        assert main(["access", *args, "--range", f"0..{len(want)}"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["total"] == len(want)
        assert [min(a["answer"][x] for x in xs) for a in out["answers"]] == want, q.to_text()
        ranked += 1
    assert checked >= 100 and ranked >= 40


# -- existential inequalities folded by restrict_predicate_to_free -------------


def _fold(text, rows, p):
    """Restrict Q AND p over `rows` (symbol -> int rows) to the free
    variables; the result must keep the oracle's answers."""
    q, _, _ = parse_query(text)
    db = Database({a.symbol: Relation.from_ints(a.symbol, a.arity, rows[a.symbol]) for a in q.atoms})
    q2, p2, d2 = restrict_predicate_to_free(q, p, db)
    assert oracle_answers(q2, d2, predicate=p2) == oracle_answers(q, db, predicate=p)
    return q2, p2, d2


def test_eliminate_existential_basic_removal():
    # x lives in y's branch atom: plain per-tuple comparison
    q2, p2, d2 = _fold("Q(x) :- R(x,y).", {"R": [[5, 3], [5, 9], [7, 1]]}, MinPredicate("x", ("y",)))
    assert p2 is None and d2.relation(q2.atoms[0].symbol).rows == ((5,),)


def test_eliminate_existential_boundary_strict():
    rows = {"R": [[5, 5]]}
    q2, _, keep = _fold("Q(x) :- R(x,y).", rows, MinPredicate("x", ("y",)))
    q3, _, drop = _fold("Q(x) :- R(x,y).", rows, MinPredicate("x", ("y",), strict=True))
    assert len(keep.relation(q2.atoms[0].symbol)) == 1
    assert len(drop.relation(q3.atoms[0].symbol)) == 0


def test_eliminate_existential_through_branch():
    # y is one join away from the branch atom holding x
    _fold(
        "Q(x,u) :- R(x,z), S(z,y), T(u).",
        {"R": [[4, 1], [9, 1], [2, 2]], "S": [[1, 6], [2, 1]], "T": [[0]]},
        MinPredicate("x", ("y",)),
    )


def test_eliminate_existential_independent_component():
    _fold("Q(x) :- R(x), S(y).", {"R": [[1], [5], [9]], "S": [[4], [6]]}, MinPredicate("x", ("y",)))


def test_eliminate_existential_refuses_unsound_site():
    # y's branch atom C(v,y) carries the free variable v but not x:
    # no single-relation filter can express the condition
    with pytest.raises(UnsupportedPredicateError):
        _fold("Q(x,v) :- A(x), C(v,y).", {"A": [[3]], "C": [[1, 5], [2, 2]]}, MinPredicate("x", ("y",)))


def test_restrict_predicate_free_y_stays_residual():
    _, p2, _ = _fold("Q(x,y) :- R(x,y).", {"R": [[1, 2]]}, MinPredicate("x", ("y",)))
    assert p2 == MinPredicate("x", ("y",))


def test_eliminate_existential_never_removes_participants(rng):
    done = 0
    while done < 40:
        q = rand_acyclic_query(rng, max_atoms=3, full=False)
        if not q.is_self_join_free or q.is_boolean or not is_free_connex(q):
            continue
        exist = [v for v in q.variables if v not in q.free_vars]
        if not exist:
            continue
        y = rng.choice(exist)
        x = rng.choice(list(q.variables))
        db = rand_database(rng, q, dom=5, max_rows=6)
        p = MinPredicate(x, (y,))
        try:
            q2, p2, d2 = restrict_predicate_to_free(q, p, db)
        except UnsupportedPredicateError:
            continue
        assert oracle_answers(q2, d2, predicate=p2) == oracle_answers(q, db, predicate=p)
        done += 1


def test_restriction_and_boolean_cut_pinned():
    # restriction's output and the Boolean cut, pinned over a seeded
    # sample: every tractable counting verdict's restricted query text,
    # residual predicate and relation rows (in order), and every Boolean
    # verdict's answer; the sample reaches every fold kind, and x0 sites
    # whose branch has no answer
    digest = hashlib.sha256()
    counts = Counter()
    for seed in (5, 6):
        rng = random.Random(seed)
        for _ in range(2000):
            q = rand_acyclic_query(rng, max_atoms=4)
            p = rand_predicate(rng, q)
            db = rand_database(rng, q)
            counting = classify(Task.COUNTING, q, p)
            if counting.tractable:
                counts["restrictions"] += 1
                q2, p2, d2 = restrict_predicate_to_free(q, p, db, counting.plan)
                digest.update(f"{q2.to_text()}|{p2}".encode())
                for a in q2.atoms:
                    counts["rows"] += len(d2.relation(a.symbol))
                    digest.update(repr(d2.relation(a.symbol).rows).encode())
            if classify(Task.BOOLEAN, q, p).tractable:
                holds = is_nonempty(q, p, db)
                counts["cuts"] += 1
                counts["nonempty"] += holds
                digest.update(b"1" if holds else b"0")
    assert counts == {"restrictions": 3241, "rows": 20279, "cuts": 4000, "nonempty": 2305}
    assert digest.hexdigest() == "058d30de2395fc7c33a579ca98c1556b9af8baf1ecdf4977cb243708743f2172"


# -- restrict_predicate_to_free ----------------------------------------------


def test_restrict_predicate_all_free_unchanged():
    q, p, _ = parse_query(
        "Q(x0,x1,y) :- R(x0,y), S(x1,y).\nPREDICATE x0 <= MIN(x1).\n"
    )
    db = Database(
        {
            "R": Relation.from_ints("R", 2, [[1, 0]]),
            "S": Relation.from_ints("S", 2, [[2, 0]]),
        }
    )
    q2, p2, d2 = restrict_predicate_to_free(q, p, db)
    assert p2 is not None and p2.x0 == "x0" and p2.xs == ("x1",)
    assert oracle_answers(q2, d2, predicate=p2) == oracle_answers(q, db, predicate=p)


def test_restrict_predicate_entirely_existential_x():
    q, _, _ = parse_query("Q(x0) :- R(x0,x1), S(x1,z).")
    p = MinPredicate("x0", ("z",))
    db = Database(
        {
            "R": Relation.from_ints("R", 2, [[3, 1], [8, 2]]),
            "S": Relation.from_ints("S", 2, [[1, 5], [2, 4]]),
        }
    )
    q2, p2, d2 = restrict_predicate_to_free(q, p, db)
    assert p2 is None and q2.is_full
    want = {a for a in oracle_answers(q, db, predicate=p)}
    assert oracle_answers(q2, d2) == want


def test_restrict_predicate_mixed_random(rng):
    done = skipped = 0
    while done < 120 and skipped < 400:
        q = rand_acyclic_query(rng, max_atoms=4, full=False)
        if not q.is_self_join_free or q.is_boolean or not is_free_connex(q):
            continue
        p = rand_predicate(rng, q)
        db = rand_database(rng, q, dom=6, max_rows=6)
        try:
            q2, p2, d2 = restrict_predicate_to_free(q, p, db)
        except UnsupportedPredicateError:
            skipped += 1
            continue
        got = oracle_answers(q2, d2, predicate=p2)
        want = oracle_answers(q, db, predicate=p)
        assert got == want, (q.to_text(), str(p))
        done += 1
    assert done >= 120


# -- every task function takes the query as declared --------------------------


def _raises(exc, run):
    with pytest.raises(exc) as info:
        run()
    return info.value


def _check_front_doors(rng, q, db):
    """Each task function over (q, db) as declared, against the oracle;
    a refusal must be the verdict's, with its witness."""
    p = rand_predicate(rng, q)
    answers = oracle_answers(q, db)
    filtered = oracle_answers(q, db, predicate=p)
    tried = 0

    def check(task, spec, run):
        nonlocal tried
        if not classify(task, q, spec).tractable:
            err = _raises(IntractableQueryError, run)
            assert err.verdict.task is task and err.verdict.witness is not None
            return
        try:
            run()
        except UnsupportedPredicateError:
            return
        tried += 1

    def same_set(got, want):
        assert len(got) == len(set(got)) and set(got) == want, (q.to_text(), str(p))

    def unranked(pred, want):
        ix = build_unranked_da_pred(q, pred, db)
        assert ix.total == len(want)
        same_set([ix.access(k) for k in range(ix.total)], want)

    def count(pred, want):
        assert count_with_predicate(q, pred, db) == len(want), (q.to_text(), str(pred))

    def stream(pred, want):
        same_set(enumerate_with_predicate(q, pred, db).drain(), want)

    for pred, want in ((p, filtered), (None, answers)):
        check(Task.COUNTING, pred, lambda: count(pred, want))
        check(Task.UNRANKED_DA_PRED, pred, lambda: unranked(pred, want))
        check(Task.ENUM_PRED, pred, lambda: stream(pred, want))
    if q.free_vars:
        xs = rng.sample(q.free_vars, rng.randint(1, len(q.free_vars)))
        r = MinRanking(tuple(xs), maximize=rng.random() < 0.5)
        keys = [r.key(a) for a in oracle_sorted(answers, r.xs, maximize=r.maximize)]

        def ranked(seq):
            same_set(seq, answers)
            assert [r.key(a) for a in seq] == keys, (q.to_text(), str(r))

        def min_da():
            ix = build_min_da(q, r, db)
            ranked([ix.access(k) for k in range(ix.total)])

        check(Task.RANKED_DA, r.xs, min_da)
        check(Task.RANKED_ENUM, r.xs, lambda: ranked(enumerate_ranked_min(q, r, db).drain()))
    return tried


def test_task_functions_take_declared_queries(rng):
    # projected and Boolean heads and self-joins go in as declared: each
    # task function checks its verdict and restricts on its own
    tried = boolean = 0
    for _ in range(150):
        q = rand_acyclic_query(rng, max_atoms=4, min_free=0)
        boolean += q.is_boolean
        db = with_dangling_rows(rng, q, rand_database(rng, q, dom=5, max_rows=6))
        tried += _check_front_doors(rng, q, db)
    for q, db in edge_instances(rng):
        tried += _check_front_doors(rng, q, db)
    assert tried >= 1000 and boolean >= 20

    # a cyclic or a non-free-connex query is refused with a witness
    for text in ("Q(x,y,z) :- R(x,y), S(y,z), T(z,x).", "Q(x,z) :- R(x,y), S(y,z)."):
        q = parse_query(text)[0]
        db = rand_database(rng, q, dom=4, max_rows=5)
        p, r = MinPredicate("x", ("z",)), MinRanking(("x", "z"))
        for run in (
            lambda: build_min_da(q, r, db),
            lambda: build_min_da(q, MinRanking(r.xs, maximize=True), db),
            lambda: enumerate_ranked_min(q, r, db),
            lambda: enumerate_with_predicate(q, p, db),
            lambda: enumerate_with_predicate(q, None, db),
            lambda: build_unranked_da_pred(q, p, db),
            lambda: count_with_predicate(q, p, db),
            lambda: eliminate_min_predicate(q, p, db),
        ):
            assert _raises(IntractableQueryError, run).verdict.witness is not None, text

    # an unknown predicate or ranking variable is an engine error
    for text in ("Q(x,y) :- R(x,y), S(y,z).", "Q(x,y,z) :- R(x,y), R(y,z).", EDGE_QUERIES[4]):
        q = parse_query(text)[0]
        db = rand_database(rng, q, dom=4, max_rows=5)
        p = MinPredicate("nope", ("y",))
        doors = [
            lambda: count_with_predicate(q, p, db),
            lambda: build_unranked_da_pred(q, p, db),
            lambda: enumerate_with_predicate(q, p, db),
            lambda: eliminate_min_predicate(q, p, db),
            lambda: is_nonempty(q, p, db),
        ]
        if q.free_vars:
            doors += [
                lambda: build_min_da(q, ("x", "nope"), db),
                lambda: enumerate_ranked_min(q, ("nope",), db),
            ]
        for run in doors:
            assert not isinstance(_raises(EngineError, run), IntractableQueryError), text
