"""Verdicts against behaviour: a tractable verdict is answered, and a
refusal is the verdict's own, with its witness. The task functions carry
out the plan of their verdict, so no task runs GYO outside `classify`
but to build the trees that decide its tie orders."""

import random
import traceback
from collections import Counter

import pytest

import minjoin.structure as structure
from minjoin import (
    IntractableQueryError,
    MinPredicate,
    MinRanking,
    Task,
    UnsupportedPredicateError,
    build_min_da,
    classify,
    classify_all,
    count_with_predicate,
    enumerate_ranked_min,
    enumerate_with_predicate,
    oracle_answers,
    oracle_sorted,
    parse_query,
    single_access,
)
from minjoin.errors import InternalInvariantError
from minjoin.model import Atom, ConjunctiveQuery, Database, Relation

from conftest import rand_acyclic_query, rand_database, rand_predicate


def _refusal(run, verdict):
    """The refusal that `run` raises: the verdict's own, with its class."""
    with pytest.raises(IntractableQueryError) as info:
        run()
    assert info.value.verdict == verdict and info.value.verdict.witness is not None
    assert isinstance(info.value, UnsupportedPredicateError) == (verdict.status == "unsupported")


def test_verdicts_match_behaviour_on_the_seed_7_sample():
    # counting answers exactly when its verdict is tractable, with the
    # oracle's count, and predicate enumeration refuses exactly when its
    # verdict does; the 561 instances with no fold site were called
    # tractable and then refused by restriction
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        q = rand_acyclic_query(rng, max_atoms=4)
        p = rand_predicate(rng, q)
        db = rand_database(rng, q)
        want = oracle_answers(q, db, p)
        counting = classify(Task.COUNTING, q, p)
        seen[counting.witness.kind if counting.witness else "tractable"] += 1
        if counting.tractable:
            assert count_with_predicate(q, p, db) == len(want), (q.to_text(), str(p))
        else:
            _refusal(lambda: count_with_predicate(q, p, db), counting)
        enum = classify(Task.ENUM_PRED, q, p)
        if enum.tractable:
            got = enumerate_with_predicate(q, p, db).drain()
            assert len(got) == len(want) and set(got) == want, (q.to_text(), str(p))
        else:
            seen[f"enum_pred {enum.witness.kind}"] += 1
            _refusal(lambda: enumerate_with_predicate(q, p, db), enum)
    assert seen == {"tractable": 2311, "no_fold_site": 561, "bad_path": 7, "not_free_connex": 121,
                    "enum_pred no_fold_site": 561, "enum_pred not_free_connex": 121}


def test_no_fold_site_is_refused_by_the_verdict():
    q, p, _ = parse_query("Q(x0,a,b,c) :- R(x0,a), S(a,b), U(b,c,e).\nPREDICATE x0 <= MIN(e).\n")
    for task in (Task.ELIMINATION, Task.COUNTING, Task.UNRANKED_DA_PRED, Task.ENUM_PRED):
        v = classify(task, q, p)
        assert (v.status, v.plan) == ("unsupported", None)
        assert v.to_json()["witness"] == {"kind": "no_fold_site", "members": ["e"], "atom": "U"}
        assert str(v) == f"{task.value}: unsupported (no fold site for e in U; an implementation limit, not a lower bound)"
        with pytest.raises(UnsupportedPredicateError) as info:
            v.require()
        assert info.value.verdict is v
        assert str(info.value) == "x0 <= min(e): 'x0' does not reach branch atom U, and the branch is not independent"
    assert classify(Task.BOOLEAN, q, p).tractable


def test_a_self_join_refusal_says_what_the_lower_bound_covers():
    text = "Q(x,u,v,y) :- {}(x,u), {}(u,v), {}(v,y).\nORDER BY MIN(x,y).\n"
    q, _, r = parse_query(text.format("R", "R", "R"))
    copy, _, _ = parse_query(text.format("R", "S", "T"))
    v = classify(Task.RANKED_DA, q, r.xs)
    assert v == classify(Task.RANKED_DA, copy, r.xs) and v.witness.path == ("x", "u", "v", "y")
    assert str(v) == (
        "ranked_da: intractable (chordless path x-u-v-y; the lower bound is for the query's self-join-free copy)"
    )
    assert str(classify(Task.RANKED_DA, copy, r.xs)) == "ranked_da: intractable (chordless path x-u-v-y)"


def test_the_plan_holds_the_join_tree_that_restriction_reads():
    rng = random.Random(13)
    for _ in range(200):
        q = rand_acyclic_query(rng, max_atoms=5)
        v = classify(Task.ENUM_PRED, q, None)
        if not v.tractable:
            assert v.plan is None
            continue
        assert v.plan.tree.parent == structure.tree_for_query(q).parent
        assert set().union(*v.plan.branches.values()) == set(q.variables)
        for x in set(q.variables) - set(q.free_vars):
            assert sum(x in vs for vs in v.plan.branches.values()) == 1


STAR = "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\n"


def _star_db():
    rows = [(i % 5, i % 3) for i in range(12)]
    return Database({s: Relation.from_ints(s, 2, rows) for s in ("W1", "W2", "W3")})


def test_gyo_runs_only_inside_classify_and_for_tie_trees(monkeypatch):
    # classify runs GYO twice; the rest are the trees over the restricted
    # query that decide tie orders (min_orders, fork_tree, count_buckets)
    gyo, runs = structure._gyo, []

    def counted(h):
        runs.append([f.filename for f in traceback.extract_stack()])
        return gyo(h)

    monkeypatch.setattr(structure, "_gyo", counted)

    def count(run):
        runs.clear()
        run()
        assert not any(name.endswith("reduce.py") for stack in runs for name in stack)
        return len(runs)

    q, _, r = parse_query(STAR + "ORDER BY MIN(r1,r2,r3).\n")
    qp, p, _ = parse_query(STAR + "PREDICATE r1 <= MIN(r2,r3).\n")
    qx, px, _ = parse_query("Q(x,u) :- R(x,z), S(z,y), T(u).\nPREDICATE x <= MIN(y).\n")
    db = _star_db()
    dx = Database({"R": Relation.from_ints("R", 2, [[4, 1], [9, 1], [2, 2]]),
                   "S": Relation.from_ints("S", 2, [[1, 6], [2, 1]]), "T": Relation.from_ints("T", 1, [[0]])})
    assert count(lambda: build_min_da(q, r.xs, db)) == 8
    assert count(lambda: enumerate_ranked_min(q, r.xs, db)) == 5
    assert count(lambda: count_with_predicate(qp, p, db)) == 3
    assert count(lambda: count_with_predicate(qx, px, dx)) == 3


@pytest.mark.xfail(strict=True, raises=IntractableQueryError,
                   reason="ROADMAP item 2: single access takes the RANKED_DA route and its verdict")
def test_single_access_honours_its_verdict():
    q, _, r = parse_query("Q(x0,u,v,x1) :- R0(x0,u), R1(u,v), R2(v,x1).\nORDER BY MIN(x0,x1).\n")
    db = Database({s: Relation.from_ints(s, 2, [(0, 1), (1, 0), (1, 1)]) for s in ("R0", "R1", "R2")})
    assert classify(Task.SINGLE_ACCESS, q, r.xs).tractable
    first = oracle_sorted(oracle_answers(q, db), r.xs)[0]
    assert r.key(single_access(q, r.xs, db, 0)) == r.key(first)


@pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                   reason="ROADMAP item 2: partition needs no chordless path between compared variables")
def test_count_with_a_disconnected_x0_honours_its_verdict():
    q, _, _ = parse_query("Q(a,b,c,d,z) :- R(a,b), S(b,c), U(c,d), T(z).\n")
    p = MinPredicate("z", ("d", "a"))
    pair = [(0, 1), (1, 0), (1, 1)]
    db = Database({**{s: Relation.from_ints(s, 2, pair) for s in ("R", "S", "U")},
                   "T": Relation.from_ints("T", 1, [[0], [1]])})
    assert classify(Task.COUNTING, q, p).tractable
    assert count_with_predicate(q, p, db) == len(oracle_answers(q, db, p))


@pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                   reason="ROADMAP item 2: partition needs no chordless path between compared variables")
def test_count_with_x0_in_a_branch_apart_from_a_member_honours_its_verdict():
    q, p, _ = parse_query(
        "Q(v2,v1,v4,v3,v6,v5,v7,v9,v8,v10,v13,v11,v12) :- R0(v2,v1), R1(v1,v4,v3), R2(v6,v4,v5), "
        "R3(v7,v9,v8), R4(v10), R5(v13,v11,v12).\nPREDICATE v8 <= MIN(v5,v2,v7).\n")
    db = Database({a.symbol: Relation.from_ints(a.symbol, a.arity, [[(i + j) % 2 for j in range(a.arity)]
                                                                    for i in range(2)]) for a in q.atoms})
    assert classify(Task.COUNTING, q, p).tractable
    assert count_with_predicate(q, p, db) == len(oracle_answers(q, db, p))


FOLD_SITE_TASKS = {Task.ELIMINATION, Task.COUNTING, Task.UNRANKED_DA_PRED, Task.ENUM_PRED}


def _kinds(q, p, r):
    return {v.task: v.witness.kind if v.witness else "tractable" for v in classify_all(q, p, r)}


def _scrambled(rng, q, p, r):
    """q, p and r with the variables renamed, and the atoms, each atom's
    columns, the head and the members in a random order."""
    names = rng.sample(q.variables, len(q.variables))
    to = {v: f"w{i}" for i, v in enumerate(names)}.__getitem__
    atoms = [Atom(a.symbol, tuple(map(to, rng.sample(a.vars, len(a.vars))))) for a in q.atoms]
    rng.shuffle(atoms)
    head = tuple(map(to, rng.sample(q.free_vars, len(q.free_vars))))
    return (ConjunctiveQuery(tuple(atoms), head, q.name),
            MinPredicate(to(p.x0), tuple(map(to, rng.sample(p.xs, len(p.xs)))), p.strict),
            MinRanking(tuple(map(to, rng.sample(r.xs, len(r.xs))))))


def test_verdicts_do_not_depend_on_names_or_order():
    # a verdict reads the query's shape alone, so renaming variables and
    # reordering atoms, columns, head and members moves no verdict kind;
    # the one exception, ROADMAP item 5's, is pinned: the fold sites
    # depend on the join tree that GYO builds in atom order, and the four
    # fold-site tasks move together between tractable and no_fold_site
    rng = random.Random(11)
    flips = Counter()
    for _ in range(3000):
        q = rand_acyclic_query(rng, max_atoms=4)
        p = rand_predicate(rng, q)
        r = MinRanking(tuple(rng.sample(q.free_vars, rng.randint(1, len(q.free_vars)))))
        before, after = _kinds(q, p, r), _kinds(*_scrambled(rng, q, p, r))
        moved = {t for t in Task if before[t] != after[t]}
        if moved:
            assert moved == FOLD_SITE_TASKS, (q.to_text(), str(p))
            assert {before[t] for t in moved} | {after[t] for t in moved} == {"tractable", "no_fold_site"}
            flips[before[Task.COUNTING], after[Task.COUNTING]] += 1
    assert flips == {("tractable", "no_fold_site"): 53, ("no_fold_site", "tractable"): 42}


@pytest.mark.xfail(strict=True, raises=UnsupportedPredicateError,
                   reason="ROADMAP item 5: GYO glues the independent R4(v7) under R2 in the second atom order")
def test_fold_sites_do_not_depend_on_atom_order():
    body = {"R0": "R0(v3,v1,v2)", "R1": "R1(v4)", "R2": "R2(v4)", "R3": "R3(v5,v6)", "R4": "R4(v7)"}
    rows = {"R0": [[0, 1, 2], [1, 1, 5]], "R1": [[1], [2]], "R2": [[2], [3]],
            "R3": [[1, 4], [3, 2], [5, 6], [2, 2]], "R4": [[0], [3]]}
    db = Database({s: Relation.from_ints(s, len(rows[s][0]), rows[s]) for s in rows})
    for order in (("R0", "R1", "R2", "R3", "R4"), ("R3", "R4", "R1", "R2", "R0")):
        q, p, _ = parse_query(f"Q(v6,v5,v2,v4) :- {', '.join(map(body.get, order))}.\n"
                              "PREDICATE v5 <= MIN(v6,v7).\n")
        assert count_with_predicate(q, p, db) == len(oracle_answers(q, db, p)) == 4
