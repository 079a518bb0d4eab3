"""Verdicts against behaviour: a tractable verdict is answered, and a
refusal is the verdict's own, with its witness. The task functions carry
out the plan of their verdict, orders included, so no task runs GYO
outside `classify` but for the count pass with no order, whose tree
decides its tie order."""

import random
import traceback
from collections import Counter
from dataclasses import replace

import pytest

import minjoin.elim as elim
import minjoin.structure as structure
from minjoin import (
    IntractableQueryError,
    MinPredicate,
    MinRanking,
    Task,
    UnsupportedPredicateError,
    build_min_da,
    build_unranked_da_pred,
    classify,
    classify_all,
    count_with_predicate,
    eliminate_min_predicate,
    enumerate_ranked_min,
    enumerate_with_predicate,
    oracle_answers,
    oracle_sorted,
    parse_query,
    restrict_predicate_to_free,
    single_access,
)
from minjoin.bench import PATH_TEXT
from minjoin.cli import main
from minjoin.model import Atom, ConjunctiveQuery, Database, Relation

from conftest import predicate_rank_order, rand_acyclic_query, rand_database, rand_predicate


def _refusal(run, verdict):
    """The refusal that `run` raises: the verdict's own, with its class."""
    with pytest.raises(IntractableQueryError) as info:
        run()
    assert info.value.verdict == verdict and info.value.verdict.witness is not None
    assert isinstance(info.value, UnsupportedPredicateError) == (verdict.status == "unsupported")


def test_verdicts_match_behaviour_on_the_seed_7_sample():
    # each of the four fold-site tasks answers exactly when its verdict is
    # tractable, as the oracle does: counting its count, predicate
    # enumeration and unranked access (at every index) its answers, and
    # elimination its answers projected from the parts; and each refuses
    # with its verdict otherwise
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
        access = classify(Task.UNRANKED_DA_PRED, q, p)
        if access.tractable:
            da = build_unranked_da_pred(q, p, db)
            got = [da.access(k) for k in range(da.total)]
            assert len(got) == len(want) and set(got) == want, (q.to_text(), str(p))
        else:
            seen[f"unranked_da_pred {access.witness.kind}"] += 1
            _refusal(lambda: build_unranked_da_pred(q, p, db), access)
        elimination = classify(Task.ELIMINATION, q, p)
        if elimination.tractable:
            res = eliminate_min_predicate(q, p, db)
            parts = [{a.project(res.source_vars) for a in oracle_answers(part.query, part.database)}
                     for part in res.parts]
            assert sum(map(len, parts)) == len(want) and set().union(*parts) == want, (q.to_text(), str(p))
        else:
            seen[f"elimination {elimination.witness.kind}"] += 1
            _refusal(lambda: eliminate_min_predicate(q, p, db), elimination)
    assert seen == {"tractable": 2420, "no_fold_site": 452, "bad_path": 7, "not_free_connex": 121,
                    "enum_pred no_fold_site": 452, "enum_pred not_free_connex": 121,
                    "unranked_da_pred no_fold_site": 452, "unranked_da_pred not_free_connex": 121,
                    "unranked_da_pred bad_path": 7, "elimination no_fold_site": 452,
                    "elimination not_free_connex": 121, "elimination bad_path": 7}


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


def test_an_existential_x0_refusal_names_an_atom_that_holds_x0():
    # x0 = v2 is existential and coupled to the free v4 through v3; the
    # branch atom of its component is R2, which does not hold v2, so the
    # witness names v2's first atom
    q, p, _ = parse_query("Q(v4) :- R0(v1,v3,v2), R1(v3,v2), R2(v3,v4), R3(v4).\nPREDICATE v2 <= MIN(v4).\n")
    for task in (Task.ELIMINATION, Task.COUNTING, Task.UNRANKED_DA_PRED, Task.ENUM_PRED):
        v = classify(task, q, p)
        assert v.to_json()["witness"] == {"kind": "no_fold_site", "members": ["v2"], "atom": "R0"}
        assert str(v) == f"{task.value}: unsupported (no fold site for v2 in R0; an implementation limit, not a lower bound)"


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


def _same_orders(got, want):
    """Two lists of (x, order-tree pair) agree: the same variables, pairs,
    ties, tree parent maps and roots, in the same order."""
    shape = [(x, otp.order.pairs, otp.ties, otp.tree.parent, otp.tree.root) for x, otp in got]
    assert shape == [(x, otp.order.pairs, otp.ties, otp.tree.parent, otp.tree.root) for x, otp in want]


def test_the_plan_holds_the_orders_of_the_restricted_query_on_the_seed_7_sample():
    # the orders that classify builds from the query alone are those that
    # min_orders and fork_tree give over the query that restriction
    # returns, and exist exactly when it leaves a residual predicate;
    # ranked access ranks by the predicate's free variables
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        q = rand_acyclic_query(rng, max_atoms=4)
        p = rand_predicate(rng, q)
        db = rand_database(rng, q)
        for task in (Task.COUNTING, Task.UNRANKED_DA_PRED):
            v = classify(task, q, p)
            if not v.tractable:
                continue
            q2, residual, _ = restrict_predicate_to_free(q, p, db, v.plan)
            assert (v.plan.orders is None) == (residual is None), (q.to_text(), str(p))
            if residual is None:
                continue
            x = residual.x0 if task is Task.COUNTING else q2.free_vars[0]
            want = [(x, otp if task is Task.COUNTING else replace(otp, tree=elim.fork_tree(q2, otp, x)))
                    for otp in elim.min_orders(q2, residual.x0, residual.xs, predicate_rank_order(q2, p))]
            _same_orders(v.plan.orders, want)
            seen[task.value] += 1
        xs = tuple(dict.fromkeys(x for x in (p.x0, *p.xs) if x in q.free_vars))
        v = classify(Task.RANKED_DA, q, xs)
        if xs and v.tractable:
            q1, _, _ = restrict_predicate_to_free(q, None, db, v.plan)
            xs = sorted(xs, key=q1.variables.index)
            _same_orders(v.plan.orders, [(x, replace(otp, tree=elim.fork_tree(q1, otp, x)))
                                         for x in xs for otp in elim.min_orders(q1, x, [y for y in xs if y != x])])
            seen["ranked_da"] += 1
            seen["ranked_da orders"] += len(v.plan.orders)
    assert seen == {"counting": 1048, "unranked_da_pred": 1048, "ranked_da": 2554, "ranked_da orders": 4465}


STAR = "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\n"


def _star_db():
    rows = [(i % 5, i % 3) for i in range(12)]
    return Database({s: Relation.from_ints(s, 2, rows) for s in ("W1", "W2", "W3")})


def test_gyo_runs_only_inside_classify_and_for_tie_trees(monkeypatch):
    # classify runs GYO twice, and once per tree of the plan's orders
    # (min_orders, fork_tree); outside it, only the count pass with no
    # order roots its own tree, which decides its tie order (count_buckets)
    gyo, runs = structure._gyo, []

    def counted(h):
        runs.append([(f.filename, f.name) for f in traceback.extract_stack()])
        return gyo(h)

    monkeypatch.setattr(structure, "_gyo", counted)

    def within(stack, module, function):
        return any(name.endswith(module) and f == function for name, f in stack)

    def count(run, apart=0):
        # the number of runs; `apart` of them outside classify, each in count_buckets
        runs.clear()
        run()
        assert not any(name.endswith("reduce.py") for stack in runs for name, _ in stack)
        outside = [s for s in runs if not within(s, "structure.py", "classify")]
        assert len(outside) == apart and all(within(s, "semiring.py", "count_buckets") for s in outside)
        return len(runs)

    q, _, r = parse_query(STAR + "ORDER BY MIN(r1,r2,r3).\n")
    qp, p, _ = parse_query(STAR + "PREDICATE r1 <= MIN(r2,r3).\n")
    qe, pe, _ = parse_query(PATH_TEXT)
    qx, px, _ = parse_query("Q(x,u) :- R(x,z), S(z,y), T(u).\nPREDICATE x <= MIN(y).\n")
    db = _star_db()
    de = Database({a.symbol: Relation.from_ints(a.symbol, 2, [(0, 1), (1, 1), (1, 0)]) for a in qe.atoms})
    dx = Database({"R": Relation.from_ints("R", 2, [[4, 1], [9, 1], [2, 2]]),
                   "S": Relation.from_ints("S", 2, [[1, 6], [2, 1]]), "T": Relation.from_ints("T", 1, [[0]])})
    assert count(lambda: build_min_da(q, r.xs, db)) == 8
    assert count(lambda: build_unranked_da_pred(qp, p, db)) == 4
    assert count(lambda: count_with_predicate(qp, p, db)) == 3
    assert count(lambda: eliminate_min_predicate(qp, p, db)) == 3
    assert count(lambda: enumerate_with_predicate(qe, pe, de).drain()) == 2
    assert count(lambda: enumerate_ranked_min(q, r.xs, db).drain(), apart=3) == 5
    assert count(lambda: count_with_predicate(qx, px, dx), apart=1) == 3


@pytest.mark.xfail(strict=True, raises=IntractableQueryError,
                   reason="ROADMAP item 2: single access takes the RANKED_DA route and its verdict")
def test_single_access_honours_its_verdict():
    q, _, r = parse_query("Q(x0,u,v,x1) :- R0(x0,u), R1(u,v), R2(v,x1).\nORDER BY MIN(x0,x1).\n")
    db = Database({s: Relation.from_ints(s, 2, [(0, 1), (1, 0), (1, 1)]) for s in ("R0", "R1", "R2")})
    assert classify(Task.SINGLE_ACCESS, q, r.xs).tractable
    first = oracle_sorted(oracle_answers(q, db), r.xs)[0]
    assert r.key(single_access(q, r.xs, db, 0)) == r.key(first)


MEMBER_PATH = "Q(a,b,c,d,z) :- R(a,b), S(b,c), U(c,d), T(z).\nPREDICATE z <= MIN(d,a).\n"


def _count_refuses(tmp_path, capsys, text, path):
    """Counting refuses text's query on the chordless path `path`, and so
    does `minjoin count`: it exits 2 with the witness."""
    q, p, _ = parse_query(text)
    v = classify(Task.COUNTING, q, p)
    assert (v.witness.kind, v.witness.path) == ("bad_path", path)
    db = Database({a.symbol: Relation.from_ints(a.symbol, a.arity, [[(i + j) % 2 for j in range(a.arity)]
                                                                    for i in range(2)]) for a in q.atoms})
    _refusal(lambda: count_with_predicate(q, p, db), v)
    (tmp_path / "q.mq").write_text(text)
    (tmp_path / "data").mkdir()
    for a in q.atoms:
        rows = db.relation(a.symbol).rows
        (tmp_path / "data" / a.symbol).write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    capsys.readouterr()
    assert main(["count", "--query", str(tmp_path / "q.mq"), "--data", str(tmp_path / "data")]) == 2
    assert f"refused: counting: intractable (chordless path {'-'.join(path)})" in capsys.readouterr().err


def test_count_with_a_disconnected_x0_honours_its_verdict(tmp_path, capsys):
    # the members a and d are joined by a chordless path away from z
    _count_refuses(tmp_path, capsys, MEMBER_PATH, ("a", "b", "c", "d"))
    q, p, _ = parse_query(MEMBER_PATH)
    for task in (Task.ELIMINATION, Task.UNRANKED_DA_PRED):
        assert classify(task, q, p).witness.path == ("a", "b", "c", "d")
    assert classify(Task.ENUM_PRED, q, p).tractable


def test_count_with_x0_in_a_branch_apart_from_a_member_honours_its_verdict(tmp_path, capsys):
    # x0 = v8 shares an atom with the member v7; the members v2 and v5
    # are joined by a chordless path in another component
    _count_refuses(tmp_path, capsys,
                   "Q(v2,v1,v4,v3,v6,v5,v7,v9,v8,v10,v13,v11,v12) :- R0(v2,v1), R1(v1,v4,v3), R2(v6,v4,v5), "
                   "R3(v7,v9,v8), R4(v10), R5(v13,v11,v12).\nPREDICATE v8 <= MIN(v5,v2,v7).\n",
                   ("v2", "v1", "v4", "v5"))


def test_counting_with_a_member_path_counts_triangles():
    # with R = S = U = E over 1..n and T = 1..2n+1, let C(f, g) count the
    # answers with R's a column mapped by f and U's d column by g: then
    # C(2a, 2d+1) - C(2a, 2d) counts the paths a-b-c-d with a > d and
    # C(2a+1, 2d) - C(2a, 2d) those with a < d, so the paths less both
    # are the closed walks a-b-c-a: four counts give a triangle count
    q, p, _ = parse_query(MEMBER_PATH)
    assert classify(Task.COUNTING, q, p).witness.path == ("a", "b", "c", "d")
    path = ConjunctiveQuery(q.atoms[:3], ("a", "b", "c", "d"))
    rng = random.Random(17)
    with_triangles = 0
    for _ in range(20):
        n = rng.randint(3, 8)
        edges = {e for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4
                 for e in ((u, v), (v, u))}

        def db(f, g):
            return Database({"R": Relation.from_ints("R", 2, [(f(a), b) for a, b in edges]),
                             "S": Relation.from_ints("S", 2, edges),
                             "U": Relation.from_ints("U", 2, [(c, g(d)) for c, d in edges]),
                             "T": Relation.from_ints("T", 1, [[z] for z in range(1, 2 * n + 2)])})

        def count(fa, gd):
            return len(oracle_answers(q, db(lambda a: 2 * a + fa, lambda d: 2 * d + gd), p))

        paths = len(oracle_answers(path, db(lambda a: a, lambda d: d)))
        above, below = count(0, 1) - count(0, 0), count(1, 0) - count(0, 0)
        triangles = sum((a, b) in edges and (b, c) in edges and (c, a) in edges
                        for a in range(1, n + 1) for b in range(1, n + 1) for c in range(1, n + 1))
        assert paths - above - below == triangles
        with_triangles += triangles > 0
    assert with_triangles >= 5, with_triangles


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
    # reordering atoms, columns, head and members moves no verdict kind of
    # any task, on queries of up to four atoms and of up to six
    for seed, atoms, n in ((11, 4, 3000), (12, 6, 600)):
        rng = random.Random(seed)
        for _ in range(n):
            q = rand_acyclic_query(rng, max_atoms=atoms)
            p = rand_predicate(rng, q)
            r = MinRanking(tuple(rng.sample(q.free_vars, rng.randint(1, len(q.free_vars)))))
            assert _kinds(q, p, r) == _kinds(*_scrambled(rng, q, p, r)), (q.to_text(), str(p))


def test_fold_sites_do_not_depend_on_atom_order():
    # R4(v7) shares no variable with the rest, so its branch atom is
    # v5's first atom in either order
    body = {"R0": "R0(v3,v1,v2)", "R1": "R1(v4)", "R2": "R2(v4)", "R3": "R3(v5,v6)", "R4": "R4(v7)"}
    rows = {"R0": [[0, 1, 2], [1, 1, 5]], "R1": [[1], [2]], "R2": [[2], [3]],
            "R3": [[1, 4], [3, 2], [5, 6], [2, 2]], "R4": [[0], [3]]}
    db = Database({s: Relation.from_ints(s, len(rows[s][0]), rows[s]) for s in rows})
    for order in (("R0", "R1", "R2", "R3", "R4"), ("R3", "R4", "R1", "R2", "R0")):
        q, p, _ = parse_query(f"Q(v6,v5,v2,v4) :- {', '.join(map(body.get, order))}.\n"
                              "PREDICATE v5 <= MIN(v6,v7).\n")
        assert count_with_predicate(q, p, db) == len(oracle_answers(q, db, p)) == 4
