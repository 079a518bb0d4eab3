import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from minjoin import (
    Answer,
    IntractableQueryError,
    MinPredicate,
    Task,
    UnsupportedPredicateError,
    build_unranked_da_pred,
    classify,
    count_answers,
    count_with_predicate,
    eliminate_enforced_order,
    eliminate_min_predicate,
    is_free_connex,
    join_tree,
    min_predicate_orders,
    oracle_answers,
    parse_query,
    partition_min_orders,
    remove_self_joins,
    tree_for_query,
)
from minjoin.elim import _fork_sides, fork_bits, fork_replay, min_orders
from minjoin.model import Database, Relation

from conftest import (
    disjointify,
    edge_instances,
    fork_rewrite_reference,
    part_cells,
    predicate_rank_order,
    rand_acyclic_query,
    rand_database,
    rand_predicate,
    untagged,
)


def _project_untag(answers, vars_):
    return {untagged(a.project(vars_)) for a in answers}


def _part_answers(res):
    return [{a.project(res.source_vars) for a in oracle_answers(part.query, part.database)} for part in res.parts]


# -- fork decomposition -------------------------------------------------------


def test_fork_sides_unique_join(rng):
    # over every domain size up to 40 and both tie sides: an a key and a
    # b key share exactly one fork id when a < b, none otherwise, and the
    # keys that get no id are exactly those that fork_replay's drop rule
    # removes, the last a key when len(dom) is a power of two, the first
    # b key always
    q = parse_query("Q(a,b) :- R(a), S(b).")[0]
    (otp,) = min_orders(q, "a", ["b"])
    for pair in (otp, replace(otp, ties=frozenset())):
        (site,) = pair.sites(q.variables)
        ka, kb = fork_bits(site.le)
        for size in range(1, 41):
            dom = sorted(rng.sample(range(4 * size), size))
            akeys = [k for k in dom if k % 2 == ka]
            bkeys = [k for k in dom if k % 2 == kb]
            db = Database({
                "R": Relation.from_ints("R", 1, [[k // 2] for k in akeys]),
                "S": Relation.from_ints("S", 1, [[k // 2] for k in bkeys]),
            })
            doms, rows = fork_replay(q, db, pair)
            assert doms == {("a", "b"): dom}
            a_side, b_side, L = _fork_sides(dom)
            na, nb = site.ends
            assert {2 * c + ka for c, in rows[na]} == {k for k in akeys if a_side[k]}
            assert {2 * c + kb for c, in rows[nb]} == {k for k in bkeys if b_side[k]}
            for a in akeys:
                assert len(a_side[a]) <= L
                for b in bkeys:
                    common = set(a_side[a]) & set(b_side[b])
                    assert len(common) == (1 if a < b else 0), (a, b)


# -- enforced-order elimination ----------------------------------------------


def _star_instance():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    db = Database(
        {
            "R0": Relation.from_ints("R0", 1, [[1], [2]]),
            "R1": Relation.from_ints("R1", 2, [[1, 0], [2, 0]]),
            "R2": Relation.from_ints("R2", 2, [[2, 0], [3, 0]]),
        }
    )
    return q, db


def test_eliminate_enforced_order_golden_shape():
    q, db = _star_instance()
    d = disjointify(db, q, ["x0", "x1", "x2", "y"])
    t = tree_for_query(q)
    t = t.reroot(min(n for n in t.nodes() if "x0" in t.vars_of[n]))
    pairs = partition_min_orders(t, "x0", ["x1", "x2"], var_order=q.variables)
    otp = next(p for p in pairs if str(p.order) == "x0<x1, x1<x2")
    q1, d1 = eliminate_enforced_order(q, d, otp)
    by_base = {a.symbol.split("_")[0]: a for a in q1.atoms}
    assert len(q1.free_vars) == 6  # x0,x1,x2,y + two fresh
    fresh = [v for v in q1.free_vars if v not in q.free_vars]
    assert len(fresh) == 2
    v1, v2 = fresh
    assert set(by_base["R0"].vars) == {"x0", v1}
    assert set(by_base["R1"].vars) == {"x1", "y", v1, v2}
    assert set(by_base["R2"].vars) == {"x2", "y", v2}
    assert join_tree is not None and is_free_connex(q1)


def test_eliminate_enforced_order_empty_order_identity():
    q, db = _star_instance()
    d = disjointify(db, q, list(q.variables))
    t = tree_for_query(q)
    from minjoin.partition import OrderTreePair, StrictPartialOrder

    q1, d1 = eliminate_enforced_order(q, d, OrderTreePair(StrictPartialOrder(frozenset()), t))
    assert q1.free_vars == q.free_vars
    assert oracle_answers(q1, d1) == oracle_answers(q, d)


def test_eliminate_enforced_order_single_pair_random(rng):
    done = 0
    while done < 40:
        q = rand_acyclic_query(rng, max_atoms=3, max_arity=2, full=True)
        if not q.is_self_join_free or len(q.variables) < 2:
            continue
        db = rand_database(rng, q, dom=5, max_rows=6)
        d = disjointify(db, q, list(q.variables))
        vars_ = list(q.variables)
        a, b = rng.sample(vars_, 2)
        t = tree_for_query(q)
        t = t.reroot(min(n for n in t.nodes() if a in t.vars_of[n]))
        try:
            pairs = partition_min_orders(t, a, [b], var_order=q.variables)
        except Exception:
            continue
        if len(pairs) != 1:
            continue
        q1, d1 = eliminate_enforced_order(q, d, pairs[0])
        got = _project_untag(oracle_answers(q1, d1), q.free_vars)
        want = {
            untagged(ans)
            for ans in oracle_answers(q, d, predicate=MinPredicate(a, (b,), strict=True))
        }
        assert got == want
        done += 1


# -- full elimination ---------------------------------------------------------


def test_eliminate_min_predicate_star_counts():
    q, db = _star_instance()
    p = MinPredicate("x0", ("x1", "x2"))
    res = eliminate_min_predicate(q, p, db)
    assert len(res.parts) == 2
    parts = _part_answers(res)
    union = set().union(*parts)
    assert sum(map(len, parts)) == len(union) == 6
    assert union == oracle_answers(q, db, predicate=p)
    # x0=1 admits 4, x0=2 admits 2
    c = Counter(a["x0"].base for a in union)
    assert c == {1: 4, 2: 2}


def test_eliminate_min_predicate_vacuous_singleton():
    q, db = _star_instance()
    res = eliminate_min_predicate(q, MinPredicate("x0", ("x0",)), db)
    assert len(res.parts) == 1 and res.parts[0].order is None
    assert _part_answers(res)[0] == oracle_answers(q, db)


def test_eliminate_min_predicate_intractable_refused():
    q, p, _ = parse_query(
        "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
        "PREDICATE x0 <= MIN(x1,x2).\n"
    )
    db = Database(
        {
            "R0": Relation.from_ints("R0", 2, [[0, 0]]),
            "R1": Relation.from_ints("R1", 2, [[0, 0]]),
            "R2": Relation.from_ints("R2", 2, [[0, 0]]),
            "R3": Relation.from_ints("R3", 2, [[0, 0]]),
        }
    )
    with pytest.raises(IntractableQueryError):
        eliminate_min_predicate(q, p, db)


def test_non_composability_regression():
    # eliminating the first predicate introduces a chordless 3-path that
    # blocks the second
    q, _, _ = parse_query("Q(x1,x2,x3,y) :- R1(x1), R2(x2,y), R3(x3,y).")
    p1 = MinPredicate("x1", ("x1", "x2"))
    p2 = MinPredicate("x1", ("x1", "x3"))
    db = Database(
        {
            "R1": Relation.from_ints("R1", 1, [[1], [2]]),
            "R2": Relation.from_ints("R2", 2, [[1, 0], [2, 0]]),
            "R3": Relation.from_ints("R3", 2, [[0, 0], [3, 0]]),
        }
    )
    assert classify(Task.ELIMINATION, q, p1).tractable
    assert classify(Task.ELIMINATION, q, p2).tractable
    res = eliminate_min_predicate(q, p1, db)
    blocked = 0
    for part in res.parts:
        v = classify(Task.ELIMINATION, part.query, p2)
        if not v.tractable:
            assert v.witness.kind == "bad_path"
            assert {v.witness.path[0], v.witness.path[-1]} == {"x1", "x3"}
            assert len(v.witness.path) == 4
            blocked += 1
    assert blocked >= 1


def test_eliminate_min_predicate_random_sweep(rng):
    done = skipped = 0
    while done < 80 and skipped < 600:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=False)
        if not q.is_self_join_free or q.is_boolean:
            continue
        p = rand_predicate(rng, q)
        # no predicate: the structural verdict, as for the trivial x0 <= MIN(x0)
        trivial = MinPredicate(q.variables[0], (q.variables[0],))
        for task in (Task.ELIMINATION, Task.COUNTING, Task.UNRANKED_DA_PRED):
            assert classify(task, q, None) == classify(task, q, trivial)
        if not classify(Task.ELIMINATION, q, p).tractable:
            skipped += 1
            continue
        db = rand_database(rng, q, dom=6, max_rows=6)
        try:
            res = eliminate_min_predicate(q, p, db)
        except UnsupportedPredicateError:
            skipped += 1
            continue
        for pred, res in ((p, res), (None, eliminate_min_predicate(q, None, db))):
            want = oracle_answers(q, db, predicate=pred)
            parts = _part_answers(res)
            union: set[Answer] = set()
            total = 0
            for s in parts:
                total += len(s)
                union |= s
            assert total == len(union), "parts overlap"
            assert union == want, (q.to_text(), str(pred))
            for part in res.parts:
                assert part.query.is_full and part.query.is_self_join_free
                assert is_free_connex(part.query)
                assert set(res.source_vars) <= set(part.query.variables)
            assert count_with_predicate(q, pred, db) == len(want)
            da = build_unranked_da_pred(q, pred, db)
            got = [da.access(k) for k in range(da.total)]
            assert len(got) == len(set(got)) and set(got) == want
        done += 1
    assert done >= 80
    checked = booleans = 0
    for q, db in edge_instances(rng):
        for pred in (rand_predicate(rng, q), None):
            if not classify(Task.COUNTING, q, pred).tractable:
                continue
            want = oracle_answers(q, db, predicate=pred)
            try:
                assert count_with_predicate(q, pred, db) == len(want), (q.to_text(), str(pred))
                da = build_unranked_da_pred(q, pred, db)
                got = [da.access(k) for k in range(da.total)]
                assert len(got) == len(set(got)) and set(got) == want, (q.to_text(), str(pred))
            except UnsupportedPredicateError:
                continue
            if q.is_boolean and classify(Task.ELIMINATION, q, pred).tractable:
                (part,) = eliminate_min_predicate(q, pred, db).parts
                assert part.order is None and part.min_var is None
                assert part.query == remove_self_joins(q, db)[0]
                assert bool(oracle_answers(part.query, part.database)) == bool(want), (q.to_text(), str(pred))
                booleans += 1
            checked += 1
    assert checked >= 30 and booleans >= 10


def test_count_answers_with_order_matches_fork_rewrite(rng):
    # the counting pass enforces each order without forks, on the plain
    # cells with each pair's side on a tie. The reference rewrite
    # (conftest.fork_rewrite_reference) over the tagged data, with a pair
    # that no tie passes, counted with no order, gives the count; the
    # reference rewrite over the plain cells agrees, and the engine's
    # rewrite is exactly its part
    def check(q, p, db):
        try:
            q2, d, otps = min_predicate_orders(q, p, db)
        except UnsupportedPredicateError:
            return 0
        crossing = 0
        for otp in otps or ():
            tagged = disjointify(d, q2, predicate_rank_order(q2, p))
            ref = fork_rewrite_reference(q2, d, otp)
            assert part_cells(*eliminate_enforced_order(q2, d, otp)) == part_cells(*ref)
            want = count_answers(*fork_rewrite_reference(q2, tagged, replace(otp, ties=frozenset())))
            assert count_answers(q2, d, otp) == want == count_answers(*ref)
            crossing += sum(site.ends is not None for site in otp.sites(q2.variables))
        return crossing

    crossing = strict = 0
    done = 0
    while done < 300:
        q = rand_acyclic_query(rng, max_atoms=6, max_arity=3, full=rng.random() < 0.5)
        if q.is_boolean:
            continue
        p = rand_predicate(rng, q)
        if classify(Task.COUNTING, q, p).status == "intractable":  # no fold site: check returns 0
            continue
        crossing += check(q, p, rand_database(rng, q, dom=6, max_rows=8))
        strict += p.strict
        done += 1
    for q, db in edge_instances(rng):
        if q.is_boolean:
            continue
        p = rand_predicate(rng, q)
        if classify(Task.COUNTING, q, p).tractable:
            crossing += check(q, p, db)
    assert crossing >= 150 and strict >= 40, (crossing, strict)


def test_elimination_blowup_envelope():
    # |D_i| stays within c * |D| * ceil(log2(dom+2))^pairs on a scaling family
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    p = MinPredicate("x0", ("x1", "x2"))
    for scale in (256, 1024):
        rnd = random.Random(scale)
        db = Database(
            {
                "R0": Relation.from_ints("R0", 1, [[i] for i in range(scale)]),
                "R1": Relation.from_ints(
                    "R1", 2, [[rnd.randrange(scale), rnd.randrange(30)] for i in range(scale)]
                ),
                "R2": Relation.from_ints(
                    "R2", 2, [[rnd.randrange(scale), rnd.randrange(30)] for i in range(scale)]
                ),
            }
        )
        res = eliminate_min_predicate(q, p, db)
        bound_factor = max(1, (2 * scale + 2).bit_length()) ** 2
        for part in res.parts:
            assert part.database.size <= 3 * db.size * bound_factor


def test_eliminate_parts_pinned():
    # eliminate's parts are its output: each part's query text, symbols,
    # rows and row order, and which instances are refused, pinned over a
    # seeded sample, so that a change to the rewrite that should not move
    # them shows here
    rng = random.Random(23)
    digest = hashlib.sha256()
    counts = Counter()

    def run(q, p, db):
        counts["instances"] += 1
        try:
            res = eliminate_min_predicate(q, p, db)
        except (IntractableQueryError, UnsupportedPredicateError) as e:
            counts["refused"] += 1
            digest.update(type(e).__name__.encode())
            return
        for part in res.parts:
            counts["parts"] += 1
            counts["forked"] += len(part.query.free_vars) > len(res.source_vars)
            counts["rows"] += part.database.size
            digest.update(repr(part_cells(part.query, part.database)).encode())

    for _ in range(800):
        q = rand_acyclic_query(rng, max_atoms=5, max_arity=3, full=rng.random() < 0.5)
        run(q, rand_predicate(rng, q), rand_database(rng, q, dom=8, max_rows=10))
    for q, db in edge_instances(rng):
        run(q, rand_predicate(rng, q), db)
    assert counts == {"instances": 824, "refused": 86, "parts": 780, "forked": 298, "rows": 8943}
    assert digest.hexdigest() == "7a6ee2cb3135c36a806d62592876d6995598261d092b235e7fc0ac87c5087296"
