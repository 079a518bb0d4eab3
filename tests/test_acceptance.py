"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is
pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from minjoin import (
    LexDA,
    MinPredicate,
    OutOfBoundsError,
    StepCounter,
    Task,
    UnsupportedPredicateError,
    build_min_da,
    build_unranked_da_pred,
    classify,
    count_via_access,
    count_with_predicate,
    eliminate_min_predicate,
    enumerate_full_acyclic,
    enumerate_ranked_min,
    enumerate_with_predicate,
    is_free_connex,
    oracle_answers,
    parse_query,
    partition_min_orders,
    tree_for_query,
)
from minjoin.bench import bench_enum_pred, bench_min_da, bench_ranked, default_sizes
from minjoin.model import Database, Relation
from minjoin.structure import RootedJoinTree

from conftest import extended_by, rand_acyclic_query, rand_database


@contextmanager
def criterion(n: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_elimination_golden():
    with criterion(1, "two-part elimination with golden fresh-variable placement"):
        t0 = time.perf_counter()
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
        res = eliminate_min_predicate(q, p, db)
        assert len(res.parts) == 2
        orders = {str(part.order) for part in res.parts}
        assert orders == {"x0<x1, x1<x2", "x0<x2, x2<x1"}
        for part in res.parts:
            assert part.query.is_full and part.query.is_self_join_free
            assert is_free_connex(part.query)
            fresh = [v for v in part.query.free_vars if v not in q.free_vars]
            assert len(fresh) == 2
            by_base = {a.symbol.split("_")[0]: a for a in part.query.atoms}
            if str(part.order) == "x0<x1, x1<x2":
                v1, v2 = fresh
                assert set(by_base["R0"].vars) == {"x0", v1}
                assert set(by_base["R1"].vars) == {"x1", "y", v1, v2}
                assert set(by_base["R2"].vars) == {"x2", "y", v2}
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_partition_golden_tree():
    with criterion(2, "four order-tree pairs on the branching example tree"):
        q, _, _ = parse_query(
            "Q(x0,x1,x2,x3,x4,x5,x6,x7,y1,y5,z1,w1) :- "
            "Root(x0,x1,x2,y1), A(y1,y5), B(y1,x3), C1(z1,x4), C2(z1,x5), "
            "D1(w1,x6), D2(w1,x7)."
        )
        t = tree_for_query(q)
        by_vars = {frozenset(q.atoms[t.atom_of[n]].vars): n for n in t.nodes()}
        root = by_vars[frozenset({"x0", "x1", "x2", "y1"})]
        parent = {
            root: None,
            by_vars[frozenset({"y1", "y5"})]: root,
            by_vars[frozenset({"y1", "x3"})]: by_vars[frozenset({"y1", "y5"})],
            by_vars[frozenset({"z1", "x4"})]: root,
            by_vars[frozenset({"z1", "x5"})]: by_vars[frozenset({"z1", "x4"})],
            by_vars[frozenset({"w1", "x6"})]: root,
            by_vars[frozenset({"w1", "x7"})]: by_vars[frozenset({"w1", "x6"})],
        }
        t = RootedJoinTree(t.vars_of, t.atom_of, parent, root)
        assert t.satisfies_running_intersection()
        xs = [f"x{i}" for i in range(1, 8)]
        pairs = partition_min_orders(t, "x0", xs, var_order=q.variables)
        assert len(pairs) == 4
        for otp in pairs:
            assert otp.tree.satisfies_running_intersection()
            assert otp.enforcement_holds()


def test_criterion_3_partition_exhaustiveness():
    with criterion(3, "partition property on 200+ random no-bad-path query shapes"):
        rng = random.Random(33)
        checked = 0
        while checked < 200:
            q = rand_acyclic_query(rng, max_atoms=5, max_arity=3, full=True)
            if not q.is_self_join_free:
                continue
            vars_ = list(q.variables)
            if len(vars_) < 2:
                continue
            x0 = rng.choice(vars_)
            pool = [v for v in vars_ if v != x0]
            xs = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
            if not classify(Task.ELIMINATION, q, MinPredicate(x0, tuple(xs))).tractable:
                continue
            t = tree_for_query(q)
            t = t.reroot(min(n for n in t.nodes() if x0 in t.vars_of[n]))
            pairs = partition_min_orders(t, x0, xs, var_order=q.variables)
            for perm in itertools.permutations([x0] + xs):
                matches = sum(extended_by(p.order, perm) for p in pairs)
                assert matches == (1 if perm[0] == x0 else 0), (
                    q.to_text(), x0, xs, perm,
                )
            checked += 1
        assert checked >= 200


# ---------------------------------------------------------------------------


def _sweep_rows_cap(n_atoms: int) -> int:
    return {1: 30, 2: 30, 3: 20, 4: 15, 5: 12}[n_atoms]


def test_criterion_4_oracle_equivalence_sweep():
    with criterion(4, "1000-instance oracle equivalence sweep, zero divergences"):
        rng = random.Random(44)
        instances = 0
        stats = {
            "count": 0, "elim": 0, "minda": 0,
            "enum_full": 0, "enum_pred": 0, "enum_ranked": 0,
            "unsupported": 0, "intractable": 0,
        }
        while instances < 1000:
            q = rand_acyclic_query(rng, max_atoms=5, max_arity=3, full=(rng.random() < 0.5))
            if not q.is_self_join_free or q.is_boolean:
                continue
            instances += 1
            db = rand_database(
                rng, q, dom=8, max_rows=_sweep_rows_cap(len(q.atoms))
            )
            vars_ = list(q.variables)
            x0 = rng.choice(vars_)
            xs = tuple(
                dict.fromkeys([x0] + rng.sample(vars_, min(len(vars_), rng.randint(1, 3))))
            )[: rng.randint(1, 3)] or (x0,)
            p = MinPredicate(x0, xs)
            all_answers = oracle_answers(q, db)
            filtered = oracle_answers(q, db, predicate=p)

            if classify(Task.COUNTING, q, p).tractable:
                try:
                    assert count_with_predicate(q, p, db) == len(filtered), (
                        q.to_text(), str(p),
                    )
                    stats["count"] += 1
                    res = eliminate_min_predicate(q, p, db)
                    union = set()
                    total = 0
                    for part in res.parts:
                        part_ans = {
                            a.project(res.source_vars).untagged()
                            for a in oracle_answers(part.query, part.database)
                        }
                        total += len(part_ans)
                        union |= part_ans
                    assert total == len(union), "elimination parts overlap"
                    assert union == filtered, "elimination union diverges"
                    stats["elim"] += 1
                except UnsupportedPredicateError:
                    stats["unsupported"] += 1
            else:
                stats["intractable"] += 1

            free = set(q.free_vars)
            ranked_xs = tuple(v for v in xs if v in free) or (q.free_vars[0],)
            if q.is_full and classify(Task.RANKED_DA, q, ranked_xs).tractable:
                ix = build_min_da(q, ranked_xs, db)
                assert ix.total == len(all_answers)
                seq = [ix.access(k) for k in range(ix.total)]
                assert len(set(seq)) == len(seq) and set(seq) == all_answers
                mins = [min(a[x] for x in ranked_xs) for a in seq]
                assert mins == sorted(mins)
                stats["minda"] += 1

            if q.is_full:
                got = enumerate_full_acyclic(q, db).drain()
                assert len(got) == len(set(got)) and set(got) == all_answers
                stats["enum_full"] += 1
                got = enumerate_with_predicate(q, p, db).drain()
                assert len(got) == len(set(got)) and set(got) == filtered, (
                    q.to_text(), str(p),
                )
                stats["enum_pred"] += 1
                s = enumerate_ranked_min(q, ranked_xs, db)
                got = s.drain()
                assert len(got) == len(set(got)) and set(got) == all_answers
                keys = [min(a[x] for x in ranked_xs) for a in got]
                assert keys == sorted(keys)
                stats["enum_ranked"] += 1
        print(f"  sweep: {instances} instances, checks: {stats}")
        assert stats["count"] >= 400
        assert stats["elim"] >= 400
        assert stats["minda"] >= 150
        assert stats["enum_pred"] >= 300


def test_criterion_5_contrast_path_query():
    with criterion(5, "path query: elimination intractable, enumeration correct on 50 dbs"):
        q, p, _ = parse_query(
            "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
            "PREDICATE x0 <= MIN(x1,x2).\n"
        )
        v = classify(Task.ELIMINATION, q, p)
        assert not v.tractable
        assert v.witness.kind == "bad_path" and len(v.witness.path) == 4  # length 3
        rng = random.Random(55)
        for _ in range(50):
            db = rand_database(rng, q, dom=6, max_rows=12)
            got = enumerate_with_predicate(q, p, db).drain()
            want = oracle_answers(q, db, predicate=p)
            assert set(got) == want and len(got) == len(want)


def test_criterion_6_non_composability_regression():
    with criterion(6, "eliminating one predicate blocks the second (chordless 3-path)"):
        q, _, _ = parse_query("Q(x1,x2,x3,y) :- R1(x1), R2(x2,y), R3(x3,y).")
        p1 = MinPredicate("x1", ("x1", "x2"))
        p2 = MinPredicate("x1", ("x1", "x3"))
        assert classify(Task.ELIMINATION, q, p1).tractable
        assert classify(Task.ELIMINATION, q, p2).tractable
        db = Database(
            {
                "R1": Relation.from_ints("R1", 1, [[1], [2]]),
                "R2": Relation.from_ints("R2", 2, [[1, 0], [2, 0]]),
                "R3": Relation.from_ints("R3", 2, [[0, 0], [3, 0]]),
            }
        )
        res = eliminate_min_predicate(q, p1, db)
        blocked = [
            classify(Task.ELIMINATION, part.query, p2) for part in res.parts
        ]
        bad = [v for v in blocked if not v.tractable]
        assert bad, "second predicate should become intractable on a part"
        for v in bad:
            assert v.witness.kind == "bad_path"
            assert len(v.witness.path) == 4
            assert {v.witness.path[0], v.witness.path[-1]} == {"x1", "x3"}


def test_criterion_7_complexity_envelopes():
    with criterion(7, "scaling envelopes on the 2^10..2^16 families, sweep under 5 min"):
        t0 = time.perf_counter()
        sizes = default_sizes(10, 16)

        star = bench_min_da(sizes, seed=1, access_samples=200)
        norms = [r["normalized"] for r in star]
        assert max(norms) / min(norms) <= 2.0, norms
        for r in star:
            # part databases stay within the quasilinear rewrite envelope
            m = r["size"] // 3
            L = max(1, (2 * (math.isqrt(m) + 1) - 1).bit_length())
            assert r["parts_size"] <= 3 * r["size"] * L * L
            assert r["count_check"]
        probes = [r["max_probes"] for r in star]
        for a, b in zip(probes, probes[1:]):
            assert b <= a + 8, probes  # logarithmic growth per doubling

        path = bench_enum_pred(sizes, seed=1, emissions=20000)
        delays = [max(1, r["max_delay"]) for r in path]
        for a, b in zip(delays, delays[1:]):
            assert b <= 1.5 * a, delays

        ranked = bench_ranked(sizes, seed=1, emissions=5000)
        for r in ranked:
            assert r["envelope_ratio"] <= 6.0, ranked

        elapsed = time.perf_counter() - t0
        print(f"  sweep took {elapsed:.1f}s")
        assert elapsed < 300


def test_criterion_8_out_of_bounds_contract():
    with criterion(8, "out-of-bounds signalling and probe-bounded counting"):
        rng = random.Random(88)
        structures = []
        q, p, _ = parse_query(
            "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\nPREDICATE x0 <= MIN(x1,x2).\n"
        )
        for rows in (0, 1, 3, 9):
            db = rand_database(rng, q, dom=6, max_rows=rows)
            structures.append(build_min_da(q, ("x0", "x1", "x2"), db))
            structures.append(build_unranked_da_pred(q, p, db))
            structures.append(LexDA(q, db, "y"))
        checked = 0
        for da in structures:
            total = da.total
            with pytest.raises(OutOfBoundsError):
                da.access(total)
            with pytest.raises(OutOfBoundsError):
                da.access(total + 7)
            probes = StepCounter()
            assert count_via_access(da, probes) == total
            budget = 2 * max(1, math.ceil(math.log2(max(total, 1) or 1))) + 2 if total > 1 else 2
            if total == 0:
                budget = 1
            assert probes.steps <= budget, (total, probes.steps)
            checked += 1
        assert checked == 12
