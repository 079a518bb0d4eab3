import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from minjoin import (
    EngineError,
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
    eliminate_enforced_order,
    eliminate_min_predicate,
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
from minjoin import access as access_module
from minjoin.bench import STAR_TEXT, bench_min_da
from minjoin.elim import fork_tree, min_orders
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


def _check_against_forked_part(q, db, rank, x, otp, seen):
    """LexDA that enforces otp's order returns, for every k, the answer
    that LexDA over the reference fork rewrite's part returns
    (conftest.fork_rewrite_reference), both on the plain cells with each
    tie on its pair's side; and so does LexDA over the copy tagged by
    `rank` (conftest.disjointify) with a pair that no tie passes, its
    answer untagged. The engine's rewrite is the reference's part. LexDA
    descends the tree it is handed, here `fork_tree`'s, as in the plan."""
    ref = fork_rewrite_reference(q, db, otp, "_f")
    assert part_cells(*eliminate_enforced_order(q, db, otp, "_f")) == part_cells(*ref)
    fork = replace(otp, tree=fork_tree(q, otp, x))
    forked = LexDA(*ref, x)
    direct = LexDA(q, db, x, fork)
    tagged = LexDA(q, disjointify(db, q, rank), x, replace(fork, ties=frozenset()))
    assert direct.total == forked.total == tagged.total, (q.to_text(), x, str(otp.order))
    for k in range(forked.total):
        want = forked.access(k).project(q.variables)
        assert direct.access(k) == want == untagged(tagged.access(k)), (q.to_text(), x, str(otp.order), k)
    seen["parts"] += 1
    seen["other tree"] += fork.tree.edges() != otp.tree.edges()
    for _, up, runs in (f for fs in direct._fenced.values() for f in fs):
        seen["b in the parent"] += not up
        seen["rows not in b order"] += runs is not None


def _check_ranked_parts(q, xs, db, seen):
    q1, d1 = remove_self_joins(q, db)
    for x in xs:
        for otp in min_orders(q1, x, [v for v in xs if v != x]):
            _check_against_forked_part(q1, d1, q1.variables, x, otp, seen)


def _check_predicate_parts(q, p, db, seen):
    # every variable as the sort variable, so that b's side of an edge
    # also lands in the parent
    try:
        q2, d, otps = min_predicate_orders(q, p, db)
    except UnsupportedPredicateError:
        return
    for otp in otps or ():
        for x in q2.variables:
            _check_against_forked_part(q2, d, predicate_rank_order(q2, p), x, otp, seen)


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


def test_lexda_counts_pinned(monkeypatch):
    # every LexDA that the two index builds make, pinned by its total and
    # build steps and, for every k, its answer and probe count, so that a
    # change to the fork-block bounds that should move no count shows
    # here; the sample includes rows behind a non-key column (`_Fence.runs`)
    # and fork domains of exactly 2^L keys, where a u cell above every
    # key would rank 2^L and its levels would not ascend
    rng = random.Random(27)
    digest = hashlib.sha256()
    counts = Counter()
    replay = access_module.fork_replay

    def spy(q, db, pair):
        doms, rows = replay(q, db, pair)
        counts["domains"] += len(doms)
        counts["2^L keys"] += sum(len(d) > 1 and len(d) & (len(d) - 1) == 0 for d in doms.values())
        return doms, rows

    monkeypatch.setattr(access_module, "fork_replay", spy)

    def pin(ix):
        for lex in ix.secondary.values():
            counts["lexdas"] += 1
            counts["runs"] += sum(runs is not None for fs in lex._fenced.values() for _, _, runs in fs)
            digest.update(repr((lex.total, lex.build_steps)).encode())
            for k in range(lex.total):
                probes = StepCounter()
                digest.update(repr((repr(lex.access(k, probes)), probes.steps)).encode())

    def run(q, db):
        xs = tuple(rng.sample(q.free_vars, rng.randint(1, len(q.free_vars)))) if q.free_vars else ()
        if xs and classify(Task.RANKED_DA, q, xs).tractable:
            pin(build_min_da(q, xs, db))
        p = rand_predicate(rng, q)
        verdict = classify(Task.UNRANKED_DA_PRED, q, p)
        if verdict.tractable:
            pin(build_unranked_da_pred(q, p, db))
        elif verdict.status == "unsupported":  # no fold site, refused by the verdict
            counts["refused"] += 1

    for _ in range(150):
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=rng.random() < 0.5)
        run(q, with_dangling_rows(rng, q, rand_database(rng, q, dom=4, max_rows=8)))
    for q, db in edge_instances(rng):
        run(q, db)
    q, _, _ = parse_query("Q(x0,z,x1,y) :- R0(x0,y), R1(z,x1,y).")
    for _ in range(5):
        run(q, rand_database(rng, q, dom=6, max_rows=12))
    assert counts == {"lexdas": 831, "domains": 912, "2^L keys": 226, "runs": 432, "refused": 12}
    assert digest.hexdigest() == "8283b8580f927e44e9f0fef264d23e83759dfb4486a2d7188ec4e1a2b91f7263"



NON_CONTIGUOUS_TEXT = "Q(x0,z,x1,y) :- R0(x0,y), R1(z,x1,y).\nORDER BY MIN(x0,x1).\n"


def _packing(ix):
    """Per (kind, container, wide), the number of the cut records and runs
    of an index's LexDAs; a record is wide when a bounded child of its node
    has a bucket of 256 rows or more, a run when its child has one of more
    than 256, so a position or bound may not fit in a byte."""
    seen = Counter()
    for lex in ix.secondary.values():
        for n, fs in lex._fenced.items():
            longest = [max(map(len, lex._rows[lex._plan.children[n][ci]].values()), default=0) for ci, _, _ in fs]
            seen.update(("record", type(t).__name__, max(longest) >= 256) for b in lex._cuts[n].values() for t in b)
            for m, (_, _, runs) in zip(longest, fs):
                seen.update(("run", type(at).__name__, m > 256) for at, _ in (runs or {}).values())
    return seen


def _star_db(rng, wide):
    if wide:  # W1's one bucket has 300 rows, with ties against W2 and W3
        rows = {"W1": [(v, 0) for v in range(0, 600, 2)], "W2": [(151, 0), (7, 0)], "W3": [(160, 0), (300, 0)]}
    else:
        rows = {s: rng.sample([(a, b) for a in range(40) for b in range(5)], 60) for s in ("W1", "W2", "W3")}
    return Database({s: Relation.from_ints(s, 2, rs) for s, rs in rows.items()})


def _non_contiguous_db(rng, wide):
    if wide:  # R1's one bucket has 300 rows, its z column out of x1 order
        r0, r1 = [(150, 0), (7, 0)], [(rng.randrange(10), v, 0) for v in range(300)]
    else:
        r0 = rng.sample([(a, b) for a in range(40) for b in range(5)], 60)
        r1 = rng.sample([(a, b, c) for a in range(10) for b in range(20) for c in range(5)], 100)
    return Database({"R0": Relation.from_ints("R0", 2, r0), "R1": Relation.from_ints("R1", 3, r1)})


@pytest.mark.parametrize(
    "text, make, wide, kinds",
    [
        (STAR_TEXT, _star_db, False, {("record", "bytes", False)}),
        (STAR_TEXT, _star_db, True, {("record", "bytes", False), ("record", "tuple", True)}),
        (NON_CONTIGUOUS_TEXT, _non_contiguous_db, False, {("record", "bytes", False), ("run", "bytes", False)}),
        (
            NON_CONTIGUOUS_TEXT,
            _non_contiguous_db,
            True,
            {("record", "bytes", False), ("record", "tuple", True), ("run", "list", True)},
        ),
    ],
    ids=["star-narrow", "star-wide", "non-contiguous-narrow", "non-contiguous-wide"],
)
def test_lexda_packs_records_in_bytes_when_they_fit(text, make, wide, kinds):
    # cut records and run positions are bytes when every int fits in a
    # byte, and keep a tuple and a list when a bucket is too long for one;
    # either way every access is an answer, in MIN order
    q, _, r = parse_query(text)
    db = make(random.Random(28), wide)
    ix = build_min_da(q, r.xs, db)
    assert set(_packing(ix)) == kinds
    want = oracle_answers(q, db)
    seq = [ix.access(k) for k in range(ix.total)]
    assert ix.total == len(want) and set(seq) <= want
    assert [min(a[x] for x in r.xs) for a in seq] == [min(a[x] for x in r.xs) for a in oracle_sorted(want, r.xs)]


def test_min_index_memory_per_input_row():
    # tracemalloc's live bytes of one star-family MIN index per input row;
    # with its cut records as tuples of boxed ints it took about 250
    for row in bench_min_da([2**12, 2**14], seed=1, access_samples=1):
        assert row["index_mb"] * 1e6 / row["size"] <= 200, row


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


def test_access_refuses_a_non_integer_index():
    # both index kinds, ranked and unranked, with and without a predicate:
    # a float or a string is no index, before any bounds check; a bool is
    q, db = _star()
    for ix in (build_min_da(q, ("x0", "x1"), db), build_unranked_da_pred(q, MinPredicate("x0", ("x1", "x2")), db),
               build_unranked_da_pred(q, None, db)):
        lexdas = list(ix.secondary.values())
        assert lexdas and all(isinstance(lex, LexDA) for lex in lexdas)
        assert ix.total >= 3 and max(lex.total for lex in lexdas) >= 3
        for da in (ix, *lexdas):
            for bad in (0.5, 1.5, 2.9, "1", None, -0.5, float(da.total)):
                with pytest.raises(EngineError, match="is not an integer") as err:
                    da.access(bad)
                assert not isinstance(err.value, OutOfBoundsError)
            if da.total >= 2:
                assert da.access(True) == da.access(1) and da.access(False) == da.access(0)


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


def test_unranked_da_pred_counts_its_build_steps():
    # as build_min_da counts: the restricted rows, once, when there are
    # orders, plus each part's LexDA build
    q, db = _star()
    p = MinPredicate("x0", ("x1", "x2"))
    da = build_unranked_da_pred(q, p, db)
    _, d, otps = min_predicate_orders(q, p, db)
    parts = [lex.build_steps for lex in da.secondary.values()]
    assert len(parts) == len(otps) == 2 and min(parts) > 0
    assert da.build_steps == d.size + sum(parts)
    plain = build_unranked_da_pred(q, None, db)
    assert plain.build_steps == plain.secondary[0].build_steps > 0


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


def _tie_shapes(q, p, db):
    """The (shape, side) pairs whose comparison meets a tie in the data
    that counting reads: shape "filter" for a pair inside a node, "edge"
    for one across an edge; side "<=" where the ranks put a below b, so
    that a tie passes, and "<" where they do not."""
    q2, d, otps = min_predicate_orders(q, p, db)
    ranks = {v: i for i, v in enumerate(predicate_rank_order(q2, p))}
    met = set()
    for otp in otps or ():
        rows = {n: d.relation(q2.atoms[n].symbol).rows for n in otp.tree.nodes()}
        col = {n: q2.atoms[n].vars.index for n in rows}
        for a, b, nodes, ends, le in otp.sites(q2.variables):
            side = "<=" if ranks[a] < ranks[b] else "<"
            assert le == (side == "<="), (q2.to_text(), a, b)
            if any(r[col[n](a)] == r[col[n](b)] for n in nodes for r in rows[n]):
                met.add(("filter", side))
            if ends and {r[col[ends[0]](a)] for r in rows[ends[0]]} & {r[col[ends[1]](b)] for r in rows[ends[1]]}:
                met.add(("edge", side))
    return met


def _check_ranked_on_ties(q, db, rng):
    """build_min_da under a MIN and a MAX ranking over some of q's free
    variables, where tractable: its answers are the oracle's, and their
    keys come in oracle_sorted's order. Returns the rankings checked."""
    checked = 0
    for maximize in (False, True):
        r = MinRanking(tuple(rng.sample(q.free_vars, rng.randint(1, min(3, len(q.free_vars))))), maximize)
        if not classify(Task.RANKED_DA, q, r).tractable:
            continue
        ix = build_min_da(q, r, db)
        got = [ix.access(k) for k in range(ix.total)]
        want = oracle_sorted(oracle_answers(q, db), r.xs, maximize=maximize)
        assert set(got) == set(want) and len(got) == len(want), (q.to_text(), str(r))
        assert [r.key(a) for a in got] == [r.key(a) for a in want], (q.to_text(), str(r))
        checked += 1
    return checked


def test_count_with_predicate_comparison_sides_on_ties(rng):
    # every task reads plain cells: a tie between a and b passes a<b
    # exactly when a's rank is below b's. Domains of 2-3 values make ties
    # common, and every pair shape meets one on each side. Unranked direct
    # access and the elimination union answer as the oracle does, and so
    # does ranked direct access, whose ties between ranking variables go
    # to the one declared first
    met: dict[tuple[str, str], int] = {}
    checked = strict = ranked = 0
    while checked < 400:
        q = rand_acyclic_query(rng, max_atoms=4, max_arity=3, full=rng.random() < 0.5)
        p = rand_predicate(rng, q)
        if p.x0 not in p.xs:
            p = MinPredicate(p.x0, p.xs, strict=rng.random() < 0.5)
        if not classify(Task.COUNTING, q, p).tractable:
            continue
        db = rand_database(rng, q, dom=rng.choice((2, 3)), max_rows=6)
        try:
            got = count_with_predicate(q, p, db)
        except UnsupportedPredicateError:
            continue
        want = oracle_answers(q, db, predicate=p)
        assert got == len(want), (q.to_text(), str(p), db)
        da = build_unranked_da_pred(q, p, db)
        assert {da.access(k) for k in range(da.total)} == want and da.total == got, (q.to_text(), str(p))
        res = eliminate_min_predicate(q, p, db)
        parts = [{a.project(res.source_vars) for a in oracle_answers(part.query, part.database)}
                 for part in res.parts]
        assert sum(map(len, parts)) == len(want) and set().union(*parts) == want, (q.to_text(), str(p))
        if not q.is_boolean:
            ranked += _check_ranked_on_ties(q, db, rng)
        for shape in _tie_shapes(q, p, db):
            met[shape] = met.get(shape, 0) + 1
        checked += 1
        strict += p.strict
    assert strict >= 40 and checked - strict >= 40, strict
    assert ranked >= 100, ranked
    assert all(met.get((shape, side), 0) >= 15 for shape in ("filter", "edge") for side in ("<=", "<")), met


def test_count_with_predicate_reads_raw_cells():
    # cells built straight into Relation, x0 tied with x1: every task
    # compares them as they are, and answers as the oracle does
    q = parse_query("Q(x0,x1,y) :- R(x0,y), S(x1,y).")[0]
    p = MinPredicate("x0", ("x1",))
    db = Database({"R": Relation("R", 2, ((1, 1), (2, 1), (5, 1))), "S": Relation("S", 2, ((1, 1), (3, 1)))})
    want = oracle_answers(q, db, predicate=p)
    assert count_with_predicate(q, p, db) == len(want) == 3
    assert count_with_predicate(q, None, db) == 6
    da = build_unranked_da_pred(q, p, db)
    assert {da.access(k) for k in range(da.total)} == want and da.total == 3
    res = eliminate_min_predicate(q, p, db)
    assert {a.project(res.source_vars) for part in res.parts
            for a in oracle_answers(part.query, part.database)} == want
    ix = build_min_da(q, ("x0", "x1"), db)
    got = [ix.access(k) for k in range(ix.total)]
    assert set(got) == oracle_answers(q, db) and len(got) == 6
    mins = [min(a["x0"], a["x1"]) for a in got]
    assert mins == sorted(mins)


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


@pytest.mark.parametrize("shift", [-(2**62), 2**62, -(2**70), 2**70])
def test_values_at_64_bit_scale_agree_with_oracle(rng, shift):
    # a cell is the value: +-2^62 is near the edge of 64 bits and +-2^70
    # far beyond it, and every order, fold and answer must still be the
    # oracle's
    counted = ranked = 0
    while counted < 30 or ranked < 30:
        q = rand_acyclic_query(rng, max_atoms=4)
        db = rand_database(rng, q, dom=5, max_rows=6, base_shift=shift)
        p = rand_predicate(rng, q)
        want = oracle_answers(q, db, predicate=p)
        assert all(abs(v.base) >= abs(shift) - 5 for a in want for v in a.assignment.values())
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
