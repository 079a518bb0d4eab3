import itertools
import random

import pytest

from minjoin import (
    EngineError,
    Hypergraph,
    MinPredicate,
    RootedJoinTree,
    Task,
    classify,
    classify_all,
    find_bad_path,
    hypergraph_of,
    is_free_connex,
    join_tree,
    make_maximally_branching,
    parse_query,
    tree_for_query,
)

from conftest import is_maximally_branching, rand_acyclic_query


def H(*edges):
    vs = frozenset(v for e in edges for v in e)
    return Hypergraph(vs, tuple(frozenset(e) for e in edges))


# -- join trees --------------------------------------------------------------


def test_join_tree_exists_for_star():
    t = join_tree(H({"x0"}, {"x1", "y"}, {"x2", "y"}))
    assert t is not None and t.satisfies_running_intersection()
    assert len(t.nodes()) == 3


def test_join_tree_absent_for_triangle():
    assert join_tree(H({"a", "b"}, {"b", "c"}, {"a", "c"})) is None


def test_join_tree_single_edge():
    t = join_tree(H({"x"}))
    assert t is not None and len(t.nodes()) == 1


def test_join_tree_subset_edges_nest():
    t = join_tree(H({"a", "b", "c"}, {"a", "b"}, {"b"}))
    assert t is not None
    # subset edges hang below a superset
    for n in t.nodes():
        p = t.parent[n]
        if p is not None and t.vars_of[n] < t.vars_of[p]:
            continue
        if p is not None:
            assert not t.vars_of[n] <= t.vars_of[p] or True
    assert t.satisfies_running_intersection()


def _acyclic_by_vertex_elimination(edges: list[frozenset]) -> bool:
    """Independent acyclicity check: drop vertices unique to one edge and
    edges contained in other edges until at most one edge remains."""
    edges = [set(e) for e in edges]
    while len(edges) > 1:
        counts: dict = {}
        for e in edges:
            for v in e:
                counts[v] = counts.get(v, 0) + 1
        changed = False
        for e in edges:
            lone = {v for v in e if counts[v] == 1}
            if lone:
                e -= lone
                changed = True
        drop = None
        for i, e in enumerate(edges):
            if any(j != i and e <= edges[j] for j in range(len(edges)) if edges[j] is not e):
                drop = i
                break
        if drop is not None:
            edges.pop(drop)
            changed = True
        if not changed:
            return False
    return True


def test_gyo_agrees_with_vertex_elimination_exhaustively():
    vertices = ["a", "b", "c", "d"]
    all_edges = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(vertices, r)]
    rng = random.Random(7)
    pool = list(itertools.combinations(all_edges, 3))
    rng.shuffle(pool)
    for combo in pool[:400]:
        h = Hypergraph(frozenset(v for e in combo for v in e), tuple(combo))
        t = join_tree(h)
        assert (t is not None) == _acyclic_by_vertex_elimination(list(combo))
        if t is not None:
            assert t.satisfies_running_intersection()


def test_gyo_random_larger(rng):
    for _ in range(150):
        q = rand_acyclic_query(rng, max_atoms=6, max_arity=4, full=True)
        t = join_tree(hypergraph_of(q))
        assert t is not None and t.satisfies_running_intersection()


def test_running_intersection_matches_connected_holders(rng):
    # random rooted trees over random variable sets, most of which break
    # the property; a variable's holders must be connected by tree edges
    def connected_holders(t):
        adj = {n: set() for n in t.nodes()}
        for a, b in map(tuple, t.edges()):
            adj[a].add(b)
            adj[b].add(a)
        for v in set().union(*t.vars_of.values()):
            holders = {n for n in t.nodes() if v in t.vars_of[n]}
            seen, stack = set(), [min(holders)]
            while stack:
                n = stack.pop()
                if n not in seen:
                    seen.add(n)
                    stack.extend(adj[n] & holders)
            if seen != holders:
                return False
        return True

    counts = {True: 0, False: 0}
    for _ in range(1500):
        ids = rng.sample(range(10), rng.randint(1, 7))
        vars_of = {n: frozenset(rng.sample("abcde", rng.randint(1, 3))) for n in ids}
        parent = {ids[0]: None, **{n: rng.choice(ids[:i]) for i, n in enumerate(ids) if i}}
        t = RootedJoinTree(vars_of, parent, ids[0])
        want = connected_holders(t)
        assert t.satisfies_running_intersection() == want, (vars_of, parent)
        counts[want] += 1
    assert min(counts.values()) >= 300, counts


# -- free-connex -------------------------------------------------------------


def test_free_connex_examples():
    q, _, _ = parse_query("Q(x,y) :- R(x,y), S(y).")
    assert is_free_connex(q)  # full-ish head over acyclic body
    q2, _, _ = parse_query("Q(x,z) :- R(x,y), S(y,z).")
    assert not is_free_connex(q2)
    q3, _, _ = parse_query("Q() :- R(x,y), S(y,z).")
    assert is_free_connex(q3)


# -- chordless paths ---------------------------------------------------------


def test_find_bad_path_on_path_query():
    h = H({"x0", "u"}, {"u", "v"}, {"v", "x1"}, {"x1", "x2"})
    path = find_bad_path(h, {"x0"}, {"x1", "x2"})
    assert path == ("x0", "u", "v", "x1")


def test_find_bad_path_absent_for_star():
    h = H({"x0"}, {"x1", "y"}, {"x2", "y"})
    assert find_bad_path(h, {"x1"}, {"x2"}) is None


def test_find_bad_path_needs_length_three():
    h = H({"a", "b"}, {"b", "c"})
    assert find_bad_path(h, {"a"}, {"c"}) is None


def _all_chordless_paths(h: Hypergraph):
    adj = h.adjacency()
    out = []

    def extend(path):
        last = path[-1]
        for v in sorted(adj[last]):
            if v in path or any(v in adj[u] for u in path[:-1]):
                continue
            np = path + (v,)
            out.append(np)
            extend(np)

    for s in sorted(h.vertices):
        extend((s,))
    return out


def test_find_bad_path_agrees_with_exhaustive(rng):
    for _ in range(80):
        q = rand_acyclic_query(rng, max_atoms=5, max_arity=3, full=True)
        h = hypergraph_of(q)
        if len(h.vertices) > 7:
            continue
        vars_ = sorted(h.vertices)
        A = set(rng.sample(vars_, min(2, len(vars_))))
        B = set(rng.sample(vars_, min(2, len(vars_))))
        got = find_bad_path(h, A, B)
        witnesses = [
            p
            for p in _all_chordless_paths(h)
            if len(p) >= 4 and ((p[0] in A and p[-1] in B) or (p[0] in B and p[-1] in A))
        ]
        if witnesses:
            assert got == min(min(p, p[::-1]) for p in witnesses)
        else:
            assert got is None


# -- maximally branching -----------------------------------------------------


def test_make_maximally_branching_hoists_chain():
    # chain {x0,y} - {y,x3} - {x3,z}: the middle node shares y with the root
    q, _, _ = parse_query("Q(x0,y,x3,z) :- A(x0,y), B(y,x3), C(x3,z).")
    t = tree_for_query(q)
    root = next(n for n in t.nodes() if t.vars_of[n] == frozenset({"x0", "y"}))
    t = t.reroot(root)
    mb = make_maximally_branching(t)
    assert is_maximally_branching(mb)
    assert mb.root == root
    assert sorted(map(sorted, mb.vars_of.values())) == sorted(map(sorted, t.vars_of.values()))


def test_make_maximally_branching_fixpoint():
    q, _, _ = parse_query("Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).")
    t = tree_for_query(q)
    mb = make_maximally_branching(t)
    mb2 = make_maximally_branching(mb)
    assert mb.parent == mb2.parent


def test_make_maximally_branching_random_no_hoist(rng):
    for _ in range(60):
        q = rand_acyclic_query(rng, max_atoms=6, max_arity=3, full=True)
        t = tree_for_query(q)
        mb = make_maximally_branching(t)
        assert mb.root == t.root
        assert set(mb.nodes()) == set(t.nodes())
        assert mb.satisfies_running_intersection()
        assert is_maximally_branching(mb)


# -- classifier --------------------------------------------------------------

PATH_QUERY = "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"


def test_classify_path_query_contrast():
    q, _, _ = parse_query(PATH_QUERY + "PREDICATE x0 <= MIN(x1,x2).")
    p = MinPredicate("x0", ("x1", "x2"))
    v_elim = classify(Task.ELIMINATION, q, p)
    assert not v_elim.tractable
    assert v_elim.witness.kind == "bad_path" and len(v_elim.witness.path) == 4
    v_enum = classify(Task.ENUM_PRED, q, p)
    assert v_enum.tractable


def test_classify_three_team_ranked_da():
    q, _, _ = parse_query("Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).")
    v = classify(Task.RANKED_DA, q, ("r1", "r2", "r3"))
    assert v.tractable


def test_classify_boolean_only_needs_acyclic():
    q, _, _ = parse_query("Q(x,z) :- R(x,y), S(y,z).")
    p = MinPredicate("x", ("z",))
    assert classify(Task.BOOLEAN, q, p).tractable
    assert not classify(Task.COUNTING, q, p).tractable  # not free-connex


def test_classify_cyclic_witness():
    q, _, _ = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(a,c).")
    v = classify(Task.BOOLEAN, q, MinPredicate("a", ("b",)))
    assert not v.tractable and v.witness.kind == "cyclic"


def test_classify_rejects_non_free_ranking():
    q, _, _ = parse_query("Q(x) :- R(x,y).")
    with pytest.raises(EngineError):
        classify(Task.RANKED_DA, q, ("y",))


def test_classify_predicate_existential_x_side():
    # x0 existential: the bad-path condition is vacuous, so the refusal is
    # not the path x0-u-v-x1; x0's branch holds the free u, and no fold site is
    q, _, _ = parse_query(PATH_QUERY.replace("Q(x0,u,v,x1,x2)", "Q(u,v,x1,x2)"))
    p = MinPredicate("x0", ("x1", "x2"))
    v = classify(Task.ELIMINATION, q, p)
    assert v.witness.kind == "no_fold_site" and v.witness.members == ("x0",)


def test_classify_all_is_purely_structural():
    q, p, r = parse_query(
        "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\n"
        "PREDICATE x0 <= MIN(x1,x2).\nORDER BY MIN(x0,x1,x2).\n"
    )
    verdicts = classify_all(q, p, r)
    assert len(verdicts) == len(Task)
    assert all(v.tractable for v in verdicts)
