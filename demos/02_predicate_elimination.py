"""Eliminating x0 <= MIN(x1,x2) into two ordinary join queries.

The predicate is split into the disjoint cases x0<x1<x2 and x0<x2<x1.
Each case gets a join tree in which consecutive variables sit on
adjacent nodes, and each adjacent inequality is realized by one fresh
join variable over a dyadic decomposition of the value domain. The two
rewritten queries have disjoint answers that together are exactly the
filtered answers.
"""

from minjoin import (
    Database,
    Relation,
    eliminate_min_predicate,
    oracle_answers,
    parse_query,
)

q, p, _ = parse_query(
    "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\n"
    "PREDICATE x0 <= MIN(x1,x2).\n"
)
db = Database(
    {
        "R0": Relation.from_ints("R0", 1, [[1], [3]]),
        "R1": Relation.from_ints("R1", 2, [[3, 0], [2, 0]]),
        "R2": Relation.from_ints("R2", 2, [[2, 0], [4, 0]]),
    }
)

print(f"query      : {q}")
print(f"predicate  : {p}")
print(f"|D| = {db.size}, unfiltered answers = {len(oracle_answers(q, db))}")
print(f"filtered   : {len(oracle_answers(q, db, predicate=p))} answers\n")

res = eliminate_min_predicate(q, p, db)
print(f"elimination produced {len(res.parts)} parts:\n")
for i, part in enumerate(res.parts):
    print(f"part {i}: enforces {part.order}")
    print(f"  {part.query}")
    print(f"  |D_{i}| = {part.database.size}")
    print(f"  enforcing tree:")
    for line in part.tree.pretty().splitlines():
        print(f"    {line}")
    answers = {a.project(res.source_vars) for a in oracle_answers(part.query, part.database)}
    print(f"  projected answers ({len(answers)}):")
    for a in sorted(answers, key=lambda a: sorted(a.assignment.items())):
        print(f"    {a}")
    print()

union = set()
for part in res.parts:
    union |= {a.project(res.source_vars) for a in oracle_answers(part.query, part.database)}
assert union == oracle_answers(q, db, predicate=p)
print("union of the parts == brute-force filtered answers: verified")
