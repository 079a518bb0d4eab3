"""Constant-delay streams: predicate pruning and the ranked merge.

The path query here cannot be rewritten into ordinary join queries (a
chordless path connects the predicate's variables), yet its filtered
answers still stream with constant delay: every tuple knows the best
MIN value reachable below it, and descents stop the moment that bound
drops under the current x0.
"""

import random

from minjoin import (
    Database,
    Relation,
    Task,
    classify,
    enumerate_ranked_min,
    enumerate_with_predicate,
    oracle_answers,
    parse_query,
)

q, p, _ = parse_query(
    "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
    "PREDICATE x0 <= MIN(x1,x2).\n"
)
print(f"query    : {q}")
print(f"predicate: {p}")
v = classify(Task.ELIMINATION, q, p)
print(f"elimination verdict: {v}")
print(f"enumeration verdict: {classify(Task.ENUM_PRED, q, p)}\n")

rng = random.Random(4)
def rel(sym, n=50, dom=16):
    rows = {(rng.randrange(dom), rng.randrange(dom)) for _ in range(n)}
    return Relation.from_ints(sym, 2, sorted(rows))

db = Database({s: rel(s) for s in ("R0", "R1", "R2", "R3")})
stream = enumerate_with_predicate(q, p, db)
got = stream.drain()
want = oracle_answers(q, db, predicate=p)
print(f"|D| = {db.size}: drained {len(got)} filtered answers "
      f"(brute force agrees: {set(got) == want})")
print(f"max steps between consecutive answers: {stream.max_delay}")
print(f"average steps per answer: {stream.avg_delay:.2f}\n")

# ranked enumeration merges one sorted stream per ranking variable
q2, _, r2 = parse_query(
    "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\nORDER BY MIN(r1,r2,r3).\n"
)
db2 = Database({s: rel(s, n=80, dom=30) for s in ("W1", "W2", "W3")})
stream2 = enumerate_ranked_min(q2, r2.xs, db2)
first = []
while stream2.has_next() and len(first) < 8:
    first.append(stream2.peek())
    stream2.advance()
keys = [min(a[x].base for x in r2.xs) for a in first]
print(f"ranked stream over {db2.size} rows, first scores: {keys}")
rest = stream2.drain()
total = len(first) + len(rest)
print(f"drained {total} answers, skips = {stream2.skips} "
      f"(bounded by {(len(r2.xs) - 1)} per emission)")
