"""Random access into the answers of a join, sorted by a MIN score.

Teams of three workers share a shift; a team's reliability is the
minimum member score. The index answers "what is the k-th weakest
team?" in logarithmically many probes, without materializing the
answer set, and the out-of-bounds signal alone recovers the count.
"""

import random

from minjoin import (
    Database,
    Relation,
    StepCounter,
    build_min_da,
    count_via_access,
    parse_query,
)

q, _, r = parse_query(
    "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\nORDER BY MIN(r1,r2,r3).\n"
)

rng = random.Random(3)
def workers(sym, n=120, shifts=12, scores=50):
    rows = {(rng.randrange(scores), rng.randrange(shifts)) for _ in range(n)}
    return Relation.from_ints(sym, 2, sorted(rows))

db = Database({s: workers(s) for s in ("W1", "W2", "W3")})
ix = build_min_da(q, r.xs, db)
print(f"query: {q}")
print(f"|D| = {db.size} worker rows -> {ix.total} candidate teams")
print(f"index: {len(ix.entries)} entries over {len(ix.part_info)} parts\n")

print("the five weakest teams:")
for k in range(min(5, ix.total)):
    a = ix.access(k)
    score = min(a[x].base for x in r.xs)
    print(f"  #{k}: min score {score}  {a}")

print("\ndeciles of the team-reliability distribution:")
for frac in (0.1, 0.25, 0.5, 0.75, 0.9):
    k = int(frac * (ix.total - 1))
    a = ix.access(k)
    print(f"  {int(frac * 100):>3}%  ->  min score {min(a[x].base for x in r.xs)}")

probes = StepCounter()
a = ix.access(ix.total // 2, probes)
print(f"\none access costs {probes.steps} probes at {ix.total} answers")

probes = StepCounter()
n = count_via_access(ix, probes)
print(f"count recovered from out-of-bounds signals: {n} in {probes.steps} probes")
