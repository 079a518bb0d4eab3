"""Scaling families and step-count instrumentation.

Two shipped families:
  * star: three relations sharing one join variable, ranked by the
    minimum of three per-relation score variables; each star row also
    times one count with PREDICATE r1 <= MIN(r2,r3) (`pred_count_ms`);
  * path: a four-atom chain with a min-predicate from one end to the two
    variables at the other end (enumeration-only territory).

Row values are drawn from a sqrt-sized domain so join degeneracy grows
with the instance, and sizes are exact (no dedup drift).
"""

from __future__ import annotations

import math
import random
import time

from .access import build_min_da, count_via_access, count_with_predicate
from .enumeration import enumerate_ranked_min, enumerate_with_predicate
from .instrument import StepCounter
from .model import Database, Relation
from .parser import parse_query

STAR_BODY = "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\n"
STAR_TEXT = STAR_BODY + "ORDER BY MIN(r1,r2,r3).\n"
STAR_PRED_TEXT = STAR_BODY + "PREDICATE r1 <= MIN(r2,r3).\n"
PATH_TEXT = (
    "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
    "PREDICATE x0 <= MIN(x1,x2).\n"
)


def _instance(text: str, total_size: int, seed: int):
    """(query, predicate, ranking, database) of a family: per atom,
    total_size // atoms distinct pairs over [0,dom)^2, dom = isqrt + 1."""
    q, p, r = parse_query(text)
    m = total_size // len(q.atoms)
    dom = max(2, math.isqrt(m) + 1)
    rng = random.Random(seed)
    picks = {a.symbol: rng.sample(range(dom * dom), m) for a in q.atoms}
    rels = {s: Relation.from_ints(s, 2, [(v // dom, v % dom) for v in vs]) for s, vs in picks.items()}
    return q, p, r, Database(rels)


def _pred_count_ms(db: Database) -> float:
    """The ms of one count_with_predicate of the star predicate over db."""
    q, p, _ = parse_query(STAR_PRED_TEXT)
    t0 = time.perf_counter()
    count_with_predicate(q, p, db)
    return (time.perf_counter() - t0) * 1e3


def bench_min_da(sizes, seed: int = 0, access_samples: int = 200) -> list[dict]:
    """Build the star-family index per size; record build steps, the rows
    of the part databases summed over parts (every part reads the one
    disjointified database, unforked), and per-access probe counts."""
    rows = []
    for n in sizes:
        q, _, r, db = _instance(STAR_TEXT, n, seed)
        t0 = time.perf_counter()
        ix = build_min_da(q, r.xs, db)
        build_s = time.perf_counter() - t0
        parts_size = sum(info[1].size for info in ix.part_info)
        rng = random.Random(seed + n)
        max_probes = 0
        total_probes = 0
        samples = min(access_samples, max(ix.total, 1))
        for _ in range(samples):
            k = rng.randrange(ix.total) if ix.total else 0
            probes = StepCounter()
            if ix.total:
                ix.access(k, probes)
            max_probes = max(max_probes, probes.steps)
            total_probes += probes.steps
        cv_probes = StepCounter()
        count = count_via_access(ix, cv_probes)
        size = db.size
        m = max(size, 1)  # an empty instance (star sizes below 3) normalizes by 1
        rows.append(
            {
                "family": "star",
                "size": size,
                "build_steps": ix.build_steps,
                "normalized": ix.build_steps / (m * max(1.0, math.log2(m)) ** 2),
                "parts_size": parts_size,
                "total": ix.total,
                "count_check": count == ix.total,
                "count_probes": cv_probes.steps,
                "max_probes": max_probes,
                "avg_probes": total_probes / samples,
                "build_seconds": build_s,
                "pred_count_ms": _pred_count_ms(db),
            }
        )
    return rows


def _drain_timed(s, emissions: int) -> tuple[int, float]:
    """Advance `s` up to `emissions` times: (answers emitted, ms per 1k)."""
    t0 = time.perf_counter()
    k = 0
    while s.has_next() and k < emissions:
        s.advance()
        k += 1
    return k, (time.perf_counter() - t0) * 1e6 / max(k, 1)


def bench_enum_pred(sizes, seed: int = 0, emissions: int = 20000) -> list[dict]:
    """Path-family predicate enumeration: max/avg inter-emission steps,
    the seconds to the first answer and the ms per 1k emissions."""
    rows = []
    for n in sizes:
        q, p, _, db = _instance(PATH_TEXT, n, seed)
        t0 = time.perf_counter()
        s = enumerate_with_predicate(q, p, db)
        build_s = time.perf_counter() - t0
        k, emit_1k_ms = _drain_timed(s, emissions)
        rows.append(
            {
                "family": "path",
                "size": db.size,
                "emitted": k,
                "max_delay": s.max_delay,
                "avg_delay": s.avg_delay,
                "build_steps": s.build_steps,
                "build_seconds": build_s,
                "emit_1k_ms": emit_1k_ms,
            }
        )
    return rows


def bench_ranked(sizes, seed: int = 0, emissions: int = 5000) -> list[dict]:
    """Star-family ranked enumeration: steps to the k-th emission against
    the |D| + k*|X| envelope, the seconds to the first answer and the ms
    per 1k emissions."""
    rows = []
    for n in sizes:
        q, _, r, db = _instance(STAR_TEXT, n, seed)
        t0 = time.perf_counter()
        s = enumerate_ranked_min(q, r.xs, db)
        build_s = time.perf_counter() - t0
        k, emit_1k_ms = _drain_timed(s, emissions)
        total_steps = s.build_steps + s.steps
        rows.append(
            {
                "family": "star",
                "size": db.size,
                "emitted": k,
                "steps": total_steps,
                "envelope_ratio": total_steps / (db.size + max(k, 1) * len(r.xs)),
                "skips": s.skips,
                "build_seconds": build_s,
                "emit_1k_ms": emit_1k_ms,
                "pred_count_ms": _pred_count_ms(db),
            }
        )
    return rows


def default_sizes(lo_exp: int = 10, hi_exp: int = 16):
    return [2**e for e in range(lo_exp, hi_exp + 1)]
