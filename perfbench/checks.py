"""Independent answer checks for the benchmark workloads.

Nothing here calls the engine: the references are built from the
generated rows alone, with per-join-value sorted columns and bisection.
"""

from __future__ import annotations

import traceback
from bisect import bisect_left, bisect_right


class Tally:
    """Operations attempted and failed; an exception is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = f"check failed: {what}"
        return ok

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{what} raised:\n{traceback.format_exc()}"


class StarReference:
    """W1(r1,s), W2(r2,s), W3(r3,s) viewed per join value s."""

    def __init__(self, rels: dict[str, list[tuple[int, int]]]):
        self.w1, self.w2, self.w3 = (set(rels[s]) for s in ("W1", "W2", "W3"))
        by_s: dict[int, tuple[list, list, list]] = {}
        for i, sym in enumerate(("W1", "W2", "W3")):
            for r, s in rels[sym]:
                by_s.setdefault(s, ([], [], []))[i].append(r)
        self.columns = [cols for cols in by_s.values() if all(cols)]
        for cols in self.columns:
            for col in cols:
                col.sort()
        self.total = sum(len(a) * len(b) * len(c) for a, b, c in self.columns)
        # answers with MIN(r1,r2,r3) <= v, for every value v that occurs
        self._values = sorted({r for cols in self.columns for col in cols for r in col})
        self._at_most = []
        for v in self._values:
            above = sum(
                (len(a) - bisect_right(a, v)) * (len(b) - bisect_right(b, v)) * (len(c) - bisect_right(c, v))
                for a, b, c in self.columns
            )
            self._at_most.append(self.total - above)

    def kth_min(self, k: int) -> int:
        """MIN(r1,r2,r3) of the k-th answer (from 0) in non-decreasing MIN order."""
        return self._values[bisect_right(self._at_most, k)]

    def count_r1_at_most_min(self) -> int:
        """|answers with r1 <= MIN(r2,r3)|."""
        return sum(
            (len(b) - bisect_left(b, r1)) * (len(c) - bisect_left(c, r1))
            for a, b, c in self.columns
            for r1 in a
        )

    def access_ok(self, k: int, answer) -> bool:
        """The k-th ranked answer joins and carries the k-th MIN value."""
        r1, r2, r3, s = answer["r1"].base, answer["r2"].base, answer["r3"].base, answer["s"].base
        return (
            (r1, s) in self.w1
            and (r2, s) in self.w2
            and (r3, s) in self.w3
            and min(r1, r2, r3) == self.kth_min(k)
        )


class PathReference:
    """R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2) with x0 <= MIN(x1,x2)."""

    def __init__(self, rels: dict[str, list[tuple[int, int]]]):
        self.r0, self.r1, self.r2, self.r3 = (set(rels[s]) for s in ("R0", "R1", "R2", "R3"))

    def answer_ok(self, answer, seen: set) -> bool:
        """The answer joins, satisfies the predicate, and is not in `seen`.

        `seen` holds each answer as one int (data values are below 2^20),
        which the garbage collector does not track, so checking triggers
        no collections of its own.
        """
        x0, u, v, x1, x2 = (answer["x0"].base, answer["u"].base, answer["v"].base,
                            answer["x1"].base, answer["x2"].base)
        key = ((((x0 << 20 | u) << 20 | v) << 20 | x1) << 20) | x2
        if key in seen:
            return False
        seen.add(key)
        return (
            (x0, u) in self.r0
            and (u, v) in self.r1
            and (v, x1) in self.r2
            and (x1, x2) in self.r3
            and x0 <= min(x1, x2)
        )
