"""Seeded inputs for the benchmark workloads.

The shapes follow the engine's own scaling families (three relations
sharing one join variable; a four-atom chain), but are generated here so
that a change to the engine's bench module cannot change what is
measured. Every relation holds m distinct pairs over [0, dom)^2 with
dom = isqrt(m) + 1, so join degree grows with the instance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

STAR_RANKED = (
    "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\n"
    "ORDER BY MIN(r1,r2,r3).\n"
)
STAR_PREDICATE = (
    "Q(r1,r2,r3,s) :- W1(r1,s), W2(r2,s), W3(r3,s).\n"
    "PREDICATE r1 <= MIN(r2,r3).\n"
)
PATH_PREDICATE = (
    "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
    "PREDICATE x0 <= MIN(x1,x2).\n"
)
STAR_SYMBOLS = ("W1", "W2", "W3")
PATH_SYMBOLS = ("R0", "R1", "R2", "R3")



@dataclass(frozen=True)
class Workload:
    query: str
    symbols: tuple[str, ...]
    size: int  # |D|, rounded down to a multiple of len(symbols)
    # |D| of the instance the pipeline must match the brute-force oracle
    # on before anything is timed; the oracle refuses cross products
    # above 10^7, which four relations of 2^8 / 4 rows exceed
    check_size: int


WORKLOADS = {
    "star-rda": Workload(STAR_RANKED, STAR_SYMBOLS, 2**15, 2**8),
    "path-enum": Workload(PATH_PREDICATE, PATH_SYMBOLS, 2**16, 2**7),
    "star-count": Workload(STAR_PREDICATE, STAR_SYMBOLS, 2**16, 2**8),
}


def grid_relations(symbols, total_size: int, seed: int) -> dict[str, list[tuple[int, int]]]:
    """One relation of m = total_size // len(symbols) distinct pairs per symbol."""
    m = total_size // len(symbols)
    dom = max(2, math.isqrt(m) + 1)
    rng = random.Random(seed)
    rels = {}
    for sym in symbols:
        picks = rng.sample(range(dom * dom), m)
        rels[sym] = [(a // dom, a % dom) for a in picks]
    return rels


def write_relations(rels: dict[str, list[tuple[int, int]]], directory: Path) -> None:
    """One data file per symbol, named like the symbol, one `a,b` row a line."""
    directory.mkdir(parents=True, exist_ok=True)
    for sym, rows in rels.items():
        (directory / sym).write_text("".join(f"{a},{b}\n" for a, b in rows))
