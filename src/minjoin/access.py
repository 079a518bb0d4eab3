"""Direct access to query answers.

LexDA answers "give me the k-th answer ordered by one variable" by a
prefix-sum descent over the buckets of the count pass
(`semiring.count_buckets`). Given an order-tree pair, it accesses only
the answers that satisfy the pair's strict order, in the order that the
dyadic fork rewrite would give them, without forking a row: a parent
row reads its bounded children in fork blocks, each a run of the
child's bucket. MinDAIndex layers a sorted entry array over per-part
LexDA structures, one per enforced order, so the k-th answer under a
min-of-variables order comes back in logarithmically many probes.
Unranked direct access with a predicate is a MinDAIndex with one entry
per part, in part order. Counting with a predicate counts each enforced
order with the count pass over its tree. The Boolean task is one
threshold pass, the cut at x0 (`reduce.cut_at_x0`). No entry point here
builds forked parts.

Each task function takes the query as declared: it checks its verdict
(`Verdict.require`), prepares the instance with one call to
`reduce.restrict_predicate_to_free`, then runs its pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

from .errors import EngineError, OutOfBoundsError
from .instrument import StepCounter
from .model import (
    Answer,
    ConjunctiveQuery,
    Database,
    MinPredicate,
    MinRanking,
    W,
    disjointify,
    negate_database,
)
from .elim import fork_domains, fork_tree, min_orders, min_predicate_orders
from .partition import OrderTreePair, StrictPartialOrder
from .reduce import cut_at_x0, restrict_predicate_to_free
from .semiring import count_answers, count_buckets
from .structure import Task, classify


class _Fence:
    """A bounded child's side of an order pair across its parent edge.

    The child's variable w is above the parent's u when the parent holds
    a (`up`), below it otherwise. `dom` is the pair's fork domain
    (`elim.fork_domains`), and `ranks[key]` lists the ranks of w in it
    along the child's bucket, which is sorted by (w, row). A cell that a
    fork drops is missing from the domain and takes the rank of the next
    larger cell: such a row is in no answer, and its rank keeps it on
    the far side of the parents of every answer.

    Per parent row, the child rows on u's side come in the dyadic blocks
    that the fork rewrite cuts: a block holds the ranks that agree with
    u's above their highest differing bit, and blocks come farthest
    first. Each block is a run of the bucket, and `cuts` gives the runs'
    bounds. When every column before w holds a variable of the parent
    key (`runs` None), row order is w order, so a run is read as it is.
    Otherwise `runs[key, lo, hi]` holds the bucket positions of every
    dyadic run in row order, with their prefix sums: a merge-sort tree
    of row references.
    """

    __slots__ = ("u_col", "up", "dom", "rank", "levels", "ranks", "runs")

    def __init__(self, u_col, up, dom, rows_of, cum_of, w_col, contiguous):
        self.u_col, self.up, self.dom = u_col, up, dom
        self.rank = {v: i for i, v in enumerate(dom)}
        bits = max(1, (len(dom) - 1).bit_length())  # fork levels, L
        # per rank of u: the ranks at which its blocks start, then the end
        # of its side. Up, a block at each clear bit h of u's rank r holds
        # the ranks from ((r >> h) + 1) << h; down, a block at each set bit,
        # highest first, holds the ranks from ((r >> h) - 1) << h.
        if up:
            self.levels = [[((r >> h) + 1) << h for h in range(bits) if not r >> h & 1] + [1 << bits]
                           for r in range(len(dom) + 1)]
        else:
            self.levels = [[((r >> h) - 1) << h for h in reversed(range(r.bit_length())) if r >> h & 1] + [r]
                           for r in range(len(dom) + 1)]
        self.ranks = {key: [self.rank_of(r[w_col]) for r in rows] for key, rows in rows_of.items()}
        self.runs = None
        if contiguous:
            return
        self.runs = {}
        for key, rows in rows_of.items():
            wr, cum = self.ranks[key], cum_of[key]
            for hb in range(bits):
                lo = 0
                while lo < len(wr):
                    hi = bisect_left(wr, ((wr[lo] >> hb) + 1) << hb, lo)
                    at = sorted(range(lo, hi), key=rows.__getitem__)
                    self.runs[key, lo, hi] = at, list(accumulate((cum[i + 1] - cum[i] for i in at), initial=0))
                    lo = hi

    def rank_of(self, cell) -> int:
        got = self.rank.get(cell)
        return bisect_left(self.dom, cell) if got is None else got

    def cuts(self, key, row) -> tuple[int, ...]:
        """The bucket positions that bound the blocks of a parent row,
        ascending, from the first row on its u's side to the end of that
        side."""
        at = partial(bisect_left, self.ranks[key])
        return tuple(dict.fromkeys(map(at, self.levels[self.rank_of(row[self.u_col])])))


class LexDA:
    """Direct access by the order <x> over a full acyclic query's answers.

    Build: one count pass (`semiring.count_buckets`) on the join tree
    rooted at the first atom containing x (at the tree's root when x is
    None, as for a nullary query); `build_steps` counts the rows it
    reads. Access descends the tree, decomposing the index by
    child-bucket mixed radix and a binary search inside each bucket. The
    tie order below x is the sorted-tuple bucket order, fixed and
    deterministic.

    With an order-tree pair over a disjointified database, only the
    answers that satisfy the pair's strict order are accessed, in the
    order that LexDA over `elim.eliminate_enforced_order`'s part gives,
    with no rows forked. The count pass then runs on `elim.fork_tree`,
    the tree that LexDA over the part would descend; `build_steps` adds
    its bucket sorts and the block cuts of each row with bounded
    children. A row's bounded children come in fork blocks (see
    `_Fence`). Their blocks, first order pair outermost, are chosen
    before the mixed radix over its children.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, x: str | None, pair: OrderTreePair | None = None):
        if not q.is_full or not q.is_self_join_free:
            raise EngineError("LexDA needs a full self-join-free query")
        self.query = q
        self.sort_var = x
        built = StepCounter()
        if pair is not None:
            pair = OrderTreePair(pair.order, fork_tree(q, pair, x))
        plan, self._rows, self._cum = count_buckets(q, db, x, pair, counter=built)
        self._plan = plan
        self.total: int = self._cum[plan.root].get((), [0])[-1]
        fences: dict[int, _Fence] = {}  # bounded child -> its fence, needed at build only
        fenced: dict[int, list[int]] = {}  # node -> its bounded children, first pair first
        if pair is not None:
            doms = fork_domains(q, db, pair)
            placed = pair.placements()
            var_pos = {v: i for i, v in enumerate(q.variables)}
            for a, b in sorted(doms, key=lambda ab: (var_pos[ab[0]], var_pos[ab[1]])):
                p, c = placed[a, b].edge
                up = a in plan.tree.vars_of[p]
                u, w = (a, b) if up else (b, a)
                w_col = plan.schema[c].index(w)
                key_vars = plan.tree.vars_of[c] & plan.tree.vars_of[p]
                contiguous = all(v in key_vars for v in plan.schema[c][:w_col])
                fences[c] = _Fence(plan.schema[p].index(u), up, doms[a, b],
                                   self._rows[c], self._cum[c], w_col, contiguous)
                fenced.setdefault(p, []).append(c)
        # per node: (child, parent key, the child's index among the
        # bounded children or None) in child order; per node with bounded
        # children: (child's index, up, runs) first pair first, and per
        # bucket key, per kept row, the block cuts of each bounded child
        self._kids = {n: [(c, plan.parent_key[c], fenced[n].index(c) if c in fences else None)
                          for c in plan.children[n]] for n in plan.order}
        self._fenced = {n: [(plan.children[n].index(c), fences[c].up, fences[c].runs) for c in kids]
                        for n, kids in fenced.items()}
        self._cuts: dict[int, dict] = {}
        for n, kids in fenced.items():
            bounded = [(fences[c], plan.parent_key[c]) for c in kids]
            cuts = self._cuts[n] = {}
            for key, rows in self._rows[n].items():
                cuts[key] = [tuple(f.cuts(pk(row), row) for f, pk in bounded)
                             for row in rows]
                built.add(sum(len(bounds) for row_cuts in cuts[key] for bounds in row_cuts))
        self.build_steps = built.steps

    def root_groups(self):
        """[(x value, answer count, answers strictly below)] in x order."""
        root = self._plan.root
        rows, cum = self._rows[root].get((), []), self._cum[root].get((), [0])
        x_col = self._plan.schema[root].index(self.sort_var)
        groups: list[list] = []
        for i, row in enumerate(rows):
            if not groups or groups[-1][0] != row[x_col]:
                groups.append([row[x_col], 0, cum[i]])
            groups[-1][1] += cum[i + 1] - cum[i]
        return [tuple(g) for g in groups]

    def access(self, k: int, probes: StepCounter | None = None) -> Answer:
        """The k-th answer in <x> order, over var(Q), its cells as stored."""
        return Answer(self._cells(k, probes))

    def _cells(self, k: int, probes: StepCounter | None = None) -> dict[str, int]:
        """{variable: cell} of the k-th answer in <x> order."""
        if k < 0 or k >= self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        out: dict[str, int] = {}
        rows_of, cum_of, schema = self._rows, self._cum, self._plan.schema
        kids_of, fenced, cuts_of = self._kids, self._fenced, self._cuts
        root = self._plan.root
        cum = cum_of[root][()]
        # (node, bucket key, prefix sums, bucket positions of a run or None,
        #  the range [lo, hi) of the prefix sums to read, index in that range)
        todo = [(root, (), cum, None, 0, len(cum) - 1, k)]
        while todo:
            node, key, cum, at, lo, hi, local = todo.pop()
            local += cum[lo]
            i = bisect_right(cum, local, lo, hi) - 1
            if probes is not None:
                probes.add(max(1, (hi - lo + 1).bit_length()))
            local -= cum[i]
            if at is not None:
                i = at[i]
            row = rows_of[node][key][i]
            out.update(zip(schema[node], row))
            kids = kids_of[node]
            if not kids:
                continue
            cuts = cuts_of[node][key][i] if node in cuts_of else None
            reads = []  # per child: [child, key, prefix sums, run positions, lo, hi]
            size = 1
            for c, pk, f in kids:
                ck = pk(row)
                ccum = cum_of[c][ck]
                clo, chi = (0, len(ccum) - 1) if f is None else (cuts[f][0], cuts[f][-1])
                size *= ccum[chi] - ccum[clo]
                reads.append([c, ck, ccum, None, clo, chi])
            for (ci, up, runs), bounds in zip(fenced.get(node, ()), cuts or ()):
                read = reads[ci]
                _, ck, ccum, _, clo, chi = read
                rest = size // (ccum[chi] - ccum[clo])
                t, local = divmod(local, rest)
                # the block that holds index t of the blocks read in order
                if up:  # from the side's end, each block forward
                    j = bisect_right(bounds, ccum[chi] - 1 - t, key=ccum.__getitem__) - 1
                    start = ccum[chi] - ccum[bounds[j + 1]]
                else:
                    j = bisect_right(bounds, ccum[clo] + t, key=ccum.__getitem__) - 1
                    start = ccum[bounds[j]] - ccum[clo]
                if probes is not None:
                    probes.add(max(1, len(bounds).bit_length()))
                blo, bhi = bounds[j], bounds[j + 1]
                local += (t - start) * rest
                size = rest * (ccum[bhi] - ccum[blo])
                if runs is None:
                    read[4:] = blo, bhi
                else:
                    run, rcum = runs[ck, blo, bhi]
                    read[2:] = rcum, run, 0, len(run)
            for c, ck, ccum, run, clo, chi in reads:
                size //= ccum[chi] - ccum[clo]
                digit, local = divmod(local, size)
                if probes is not None:
                    probes.add(1)
                todo.append((c, ck, ccum, run, clo, chi, digit))
            # local is now 0: the last child consumed the remainder
        return out


# ---------------------------------------------------------------------------
# Min-ranked direct access


@dataclass(frozen=True)
class MinDAEntry:
    min_val: int | None  # None in unranked access: entries in part order
    qid: int
    count: int
    smaller_cq: int
    smaller_total: int


@dataclass
class MinDAIndex:
    """Sorted entry array plus per-part secondary structures.

    Global order: non-decreasing min-of-X value, ties by part id, then by
    the secondary structure's internal tie order; with no min values
    (unranked access), part order. Reads are idempotent; the structure
    is immutable after build.
    """

    entries: list[MinDAEntry]
    secondary: dict[int, LexDA]
    part_info: list[tuple[ConjunctiveQuery, Database, StrictPartialOrder | None, str | None]]
    source_vars: tuple[str, ...]
    total: int
    build_steps: int = 0
    negated: bool = False  # built over the negated database: answers negate back
    _smaller: list[int] = field(default_factory=list)
    _sorted_vars: tuple[str, ...] = ()

    def __post_init__(self):
        self._smaller = [e.smaller_total for e in self.entries]
        self._sorted_vars = tuple(sorted(self.source_vars))

    def access(self, k: int, probes: StepCounter | None = None) -> Answer:
        """The k-th answer in the global order, untagged, over var(Q)."""
        if k < 0 or k >= self.total:
            raise OutOfBoundsError(f"index {k} out of bounds (total {self.total})")
        i = bisect_right(self._smaller, k) - 1
        if probes is not None:
            probes.add(max(1, len(self._smaller).bit_length()))
        e = self.entries[i]
        j = k - e.smaller_total + e.smaller_cq
        cells = self.secondary[e.qid]._cells(j, probes)
        answer = Answer._of_sorted(tuple([(v, cells[v] - cells[v] % W) for v in self._sorted_vars]))
        return answer.negated() if self.negated else answer


def build_min_da(q: ConjunctiveQuery, xs, db: Database) -> MinDAIndex:
    """Min-ranked direct access over an acyclic free-connex query's
    answers, the query restricted to its free variables first.

    `xs` is the ranking's variables, which means MIN, or a MinRanking; a
    MAX ranking is served as MIN over the negated database, and the
    answers carry the original values. For each ranking variable x, the
    case "x attains the minimum" is partitioned into enforced strict
    orders over the disjointified database; each order gets a LexDA on x
    that enforces it, and the per-value counts merge into one
    prefix-summed entry array.
    """
    maximize = isinstance(xs, MinRanking) and xs.maximize
    if isinstance(xs, MinRanking):
        xs = xs.xs
    if not xs:
        raise EngineError("ranking needs at least one variable")
    classify(Task.RANKED_DA, q, xs).require()
    counter = StepCounter()
    q1, _, d1 = restrict_predicate_to_free(q, None, negate_database(db) if maximize else db)
    d2 = disjointify(d1, q1, q1.variables)
    counter.add(d2.size)

    var_pos = {v: i for i, v in enumerate(q1.variables)}
    xs = sorted(dict.fromkeys(xs), key=lambda v: var_pos[v])
    part_info = []
    secondary: dict[int, LexDA] = {}
    raw_entries: list[tuple[int, int, int, int]] = []
    qid = 0
    for x in xs:
        for otp in min_orders(q1, x, [v for v in xs if v != x]):
            lex = LexDA(q1, d2, x, otp)
            counter.add(lex.build_steps)
            secondary[qid] = lex
            part_info.append((q1, d2, otp.order, x))
            raw_entries += [(val, qid, cnt, below) for val, cnt, below in lex.root_groups()]
            qid += 1

    raw_entries.sort(key=lambda e: (e[0], e[1]))
    entries: list[MinDAEntry] = []
    running = 0
    for val, qid_, cnt, below in raw_entries:
        entries.append(MinDAEntry(val, qid_, cnt, below, running))
        running += cnt
    return MinDAIndex(
        entries=entries,
        secondary=secondary,
        part_info=part_info,
        source_vars=q.free_vars,
        total=running,
        build_steps=counter.steps,
        negated=maximize,
    )


def single_access(q: ConjunctiveQuery, xs, db: Database, k: int) -> Answer:
    """One-shot k-th answer by min over xs (builds the index, accesses once)."""
    return build_min_da(q, xs, db).access(k)


def count_via_access(da, probes: StepCounter | None = None) -> int:
    """Recover the answer count from out-of-bounds signals alone.

    Probe 0, gallop by doubling to the first out-of-bounds index, then
    binary search the boundary: at most 2*ceil(log2 total) + 2 probes.
    """

    def in_bounds(k: int) -> bool:
        if probes is not None:
            probes.add(1)
        try:
            da.access(k)
            return True
        except OutOfBoundsError:
            return False

    if not in_bounds(0):
        return 0
    hi = 1
    while in_bounds(hi):
        hi *= 2
    lo = hi // 2  # total in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if in_bounds(mid):
            lo = mid
        else:
            hi = mid
    return hi


# ---------------------------------------------------------------------------
# Unranked direct access / counting / Boolean with a predicate


def build_unranked_da_pred(q: ConjunctiveQuery, p: MinPredicate | None, db: Database) -> MinDAIndex:
    """Direct access (arbitrary order) to the answers of Q AND P, or of Q
    when p is None: the parts of the predicate's enforced orders
    concatenated in part order, one entry per part with no min value, each
    a LexDA that enforces its order. A Boolean query has one (empty)
    answer or none."""
    classify(Task.UNRANKED_DA_PRED, q, p).require()
    q2, d, otps = min_predicate_orders(q, p, db)
    x = next(iter(q2.free_vars), None)
    entries, secondary, part_info = [], {}, []
    running = 0
    for i, otp in enumerate(otps or [None]):
        lex = secondary[i] = LexDA(q2, d, x, otp)
        part_info.append((q2, d, otp.order, p.x0) if otp else (q2, d, None, None))
        entries.append(MinDAEntry(None, i, lex.total, 0, running))
        running += lex.total
    return MinDAIndex(entries, secondary, part_info, q.free_vars, running)


def count_with_predicate(q: ConjunctiveQuery, p: MinPredicate | None, db: Database) -> int:
    """|(Q AND P)(D)|, or |Q(D)| when p is None. A Boolean query has one
    (empty) answer or none.

    The predicate is restricted to the free variables and partitioned into
    enforced strict orders over the disjointified data; every answer
    satisfies exactly one order, and each order is counted by one
    bottom-up pass over its enforcing tree, with no fork rewrite.
    """
    classify(Task.COUNTING, q, p).require()
    q2, d, otps = min_predicate_orders(q, p, db)
    return sum(count_answers(q2, d, otp) for otp in otps or [None])


def is_nonempty(q: ConjunctiveQuery, p: MinPredicate | None, db: Database) -> bool:
    """Boolean task for Q AND P (for Q when p is None); needs only
    acyclicity. Q AND P holds when the cut of an atom holding x0 keeps a
    row (see `reduce.cut_at_x0`)."""
    classify(Task.BOOLEAN, q, p).require()
    return cut_at_x0(q, p, db)[2] > 0
