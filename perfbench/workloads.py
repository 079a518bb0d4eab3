"""One benchmark workload in a fresh interpreter; started by run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

DIR holds the generated data files (`data/`, and the small instance in
`check/`). The engine must be importable (run.py puts the checkout's
`src` first on PYTHONPATH). Each workload is a closed loop with one
client: one process, one thread, the next operation starts when the
previous one has returned. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import minjoin
from minjoin import access as mj_access
from minjoin import elim as mj_elim
from minjoin import enumeration as mj_enum
from minjoin import parser as mj_parser
from minjoin import reduce as mj_reduce
from minjoin import structure as mj_structure
from minjoin import (
    Database,
    IntractableQueryError,
    Relation,
    StepCounter,
    Task,
    oracle_answers,
    oracle_sorted,
    parse_query,
)

from checks import PathReference, StarReference, Tally
from inputs import WORKLOADS, grid_relations
from spans import Tracer

# name -> unit; the order and names are those of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "serve_over_ref": "ratio",
}
PER_LAYER = {
    "parser.load_s": "s",
    "parser.rows": "count",
    "structure.classify_s": "s",
    "model.disjointify_s": "s",
    "partition.orders_s": "s",
    "partition.parts": "count",
    "elim.fork_rewrite_s": "s",
    "elim.rows_out": "count",
    "elim.blowup": "ratio",
    "semiring.count_agg_s": "s",
    "semiring.thresholds_s": "s",
    "reduce.semijoin_s": "s",
    "reduce.semijoin_rows_out": "count",
    "reduce.restrict_s": "s",
    "access.lexda_build_s": "s",
    "access.build_steps": "count",
    "access.probes_avg": "count",
    "access.probes_max": "count",
    "enumeration.stream_build_s": "s",
    "enumeration.steps_per_answer": "count",
    "enumeration.max_delay_steps": "count",
    "enumeration.advance_s": "s",
    "trace.setup_s": "s",
    "trace.untraced_setup_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}
# per-layer self time: metric -> span name
LAYER_SPANS = {
    "parser.load_s": "parser.load",
    "structure.classify_s": "structure.classify",
    "model.disjointify_s": "model.disjointify",
    "partition.orders_s": "partition.orders",
    "elim.fork_rewrite_s": "elim.fork_rewrite",
    "semiring.count_agg_s": "semiring.count_agg",
    "semiring.thresholds_s": "semiring.thresholds",
    "reduce.semijoin_s": "reduce.semijoin",
    "reduce.restrict_s": "reduce.restrict",
    "access.lexda_build_s": "access.lexda_build",
    "enumeration.stream_build_s": "enumeration.stream_build",
    "trace.unattributed_s": "setup",
}
# exact per-set-up counts read from call results: metric -> (span name, fact)
LAYER_FACTS = {
    "parser.rows": ("parser.load", "rows"),
    "partition.parts": ("partition.orders", "parts"),
    "elim.rows_out": ("elim.fork_rewrite", "rows_out"),
    "reduce.semijoin_rows_out": ("reduce.semijoin", "rows_out"),
}


def _rows(db):
    return {"rows": db.size}


def _rows_out(db):
    return {"rows_out": db.size}


LOAD = (mj_parser, "load_database_dir", "parser.load", _rows)
STAR_RDA_TARGETS = [
    LOAD,
    (mj_access, "build_min_da", "access.build_min_da", None),
    (mj_access, "classify", "structure.classify", None),
    (mj_access, "disjointify", "model.disjointify", None),
    (mj_elim, "partition_min_orders", "partition.orders", lambda otps: {"parts": len(otps)}),
    (mj_elim, "eliminate_enforced_order", "elim.fork_rewrite", lambda qd: _rows_out(qd[1])),
    (mj_access, "LexDA", "access.lexda_build", None),
    (mj_access, "aggregate_bottom_up", "semiring.count_agg", None),
]
STAR_COUNT_TARGETS = [
    LOAD,
    (mj_access, "count_with_predicate", "access.count_with_predicate", None),
    (mj_access, "classify", "structure.classify", None),
    (mj_access, "eliminate_min_predicate", "elim.eliminate", None),
    (mj_elim, "classify", "structure.classify", None),
    (mj_elim, "restrict_predicate_to_free", "reduce.restrict", None),
    (mj_reduce, "semijoin_reduce", "reduce.semijoin", _rows_out),
    (mj_elim, "disjointify", "model.disjointify", None),
    (mj_elim, "partition_min_orders", "partition.orders", lambda otps: {"parts": len(otps)}),
    (mj_elim, "eliminate_enforced_order", "elim.fork_rewrite", lambda qd: _rows_out(qd[1])),
    (mj_access, "count_answers", "semiring.count_agg", None),
]
PATH_ENUM_TARGETS = [
    LOAD,
    (mj_structure, "classify", "structure.classify", None),
    (mj_enum, "enumerate_with_predicate", "enumeration.stream_build", None),
    (mj_enum, "semijoin_reduce", "reduce.semijoin", _rows_out),
    (mj_enum, "thresholds", "semiring.thresholds", None),
]

STAR_RDA_SETUPS = 3  # index builds per untraced run; a traced run makes 5
MIN_SETUPS = 3  # path-enum sets up again until time is up, at least this often; star-count this often
WARMUP_ACCESSES = 2000
SLICE_ACCESSES = 5000  # star-rda serving window, about 0.1 s
PROBE_CHECK_ACCESSES = 2000  # fixed accesses whose probe counts must repeat across builds
EMIT_BATCH = 1000
EMIT_BATCHES = 200  # emissions per path-enum stream: EMIT_BATCH * EMIT_BATCHES
WINDOW_BATCHES = 20  # path-enum serving window, about 0.1 s
COUNT_SERVE_SIZE = 2**12  # |D| of the star instance that star-count serves counts on
REFERENCE_PAIRS = 8000  # size of the reference task, about 3 ms
REFERENCE_REPEATS = 3  # reference timings per window; their median is used


class Reference:
    """A fixed pure-Python task, timed after every serving window.

    It sorts a fixed list of int pairs and folds it, which is the kind of
    work the engine does (tuples, comparisons, a list walk), and calls no
    engine code. It allocates a single list, so it starts no garbage
    collection in the engine's heap. The host's speed swings about 1.6x
    within seconds; the reference slows with it, so a serving window's
    latency divided by the reference time beside it stays steady.
    """

    def __init__(self):
        rng = random.Random("reference")
        self.pairs = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(REFERENCE_PAIRS)]

    def once(self) -> float:
        t0 = time.perf_counter()
        n = 0
        for a, b in sorted(self.pairs):
            n ^= a + b
        return (time.perf_counter() - t0) * 1e6

    def time_us(self) -> float:
        return statistics.median(self.once() for _ in range(REFERENCE_REPEATS))


class Run:
    """What one workload run measures, counts and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.data = work / "data"
        self.check_data = work / "check"
        self.rels = grid_relations(self.wl.symbols, self.wl.size, seed)
        self.tally = Tally()
        self.tracer = Tracer()
        self.setups: list[float] = []  # untraced set-up seconds
        self.traced_setups: list[float] = []
        # serving latencies in microseconds; single precision keeps the
        # benchmark's own share of peak_rss_mb small (star-rda makes ~10^6)
        self.samples = array("f")
        self.reference = Reference()
        self.reference_us: list[float] = []  # one per serving window
        self.ratios: list[float] = []  # per window: median serving latency / reference time
        self.counts: dict[str, list] = {}  # exact counts, one value per set-up of this seed
        self.layer: dict[str, float] = {}  # workload-specific per-layer values

    def set_up(self, build, targets, traced: bool):
        """One set-up from data files on disk to the first servable answer.

        An untimed full collection first gives every set-up the collector
        state of a fresh process, whatever the set-up before it left.
        """
        gc.collect()
        if not traced:
            t0 = time.perf_counter()
            out = build(self.data)
            self.setups.append(time.perf_counter() - t0)
            return out
        with self.tracer.patched(targets), self.tracer.request("setup") as top:
            out = build(self.data)
        self.traced_setups.append(top.end - top.start)
        return out

    def close_window(self, first: int) -> None:
        """Time the reference after the window of samples[first:] and record their ratio."""
        window = self.samples[first:]
        if not window:  # every operation of the window raised
            return
        ref = self.reference.time_us()
        self.reference_us.append(ref)
        self.ratios.append(statistics.median(window) / ref)

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    def schedule(self, minimum: int, deadline: float):
        """Traced flags of successive set-ups: untraced only, or alternating.

        A traced run starts untraced, then alternates traced and untraced,
        at least twice each after the first: a process's first set-up is
        slower (its heap is still growing), so it is left out of the
        tracing overhead.
        """
        if self.trace:
            minimum = max(minimum, 5)
        i = 0
        while i < minimum or time.perf_counter() < deadline:
            yield self.trace and i % 2 == 1
            i += 1

    def database(self, size: int):
        rels = grid_relations(self.wl.symbols, size, self.seed)
        return Database({s: Relation.from_ints(s, 2, rows) for s, rows in rels.items()})


# ---------------------------------------------------------------------------
# star-rda: ranked direct access by MIN(r1,r2,r3)


def build_star_rda(data: Path):
    q, _, r = parse_query(WORKLOADS["star-rda"].query)
    db = mj_parser.load_database_dir(data, q)
    return mj_access.build_min_da(q, r.xs, db)


def serve_accesses(ix, ref: StarReference, ks, tally: Tally, samples, probes=None) -> None:
    """Time one ix.access(k) per k and check every answer it returns."""
    clock = time.perf_counter
    for k in ks:
        counter = StepCounter() if probes is not None else None
        try:
            t0 = clock()
            answer = ix.access(k, counter)
            dt = clock() - t0
        except Exception:
            tally.raised(f"access({k})")
            continue
        samples.append(dt * 1e6)
        tally.record(ref.access_ok(k, answer), f"access({k}) is a join answer with the k-th MIN value")
        if probes is not None:
            probes.append(counter.steps)


def count_star_rda(run: Run, ix, ref: StarReference) -> None:
    """Record the index's exact counts, probes included, for the repeat check."""
    rng = random.Random(f"probe-check:{run.seed}")
    probes: list[int] = []
    ks = [rng.randrange(ix.total) for _ in range(PROBE_CHECK_ACCESSES)]
    serve_accesses(ix, ref, ks, run.tally, array("d"), probes)
    run.count("partition.parts", len(ix.secondary))
    run.count("elim.rows_out", sum(info[1].size for info in ix.part_info))
    run.count("access.build_steps", ix.build_steps)
    run.count(f"access.probes over {PROBE_CHECK_ACCESSES} fixed accesses", sum(probes))


def run_star_rda(run: Run) -> None:
    ref = StarReference(run.rels)

    q, _, r = parse_query(run.wl.query)
    ix = build_star_rda(run.check_data)
    got = [ix.access(k) for k in range(ix.total)]
    want = oracle_sorted(oracle_answers(q, run.database(run.wl.check_size)), r.xs)
    run.tally.record(
        set(got) == set(want) and len(got) == len(want)
        and [min(a[x] for x in r.xs) for a in got] == [min(a[x] for x in r.xs) for a in want],
        f"star-rda on |D|={run.wl.check_size} equals the oracle",
    )

    rng = random.Random(f"access:{run.seed}")

    def serve(seconds: float, probes=None) -> None:
        serve_accesses(ix, ref, [rng.randrange(ix.total) for _ in range(WARMUP_ACCESSES)], Tally(), array("d"))
        deadline = time.perf_counter() + seconds
        while True:
            first = len(run.samples)
            for _ in range(SLICE_ACCESSES // 1000):
                ks = [rng.randrange(ix.total) for _ in range(1000)]
                serve_accesses(ix, ref, ks, run.tally, run.samples, probes)
            run.close_window(first)
            if time.perf_counter() >= deadline:
                break

    # an untraced run serves after each build, so that its serving is
    # spread over the whole run; a traced run serves once, at the end
    for traced in run.schedule(STAR_RDA_SETUPS, 0.0):
        ix = None  # drop the previous index before building the next one
        ix = run.set_up(build_star_rda, STAR_RDA_TARGETS, traced)
        run.tally.record(ix.total == ref.total, "ix.total equals the closed form")
        if run.trace:
            count_star_rda(run, ix, ref)
        else:
            serve(run.seconds / STAR_RDA_SETUPS)

    if run.trace:
        probes = []
        serve(run.seconds, probes)
        run.layer["access.build_steps"] = ix.build_steps
        run.layer["access.probes_avg"] = sum(probes) / len(probes)
        run.layer["access.probes_max"] = max(probes)


# ---------------------------------------------------------------------------
# path-enum: predicate enumeration


def build_path_enum(data: Path):
    q, p, _ = parse_query(WORKLOADS["path-enum"].query)
    db = mj_parser.load_database_dir(data, q)
    verdict = mj_structure.classify(Task.ENUM_PRED, q, p)
    if not verdict.tractable:
        raise IntractableQueryError(verdict)
    stream = mj_enum.enumerate_with_predicate(q, p, db)
    stream.peek()
    return stream


def emit_batches(stream, ref: PathReference, seen: set, batches: int, tally: Tally, samples, tracer=None) -> bool:
    """Time each batch of EMIT_BATCH advance() calls, then check its answers.

    `seen` holds the stream's answers so far. False if the stream raised.
    """
    clock = time.perf_counter
    peek, advance = stream.peek, stream.advance
    for _ in range(batches):
        batch = []
        put = batch.append
        try:
            if tracer is None:
                t0 = clock()
                for _ in range(EMIT_BATCH):
                    put(peek())
                    advance()
                dt = clock() - t0
            else:
                with tracer.span("enumeration.advance") as s:
                    for _ in range(EMIT_BATCH):
                        put(peek())
                        advance()
                dt = s.end - s.start
        except Exception:
            tally.raised("advance()")
            return False
        samples.append(dt * 1e6)
        for answer in batch:
            tally.record(ref.answer_ok(answer, seen), "emitted answer joins, holds the predicate, is new")
    return True


def run_path_enum(run: Run) -> None:
    ref = PathReference(run.rels)

    q, p, _ = parse_query(run.wl.query)
    stream = build_path_enum(run.check_data)
    got = stream.drain()
    run.tally.record(
        len(got) == len(set(got)) and set(got) == oracle_answers(q, run.database(run.wl.check_size), p),
        f"path-enum on |D|={run.wl.check_size} equals the oracle",
    )

    deadline = time.perf_counter() + run.seconds
    for traced in run.schedule(MIN_SETUPS, deadline):
        stream = run.set_up(build_path_enum, PATH_ENUM_TARGETS, traced)
        seen: set = set()
        for done in range(0, EMIT_BATCHES, WINDOW_BATCHES):
            first = len(run.samples)
            batches = min(WINDOW_BATCHES, EMIT_BATCHES - done)
            ok = emit_batches(stream, ref, seen, batches, run.tally, run.samples, run.tracer if traced else None)
            run.close_window(first)
            if not ok:
                break
        emitted = EMIT_BATCH * EMIT_BATCHES
        run.tally.record(stream.emitted == emitted, f"stream held {emitted} answers")
        run.count("enumeration.steps", stream.steps)
        run.count("enumeration.max_delay_steps", stream.max_delay)
        stream = None
    if run.trace:
        run.layer["enumeration.steps_per_answer"] = run.counts["enumeration.steps"][0] / (EMIT_BATCH * EMIT_BATCHES)
        run.layer["enumeration.max_delay_steps"] = run.counts["enumeration.max_delay_steps"][0]
        run.layer["enumeration.advance_s"] = statistics.median(
            s.end - s.start for s in run.tracer.spans if s.name == "enumeration.advance"
        )


# ---------------------------------------------------------------------------
# star-count: counting with a predicate


def build_star_count(data: Path):
    q, p, _ = parse_query(WORKLOADS["star-count"].query)
    db = mj_parser.load_database_dir(data, q)
    return mj_access.count_with_predicate(q, p, db)


def serve_count(q, p, db, expected: int, tally: Tally, samples) -> None:
    """Time one count_with_predicate call on db and check the count."""
    try:
        t0 = time.perf_counter()
        n = mj_access.count_with_predicate(q, p, db)
        dt = time.perf_counter() - t0
    except Exception:
        tally.raised("count_with_predicate")
        return
    samples.append(dt * 1e6)
    tally.record(n == expected, f"count on |D|={db.size} equals the per-s bisect count")


def run_star_count(run: Run) -> None:
    """Set up MIN_SETUPS times, each followed by serving counts on a smaller instance.

    One count at the workload's size takes seconds, too few per run for a
    steady serving latency, so serving counts a COUNT_SERVE_SIZE instance
    of the same seed and shape. Set-ups and serving share the run's time:
    serving after the i-th of n set-ups lasts until i/n of it has passed.
    A traced run sets up until time is up and serves nothing.
    """
    ref = StarReference(run.rels)
    expected = ref.count_r1_at_most_min()

    q, p, _ = parse_query(run.wl.query)
    n = build_star_count(run.check_data)
    run.tally.record(n == len(oracle_answers(q, run.database(run.wl.check_size), p)), f"star-count on |D|={run.wl.check_size} equals the oracle")

    db = run.database(COUNT_SERVE_SIZE)
    serve_expected = StarReference(grid_relations(run.wl.symbols, COUNT_SERVE_SIZE, run.seed)).count_r1_at_most_min()
    serve_count(q, p, db, serve_expected, Tally(), array("d"))  # warm-up

    start = time.perf_counter()
    deadline = start + run.seconds
    for i, traced in enumerate(run.schedule(MIN_SETUPS, deadline if run.trace else 0.0), 1):
        n = run.set_up(build_star_count, STAR_COUNT_TARGETS, traced)
        run.tally.record(n == expected, "count equals the per-s bisect count")
        if run.trace:
            continue
        until = start + run.seconds * i / MIN_SETUPS
        while True:
            first = len(run.samples)
            serve_count(q, p, db, serve_expected, run.tally, run.samples)
            run.close_window(first)
            if time.perf_counter() >= until:
                break


RUNNERS = {"star-rda": run_star_rda, "path-enum": run_path_enum, "star-count": run_star_count}
# what one serving operation is, per workload: (label, human name, unit, scale from us)
SERVE_LABEL = {
    "star-rda": ("one MinDAIndex.access(k)", "access_us", "us", 1.0),
    "path-enum": ("one batch of 1000 advance() calls", "emit_1k_ms", "ms", 1e-3),
    "star-count": (f"one count_with_predicate on |D|={COUNT_SERVE_SIZE}", "count_ms", "ms", 1e-3),
}


# ---------------------------------------------------------------------------
# results


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": peak_rss_mb(),
        "serve_over_ref": statistics.median(run.ratios),
    }


def unrepeated(counts: dict[str, list]) -> list[str]:
    """The counts that differ between set-ups of one seed, with their values."""
    return [f"{name}: {values}" for name, values in counts.items() if len(set(values)) > 1]


def per_layer(run: Run) -> dict[str, float]:
    tr = run.tracer
    setups = tr.requests()
    selfs = [tr.self_times(r) for r in setups]
    out = {name: 0.0 for name in PER_LAYER}
    for metric, span in LAYER_SPANS.items():
        out[metric] = statistics.median(st.get(span, 0.0) for st in selfs)
    for metric, (span, key) in LAYER_FACTS.items():
        values = [tr.fact_sum(r, span, key) for r in setups]
        out[metric] = values[0]
        run.counts[f"{metric} (traced)"] = values
    out["elim.blowup"] = out["elim.rows_out"] / out["parser.rows"]
    out.update(run.layer)
    traced, untraced = statistics.median(run.traced_setups), statistics.median(run.setups[1:])
    out["trace.setup_s"] = traced
    out["trace.untraced_setup_s"] = untraced
    out["trace.overhead_frac"] = traced / untraced - 1
    return out


def span_table(run: Run) -> list[str]:
    tr = run.tracer
    setups = tr.requests()
    names = sorted({s.name for s in tr.spans})
    lines = [f"  {'span':32} {'calls':>6} {'self s':>10} {'incl s':>10}   (median per traced set-up)"]
    for name in names:
        calls = statistics.median(len(tr.durations(r, name)) for r in setups)
        self_s = statistics.median(tr.self_times(r).get(name, 0.0) for r in setups)
        incl_s = statistics.median(sum(tr.durations(r, name)) for r in setups)
        lines.append(f"  {name:32} {calls:>6g} {self_s:>10.4f} {incl_s:>10.4f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.work)
    RUNNERS[args.workload](run)
    t = run.tally
    print(f"workload {run.name}  seed {run.seed}  |D| {len(run.rels) * len(next(iter(run.rels.values())))}  "
          f"engine {Path(minjoin.__file__).parent}  trace {int(run.trace)}")
    print(f"  failed_frac  {t.failed / t.attempted:.6g}  ({t.failed} failed of {t.attempted} attempted)")
    if t.first_failure:
        print(f"  first failure: {t.first_failure}", file=sys.stderr)
    if run.trace:
        metrics, units = per_layer(run), PER_LAYER
        print(f"  traced set-ups {len(run.traced_setups)}, untraced {len(run.setups)}; "
              f"tracing overhead {metrics['trace.overhead_frac']:+.2%} of set-up time")
        print("\n".join(span_table(run)))
        missing = unrepeated(run.counts)
        print("  exact counts: " + ("every count repeated across set-ups" if not missing
                                    else "DID NOT REPEAT: " + "; ".join(missing)))
        run.tracer.dump(args.work / "spans.json")
        print(f"  spans written to {args.work / 'spans.json'}")
    else:
        metrics, units = end_to_end(run), END_TO_END
        what, human, unit, scale = SERVE_LABEL[run.name]
        print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of {len(run.setups)} set-ups: "
              + ", ".join(f"{s:.3f}" for s in run.setups) + ")")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        samples = run.samples
        print(f"  serving: {what}; {len(samples)} samples in {len(run.ratios)} windows")
        print("  " + "  ".join(f"{human}_p{q}  {percentile(samples, q) * scale:.4g} {unit}" for q in (50, 90, 99))
              + f"  mean {statistics.fmean(samples) * scale:.4g} {unit}")
        print(f"  reference task  p50 {statistics.median(run.reference_us):.1f} us  "
              f"(min {min(run.reference_us):.1f}, max {max(run.reference_us):.1f})")
    for name, value in metrics.items():
        print(f"  {name:30} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": t.failed == 0,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
