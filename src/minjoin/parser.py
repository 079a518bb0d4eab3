"""Query-text and data-file front end.

Grammar, one statement per line, `#` starts a comment:

    HEAD(v1,...,vk) :- Sym(v,...), Sym(v,...), ... .
    PREDICATE v <= MIN(v1,...,vm).      # or:  PREDICATE v < MIN(...)
    ORDER BY MIN(v1,...,vm).            # or:  ORDER BY MAX(...)

Data files: one text file per relation symbol, no header, file name equal
to the symbol name; a row is a line of integers `[+-]?[0-9]+` separated
by commas, semicolons or whitespace.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from pathlib import Path

from .errors import DataFileError, EngineError, QuerySyntaxError
from .model import Atom, ConjunctiveQuery, Database, MinPredicate, MinRanking, Relation

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_HEAD_RE = re.compile(rf"^({_IDENT})\s*\(([^)]*)\)\s*:-\s*(.*)$")
_ATOM_RE = re.compile(rf"({_IDENT})\s*\(([^)]*)\)")
_PRED_RE = re.compile(rf"^PREDICATE\s+({_IDENT})\s*(<=|<)\s*MIN\s*\(([^)]*)\)\s*\.$")
_ORDER_RE = re.compile(r"^ORDER\s+BY\s+(MIN|MAX)\s*\(([^)]*)\)\s*\.$")


def _split_vars(blob: str, line_no: int, col: int, allow_empty: bool) -> tuple[str, ...]:
    blob = blob.strip()
    if not blob:
        if allow_empty:
            return ()
        raise QuerySyntaxError("empty variable list", line_no, col)
    out = []
    for piece in blob.split(","):
        v = piece.strip()
        if not re.fullmatch(_IDENT, v):
            raise QuerySyntaxError(f"bad variable name {v!r}", line_no, col)
        out.append(v)
    return tuple(out)


def parse_query(
    text: str,
) -> tuple[ConjunctiveQuery, MinPredicate | None, MinRanking | None]:
    """Parse query text into (query, optional predicate, optional ranking)."""
    query: ConjunctiveQuery | None = None
    predicate: MinPredicate | None = None
    ranking: MinRanking | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        m = _PRED_RE.match(line)
        if m:
            if query is None:
                raise QuerySyntaxError("PREDICATE before the query head", line_no, 1)
            if predicate is not None:
                raise QuerySyntaxError("duplicate PREDICATE", line_no, 1)
            x0, op, blob = m.group(1), m.group(2), m.group(3)
            xs = _split_vars(blob, line_no, line.find("(") + 2, allow_empty=False)
            try:
                predicate = MinPredicate(x0, xs, strict=(op == "<"))
                predicate.check_vars(query)
            except EngineError as err:
                raise QuerySyntaxError(str(err), line_no, 1) from None
            continue

        m = _ORDER_RE.match(line)
        if m:
            if query is None:
                raise QuerySyntaxError("ORDER BY before the query head", line_no, 1)
            if ranking is not None:
                raise QuerySyntaxError("duplicate ORDER BY", line_no, 1)
            kind, blob = m.group(1), m.group(2)
            xs = _split_vars(blob, line_no, line.find("(") + 2, allow_empty=False)
            try:
                ranking = MinRanking(xs, maximize=(kind == "MAX"))
            except EngineError as err:
                raise QuerySyntaxError(str(err), line_no, 1) from None
            qvars = set(query.variables)
            for v in xs:
                if v not in qvars:
                    raise QuerySyntaxError(f"ranking variable {v!r} not in the query", line_no, 1)
                if v not in query.free_vars:
                    raise QuerySyntaxError(f"ranking variable {v!r} is not a head variable", line_no, 1)
            continue

        m = _HEAD_RE.match(line)
        if m:
            if query is not None:
                raise QuerySyntaxError("second query head; one query per file", line_no, 1)
            name, head_blob, body = m.group(1), m.group(2), m.group(3)
            if not body.rstrip().endswith("."):
                raise QuerySyntaxError("missing final '.'", line_no, len(raw))
            body = body.rstrip()[:-1]
            head_vars = _split_vars(head_blob, line_no, line.find("(") + 2, allow_empty=True)
            atoms: list[Atom] = []
            arities: dict[str, int] = {}
            if not body.strip():
                raise QuerySyntaxError("empty body", line_no, len(line))
            pos, n = 0, len(body)
            offset = len(line) - len(body)  # body column offset within the line
            while True:
                while pos < n and body[pos].isspace():
                    pos += 1
                am = _ATOM_RE.match(body, pos)
                if am is None:
                    raise QuerySyntaxError("expected an atom", line_no, offset + pos + 1)
                sym = am.group(1)
                vars_ = _split_vars(am.group(2), line_no, offset + am.start(2) + 1, allow_empty=False)
                if sym in arities and arities[sym] != len(vars_):
                    raise QuerySyntaxError(
                        f"symbol {sym} used with two arities", line_no, offset + am.start() + 1
                    )
                arities[sym] = len(vars_)
                atoms.append(Atom(sym, vars_))
                pos = am.end()
                while pos < n and body[pos].isspace():
                    pos += 1
                if pos >= n:
                    break
                if body[pos] != ",":
                    raise QuerySyntaxError("expected ',' between atoms", line_no, offset + pos + 1)
                pos += 1
            try:
                query = ConjunctiveQuery(tuple(atoms), head_vars, name)
            except EngineError as err:
                raise QuerySyntaxError(str(err), line_no, 1) from None
            continue

        raise QuerySyntaxError(f"unrecognised statement: {line[:40]!r}", line_no, 1)

    if query is None:
        raise QuerySyntaxError("no query found", 1, 1)
    return query, predicate, ranking


def _read_text(path: Path, what: str) -> str:
    """A file's text; a file that cannot be read as text is a
    DataFileError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise DataFileError(f"cannot read {what} {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise DataFileError(f"cannot read {what} {path}: not UTF-8 text") from None


def parse_query_file(path: str | Path):
    """parse_query over a query file's text."""
    return parse_query(_read_text(Path(path), "query file"))


_SEPARATORS = str.maketrans(",;", "  ")
# a character that no cell [+-]?[0-9]+ and no separator holds
_NOT_CELL_TEXT = re.compile(r"[^0-9+\-,;\s]")
# deletes the characters of cells, leaving a text's separators and line breaks
_CELL_CHARS = str.maketrans("", "", "0123456789+-")


def _bulk_rows(text: str, arity: int) -> Iterable[tuple[int, ...]] | None:
    """The rows of `text` from whole-file passes with no Python loop per
    row, or None when the file needs the line loop. The bulk path takes
    a text whose every line, split at `\\n` only, is `arity` cells joined
    by single commas, each cell an int as Python writes it."""
    if text and not text.endswith("\n"):
        text += "\n"
    lines = text.count("\n")
    if not arity or text.translate(_CELL_CHARS) != ("," * (arity - 1) + "\n") * lines:
        return None
    try:
        # a JSON int, -?(0|[1-9][0-9]*), is a cell that int() reads the
        # same; "+1", "01", "1-2", "-" and an empty cell are JSON errors
        cells = json.loads("[" + text[:-1].replace("\n", ",") + "]")
    except ValueError:
        return None
    return zip(*[iter(cells)] * arity)


def _line_rows(text: str, sym: str, arity: int) -> list[tuple[int, ...]]:
    """The rows of `sym`'s file `text`, one line at a time; a malformed
    line is a DataFileError at `sym:line`."""
    # int() also takes "1_0" and non-ASCII digits: check lines if need be
    checked = _NOT_CELL_TEXT.search(text) is not None
    rows: list[tuple[int, ...]] = []
    lines = zip(text.splitlines(), text.translate(_SEPARATORS).splitlines())
    for ln, (raw, line) in enumerate(lines, start=1):
        cells = line.split()
        if not cells and not raw.strip():
            continue
        if len(cells) != arity:
            raise DataFileError(f"{sym}:{ln}: row has {len(cells)} columns, {sym} has arity {arity}")
        try:
            if checked and _NOT_CELL_TEXT.search(line):
                raise ValueError
            rows.append(tuple(map(int, cells)))
        except ValueError:
            raise DataFileError(f"{sym}:{ln}: non-integer cell") from None
    return rows


def load_database(paths: list[str | Path], query: ConjunctiveQuery) -> Database:
    """Load one data file per relation symbol of `query`.

    Each file must be named exactly like its symbol and is read as UTF-8.
    A file of arity >= 1 whose every line is `arity` cells joined by
    single commas, each cell written as Python writes an int (no `+`, no
    leading zero), is parsed in whole-file passes. Any other file is
    parsed one line at a time, which names the first malformed line; both
    give the same rows. Line breaks are those of `str.splitlines`.
    Whitespace-only lines are skipped; a line of separators only is a row
    of 0 columns. Rows are deduplicated, first occurrence kept; an empty
    file is a legal empty relation.
    """
    by_name = {Path(p).name: Path(p) for p in paths}
    arities: dict[str, int] = {}
    for a in query.atoms:
        prev = arities.setdefault(a.symbol, a.arity)
        if prev != a.arity:
            raise DataFileError(f"symbol {a.symbol} used with two arities")
    relations: dict[str, Relation] = {}
    for sym, arity in arities.items():
        path = by_name.get(sym)
        if path is None:
            raise DataFileError(f"no data file for relation {sym!r}")
        text = _read_text(path, "data file")
        rows = _bulk_rows(text, arity)
        if rows is None:
            rows = _line_rows(text, sym, arity)
        relations[sym] = Relation._of_distinct(sym, arity, tuple(dict.fromkeys(rows)))
    return Database(relations)


def load_database_dir(directory: str | Path, query: ConjunctiveQuery) -> Database:
    """Load every referenced symbol from `directory` (file name = symbol)."""
    directory = Path(directory)
    syms = {a.symbol for a in query.atoms}
    paths = [directory / s for s in syms]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        raise DataFileError(f"missing data file(s) in {directory}: {', '.join(sorted(missing))}")
    return load_database(paths, query)
