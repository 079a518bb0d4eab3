import random

import pytest

from minjoin import DataFileError, QuerySyntaxError, load_database, parse_query, parser
from minjoin.parser import load_database_dir


def test_parse_query_with_predicate():
    q, p, r = parse_query(
        "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\n"
        "PREDICATE x0 <= MIN(x1,x2).\n"
    )
    assert len(q.atoms) == 3
    assert q.free_vars == ("x0", "x1", "x2", "y")
    assert p is not None and p.x0 == "x0" and p.xs == ("x1", "x2") and not p.strict
    assert r is None


def test_parse_minimal_query():
    q, p, r = parse_query("Q(x) :- R(x).")
    assert len(q.atoms) == 1 and q.is_full
    assert p is None and r is None


def test_parse_head_var_not_in_body():
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(y).")


def test_parse_errors_carry_position():
    with pytest.raises(QuerySyntaxError) as ei:
        parse_query("Q(x) :- R(x)\n")  # missing period
    assert ei.value.line == 1
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x).\nPREDICATE x <= MIN().\n")
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x).\nPREDICATE z <= MIN(x).\n")


def test_parse_strict_predicate_and_ranking():
    q, p, r = parse_query(
        "Q(a,b) :- R(a,b).\nPREDICATE a < MIN(b).\nORDER BY MAX(a,b).\n"
    )
    assert p.strict
    assert r.maximize and r.xs == ("a", "b")
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(a) :- R(a).\nPREDICATE a < MIN(a).\n")


def test_parse_comments_and_boolean_head():
    q, _, _ = parse_query("# a comment\nQ() :- R(x).  # trailing\n")
    assert q.is_boolean


def test_parse_rejects_two_heads_and_junk():
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x).\nQ(y) :- S(y).\n")
    with pytest.raises(QuerySyntaxError):
        parse_query("HELLO WORLD.\n")


# -- data loading ------------------------------------------------------------


def _write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return f


def test_load_database_basic(tmp_path):
    q, _, _ = parse_query("Q(x,y) :- R0(x), R1(x,y).")
    f0 = _write(tmp_path, "R0", "1\n2\n")
    f1 = _write(tmp_path, "R1", "1,0\n2;0\n")
    db = load_database([f0, f1], q)
    assert len(db.relation("R0")) == 2
    assert len(db.relation("R1")) == 2
    assert db.relation("R1").rows == ((1, 0), (2, 0))


def test_load_database_dedup_and_empty(tmp_path):
    q, _, _ = parse_query("Q(x,y) :- R(x,y), S(x).")
    f = _write(tmp_path, "R", "1,0\n1,0\n")
    s = _write(tmp_path, "S", "")
    db = load_database([f, s], q)
    assert len(db.relation("R")) == 1
    assert len(db.relation("S")) == 0


def test_load_database_errors(tmp_path):
    q, _, _ = parse_query("Q(x,y) :- R(x,y).")
    with pytest.raises(DataFileError):
        load_database([], q)
    bad = _write(tmp_path, "R", "1\n")
    with pytest.raises(DataFileError):
        load_database([bad], q)
    bad2 = _write(tmp_path, "R", "1,foo\n")
    with pytest.raises(DataFileError):
        load_database([bad2], q)


def test_load_database_dir(tmp_path):
    q, _, _ = parse_query("Q(x) :- R(x).")
    _write(tmp_path, "R", "7\n")
    db = load_database_dir(tmp_path, q)
    assert db.relation("R").rows == ((7,),)
    q2, _, _ = parse_query("Q(x) :- Missing(x).")
    with pytest.raises(DataFileError):
        load_database_dir(tmp_path, q2)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1\n", "R:1: row has 1 columns, R has arity 2"),
        ("1,2,3\n", "R:1: row has 3 columns, R has arity 2"),
        ("1,2\n,,\n", "R:2: row has 0 columns, R has arity 2"),
        ("1_0,2\n", "R:1: non-integer cell"),
        ("\u0661,2\n", "R:1: non-integer cell"),
        ("+,2\n", "R:1: non-integer cell"),
        ("1-2,3\n", "R:1: non-integer cell"),
        ("1,2\r\n3,4\r\n", ((1, 2), (3, 4))),
        ("1,2\n  \t\n3,4\n", ((1, 2), (3, 4))),
        ("1,2\x0c3,4\n", ((1, 2), (3, 4))),
        ("+01,-0\n", ((1, 0),)),
        ("1;\t2\n", ((1, 2),)),
    ],
)
def test_load_database_messages(tmp_path, text, expected):
    # each malformed file names its first bad line, and each odd but legal
    # file loads, exactly as the line loop has always given them
    q, _, _ = parse_query("Q(x,y) :- R(x,y).")
    f = tmp_path / "R"
    f.write_text(text, encoding="utf-8", newline="")
    if isinstance(expected, str):
        with pytest.raises(DataFileError) as ei:
            load_database([f], q)
        assert str(ei.value) == expected
    else:
        assert load_database([f], q).relation("R").rows == expected


def _random_data_file(rng: random.Random, arity: int) -> str:
    """A small data file. About half are clean: `arity` ints as Python
    writes them, joined by commas, one row a line. The others carry some
    of: `+` signs and leading zeros, every separator, `\\r\\n`, blank and
    separator-only lines, a form feed, a short or long row, and a bad or
    non-ASCII cell."""
    odd = rng.random() < 0.5

    def cell():
        v = str(rng.randrange(-3, 4))  # a small range, so rows repeat
        if odd and rng.random() < 0.2:
            v = rng.choice(["+", "0", "-0", "+00"]) + v.lstrip("-")
        if odd and rng.random() < 0.03:
            v = rng.choice(["\u0661", "\uff18", "1_0", "+", "1-2", "--1"])
        return v

    seps = [",", ";", " ", "\t", ", ", " ;\t"] if odd else [","]
    lines = []
    for _ in range(rng.randint(0, 8)):
        width = arity
        if odd and rng.random() < 0.05:
            width += rng.choice([-1, 1])
        line = rng.choice(seps).join(cell() for _ in range(width))
        if odd and rng.random() < 0.2:
            line = rng.choice([" ", "\t"]) + line + rng.choice(["", " ", "\t"])
        lines.append(line)
        if odd and rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "\t", ",", ";;", " , "]))
    eol = "\r\n" if odd and rng.random() < 0.2 else "\n"
    text = eol.join(lines)
    if odd and rng.random() < 0.1:
        text = text.replace(eol, "\x0c", 1)
    if lines and rng.random() < 0.7:
        text += eol
    return text


def test_load_database_bulk_path_equals_line_loop(tmp_path):
    # every file loads to the line loop's rows, in order, or fails with
    # its message; the clean files take the bulk path
    rng = random.Random(24)
    bulk = 0
    for i in range(600):
        arity = rng.randint(1, 3)
        text = _random_data_file(rng, arity)
        sym, xs = f"R{i}", ",".join(f"x{j}" for j in range(arity))
        q, _, _ = parse_query(f"Q({xs}) :- {sym}({xs}).")
        f = tmp_path / sym
        f.write_text(text, encoding="utf-8", newline="")
        try:
            want = tuple(dict.fromkeys(parser._line_rows(text, sym, arity)))
        except DataFileError as err:
            want = str(err)
        try:
            got = load_database([f], q).relation(sym).rows
        except DataFileError as err:
            got = str(err)
        assert got == want, repr(text)
        bulk += parser._bulk_rows(text, arity) is not None
    assert 250 < bulk < 450


def test_load_database_bulk_path_is_taken(tmp_path, monkeypatch):
    # a file in the benchmark's `a,b\n` shape loads without the line loop
    def no_line_loop(*args):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(parser, "_line_rows", no_line_loop)
    q, _, _ = parse_query("Q(a,b,c) :- R(a,b), S(b,c).")
    rows = [(i % 97, i % 13) for i in range(500)]
    (tmp_path / "R").write_text("".join(f"{a},{b}\n" for a, b in rows))
    (tmp_path / "S").write_text("")
    db = load_database_dir(tmp_path, q)
    assert db.relation("R").rows == tuple(dict.fromkeys(rows))
    assert db.relation("S").rows == ()
