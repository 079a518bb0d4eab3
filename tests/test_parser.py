import pytest

from minjoin import DataFileError, QuerySyntaxError, load_database, parse_query
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
