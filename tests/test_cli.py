import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minjoin
from minjoin.cli import main
from minjoin.errors import InternalInvariantError

STAR = "Q(x0,x1,x2,y) :- R0(x0), R1(x1,y), R2(x2,y).\n"
PRED = "PREDICATE x0 <= MIN(x1,x2).\n"
ORDER = "ORDER BY MIN(x0,x1,x2).\n"
PATH = (
    "Q(x0,u,v,x1,x2) :- R0(x0,u), R1(u,v), R2(v,x1), R3(x1,x2).\n"
    "PREDICATE x0 <= MIN(x1,x2).\n"
)


@pytest.fixture
def star_dir(tmp_path):
    (tmp_path / "q.mq").write_text(STAR + PRED)
    (tmp_path / "q_ranked.mq").write_text(STAR + ORDER)
    (tmp_path / "q_both.mq").write_text(STAR + PRED + ORDER)
    d = tmp_path / "data"
    d.mkdir()
    (d / "R0").write_text("1\n2\n")
    (d / "R1").write_text("1,0\n2,0\n")
    (d / "R2").write_text("2,0\n3,0\n")
    return tmp_path


def test_cli_classify_table(star_dir, capsys):
    rc = main(["classify", "--query", str(star_dir / "q_both.mq"), "--json"])
    assert rc == 0
    verdicts = json.loads(capsys.readouterr().out)
    assert len(verdicts) == 8
    assert all(v["tractable"] for v in verdicts)


def test_cli_count_bool(star_dir, capsys):
    rc = main(["count", "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "6"
    rc = main(["bool", "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "nonempty"


def test_cli_access_and_out_of_bounds(star_dir, capsys):
    rc = main(
        [
            "access",
            "--query", str(star_dir / "q_ranked.mq"),
            "--data", str(star_dir / "data"),
            "--index", "0",
            "--index", "99",
            "--json",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 8
    assert out["answers"][0]["out_of_bounds"] is False
    assert out["answers"][1]["out_of_bounds"] is True
    # predicate-declared query: unranked direct access over the filtered set
    rc = main(
        [
            "access",
            "--query", str(star_dir / "q.mq"),
            "--data", str(star_dir / "data"),
            "--range", "0..6",
            "--json",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 6
    assert len({json.dumps(a["answer"], sort_keys=True) for a in out["answers"]}) == 6
    # declaring both orders and predicates is ambiguous for access: refused
    rc = main(
        [
            "access",
            "--query", str(star_dir / "q_both.mq"),
            "--data", str(star_dir / "data"),
            "--index", "0",
        ]
    )
    assert rc == 2


def test_cli_enumerate_limit_stats(star_dir, capsys):
    rc = main(
        [
            "enumerate",
            "--query", str(star_dir / "q.mq"),
            "--data", str(star_dir / "data"),
            "--limit", "3",
            "--stats",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert len(captured.out.strip().splitlines()) == 3
    assert "max_delay" in captured.err


def test_cli_malformed_range_is_usage_error(star_dir, capsys):
    args = ["access", "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
    for bad in ("5", "a..b"):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--range", bad])
        assert exc.value.code == 2
        assert "argument --range" in capsys.readouterr().err


def test_cli_negative_limit_is_usage_error(star_dir, capsys):
    args = ["--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
    for cmd in (["enumerate"], ["oracle", "enumerate"]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, *args, "--limit", "-1"])
        assert exc.value.code == 2
        assert "argument --limit" in capsys.readouterr().err
        assert main([*cmd, *args, "--limit", "0"]) == 0
        assert capsys.readouterr().out == ""


def test_cli_ranked_enumerate_needs_order_by(star_dir, capsys):
    args = ["--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
    assert main(["enumerate", "--ranked", *args]) == 1
    assert "enumerate --ranked: the query declares no ORDER BY" in capsys.readouterr().err


def test_cli_eliminate_manifest(star_dir, tmp_path, capsys):
    out = tmp_path / "parts"
    rc = main(
        [
            "eliminate",
            "--query", str(star_dir / "q.mq"),
            "--data", str(star_dir / "data"),
            "--out", str(out),
            "--explain",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["parts"]) == 2
    for part in manifest["parts"]:
        assert part["fresh_vars"]
        assert part["order"]
        for fname in part["relations"].values():
            assert (out / fname).exists()


def test_cli_empty_range_prints_no_answers(star_dir, capsys):
    args = ["access", "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
    for empty in ("1..1", "5..2"):
        assert main([*args, "--range", empty]) == 0
        assert capsys.readouterr().out == ""
        assert main([*args, "--range", empty, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"total": 6, "answers": []}
    # with neither --index nor --range, index 0
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("[0] ")


def test_cli_unreadable_query_file_is_a_data_error(star_dir, capsys):
    for query in (star_dir / "nope.mq", star_dir / "data"):
        rc = main(["count", "--query", str(query), "--data", str(star_dir / "data")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error: ") and str(query) in err[0]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.mq"
    bad.write_text("Q(x) :- R(x)\n")  # missing period
    assert main(["classify", "--query", str(bad)]) == 1

    (tmp_path / "path.mq").write_text(PATH)
    d = tmp_path / "d"
    d.mkdir()
    for s in ("R0", "R1", "R2", "R3"):
        (d / s).write_text("0,0\n")
    assert main(["count", "--query", str(tmp_path / "path.mq"), "--data", str(d)]) == 2
    # same instance is fine for enumeration
    assert main(["enumerate", "--query", str(tmp_path / "path.mq"), "--data", str(d)]) == 0
    # force-oracle opt-in overrides the refusal
    assert (
        main(
            [
                "count",
                "--query", str(tmp_path / "path.mq"),
                "--data", str(d),
                "--force-oracle",
            ]
        )
        == 0
    )

    (tmp_path / "q2.mq").write_text("Q(x) :- Missing(x).\n")
    assert main(["count", "--query", str(tmp_path / "q2.mq"), "--data", str(d)]) == 3


def test_cli_oracle_cross_checks(star_dir, capsys):
    for task in ("count", "bool", "enumerate"):
        rc = main(
            ["oracle", task, "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
        )
        assert rc == 0, task
        capsys.readouterr()
    rc = main(
        [
            "oracle", "access",
            "--query", str(star_dir / "q_ranked.mq"),
            "--data", str(star_dir / "data"),
            "--index", "0",
        ]
    )
    assert rc == 0


def test_cli_oracle_max_order_and_no_predicate(tmp_path, capsys):
    # ORDER BY MAX: the check compares rank keys on un-negated answers
    body = "Q(x,y,z) :- R(x,y), S(y,z).\n"
    (tmp_path / "q.mq").write_text(body + "ORDER BY MAX(x,z).\n")
    (tmp_path / "plain.mq").write_text(body)
    d = tmp_path / "d"
    d.mkdir()
    (d / "R").write_text("1,2\n5,2\n3,4\n")
    (d / "S").write_text("2,7\n2,1\n4,0\n")
    ranked = ["--query", str(tmp_path / "q.mq"), "--data", str(d)]
    for k in range(4):
        assert main(["oracle", "access", *ranked, "--index", str(k)]) == 0, k
    # no predicate and no order: the predicate-free paths
    plain = ["--query", str(tmp_path / "plain.mq"), "--data", str(d)]
    for task in ("count", "bool", "enumerate"):
        assert main(["oracle", task, *plain]) == 0, task
    capsys.readouterr()
    assert main(["access", *plain, "--range", "0..6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["total"] == 5
    assert [a["out_of_bounds"] for a in out["answers"]] == [False] * 5 + [True]
    assert len({json.dumps(a["answer"], sort_keys=True) for a in out["answers"][:5]}) == 5


def test_cli_max_ranking_negates(tmp_path, capsys):
    (tmp_path / "q.mq").write_text("Q(a,b) :- R(a,b).\nORDER BY MAX(a,b).\n")
    d = tmp_path / "d"
    d.mkdir()
    (d / "R").write_text("1,9\n5,2\n0,0\n")
    rc = main(
        ["access", "--query", str(tmp_path / "q.mq"), "--data", str(d), "--index", "0", "--json"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    a = out["answers"][0]["answer"]
    assert max(a.values()) == 9  # largest max first
    rc = main(
        ["enumerate", "--query", str(tmp_path / "q.mq"), "--data", str(d), "--ranked"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [max(int(kv.split("=")[1]) for kv in line.split(", ")) for line in lines]
    assert keys == sorted(keys, reverse=True)


def _instance(root, name, text, rels):
    (root / f"{name}.mq").write_text(text)
    d = root / name
    d.mkdir()
    for sym, rows in rels.items():
        (d / sym).write_text(rows)
    return ["--query", str(root / f"{name}.mq"), "--data", str(d)]


@pytest.mark.parametrize(
    "text, rels",
    [
        ("Q(x,y) :- R(x,x), S(x,y).\n", {"R": "1,1\n1,2\n3,4\n", "S": "1,5\n3,6\n"}),
        ("Q(x,y,z) :- R(x,y), R(y,z).\n", {"R": "1,2\n2,3\n3,1\n2,2\n"}),
        ("Q(y,z) :- R(x,y), R(y,z).\nPREDICATE y <= MIN(x).\n", {"R": "1,2\n2,3\n3,1\n2,4\n4,2\n"}),
        ("Q() :- R(x,y), S(y,z).\n", {"R": "1,2\n", "S": "2,3\n"}),
        ("Q() :- R(x,y), S(y,z).\n", {"R": "1,2\n", "S": "5,3\n"}),
    ],
    ids=["repeated-var", "self-join", "self-join-pred", "boolean", "boolean-empty"],
)
def test_cli_edge_queries_agree_with_oracle(tmp_path, capsys, text, rels):
    args = _instance(tmp_path, "q", text, rels)
    assert main(["oracle", "count", *args]) == 0
    want_count = capsys.readouterr().out
    assert main(["count", *args]) == 0
    assert capsys.readouterr().out == want_count
    assert main(["oracle", "enumerate", *args]) == 0
    want = capsys.readouterr().out.splitlines()
    assert len(want) == int(want_count)
    assert main(["enumerate", *args]) == 0
    assert sorted(capsys.readouterr().out.splitlines()) == want
    assert main(["access", *args, "--range", f"0..{len(want) + 1}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(line.partition("] ")[2] for line in lines[:-1]) == want
    assert lines[-1] == f"[{len(want)}] out of bounds (total {len(want)})"


def test_cli_ranked_access_refuses_non_free_connex(tmp_path, capsys):
    # refused from the query alone, as ranked enumeration refuses it
    args = _instance(
        tmp_path, "q", "Q(x,z) :- R(x,y), S(y,z).\nORDER BY MIN(x,z).\n",
        {"R": "1,2\n", "S": "2,3\n"},
    )
    assert main(["enumerate", *args, "--ranked"]) == 2
    assert main(["access", *args, "--index", "0"]) == 2
    assert "ranked_da: intractable (not free-connex)" in capsys.readouterr().err


def test_cli_internal_error_has_its_own_exit_code(star_dir, monkeypatch, capsys):
    def broken(*args):
        raise InternalInvariantError("tree lost a node")

    monkeypatch.setattr("minjoin.cli.count_with_predicate", broken)
    rc = main(["count", "--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")])
    assert rc == 5
    assert capsys.readouterr().err == "internal error: tree lost a node\n"


def test_cli_oracle_access_tie_order_same_in_every_process(tmp_path):
    args = _instance(
        tmp_path, "q", "Q(r1,r2,s) :- W1(r1,s), W2(r2,s).\nORDER BY MIN(r1,r2).\n",
        {"W1": "2,0\n3,0\n5,0\n", "W2": "3,0\n2,0\n4,0\n"},
    )
    src = str(Path(minjoin.__file__).resolve().parent.parent)
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "minjoin.cli", "oracle", "access", *args, "--index", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    assert outs == {"[1] r1=2, r2=3, s=0\n"}


def test_cli_bench_small(capsys):
    rc = main(["bench", "--family", "path", "--sizes", "256,512", "--json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 and all(r["family"] == "path" for r in rows)
    assert main(["bench", "--family", "star", "--sizes", "256", "--json"]) == 0
    star_rows = json.loads(capsys.readouterr().out)
    ranked = [r for r in star_rows if "envelope_ratio" in r]
    assert len(star_rows) == 2 and len(ranked) == 1
    # build time and emission time are reported apart
    for r in rows + ranked:
        assert "seconds" not in r
        assert r["build_seconds"] > 0 and r["emit_1k_ms"] > 0
    assert star_rows[0]["build_seconds"] > 0
    # every star row also times one count with the star predicate
    assert all(r["pred_count_ms"] > 0 for r in star_rows)
    # below 3, each of the star's three atoms gets no row
    for sizes in ("1", "2"):
        assert main(["bench", "--family", "star", "--sizes", sizes, "--json"]) == 0, sizes
        empty = json.loads(capsys.readouterr().out)
        assert len(empty) == 2 and all(r["size"] == 0 for r in empty), sizes
        assert empty[0]["total"] == 0 and empty[0]["normalized"] == 0.0, sizes


def test_cli_bench_sizes_and_max_exp_are_usage_errors(capsys):
    for flag, bad in (("--sizes", "1,x"), ("--sizes", "-5"), ("--sizes", "0"), ("--max-exp", "9")):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "path", flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


def test_cli_oracle_enumerate_fails_a_repeated_answer(star_dir, monkeypatch, capsys):
    from minjoin.enumeration import AnswerStream, enumerate_with_predicate

    def repeating(q, p, db):
        got = enumerate_with_predicate(q, p, db).drain()
        return AnswerStream(iter(got + got[:1]))

    args = ["--query", str(star_dir / "q.mq"), "--data", str(star_dir / "data")]
    assert main(["oracle", "enumerate", *args]) == 0
    n = len(capsys.readouterr().out.splitlines())
    monkeypatch.setattr("minjoin.cli.enumerate_with_predicate", repeating)
    assert main(["oracle", "enumerate", *args]) == 4
    assert capsys.readouterr().err == f"DIVERGENCE: engine emitted {n + 1} answers, {n} distinct\n"


def test_cli_oracle_access_fails_an_answer_that_is_not_one(star_dir, monkeypatch, capsys):
    # the stub keeps every rank key (y is not ranked) but answers with a y
    # that no answer holds
    from minjoin import cli
    from minjoin.model import Answer, TaggedValue

    build = cli._build_da

    class Stub:
        def __init__(self, da):
            self.total = da.total
            self._da = da

        def access(self, k):
            return Answer({**self._da.access(k).assignment, "y": TaggedValue(99, 0)})

    monkeypatch.setattr("minjoin.cli._build_da", lambda *args: Stub(build(*args)))
    args = ["--query", str(star_dir / "q_ranked.mq"), "--data", str(star_dir / "data")]
    assert main(["oracle", "access", *args, "--index", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("DIVERGENCE: engine answer at index 2 is no answer: ")


def test_cli_order_by_a_variable_that_is_not_free_is_a_syntax_error(tmp_path, capsys):
    args = _instance(tmp_path, "q", "Q(x) :- R(x,y).\nORDER BY MIN(y).\n", {"R": "1,2\n"})
    assert main(["classify", "--query", args[1]]) == 1
    assert main(["access", *args]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["query error: line 2, col 1: ranking variable 'y' is not a head variable"] * 2


def test_cli_duplicate_variable_declarations_are_syntax_errors(tmp_path, capsys):
    # a repeated head or ranking variable is a declaration error, exit 1,
    # like a repeated predicate variable, not a data error
    for i, (text, msg) in enumerate((
        ("Q(x,y) :- R(x,y).\nORDER BY MIN(x,x).\n", "line 2, col 1: duplicate variable in ranking set"),
        ("Q(x,x) :- R(x,y).\n", "line 1, col 1: duplicate variable in head"),
        ("Q(x,y) :- R(x,y).\nPREDICATE x <= MIN(y,y).\n", "line 2, col 1: duplicate variable in predicate set"),
    )):
        args = _instance(tmp_path, f"q{i}", text, {"R": "1,2\n"})
        for cmd in (["classify", "--query", args[1]], ["count", *args]):
            assert main(cmd) == 1, (text, cmd)
            assert capsys.readouterr().err.splitlines() == [f"query error: {msg}"], (text, cmd)


def test_cli_unreadable_data_file_is_a_data_error(star_dir, capsys):
    # a relation path that is a directory, or a file that is not UTF-8
    d = star_dir / "data"
    args = ["count", "--query", str(star_dir / "q.mq"), "--data", str(d)]
    (d / "R1").unlink()
    (d / "R1").mkdir()
    assert main(args) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(d / "R1") in err[0]
    (d / "R1").rmdir()
    (d / "R1").write_bytes(b"1,0\n\xff\xfe,0\n")
    assert main(args) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: cannot read data file {d / 'R1'}: not UTF-8 text"]


def test_cli_ranking_with_a_predicate_is_refused(star_dir, capsys):
    args = ["--query", str(star_dir / "q_both.mq"), "--data", str(star_dir / "data")]
    for cmd in (["access"], ["enumerate", "--ranked"], ["oracle", "access"]):
        assert main([*cmd, *args]) == 2, cmd
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("refused: "), cmd
        assert "PREDICATE x0 <= MIN(x1,x2)" in err[0] and "ORDER BY MIN(x0,x1,x2)" in err[0], cmd
    # the tasks that read no ranking ignore the ORDER BY
    for cmd in (["count"], ["bool"], ["enumerate"], ["eliminate", "--out", str(star_dir / "parts")]):
        assert main([*cmd, *args]) == 0, cmd


def test_cli_negative_index_is_out_of_bounds_on_both_sides(tmp_path, capsys):
    args = _instance(tmp_path, "q", "Q(x,y) :- R(x,y).\nORDER BY MIN(x,y).\n", {"R": "1,2\n3,4\n"})
    for cmd in (["access"], ["oracle", "access"]):
        assert main([*cmd, *args, "--index", "-1"]) == 0, cmd
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("[-1] out of bounds (total 2)\n", ""), cmd


def test_cli_data_cells_are_ascii_integers(tmp_path, capsys):
    # a cell is [+-]?[0-9]+; separators are ',', ';' and whitespace, and a
    # blank line is skipped; int() alone would also take digit separators
    # and non-ASCII digits
    (tmp_path / "q.mq").write_text("Q(x) :- R(x).\n")
    d = tmp_path / "data"
    d.mkdir()
    args = ["enumerate", "--query", str(tmp_path / "q.mq"), "--data", str(d)]
    (d / "R").write_text("+4\n\n-007\n 12 \n0\n")
    assert main(args) == 0
    assert capsys.readouterr().out.split() == ["x=-7", "x=0", "x=4", "x=12"]
    for text, line in (("1_0\n", 1), ("2\n٣\n", 2), ("3\n+-4\n", 2), ("5,\n7-\n", 2), ("８\n", 1)):
        (d / "R").write_text(text)
        assert main(args) == 3, text
        assert capsys.readouterr().err.strip() == f"data error: R:{line}: non-integer cell", text
    (tmp_path / "q2.mq").write_text("Q(x,y) :- R(x,y).\n")
    args2 = ["count", "--query", str(tmp_path / "q2.mq"), "--data", str(d)]
    (d / "R").write_text("1, 2\n3;4\n5\t6\n\n1 2\n")
    assert main(args2) == 0
    assert capsys.readouterr().out.strip() == "3"
    for text, msg in ((";\n", "R:1: row has 0 columns, R has arity 2"),
                      ("1,2\n3 x 4\n", "R:2: row has 3 columns, R has arity 2"),
                      ("1,2\n3,x\n", "R:2: non-integer cell")):
        (d / "R").write_text(text)
        assert main(args2) == 3, text
        assert capsys.readouterr().err.strip() == f"data error: {msg}", text
