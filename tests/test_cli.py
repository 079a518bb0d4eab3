import json

import pytest

from minjoin.cli import main

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
    # declaring both orders and predicates is ambiguous for access
    rc = main(
        [
            "access",
            "--query", str(star_dir / "q_both.mq"),
            "--data", str(star_dir / "data"),
            "--index", "0",
        ]
    )
    assert rc == 3


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


def test_cli_bench_small(capsys):
    rc = main(["bench", "--family", "path", "--sizes", "256,512", "--json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2 and all(r["family"] == "path" for r in rows)
