import hashlib
import json
import subprocess
import sys

import pytest

import plants
from flagq import cli, qhring, table, weyl


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "flagq.cli", *args], capture_output=True, text=True
    )


# --- table persistence ------------------------------------------------------

def test_table_round_trip(tmp_path):
    t = table.build_table(3)
    path = tmp_path / "t3.txt"
    t.save(path)
    loaded = table.StructureTable.load(path)
    assert loaded.n == 3
    for key, cls in t.entries.items():
        assert loaded.entries[key] == {k: int(c) for k, c in cls.items() if c}
    # byte-identical re-save
    path2 = tmp_path / "t3b.txt"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_table_file_is_deterministic(tmp_path):
    # the header is the only comment line, so two builds give the same bytes
    table.build_table(3).save(tmp_path / "a.txt")
    table.build_table(3).save(tmp_path / "b.txt")
    lines = (tmp_path / "a.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("#")] == [lines[0]]
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_table_load_skips_older_comment_lines(tmp_path):
    path = tmp_path / "old.txt"
    path.write_text("# flagq-table version=1 n=2 records=1\n# engine=0.1.0\n"
                    "# generated=2025-01-01T00:00:00Z\n2 12 12 12 0 1\n")
    loaded = table.StructureTable.load(path)
    assert loaded.entries == {((1, 2), (1, 2)): {((0,), (1, 2)): 1}}


def test_table_symmetry():
    t = table.build_table(3)
    perms = weyl.all_permutations(3)
    for u in perms:
        for v in perms:
            assert t.get(u, v) == t.get(v, u)


def test_table_rejects_corruption(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# flagq-table version=1 n=3\n3 123 213 xyz 0,0 1\n")
    with pytest.raises(ValueError) as err:
        table.StructureTable.load(path)
    assert "bad.txt:2" in str(err.value)



def test_table_reports_bad_string_where_it_first_appears(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# flagq-table version=1 n=3 records=4\n3 123 123 123 0,0 1\n"
                    "3 123 213 213 0,0 1\n3 123 231 2x3 0,0 1\n3 123 312 2x3 0,0 1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:4: bad record"):
        table.StructureTable.load(path)


def test_table_load_parses_each_distinct_permutation_once(tmp_path, monkeypatch):
    path = tmp_path / "t4.txt"
    built = table.build_table(4)
    built.save(path)
    calls = []
    parse = weyl.perm_from_string

    def counted(s, n):
        calls.append(s)
        return parse(s, n)

    monkeypatch.setattr(weyl, "perm_from_string", counted)
    assert table.StructureTable.load(path).entries == built.entries
    assert len(calls) <= 24


def test_table_n5_resave_is_byte_identical(tmp_path):
    table.build_table(5).save(tmp_path / "a.txt")
    table.StructureTable.load(tmp_path / "a.txt").save(tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_table_save_renders_each_distinct_permutation_once(tmp_path, monkeypatch):
    built = table.build_table(4)
    calls = []
    render = weyl.perm_to_string

    def counted(u, sep):
        calls.append(u)
        return render(u, sep)

    monkeypatch.setattr(weyl, "perm_to_string", counted)
    built.save(tmp_path / "t4.txt")
    assert len(calls) <= 24


def both_orientations(text):
    """A table file as older versions wrote it: every record of an unordered
    pair under (u, v) and under (v, u), sorted as ``save`` sorts."""
    header, *lines = text.splitlines()
    records = set()
    for line in lines:
        n, us, vs, ws, lam, c = line.split()
        degree = tuple(int(a) for a in lam.split(","))
        records.add((n, us, vs, degree, ws, int(c)))
        records.add((n, vs, us, degree, ws, int(c)))
    header = header.rsplit(" records=", 1)[0] + f" records={len(records)}"
    return "\n".join(
        [header] + [f"{n} {us} {vs} {ws} {','.join(map(str, degree))} {c}"
                    for n, us, vs, degree, ws, c in sorted(records)]
    ) + "\n"


@pytest.mark.parametrize("n, digest, records", [
    (4, "9b3c97ff1dad2ae085f159b4e796a19111089adc560282b52bddece4f5c52f71", 614),
    (5, "7c82a5e7a51eb80cd8e34bb5d270512ea89430050863763c11f36a5439844bb9", 31825),
])
def test_table_bytes_are_pinned(tmp_path, n, digest, records):
    # save sorts its records, so the order build_table multiplies in must not
    # show in the file
    table.build_table(n).save(tmp_path / "t.txt")
    text = (tmp_path / "t.txt").read_text()
    assert text.startswith(f"# flagq-table version=1 n={n} records={records}\n")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, digest", [
    (4, "10b6c0f7a4abb5db50d6382bb3f784372022add20c1736417dfe8c2ca998c33e"),
    (5, "657c99ccd8f001109ac165b320b495c856a70dbafdaad63d1742b6708223efd4"),
])
def test_table_with_both_orientations_is_the_older_file(tmp_path, n, digest):
    # the pins of the format that wrote each unordered pair twice: a file holds
    # exactly those records whose u comes before v in string order
    table.build_table(n).save(tmp_path / "t.txt")
    older = both_orientations((tmp_path / "t.txt").read_text())
    assert hashlib.sha256(older.encode()).hexdigest() == digest


def test_table_keeps_one_class_per_pair(tmp_path):
    # built, loaded, and loaded from a file with both orientations
    built = table.build_table(4)
    built.save(tmp_path / "t.txt")
    loaded = table.StructureTable.load(tmp_path / "t.txt")
    (tmp_path / "older.txt").write_text(both_orientations((tmp_path / "t.txt").read_text()))
    older = table.StructureTable.load(tmp_path / "older.txt")
    assert older.entries == loaded.entries
    for t in (built, loaded, older):
        assert len(t.entries) == 24 * 24
        assert all(t.entries[(u, v)] is t.entries[(v, u)] for u, v in t.entries)


def test_table_header_counts_records(tmp_path):
    t = table.build_table(3)
    path = tmp_path / "t3.txt"
    t.save(path)
    lines = path.read_text().splitlines()
    n_records = sum(1 for line in lines if not line.startswith("#"))
    assert lines[0].endswith(f" records={n_records}")
    # the temporary file was renamed into place
    assert [p.name for p in tmp_path.iterdir()] == ["t3.txt"]
    # a file cut short, or one without a count, is rejected
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError, match="records"):
        table.StructureTable.load(path)
    path.write_text("# flagq-table version=1 n=3\n3 123 123 123 0,0 1\n")
    with pytest.raises(ValueError, match="records"):
        table.StructureTable.load(path)


# --- CLI --------------------------------------------------------------------

def test_cli_product_golden():
    r = run_cli(["product", "--n", "5", "--u", "4 3 5 1 2", "--v-word", "2,3,4"])
    assert r.returncode == 0
    assert r.stdout.strip() == "q3*q4*s[3,4,2,3,1,2] + q3*q4*s[4,2,3,1,2,1]"


def test_cli_product_json_schema():
    r = run_cli(
        [
            "product",
            "--n",
            "5",
            "--u",
            "43512",
            "--v-word",
            "2,3,4",
            "--format",
            "json",
        ]
    )
    data = json.loads(r.stdout)
    assert data["schema"] == 1
    assert {t["w"] for t in data["terms"]} == {"45123", "53124"}
    assert all(t["q"] == [0, 0, 1, 1] and t["coeff"] == 1 for t in data["terms"])


def test_cli_verify_pass_and_exit_codes():
    r = run_cli(["verify", "seidel", "--n", "3"])
    assert r.returncode == 0
    assert "6/6 pass" in r.stdout


def test_cli_usage_errors():
    # conflicting permutation inputs
    r = run_cli(["product", "--n", "3", "--u", "213", "--u-word", "1", "--v", "132"])
    assert r.returncode == 2
    # missing required flag
    r = run_cli(["product", "--n", "3", "--v", "132"])
    assert r.returncode == 2
    # malformed permutation
    r = run_cli(["product", "--n", "3", "--u", "221", "--v", "132"])
    assert r.returncode == 2
    # n too small
    r = run_cli(["verify", "seidel", "--n", "1"])
    assert r.returncode == 2


def test_cli_reduce_golden():
    r = run_cli(
        [
            "reduce",
            "--n",
            "4",
            "--u-word",
            "3,2,1,2",
            "--v-word",
            "2,1,2",
            "--w-word",
            "1,2,3",
            "--lambda",
            "1,1,0",
        ]
    )
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].strip().startswith("N[u=4213")
    assert lines[-1] == "= 1"


def test_cli_explore_row_count():
    r = run_cli(["explore", "--n", "4", "--i", "2", "--j", "2", "--format", "json"])
    data = json.loads(r.stdout)
    assert len(data["rows"]) == 24


def test_cli_determinism():
    args = ["k-product", "--n", "4", "--hook", "2", "--v-word", "1,2"]
    a, b = run_cli(args), run_cli(args)
    assert a.stdout == b.stdout
    assert a.stdout.strip() == "O[1,2,3,2] + O[2,3,1,2] - O[1,2,3,1,2]"


def test_cli_table_cache(tmp_path):
    cache = tmp_path / "cache"
    r = run_cli(["table", "--n", "3", "--cache-dir", str(cache)])
    assert r.returncode == 0
    path = cache / "table_n3.txt"
    assert path.exists()
    # cached answers match the engine
    r = run_cli(
        ["product", "--n", "3", "--u-word", "2,1", "--v-word", "1", "--cache-dir", str(cache)]
    )
    direct = cli.render_class(cli.class_to_json(
        qhring.quantum_product(weyl.from_word([2, 1], 3), weyl.from_word([1], 3))
    ))
    assert r.stdout.strip() == direct


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_cache_table_answers_both_orientations(tmp_path, monkeypatch, capsys, fmt):
    def products(*cache):
        outs = []
        for u, v in [("2134", "4231"), ("4231", "2134")]:
            argv = ["product", "--n", "4", "--u", u, "--v", v, "--format", fmt, *cache]
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        return outs

    direct = products()
    assert cli.main(["table", "--n", "4", "--cache-dir", str(tmp_path)]) == 0
    # the file holds the pair as 2134 4231 only
    written = (tmp_path / "table_n4.txt").read_text()
    assert "\n4 2134 4231 " in written and "\n4 4231 2134 " not in written
    capsys.readouterr()

    def no_engine(u, v):
        raise AssertionError("a cached product was recomputed")

    monkeypatch.setattr(qhring, "quantum_product", no_engine)
    assert products("--cache-dir", str(tmp_path)) == direct


def test_cli_truncated_cache_table_is_usage_error(tmp_path, capsys):
    assert cli.main(["table", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    path = tmp_path / "table_n3.txt"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "3", "--u", "213", "--v", "132",
                  "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("flagq: cache table: ") and "records=" in err
    assert "Traceback" not in err



@pytest.mark.parametrize(
    "header, record, message",
    [
        ("# flagq-table version=1 records=1", "4 2134 1234 2134 0,0,0 1", "missing n="),
        # a permutation, or a degree, of the wrong rank would be served as is
        ("# flagq-table version=1 n=4 records=1", "4 2134 1234 213 0,0,0 1", "bad record"),
        ("# flagq-table version=1 n=4 records=1", "4 2134 1234 2134 0,0 1", "bad record"),
        ("# flagq-table version=1 n=4 records=1", "4 2134 1234 2134 0,-1,0 1", "bad record"),
    ],
    ids=["no-n", "perm-rank", "degree-length", "degree-sign"],
)
def test_malformed_cache_table_is_usage_error(tmp_path, capsys, header, record, message):
    path = tmp_path / "table_n4.txt"
    path.write_text(f"{header}\n{record}\n")
    with pytest.raises(ValueError, match=message) as err:
        table.StructureTable.load(path)
    assert "table_n4.txt:" in str(err.value)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "4", "--u", "2134", "--v", "1234",
                  "--cache-dir", str(tmp_path), "--format", "json"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("flagq: cache table: ") and message in err
    assert "Traceback" not in err

def test_cache_table_header_with_bad_n_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "table_n4.txt"
    path.write_text("# flagq-table version=1 n=x records=1\n4 2134 1234 2134 0,0,0 1\n")
    with pytest.raises(ValueError, match=r"table_n4\.txt:1: bad table header"):
        table.StructureTable.load(path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "4", "--u", "2134", "--v", "1234",
                  "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("flagq: cache table: ") and "table_n4.txt:1: " in err
    assert "Traceback" not in err


def test_cache_table_of_another_rank_is_usage_error(tmp_path, capsys):
    # an n = 3 table saved under the n = 4 name is reported, not bypassed
    assert cli.main(["table", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    (tmp_path / "table_n3.txt").rename(tmp_path / "table_n4.txt")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "4", "--u", "2134", "--v", "1234",
                  "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("flagq: cache table: ") and err.endswith("holds an n = 3 table\n")


@pytest.mark.parametrize(
    "record, edited, message",
    [
        ("3 123 213 213 0,0 1", "3 123 213 213 0,0 -7", "negative structure constant -7"),
        # l(123) + l(312) = 2 but l(321) = 3
        ("3 123 312 312 0,0 1", "3 123 312 321 0,0 1", "degree axiom violated"),
    ],
    ids=["negative", "degree-axiom"],
)
def test_cached_product_breaking_invariants_is_usage_error(
    tmp_path, capsys, record, edited, message
):
    # a record that parses but is no product is not served
    assert cli.main(["table", "--n", "3", "--cache-dir", str(tmp_path)]) == 0
    path = tmp_path / "table_n3.txt"
    text = path.read_text()
    assert f"\n{record}\n" in text
    path.write_text(text.replace(f"\n{record}\n", f"\n{edited}\n"))
    capsys.readouterr()
    u, v = record.split()[1:3]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "3", "--u", u, "--v", v, "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("flagq: cache table: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["product", "--n", "3", "--u", "213", "--u-word", "1", "--v", "132"],
         "argument --u-word: not allowed with argument --u"),
        (["product", "--n", "3", "--v", "132"],
         "one of the arguments --u --u-word is required"),
        (["reduce", "--n", "3", "--u", "213", "--v", "213", "--lambda", "0,0"],
         "one of the arguments --w --w-word is required"),
        (["product", "--n", "4", "--u", "213", "--v", "1234"],
         "flagq: --u: '213' has 3 entries, expected 4"),
        (["k-product", "--n", "3", "--hook", "1", "--v", "1 2 3 4"],
         "flagq: --v: '1 2 3 4' has 4 entries, expected 3"),
    ],
    ids=["both", "neither", "neither-w", "rank", "rank-separated"],
)
def test_permutation_flags_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and "Traceback" not in err


def test_cli_qk_projection_text():
    r = run_cli(
        [
            "qk-conjecture",
            "--n",
            "6",
            "--hook",
            "3",
            "--u-word",
            "5,3,4,1,2,3,2,1",
            "--project",
            "1,2,4,5",
        ]
    )
    assert r.returncode == 0
    assert "projected:" in r.stdout
    assert "- q3*O(2)\n" in r.stdout
    assert "+ q3*O(1)\n" in r.stdout
    assert "- O(3, 3, 2)" in r.stdout


def test_cli_import_loads_what_the_benchmark_checker_reads():
    # perfbench's correctness gate imports flagq.cli alone, then reads the
    # Schubert-polynomial oracle from sys.modules["flagq.polynomials"]
    names = ("pmul", "schubert", "trim_perm", "embed_perm", "normal_form",
             "expand_schubert_homog")
    probe = (
        "import sys\n"
        "import flagq.cli\n"
        "p = sys.modules.get('flagq.polynomials')\n"
        f"print(p is not None and [x for x in {names!r} if not hasattr(p, x)])\n"
    )
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_star_import_resolves_every_public_name():
    # every name in flagq.__all__ exists, so `from flagq import *` succeeds
    namespace = {}
    exec("from flagq import *", namespace)
    import flagq

    assert flagq.__all__ and all(name in namespace for name in flagq.__all__)


def test_cli_qk_empty_projection(capsys):
    # at n = 2 the empty Delta_P is the one valid projection, to Gr(1, 2)
    assert cli.main(["qk-conjecture", "--n", "2", "--hook", "1", "--u", "21",
                     "--project", ""]) == 0
    assert capsys.readouterr().out == "q1*O[]\nprojected:\n+ q1*O()\n"


def test_render_class_edge_cases():
    def render(cls):
        return cli.render_class(cli.class_to_json(cls))

    assert render({}) == "0"
    assert render({((0, 0), (1, 2, 3)): 1}) == "s[]"
    assert render({((1, 0), (2, 1, 3)): -3}) == "-3*q1*s[1]"


def test_cli_n10_output():
    r = run_cli(
        ["product", "--n", "10", "--u-word", "9", "--v-word", "1", "--format", "json"]
    )
    assert r.returncode == 0, r.stderr
    (term,) = json.loads(r.stdout)["terms"]
    assert term["w"] == "2 1 3 4 5 6 7 8 10 9"
    assert weyl.perm_from_string(term["w"], 10) == weyl.from_word([9, 1], 10)
    r = run_cli(
        ["reduce", "--n", "10", "--u-word", "9", "--v-word", "1", "--w-word", "9,1",
         "--lambda", ",".join("0" * 9), "--format", "json"]
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["steps"][0]["u"] == "1 2 3 4 5 6 7 8 10 9"


def test_table_round_trip_n10(tmp_path):
    u, v = weyl.simple_reflection(9, 10), weyl.simple_reflection(1, 10)
    t = table.StructureTable(10)
    t.put(u, v, qhring.quantum_product(u, v))
    path = tmp_path / "t10.txt"
    t.save(path)
    assert table.StructureTable.load(path).entries == t.entries


def test_cli_reduce_n5_finishes():
    r = run_cli(
        ["reduce", "--n", "5", "--u", "54321", "--v", "54312", "--w", "21345",
         "--lambda", "2,3,3,1"]
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip().splitlines()[-1] == "= 0 (vanishing criterion)"


@pytest.mark.parametrize("u, v, w", [("32154", "54321", "45123"),
                                    ("21543", "32154", "12345")])
def test_cli_reduce_stuck_exits_1_with_engine_value(u, v, w, capsys):
    # no reduction rule applies at the start state of either n = 5 case
    argv = ["reduce", "--n", "5", "--u", u, "--v", v, "--w", w, "--lambda", "1,1,1,1"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"  N[u={u}, v={v}; w={w}, lam=1,1,1,1]",
        "stuck: no reduction rule applies",
    ]
    assert err == "flagq: reduction stuck; engine value 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--n", "3", "--u", "213", "--v", "213", "--w", "123", "--lambda", "1"],
        ["product", "--n", "3", "--u-word", "3", "--v", "123"],
        ["k-product", "--n", "4", "--hook", "4", "--v", "1234"],
        ["qk-conjecture", "--n", "4", "--hook", "1", "--u", "1234", "--project", "1"],
        # an empty Delta_P is valid only at n = 2
        ["qk-conjecture", "--n", "3", "--hook", "1", "--u", "213", "--project", ""],
        ["explore", "--n", "4", "--i", "3", "--j", "2"],
    ],
)
def test_cli_input_errors_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("flagq: ") and "Traceback" not in err


def test_cache_dir_only_where_it_acts(tmp_path, capsys):
    # --cache-dir belongs to product and table; table cannot run without it
    for argv in (
        ["verify", "seidel", "--n", "3", "--cache-dir", str(tmp_path)],
        ["table", "--n", "3"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("below", [False, True])
def test_cache_dir_that_is_a_file_is_usage_error(tmp_path, capsys, below):
    cache = tmp_path / "file"
    cache.write_text("")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["table", "--n", "3", "--cache-dir", str(cache / "sub" if below else cache)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("flagq: --cache-dir: ") and "Traceback" not in err
    assert cache.read_text() == ""


def test_cache_table_that_is_a_directory_is_usage_error(tmp_path, capsys):
    # an unreadable table file is bad input, not an engine fault
    (tmp_path / "table_n3.txt").mkdir()
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "3", "--u", "213", "--v", "132", "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("flagq: cache table: ") and "Traceback" not in err


def test_cli_engine_fault_is_internal_error(monkeypatch, capsys):
    def broken(u, v):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(qhring, "quantum_product", broken)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["product", "--n", "3", "--u", "213", "--v", "132"])
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert err.endswith("flagq: internal error: RuntimeError: injected fault\n")


def test_cli_table_engine_fault_is_internal_error(tmp_path, monkeypatch, capsys):
    # build_table's products pass the engine's check: a fault below it is an
    # internal error, not a usage error, and no table is written
    plants.negate_engine(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["table", "--n", "3", "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 3
    assert "negative structure constant" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
