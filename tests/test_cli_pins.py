"""Exact stdout of every CLI command, in text and in JSON.

The expected bytes were recorded from the CLI; any change to them is a
change to the output format.
"""
import pytest

from flagq import cli, seidel
from flagq.reporting import VerifyReport

# name -> (argv, exit status)
CASES = {
    "verify": (["verify", "all", "--n", "3"], 0),
    # the closed-form Pieri rule against the product engine, past the n <= 4
    # where the comparison is on by default
    "verify-pieri": (["verify", "pieri", "--n", "5", "--engine-check"], 0),
    "reduce": (["reduce", "--n", "4", "--u-word", "3,2,1,2", "--v-word", "2,1,2",
                "--w-word", "1,2,3", "--lambda", "1,1,0"], 0),
    "explore": (["explore", "--n", "3", "--i", "1", "--j", "2"], 0),
    "qk-conjecture": (["qk-conjecture", "--n", "4", "--hook", "2", "--u-word",
                       "2,3,2,1", "--project", "1,3"], 0),
    # a coefficient 2 and q-terms up to q1*q2*q3^2*q4
    "product": (["product", "--n", "5", "--u", "15432", "--v", "21543"], 0),
    "k-product": (["k-product", "--n", "4", "--hook", "2", "--v-word", "1,2"], 0),
    "reduce-zero": (["reduce", "--n", "4", "--u", "1234", "--v", "2431",
                     "--w", "1234", "--lambda", "0,1,1"], 0),
    "reduce-stuck": (["reduce", "--n", "5", "--u", "32154", "--v", "54321",
                      "--w", "45123", "--lambda", "1,1,1,1"], 1),
    # l(u) + l(v) = 6 but l(w) + <2 rho, lam> = 4: zero by the degree axiom
    # at the start state, where a search would end stuck
    "reduce-inconsistent": (["reduce", "--n", "4", "--u", "1432", "--v", "1432",
                             "--w", "1234", "--lambda", "0,1,1"], 0),
    # zero at the start state by a negative lambda entry
    "reduce-negative": (["reduce", "--n", "4", "--u", "1432", "--v", "1432",
                         "--w", "1234", "--lambda", "0,-1,1"], 0),
}

PRODUCT_TEXT = " + ".join([
    "q4*s[2,3,4,1,2,3,1,2]", "q4*s[2,3,4,1,2,3,2,1]", "q3*q4*s[1,2,3,4,3,2]",
    "q3*q4*s[3,4,1,2,3,2]", "q3*q4*s[2,3,4,3,1,2]", "q3*q4*s[4,1,2,3,1,2]",
    "2*q3*q4*s[3,4,2,3,1,2]", "q3*q4*s[2,3,4,3,2,1]", "q3*q4*s[3,4,2,3,2,1]",
    "q3*q4*s[4,1,2,3,2,1]", "q3*q4*s[4,2,3,1,2,1]", "q2*q3*q4*s[1,2,3,4]",
    "q2*q3*q4*s[4,1,2,3]", "q2*q3*q4*s[2,3,4,1]", "q2*q3*q4*s[4,2,3,1]",
    "q2*q3*q4*s[1,2,3,1]", "q2*q3*q4*s[2,3,2,1]", "q2*q3^2*q4*s[4,1]",
    "q2*q3^2*q4*s[2,1]", "q1*q2*q3*q4*s[2,3]", "q1*q2*q3^2*q4*s[]",
]) + "\n"

PRODUCT_JSON = (
    '{"n": 5, "schema": 1, "terms": ['
    '{"coeff": 1, "q": [0, 0, 0, 1], "w": "45312", "word": [2, 3, 4, 1, 2, 3, 1, 2]}, '
    '{"coeff": 1, "q": [0, 0, 0, 1], "w": "53412", "word": [2, 3, 4, 1, 2, 3, 2, 1]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "25341", "word": [1, 2, 3, 4, 3, 2]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "25413", "word": [3, 4, 1, 2, 3, 2]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "35142", "word": [2, 3, 4, 3, 1, 2]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "35214", "word": [4, 1, 2, 3, 1, 2]}, '
    '{"coeff": 2, "q": [0, 0, 1, 1], "w": "45123", "word": [3, 4, 2, 3, 1, 2]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "51342", "word": [2, 3, 4, 3, 2, 1]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "51423", "word": [3, 4, 2, 3, 2, 1]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "52314", "word": [4, 1, 2, 3, 2, 1]}, '
    '{"coeff": 1, "q": [0, 0, 1, 1], "w": "53124", "word": [4, 2, 3, 1, 2, 1]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "23451", "word": [1, 2, 3, 4]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "23514", "word": [4, 1, 2, 3]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "31452", "word": [2, 3, 4, 1]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "31524", "word": [4, 2, 3, 1]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "32415", "word": [1, 2, 3, 1]}, '
    '{"coeff": 1, "q": [0, 1, 1, 1], "w": "41325", "word": [2, 3, 2, 1]}, '
    '{"coeff": 1, "q": [0, 1, 2, 1], "w": "21354", "word": [4, 1]}, '
    '{"coeff": 1, "q": [0, 1, 2, 1], "w": "31245", "word": [2, 1]}, '
    '{"coeff": 1, "q": [1, 1, 1, 1], "w": "13425", "word": [2, 3]}, '
    '{"coeff": 1, "q": [1, 1, 2, 1], "w": "12345", "word": []}'
    ']}\n'
)

PINS = [
    ("verify", "text",
     "seidel n=3: 6/6 pass\n"
     "pieri n=3: 12/12 pass\n"
     "support n=3: 12/12 pass\n"
     "filtration n=3: 36/36 pass\n"
     "filtration n=3: 36/36 pass\n"
     "ktheory n=3: 18/18 pass\n"),
    ("verify", "json",
     '{"reports": ['
     '{"counterexamples": [], "n": 3, "name": "seidel", "passed": 6, "total": 6}, '
     '{"counterexamples": [], "n": 3, "name": "pieri", "passed": 12, "total": 12}, '
     '{"counterexamples": [], "n": 3, "name": "support", "passed": 12, "total": 12}, '
     '{"counterexamples": [], "n": 3, "name": "filtration", "passed": 36, "total": 36}, '
     '{"counterexamples": [], "n": 3, "name": "filtration", "passed": 36, "total": 36}, '
     '{"counterexamples": [], "n": 3, "name": "ktheory", "passed": 18, "total": 18}'
     '], "schema": 1}\n'),
    ("verify-pieri", "text", "pieri n=5: 480/480 pass\n"),
    ("verify-pieri", "json",
     '{"reports": [{"counterexamples": [], "n": 5, "name": "pieri", "passed": 480, '
     '"total": 480}], "schema": 1}\n'),
    ("reduce", "text",
     "  N[u=4213, v=3214; w=2341, lam=1,1,0]\n"
     "= [alpha_3[01]] N[u=4213, v=3241; w=2314, lam=1,1,1]\n"
     "= [alpha_2[00]] N[u=4123, v=3241; w=2134, lam=1,1,1]\n"
     "= [alpha_1[00]] N[u=1423, v=2341; w=2134, lam=0,1,1]\n"
     "= [alpha_2[00]] N[u=1243, v=2341; w=2314, lam=0,0,1]\n"
     "= [alpha_3[00]] N[u=1234, v=2314; w=2314, lam=0,0,0]\n"
     "= 1\n"),
    ("reduce", "json",
     '{"rules": ["alpha_3[01]", "alpha_2[00]", "alpha_1[00]", "alpha_2[00]", '
     '"alpha_3[00]"], "schema": 1, "steps": ['
     '{"lambda": [1, 1, 0], "u": "4213", "v": "3214", "w": "2341"}, '
     '{"lambda": [1, 1, 1], "u": "4213", "v": "3241", "w": "2314"}, '
     '{"lambda": [1, 1, 1], "u": "4123", "v": "3241", "w": "2134"}, '
     '{"lambda": [0, 1, 1], "u": "1423", "v": "2341", "w": "2134"}, '
     '{"lambda": [0, 0, 1], "u": "1243", "v": "2341", "w": "2314"}, '
     '{"lambda": [0, 0, 0], "u": "1234", "v": "2314", "w": "2314"}'
     '], "terminal": "classical", "value": 1}\n'),
    ("explore", "text",
     "123 descents=- u(n)=3 equal=True\n"
     "132 descents=2 u(n)=2 equal=False\n"
     "213 descents=1 u(n)=3 equal=True\n"
     "231 descents=2 u(n)=1 equal=False\n"
     "312 descents=1 u(n)=2 equal=False\n"
     "321 descents=1,2 u(n)=1 equal=False\n"),
    ("explore", "json",
     '{"n": 3, "rows": ['
     '{"descents": [], "equal": true, "one_line": "123", "u_n": 3, "word": ""}, '
     '{"descents": [2], "equal": false, "one_line": "132", "u_n": 2, "word": "2"}, '
     '{"descents": [1], "equal": true, "one_line": "213", "u_n": 3, "word": "1"}, '
     '{"descents": [2], "equal": false, "one_line": "231", "u_n": 1, "word": "1,2"}, '
     '{"descents": [1], "equal": false, "one_line": "312", "u_n": 2, "word": "2,1"}, '
     '{"descents": [1, 2], "equal": false, "one_line": "321", "u_n": 1, "word": "1,2,1"}'
     '], "schema": 1}\n'),
    ("qk-conjecture", "text",
     "q3*O[3,1,2,1] + q1*q2*q3*O[] - q1*q2*q3*O[3]\n"
     "projected:\n"
     "+ O(2, 1)\n"),
    ("qk-conjecture", "json",
     '{"n": 4, "projected": [{"coeff": 1, "partition": [2, 1], "q": [0, 0, 0]}], '
     '"schema": 1, "terms": ['
     '{"coeff": 1, "q": [0, 0, 1], "w": "4213", "word": [3, 1, 2, 1]}, '
     '{"coeff": 1, "q": [1, 1, 1], "w": "1234", "word": []}, '
     '{"coeff": -1, "q": [1, 1, 1], "w": "1243", "word": [3]}'
     ']}\n'),
    ("product", "text", PRODUCT_TEXT),
    ("product", "json", PRODUCT_JSON),
    ("k-product", "text", "O[1,2,3,2] + O[2,3,1,2] - O[1,2,3,1,2]\n"),
    ("k-product", "json",
     '{"n": 4, "schema": 1, "terms": ['
     '{"coeff": 1, "q": [0, 0, 0], "w": "2431", "word": [1, 2, 3, 2]}, '
     '{"coeff": 1, "q": [0, 0, 0], "w": "3412", "word": [2, 3, 1, 2]}, '
     '{"coeff": -1, "q": [0, 0, 0], "w": "3421", "word": [1, 2, 3, 1, 2]}'
     ']}\n'),
    ("reduce-zero", "text",
     "  N[u=1234, v=2431; w=1234, lam=0,1,1]\n"
     "= [alpha_2[00]] N[u=1234, v=2341; w=1324, lam=0,0,1]\n"
     "= 0 (vanishing criterion)\n"),
    ("reduce-zero", "json",
     '{"rules": ["alpha_2[00]"], "schema": 1, "steps": ['
     '{"lambda": [0, 1, 1], "u": "1234", "v": "2431", "w": "1234"}, '
     '{"lambda": [0, 0, 1], "u": "1234", "v": "2341", "w": "1324"}'
     '], "terminal": "zero", "value": 0}\n'),
    ("reduce-stuck", "text",
     "  N[u=32154, v=54321; w=45123, lam=1,1,1,1]\n"
     "stuck: no reduction rule applies\n"),
    ("reduce-stuck", "json",
     '{"rules": [], "schema": 1, "steps": ['
     '{"lambda": [1, 1, 1, 1], "u": "32154", "v": "54321", "w": "45123"}'
     '], "terminal": "stuck", "value": null}\n'),
    ("reduce-inconsistent", "text",
     "  N[u=1432, v=1432; w=1234, lam=0,1,1]\n"
     "= 0 (degree axiom)\n"),
    ("reduce-inconsistent", "json",
     '{"rules": [], "schema": 1, "steps": ['
     '{"lambda": [0, 1, 1], "u": "1432", "v": "1432", "w": "1234"}'
     '], "terminal": "zero", "value": 0}\n'),
    ("reduce-negative", "text",
     "  N[u=1432, v=1432; w=1234, lam=0,-1,1]\n"
     "= 0 (negative lambda entry)\n"),
    ("reduce-negative", "json",
     '{"rules": [], "schema": 1, "steps": ['
     '{"lambda": [0, -1, 1], "u": "1432", "v": "1432", "w": "1234"}'
     '], "terminal": "zero", "value": 0}\n'),
]


@pytest.mark.parametrize(
    "name, fmt, expected", PINS, ids=[f"{name}-{f}" for name, f, _ in PINS]
)
def test_cli_output_pinned(name, fmt, expected, capsys):
    argv, code = CASES[name]
    assert cli.main(argv + ["--format", fmt]) == code
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt, expected", [
    ("text", "wrote 36 entries to {dir}/table_n3.txt\n"),
    ("json", '{"entries": 36, "n": 3, "path": "{dir}/table_n3.txt", "schema": 1}\n'),
], ids=["text", "json"])
def test_cli_table_output_pinned(fmt, expected, tmp_path, capsys):
    argv = ["table", "--n", "3", "--cache-dir", str(tmp_path), "--format", fmt]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected.replace("{dir}", str(tmp_path))


@pytest.mark.parametrize("fmt, expected", [
    ("text", "seidel n=3: 2/3 FAIL\n"),
    ("json", '{"reports": [{"counterexamples": ["(2, 1, 3)"], "n": 3, '
             '"name": "seidel", "passed": 2, "total": 3}], "schema": 1}\n'),
], ids=["text", "json"])
def test_cli_verify_failure_pinned(fmt, expected, monkeypatch, capsys):
    def failing_sweep(n):
        report = VerifyReport("seidel", n)
        report.record(True)
        report.record(True)
        report.record(False, (2, 1, 3))
        return report

    monkeypatch.setattr(seidel, "verify_seidel", failing_sweep)
    assert cli.main(["verify", "seidel", "--n", "3", "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


def test_json_output_renders_no_text(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("text rendered in JSON mode")

    for name in dir(cli):
        if name.startswith("render_"):
            monkeypatch.setattr(cli, name, refuse)
    expected = {name: out for name, fmt, out in PINS if fmt == "json"}
    for name, (argv, code) in CASES.items():
        assert cli.main(argv + ["--format", "json"]) == code
        assert capsys.readouterr().out == expected[name]
