"""Exact stdout of the CLI paths that format their own output.

Each case runs in text and in JSON; the expected bytes were recorded from
the CLI and any change to them is a change to the output format.
"""
import pytest

from flagq import cli

VERIFY_ALL_3 = ["verify", "all", "--n", "3"]
REDUCE_4 = ["reduce", "--n", "4", "--u-word", "3,2,1,2", "--v-word", "2,1,2",
            "--w-word", "1,2,3", "--lambda", "1,1,0"]
EXPLORE_3 = ["explore", "--n", "3", "--i", "1", "--j", "2"]
QK_PROJECT_4 = ["qk-conjecture", "--n", "4", "--hook", "2", "--u-word", "2,3,2,1",
                "--project", "1,3"]

PINS = [
    (VERIFY_ALL_3, "text",
     "seidel n=3: 6/6 pass\n"
     "pieri n=3: 12/12 pass\n"
     "support n=3: 12/12 pass\n"
     "filtration n=3: 36/36 pass\n"
     "filtration n=3: 36/36 pass\n"
     "ktheory n=3: 18/18 pass\n"),
    (VERIFY_ALL_3, "json",
     '{"reports": ['
     '{"counterexamples": [], "n": 3, "name": "seidel", "passed": 6, "total": 6}, '
     '{"counterexamples": [], "n": 3, "name": "pieri", "passed": 12, "total": 12}, '
     '{"counterexamples": [], "n": 3, "name": "support", "passed": 12, "total": 12}, '
     '{"counterexamples": [], "n": 3, "name": "filtration", "passed": 36, "total": 36}, '
     '{"counterexamples": [], "n": 3, "name": "filtration", "passed": 36, "total": 36}, '
     '{"counterexamples": [], "n": 3, "name": "ktheory", "passed": 18, "total": 18}'
     '], "schema": 1}\n'),
    (REDUCE_4, "text",
     "  N[u=4213, v=3214; w=2341, lam=1,1,0]\n"
     "= [alpha_3[01]] N[u=4213, v=3241; w=2314, lam=1,1,1]\n"
     "= [alpha_2[00]] N[u=4123, v=3241; w=2134, lam=1,1,1]\n"
     "= [alpha_1[00]] N[u=1423, v=2341; w=2134, lam=0,1,1]\n"
     "= [alpha_2[00]] N[u=1243, v=2341; w=2314, lam=0,0,1]\n"
     "= [alpha_3[00]] N[u=1234, v=2314; w=2314, lam=0,0,0]\n"
     "= 1\n"),
    (REDUCE_4, "json",
     '{"rules": ["alpha_3[01]", "alpha_2[00]", "alpha_1[00]", "alpha_2[00]", '
     '"alpha_3[00]"], "schema": 1, "steps": ['
     '{"lambda": [1, 1, 0], "u": "4213", "v": "3214", "w": "2341"}, '
     '{"lambda": [1, 1, 1], "u": "4213", "v": "3241", "w": "2314"}, '
     '{"lambda": [1, 1, 1], "u": "4123", "v": "3241", "w": "2134"}, '
     '{"lambda": [0, 1, 1], "u": "1423", "v": "2341", "w": "2134"}, '
     '{"lambda": [0, 0, 1], "u": "1243", "v": "2341", "w": "2314"}, '
     '{"lambda": [0, 0, 0], "u": "1234", "v": "2314", "w": "2314"}'
     '], "terminal": "classical", "value": 1}\n'),
    (EXPLORE_3, "text",
     "123 descents=- u(n)=3 equal=True\n"
     "132 descents=2 u(n)=2 equal=False\n"
     "213 descents=1 u(n)=3 equal=True\n"
     "231 descents=2 u(n)=1 equal=False\n"
     "312 descents=1 u(n)=2 equal=False\n"
     "321 descents=1,2 u(n)=1 equal=False\n"),
    (EXPLORE_3, "json",
     '{"n": 3, "rows": ['
     '{"descents": [], "equal": true, "one_line": "123", "u_n": 3, "word": ""}, '
     '{"descents": [2], "equal": false, "one_line": "132", "u_n": 2, "word": "2"}, '
     '{"descents": [1], "equal": true, "one_line": "213", "u_n": 3, "word": "1"}, '
     '{"descents": [2], "equal": false, "one_line": "231", "u_n": 1, "word": "1,2"}, '
     '{"descents": [1], "equal": false, "one_line": "312", "u_n": 2, "word": "2,1"}, '
     '{"descents": [1, 2], "equal": false, "one_line": "321", "u_n": 1, "word": "1,2,1"}'
     '], "schema": 1}\n'),
    (QK_PROJECT_4, "text",
     "q3*O[3,1,2,1] + q1*q2*q3*O[] - q1*q2*q3*O[3]\n"
     "projected:\n"
     "+ O(2, 1)\n"),
    (QK_PROJECT_4, "json",
     '{"n": 4, "projected": [{"coeff": 1, "partition": [2, 1], "q": [0, 0, 0]}], '
     '"schema": 1, "terms": ['
     '{"coeff": 1, "q": [0, 0, 1], "w": "4213", "word": [3, 1, 2, 1]}, '
     '{"coeff": 1, "q": [1, 1, 1], "w": "1234", "word": []}, '
     '{"coeff": -1, "q": [1, 1, 1], "w": "1243", "word": [3]}'
     ']}\n'),
]


@pytest.mark.parametrize(
    "argv, fmt, expected", PINS, ids=[f"{a[0]}-{f}" for a, f, _ in PINS]
)
def test_cli_output_pinned(argv, fmt, expected, capsys):
    assert cli.main(argv + ["--format", fmt]) == 0
    assert capsys.readouterr().out == expected
