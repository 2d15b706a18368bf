"""Exact stdout and exit code of a few CLI runs, timings masked.

Each decimal number, together with the spaces that pad it to its column,
reads as ``<t>``: timings vary from run to run, the rest of the output
(line order, labels, columns) does not.
"""

import operator
import re

import pytest

import plethysm.cli as cli
import plethysm.recurrence as recurrence
import plethysm.thrall as thrall
from plethysm import RecurrenceCache, s
from plethysm.cli import main

_TIMING = re.compile(r" *\d+\.\d+")

GOLDEN = [
    (
        ["verify", "--max-n", "12", "--oracle-max-n", "4"],
        0,
        """\
h3: recurrence vs thrall on n in [0,12], vs oracle on n in [0,4]
h2: recurrence vs closed on n in [0,12], vs oracle on n in [0,4]
  h3_recurrence:<t> ms
  h3_thrall:<t> ms
  h2_recurrence:<t> ms
  h2_closed:<t> ms
  h3_oracle:<t> ms
  h2_oracle:<t> ms
PASS (0 mismatches, 0 positivity failures)
""",
    ),
    (
        ["dent", "--m", "3", "--max-n", "8"],
        0,
        """\
n=2: positive (2 terms)
n=3: positive (4 terms)
n=4: positive (6 terms)
n=5: positive (8 terms)
n=6: positive (10 terms)
n=7: positive (14 terms)
n=8: positive (17 terms)
PASS (h3[hn] - s_(2^3) odot h3[h(n-2)] Schur-positive for 2 <= n <= 8)
""",
    ),
    (
        ["dent", "--m", "2", "--max-n", "8"],
        0,
        """\
n=2: positive (1 terms)
n=3: positive (1 terms)
n=4: positive (1 terms)
n=5: positive (1 terms)
n=6: positive (1 terms)
n=7: positive (1 terms)
n=8: positive (1 terms)
PASS (h2[hn] - s_(2^2) odot h2[h(n-2)] Schur-positive for 2 <= n <= 8)
""",
    ),
    (
        ["expand", "--m", "3", "--n", "7"],
        0,
        "s[21] + s[19,2] + s[18,3] + s[17,4] + s[17,2,2] + s[16,5] + s[16,4,1]"
        " + 2*s[15,6] + s[15,4,2] + s[14,7] + s[14,6,1] + s[14,5,2] + s[13,8]"
        " + s[13,7,1] + s[13,6,2] + s[13,4,4] + s[12,9] + s[12,8,1] + s[12,7,2]"
        " + s[12,6,3] + s[11,8,2] + s[11,6,4] + s[10,10,1] + s[10,8,3]"
        " + s[10,7,4] + s[9,6,6] + s[8,8,5]\n",
    ),
    (
        ["expand", "--m", "2", "--n", "9", "--format", "json"],
        0,
        '{"m":2,"n":9,"method":"recurrence","terms":[{"lambda":[18],"coeff":1},'
        '{"lambda":[16,2],"coeff":1},{"lambda":[14,4],"coeff":1},'
        '{"lambda":[12,6],"coeff":1},{"lambda":[10,8],"coeff":1}]}\n',
    ),
    (
        ["bench", "--max-n", "4", "--repeats", "1", "--oracle-max-n", "3"],
        0,
        """\
best of 1 repeats, milliseconds
     n    recurrence        thrall        oracle
     1<t><t><t>
     2<t><t><t>
     3<t><t><t>
     4<t><t>             -
 total<t><t><t>
""",
    ),
    (
        # The budget passes the direct routes' bound on h3[h2], 7 terms,
        # and refuses the oracle at n = 1, which needs 10 multisets: a
        # route never timed totals "-".
        ["bench", "--max-n", "2", "--repeats", "1", "--oracle-max-n", "5", "--budget", "9"],
        0,
        """\
best of 1 repeats, milliseconds
     n    recurrence        thrall        oracle
     1<t><t>             -
     2<t><t>             -
 total<t><t>             -
""",
    ),
    (
        ["expand", "--m", "2", "--n", "4", "--method", "oracle", "--format", "json"],
        0,
        '{"m":2,"n":4,"method":"oracle","terms":[{"lambda":[8],"coeff":1},'
        '{"lambda":[6,2],"coeff":1},{"lambda":[4,4],"coeff":1}]}\n',
    ),
    (
        ["expand", "--m", "2", "--n", "3", "--method", "thrall"],
        2,
        "",
    ),
    (
        ["expand", "--m", "3", "--n", "3", "--method", "closed"],
        2,
        "",
    ),
    (
        # h3[h3] has at most 12 terms: the direct routes are refused before
        # anything is built.
        ["verify", "--max-n", "3", "--oracle-max-n", "3", "--budget", "3"],
        3,
        "",
    ),
    (
        # The direct routes pass the bound, and the sweep reaches n = 1,
        # where the budget refuses the oracle: nothing is printed but the
        # refusal.
        ["verify", "--max-n", "3", "--oracle-max-n", "3", "--budget", "12"],
        3,
        "",
    ),
    (
        # h3[h100000] as in expand: refused before the sweep starts.
        ["verify", "--max-n", "100000"],
        3,
        "",
    ),
    (
        # h14[h1] in 14 variables passes the multiset count and is refused
        # by the table's bound, before anything is built.
        ["foulkes", "--m", "1", "--n", "14"],
        3,
        "",
    ),
    (
        # h3[h100000] would have about 7.5e9 shapes: the direct routes are
        # refused on the count of partitions of 3n into at most 3 parts,
        # before anything is built.
        ["expand", "--m", "3", "--n", "100000"],
        3,
        "",
    ),
    (
        # bench times h3[h100000] by the direct routes: refused before any
        # timing, as in expand.
        ["bench", "--max-n", "100000"],
        3,
        "",
    ),
    (
        # The layers dent --m 3 would keep hold as many coefficients as
        # h3[h100000] has terms: refused before the sweep starts.
        ["dent", "--m", "3", "--max-n", "100000"],
        3,
        "",
    ),
    (
        # The m that expand serves are the keys of cli._METHODS.
        ["expand", "--m", "4", "--n", "2"],
        2,
        "",
    ),
    # dent checks m = 2 and m = 3 only.
    (["dent", "--m", "4", "--max-n", "5"], 2, ""),
    # Non-integer text reads as argparse's own int error, whichever
    # range check the option has.
    (["expand", "--n", "x"], 2, ""),
    (["bench", "--budget", "1e3"], 2, ""),
    # An int below an option's range: each range has its own message.
    (["verify", "--max-n", "-1"], 2, ""),
    (["bench", "--repeats", "0"], 2, ""),
]

# stderr of the cases that write to it; every other case writes nothing.
STDERR = {
    "expand --m 2 --n 3 --method thrall":
        "error: method 'thrall' is not valid for m=2 (use one of: closed, oracle, recurrence)\n",
    "expand --m 3 --n 3 --method closed":
        "error: method 'closed' is not valid for m=3 (use one of: oracle, recurrence, thrall)\n",
    "verify --max-n 3 --oracle-max-n 3 --budget 3":
        "budget exceeded: h3[h3] needs 12 terms, budget is 3\n",
    "verify --max-n 3 --oracle-max-n 3 --budget 12":
        "budget exceeded: h3[h1] in 3 variables needs 57 table updates, budget is 12\n",
    "verify --max-n 100000":
        "budget exceeded: h3[h100000] needs 7500150001 terms, budget is 50000000\n",
    "foulkes --m 1 --n 14":
        "budget exceeded: h14[h1] in 14 variables needs 561632386 table updates, budget is 50000000\n",
    "expand --m 3 --n 100000":
        "budget exceeded: h3[h100000] needs 7500150001 terms, budget is 50000000\n",
    "dent --m 3 --max-n 100000":
        "budget exceeded: h3[h100000] needs 7500150001 terms, budget is 50000000\n",
    "bench --max-n 100000":
        "budget exceeded: h3[h100000] needs 7500150001 terms, budget is 50000000\n",
    "expand --m 4 --n 2":
        """\
usage: plethysm expand [-h] [--m {2,3}] --n N
                       [--method {recurrence,thrall,closed,oracle}]
                       [--format {text,json}] [--budget BUDGET]
plethysm expand: error: argument --m: invalid choice: 4 (choose from 2, 3)
""",
    "dent --m 4 --max-n 5":
        """\
usage: plethysm dent [-h] [--m {2,3}] --max-n MAX_N [--budget BUDGET]
plethysm dent: error: argument --m: invalid choice: 4 (choose from 2, 3)
""",
    "expand --n x":
        """\
usage: plethysm expand [-h] [--m {2,3}] --n N
                       [--method {recurrence,thrall,closed,oracle}]
                       [--format {text,json}] [--budget BUDGET]
plethysm expand: error: argument --n: invalid int value: 'x'
""",
    "bench --budget 1e3":
        """\
usage: plethysm bench [-h] --max-n MAX_N [--repeats REPEATS]
                      [--oracle-max-n ORACLE_MAX_N] [--budget BUDGET]
                      [--csv CSV]
plethysm bench: error: argument --budget: invalid int value: '1e3'
""",
    "verify --max-n -1":
        """\
usage: plethysm verify [-h] [--max-n MAX_N] [--oracle-max-n ORACLE_MAX_N]
                       [--budget BUDGET]
plethysm verify: error: argument --max-n: must be nonnegative
""",
    "bench --repeats 0":
        """\
usage: plethysm bench [-h] --max-n MAX_N [--repeats REPEATS]
                      [--oracle-max-n ORACLE_MAX_N] [--budget BUDGET]
                      [--csv CSV]
plethysm bench: error: argument --repeats: must be positive
""",
}


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_golden(capsys, monkeypatch, argv, code, stdout):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    try:
        assert main(argv) == code
    except SystemExit as exc:  # argparse's usage errors
        assert exc.code == code
    captured = capsys.readouterr()
    assert _TIMING.sub("<t>", captured.out) == stdout
    assert captured.err == STDERR.get(" ".join(argv), "")


# Failing runs of `verify --max-n 8 --oracle-max-n 4`, each route's fault
# injected by adding a fixed SchurSum to its value at chosen n: for the h3
# routes, to the columns their column builders return, which verify
# compares and builds the sums it compares with the oracle from. The output
# pins the order of the failure lines: direct-route mismatches by n (h3
# before h2 at equal n), then oracle mismatches by m and then n, then
# positivity failures by n; within one n, shapes in descending order.

THRALL_FAULTS = {3: s(3, 3, 3) - s(7, 2), 7: s(12, 9) + s(21)}
H2_CLOSED_FAULTS = {2: s(3, 1), 6: -s(12)}
ORACLE_FAULTS = {(3, 4): -s(12), (3, 1): s(2, 1), (2, 2): s(2, 2)}
RECURRENCE_FAULTS = {3: -s(5, 3, 1) - 2 * s(3, 3, 3), 5: -2 * s(15)}


def _add_to_columns(columns, fault):
    # The columns of h3[hn] with the SchurSum fault added, each changed
    # column copied: an even column of the recurrence is its cache's layer.
    columns = list(columns)
    for lam, coeff in fault.terms():
        assert len(lam) <= 3, "a column holds shapes of at most three rows"
        _, b, c = (*lam, 0, 0)[:3]
        if c < len(columns):
            columns[c] = list(columns[c])
            columns[c][b - c] += coeff
    return columns


def _with_faults(route, faults, key, add=operator.add):
    def faulty(*args, **kwargs):
        value = route(*args, **kwargs)
        fault = faults.get(key(*args))
        return add(value, fault) if fault else value
    return faulty


def _inject(monkeypatch, routes):
    if "thrall" in routes:
        monkeypatch.setattr(thrall, "h3_columns",
                            _with_faults(thrall.h3_columns, THRALL_FAULTS, lambda n: n, _add_to_columns))
    if "closed" in routes:
        monkeypatch.setattr(cli, "h2_closed", _with_faults(cli.h2_closed, H2_CLOSED_FAULTS, lambda n: n))
    if "oracle" in routes:
        monkeypatch.setattr(cli, "plethysm_oracle",
                            _with_faults(cli.plethysm_oracle, ORACLE_FAULTS, lambda m, n: (m, n)))
    if "recurrence" in routes:
        monkeypatch.setattr(RecurrenceCache, "h3_columns",
                            _with_faults(RecurrenceCache.h3_columns, RECURRENCE_FAULTS,
                                         lambda cache, n, stop=None: n, _add_to_columns))


VERIFY_HEADER = """\
h3: recurrence vs thrall on n in [0,8], vs oracle on n in [0,4]
h2: recurrence vs closed on n in [0,8], vs oracle on n in [0,4]
  h3_recurrence:<t> ms
  h3_thrall:<t> ms
  h2_recurrence:<t> ms
  h2_closed:<t> ms
  h3_oracle:<t> ms
  h2_oracle:<t> ms
"""

FAILING_VERIFY = [
    (
        ("thrall",),
        """\
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[7, 2]: recurrence=1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 3, 3]: recurrence=0 thrall=1
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[21]: recurrence=1 thrall=2
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[12, 9]: recurrence=1 thrall=2
MISMATCH [h3 vs oracle] n=3 lambda=[7, 2]: recurrence=1 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=3 lambda=[3, 3, 3]: recurrence=0 thrall=1 oracle=0
FAIL (6 mismatches, 0 positivity failures)
""",
    ),
    (
        ("closed",),
        """\
MISMATCH [h2 recurrence vs closed] n=2 lambda=[3, 1]: recurrence=0 closed=1
MISMATCH [h2 recurrence vs closed] n=6 lambda=[12]: recurrence=1 closed=0
MISMATCH [h2 vs oracle] n=2 lambda=[3, 1]: recurrence=0 closed=1 oracle=0
FAIL (3 mismatches, 0 positivity failures)
""",
    ),
    (
        ("oracle",),
        """\
MISMATCH [h3 vs oracle] n=1 lambda=[2, 1]: recurrence=0 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=4 lambda=[12]: recurrence=1 thrall=1 oracle=0
MISMATCH [h2 vs oracle] n=2 lambda=[2, 2]: recurrence=1 closed=1 oracle=2
FAIL (3 mismatches, 0 positivity failures)
""",
    ),
    (
        ("recurrence",),
        """\
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[5, 3, 1]: recurrence=-1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=0
MISMATCH [h3 recurrence vs thrall] n=5 lambda=[15]: recurrence=-1 thrall=1
MISMATCH [h3 vs oracle] n=3 lambda=[5, 3, 1]: recurrence=-1 thrall=0 oracle=0
MISMATCH [h3 vs oracle] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=0 oracle=0
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[5, 3, 1] coeff=-1
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 3, 3] coeff=-2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=5 lambda=[15] coeff=-1
FAIL (5 mismatches, 3 positivity failures)
""",
    ),
    (
        ("thrall", "closed", "oracle", "recurrence"),
        """\
MISMATCH [h2 recurrence vs closed] n=2 lambda=[3, 1]: recurrence=0 closed=1
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[7, 2]: recurrence=1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[5, 3, 1]: recurrence=-1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=1
MISMATCH [h3 recurrence vs thrall] n=5 lambda=[15]: recurrence=-1 thrall=1
MISMATCH [h2 recurrence vs closed] n=6 lambda=[12]: recurrence=1 closed=0
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[21]: recurrence=1 thrall=2
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[12, 9]: recurrence=1 thrall=2
MISMATCH [h3 vs oracle] n=1 lambda=[2, 1]: recurrence=0 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=3 lambda=[7, 2]: recurrence=1 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=3 lambda=[5, 3, 1]: recurrence=-1 thrall=0 oracle=0
MISMATCH [h3 vs oracle] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=1 oracle=0
MISMATCH [h3 vs oracle] n=4 lambda=[12]: recurrence=1 thrall=1 oracle=0
MISMATCH [h2 vs oracle] n=2 lambda=[3, 1]: recurrence=0 closed=1 oracle=0
MISMATCH [h2 vs oracle] n=2 lambda=[2, 2]: recurrence=1 closed=1 oracle=2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[5, 3, 1] coeff=-1
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 3, 3] coeff=-2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=5 lambda=[15] coeff=-1
FAIL (15 mismatches, 3 positivity failures)
""",
    ),
]


@pytest.mark.parametrize("routes, failures", FAILING_VERIFY, ids=["+".join(f[0]) for f in FAILING_VERIFY])
def test_verify_failure_golden(capsys, monkeypatch, routes, failures):
    _inject(monkeypatch, routes)
    assert main(["verify", "--max-n", "8", "--oracle-max-n", "4"]) == 1
    captured = capsys.readouterr()
    assert _TIMING.sub("<t>", captured.out) == VERIFY_HEADER + failures
    assert captured.err == ""


def test_dent_failure_golden(capsys, monkeypatch):
    # Correct layers cannot make a dent difference negative, so the failure
    # output is reached only through injected columns: D(2) = s_6 - s_42 and
    # D(3) = s_9, as columns 0 and 1 of h3[h2] and h3[h3].
    differences = {2: [[1, 0, -1, 0], [0, 0]], 3: [[1, 0, 0, 0, 0], [0, 0, 0, 0]]}
    monkeypatch.setattr(RecurrenceCache, "h3_columns", lambda self, n, stop=None: differences[n])
    assert main(["dent", "--m", "3", "--max-n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == """\
n=2: NOT POSITIVE, negative terms [([4, 2], -1)]
n=2: WRONG VALUE 1 at 3 ones, expected 55 from multiset counts
n=3: positive (1 terms)
n=3: WRONG VALUE 55 at 3 ones, expected 210 from multiset counts
FAIL (1 of 2 checks not Schur-positive, 2 of 2 values at 3 ones wrong)
"""
    assert captured.err == ""


def test_dent_wrong_layer_golden(capsys, monkeypatch):
    # A wrong layer entry keeps every difference positive, since the
    # difference is the layer D(n) itself; only the value at ones sees it.
    # T(9) feeds D(9), D(12) and, through T(13), D(13).
    step = recurrence._two_row_step

    def wrong_step(previous, j):
        terms = step(previous, j)
        if j == 9:
            terms[0] += 7  # s_(27), the layer's entry at b = 0
        return terms

    monkeypatch.setattr(recurrence, "_two_row_step", wrong_step)
    assert main(["dent", "--m", "3", "--max-n", "13"]) == 1
    captured = capsys.readouterr()
    assert captured.out == """\
n=2: positive (2 terms)
n=3: positive (4 terms)
n=4: positive (6 terms)
n=5: positive (8 terms)
n=6: positive (10 terms)
n=7: positive (14 terms)
n=8: positive (17 terms)
n=9: positive (19 terms)
n=9: WRONG VALUE 23666 at 3 ones, expected 20824 from multiset counts
n=10: positive (22 terms)
n=11: positive (26 terms)
n=12: positive (29 terms)
n=12: WRONG VALUE 92194 at 3 ones, expected 79650 from multiset counts
n=13: positive (31 terms)
n=13: WRONG VALUE 140335 at 3 ones, expected 116325 from multiset counts
FAIL (0 of 12 checks not Schur-positive, 3 of 12 values at 3 ones wrong)
"""
    assert captured.err == ""
