"""Exact stdout and exit code of a few CLI runs, timings masked.

Each decimal number, together with the spaces that pad it to its column,
reads as ``<t>``: timings vary from run to run, the rest of the output
(line order, labels, columns) does not.
"""

import re

import pytest

import plethysm.cli as cli
from plethysm import RecurrenceCache, SchurSum, s
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
        ["expand", "--m", "2", "--n", "3", "--method", "thrall"],
        2,
        "",
    ),
]

USAGE_ERROR = "error: method 'thrall' is not valid for m=2 (use one of: closed, oracle, recurrence)\n"


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_cli_golden(capsys, argv, code, stdout):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert _TIMING.sub("<t>", captured.out) == stdout
    assert captured.err == (USAGE_ERROR if code else "")


# Failing runs of `verify --max-n 8 --oracle-max-n 4`, each route's fault
# injected by adding a fixed SchurSum to its value at chosen n. The output
# pins the order of the failure lines: direct-route mismatches by n (h3
# before h2 at equal n), then oracle mismatches by m and then n, then
# positivity failures by n; within one n, shapes in descending order.

THRALL_FAULTS = {3: s(3, 3, 3) - s(7, 2), 7: s(12, 9) + s(21)}
H2_CLOSED_FAULTS = {2: s(3, 1), 6: -s(12)}
ORACLE_FAULTS = {(3, 4): -s(12), (3, 1): s(2, 1), (2, 2): s(2, 2)}
RECURRENCE_FAULTS = {3: s(3, 2, 2, 1, 1) - 2 * s(3, 3, 3), 5: -2 * s(15)}


def _with_faults(route, faults, key):
    def faulty(*args, **kwargs):
        total = route(*args, **kwargs)
        return total + faults.get(key(*args), SchurSum.zero())
    return faulty


def _inject(monkeypatch, routes):
    if "thrall" in routes:
        monkeypatch.setattr(cli, "h3_thrall", _with_faults(cli.h3_thrall, THRALL_FAULTS, lambda n: n))
    if "closed" in routes:
        monkeypatch.setattr(cli, "h2_closed", _with_faults(cli.h2_closed, H2_CLOSED_FAULTS, lambda n: n))
    if "oracle" in routes:
        monkeypatch.setattr(cli, "plethysm_oracle",
                            _with_faults(cli.plethysm_oracle, ORACLE_FAULTS, lambda m, n: (m, n)))
    if "recurrence" in routes:
        monkeypatch.setattr(RecurrenceCache, "h3",
                            _with_faults(RecurrenceCache.h3, RECURRENCE_FAULTS, lambda cache, n: n))


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
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 2, 2, 1, 1]: recurrence=1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=5 lambda=[15]: recurrence=-1 thrall=1
MISMATCH [h3 vs oracle] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=0 oracle=0
MISMATCH [h3 vs oracle] n=3 lambda=[3, 2, 2, 1, 1]: recurrence=1 thrall=0 oracle=0
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 3, 3] coeff=-2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 2, 2, 1, 1] coeff=1
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=5 lambda=[15] coeff=-1
FAIL (5 mismatches, 3 positivity failures)
""",
    ),
    (
        ("thrall", "closed", "oracle", "recurrence"),
        """\
MISMATCH [h2 recurrence vs closed] n=2 lambda=[3, 1]: recurrence=0 closed=1
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[7, 2]: recurrence=1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=1
MISMATCH [h3 recurrence vs thrall] n=3 lambda=[3, 2, 2, 1, 1]: recurrence=1 thrall=0
MISMATCH [h3 recurrence vs thrall] n=5 lambda=[15]: recurrence=-1 thrall=1
MISMATCH [h2 recurrence vs closed] n=6 lambda=[12]: recurrence=1 closed=0
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[21]: recurrence=1 thrall=2
MISMATCH [h3 recurrence vs thrall] n=7 lambda=[12, 9]: recurrence=1 thrall=2
MISMATCH [h3 vs oracle] n=1 lambda=[2, 1]: recurrence=0 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=3 lambda=[7, 2]: recurrence=1 thrall=0 oracle=1
MISMATCH [h3 vs oracle] n=3 lambda=[3, 3, 3]: recurrence=-2 thrall=1 oracle=0
MISMATCH [h3 vs oracle] n=3 lambda=[3, 2, 2, 1, 1]: recurrence=1 thrall=0 oracle=0
MISMATCH [h3 vs oracle] n=4 lambda=[12]: recurrence=1 thrall=1 oracle=0
MISMATCH [h2 vs oracle] n=2 lambda=[3, 1]: recurrence=0 closed=1 oracle=0
MISMATCH [h2 vs oracle] n=2 lambda=[2, 2]: recurrence=1 closed=1 oracle=2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 3, 3] coeff=-2
POSITIVITY FAILURE [h3 nonnegative, at most 3 rows] n=3 lambda=[3, 2, 2, 1, 1] coeff=1
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
