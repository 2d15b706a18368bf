"""Exact stdout and exit code of a few CLI runs, timings masked.

Each decimal number, together with the spaces that pad it to its column,
reads as ``<t>``: timings vary from run to run, the rest of the output
(line order, labels, columns) does not.
"""

import re

import pytest

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
