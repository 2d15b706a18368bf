"""Seeded inputs, timed operations and correctness checks for each workload.

A plan is the list of operations one pass runs. It is a pure function of
(workload, seed, plan index, tiny), so the runner and the child process
that executes a pass derive the same plan independently, and the same
seed always gives the same inputs. The seed permutes fixed pools of sizes
rather than drawing sizes freely: the work in a pass then stays the same
from seed to seed, so runs with different seeds are comparable.

Each check compares an output with a route or identity that does not
share the code under test, and runs after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from math import comb

# The package is imported inside the functions that need it: the runner
# imports this module too, and only child processes import the package.

WORKLOADS = ("certify", "expand-cold", "foulkes")

# certify: `verify --max-n N` then `dent --m 3 --max-n N` in one process.
# Consecutive passes walk the band in a seeded order.
CERTIFY_BAND = (99, 100, 101)
CERTIFY_BAND_TINY = (8, 9, 10)

# expand-cold: cold default-method `expand` calls, two sizes per m.
EXPAND_POOL = {3: (100, 160), 2: (1000, 1800)}
EXPAND_POOL_TINY = {3: (4, 7), 2: (10, 16)}

# foulkes: the acceptance pairs without the 40 s pair (4, 5), plus (4, 4)
# and (2, 6).
FOULKES_POOL = ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 4), (2, 6))
FOULKES_POOL_TINY = ((2, 3), (2, 4), (3, 4))


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def plan(workload: str, seed: int, index: int, tiny: bool = False) -> list[tuple]:
    """Operations of pass ``index``: ("cli", argv) or ("foulkes", (m, n))."""
    rng = _rng(workload, seed)
    if workload == "certify":
        band = rng.sample(CERTIFY_BAND_TINY if tiny else CERTIFY_BAND, 3)
        n = str(band[index % len(band)])
        return [("cli", ["verify", "--max-n", n]),
                ("cli", ["dent", "--m", "3", "--max-n", n])]
    if workload == "expand-cold":
        ops = []
        for m, sizes in (EXPAND_POOL_TINY if tiny else EXPAND_POOL).items():
            # One size of each m renders JSON and the other text, so the
            # rendering cost of a pass barely moves with the seed.
            formats = ["json", "text"]
            rng.shuffle(formats)
            for n, fmt in zip(sizes, formats):
                ops.append(("cli", ["expand", "--m", str(m), "--n", str(n), "--format", fmt]))
        rng.shuffle(ops)
        return ops
    if workload == "foulkes":
        pairs = list(FOULKES_POOL_TINY if tiny else FOULKES_POOL)
        rng.shuffle(pairs)
        return [("foulkes", pair) for pair in pairs]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(op: tuple):
    """Run one operation; return (exit code, result, stderr), never raise."""
    kind, arg = op
    if kind == "cli":
        from plethysm import cli

        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(arg))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # counted as a failed check
            return ("error", None, f"{type(exc).__name__}: {exc}")
        return (rc, out.getvalue(), err.getvalue())
    if kind == "foulkes":
        from plethysm import oracle

        try:
            return (0, oracle.foulkes_difference(*arg), "")
        except Exception as exc:  # BudgetExceededError included
            return ("error", None, f"{type(exc).__name__}: {exc}")
    raise ValueError(f"unknown operation kind {kind!r}")


def dimension(m: int, n: int, k: int) -> int:
    """h_m[h_n] at k ones: multisets of m monomials of degree n in k variables."""
    return comb(comb(n + k - 1, k - 1) + m - 1, m)


def parse_text(text: str):
    """Read back the CLI's text rendering ``s[6] + 2*s[4,2] - 3`` as a SchurSum."""
    from plethysm.schur import SchurSum

    if text == "0":
        return SchurSum.zero()
    tokens = text.split(" ")
    signs = [1]
    if tokens[0].startswith("-"):
        signs[0], tokens[0] = -1, tokens[0][1:]
    for sign in tokens[1::2]:
        if sign not in ("+", "-"):
            raise ValueError(f"unexpected separator {sign!r}")
        signs.append(1 if sign == "+" else -1)
    items = []
    for sign, body in zip(signs, tokens[0::2]):
        coeff, star, shape = body.partition("*")
        if not star:
            coeff, shape = ("1", body) if body.startswith("s[") else (body, "s[]")
        if not (shape.startswith("s[") and shape.endswith("]")):
            raise ValueError(f"unexpected term {body!r}")
        inner = shape[2:-1]
        parts = tuple(int(p) for p in inner.split(",")) if inner else ()
        items.append((parts, sign * int(coeff)))
    return SchurSum(items)


def _check_expand(argv: list[str], stdout: str) -> str | None:
    from plethysm.recurrence import h2_closed
    from plethysm.schur import SchurSum
    from plethysm.thrall import h3_thrall

    m, n, fmt = int(argv[2]), int(argv[4]), argv[6]
    if fmt == "json":
        doc = json.loads(stdout)
        if (doc["m"], doc["n"], doc["method"]) != (m, n, "recurrence"):
            return f"unexpected header {doc['m']}, {doc['n']}, {doc['method']}"
        got = SchurSum.from_json_terms(doc["terms"])
    else:
        got = parse_text(stdout.rstrip("\n"))
    want = h3_thrall(n) if m == 3 else h2_closed(n)
    if got != want:
        return "expansion differs from the closed form"
    if got.eval_at_ones(3) != dimension(m, n, 3):
        return "value at three ones differs from the multiset count"
    return None


def _check_foulkes(m: int, n: int, diff) -> str | None:
    if not diff.is_schur_positive():
        return "difference is not Schur-positive"
    k = max(m, n)
    if diff.eval_at_ones(k) != dimension(n, m, k) - dimension(m, n, k):
        return f"value at {k} ones differs from the multiset counts"
    return None


def check(op: tuple, outcome: tuple) -> str | None:
    """None when the outcome is correct, else a one-line reason."""
    kind, arg = op
    rc, result, err = outcome
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        if kind == "foulkes":
            return _check_foulkes(*arg, result)
        if arg[0] == "expand":
            return _check_expand(arg, result)
        lines = result.splitlines()
        if not lines or not lines[-1].startswith("PASS"):
            return "no PASS line"
        return None
    except Exception as exc:  # a malformed output fails its check
        return f"check raised {type(exc).__name__}: {exc}"
