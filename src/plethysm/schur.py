"""Sparse integer linear combinations of Schur functions.

A ``SchurSum`` maps partitions to nonzero integer coefficients. Besides
the ring operations it carries the operator the h2[hn] and h3[hn]
recurrences are stated with: ``odot``, the bilinear product that adds
indexing partitions componentwise (s_mu odot s_lam = s_{mu+lam}). It is
computed as one shift of the right factor per term of the left: adding a
fixed partition is injective, so terms merge only between the shifts.
Coefficients are ordinary Python integers, so all arithmetic is exact.

Keys are canonical plain tuples (weakly decreasing, positive parts); a
``Partition`` hashes and compares like one, so it is a valid key too. It
validates what enters through ``SchurSum(...)``, ``s()``, ``coeff()`` and
``from_json_terms``, and only ``terms()`` and ``support()`` hand it out.

Every output lists the terms in descending lex order on the keys, the
list that ``_sorted_keys`` returns. ``_render`` writes them in runs, each
one join filled by strided slice assignment: per term, the piece between
it and the term before, such as ``"] - 2*s["``, made once per distinct
coefficient, then its key's parts and their commas. ``expand --m 3``
passes one run per row of h3's columns (``_column_rows``), unsorted, with
the string of each part made once per call. ``str()`` and
``json_terms_text()`` pass their sorted keys as one run of ``%d`` format
pieces, one made per key length, and fill in every part with one ``%``.
``terms()`` and ``json_terms()`` hand out the same terms as data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain, compress, repeat
from math import prod
from operator import add, getitem, mul

from .partition import Partition


class SchurSum:
    """Integer linear combination of Schur functions, stored sparsely.

    The zero sum has no terms; the constant 1 is the empty partition with
    coefficient 1. Instances are immutable: every operation returns a new
    sum, so values can be shared freely (including across threads).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[tuple[int, ...], int] = {}
        for lam, coeff in items:
            if isinstance(coeff, bool) or not isinstance(coeff, int):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            merged = data.get(lam, 0) + coeff
            if merged:
                data[lam] = merged
            else:
                data.pop(lam, None)
        self._terms = data

    @classmethod
    def _wrap(cls, terms: dict[tuple[int, ...], int]) -> "SchurSum":
        # Internal constructor; keys must be canonical, coefficients nonzero.
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @staticmethod
    def _checked_columns(n: int, columns: list[list[int]]):
        # enumerate(columns), once the count and every length of these
        # columns of shapes of 3n cells in at most three rows are checked:
        # column c lists the coefficients of s_(3n-b-c, b, c) for
        # c <= b <= (3n-c)//2, zeros included, 3(n-c)//2 + 1 of them. There
        # are at most n + 1 columns, and none for negative n, which gives the
        # zero sum.
        if len(columns) > max(n + 1, 0):
            raise ValueError(f"{len(columns)} columns for shapes of {3 * n} cells, at most {max(n + 1, 0)}")
        for c, column in enumerate(columns):
            size = 3 * (n - c) // 2 + 1
            if len(column) != size:
                raise ValueError(f"column {c} of shapes of {3 * n} cells has {len(column)} entries, not {size}")
        return enumerate(columns)

    @classmethod
    def _from_columns(cls, n: int, columns: list[list[int]]) -> "SchurSum":
        # The sum whose columns are ``columns``, laid out as in
        # _checked_columns.
        w = 3 * n
        parts = list(range(w + 1))  # one int object per part, shared by the keys
        terms = {}
        for c, column in cls._checked_columns(n, columns):
            size = len(column)
            if c:
                keys = zip(parts[w - 2 * c:w - 2 * c - size:-1], parts[c:c + size], repeat(parts[c]))
            else:  # two-row keys (w - b, b) for b >= 1; b = 0 follows
                keys = zip(parts[w - 1:w - size:-1], parts[1:size])
                column = column[1:]
            terms.update(zip(compress(keys, column), filter(None, column)))
        if columns and columns[0][0]:
            terms[(w,) if w else ()] = columns[0][0]
        return cls._wrap(terms)

    @staticmethod
    def _column_rows(n: int, columns: list[list[int]]):
        # _render's runs of _from_columns(n, columns), once every column is
        # checked: one per row a = 3n, ..., n, whose terms have first part a
        # and b descending as c ascends, so it is entry 3n - a - 2c of column
        # c for c from max(0, 3n - 2a) to min((3n - a) // 2, len(columns) - 1).
        # Its slots are a, ",b" and ",c"; the constant has none.
        SchurSum._checked_columns(n, columns)
        return SchurSum._column_runs(n, columns)

    @staticmethod
    def _column_runs(n: int, columns: list[list[int]]):
        w, last = 3 * n, len(columns) - 1
        parts = list(map(str, range(w + 1)))  # each part's string, made once
        tails = ["", *map(",".__add__, parts[1:])]  # after a comma; a zero part has none
        below = tails[::-1]  # below[a + c] is the tail of b = 3n - a - c
        for r, a in enumerate(range(w, n - 1, -1)):  # r = b + c
            lo, hi = max(0, r - a), min(r // 2, last)
            coefficients = list(map(getitem, columns[lo:hi + 1], range(r - 2 * lo, r - 2 * hi - 1, -2)))
            nonzero = list(filter(None, coefficients))
            if nonzero:
                yield nonzero, [[parts[a]] * len(nonzero), compress(below[a + lo:a + hi + 1], coefficients),
                                compress(tails[lo:hi + 1], coefficients)] if a else []

    @staticmethod
    def _columns_at_three_ones(n: int, columns: list[list[int]]) -> int:
        # _from_columns(n, columns).eval_at_ones(3), without the keys: a dot
        # product of each column with Weyl's products. Entry t of column c
        # is the shape (3k + c - t, c + t, c), k = n - c, whose product is
        # (3k - 2t + 1)(t + 1)(3k - t + 2) / 2.
        twice = 0
        for c, column in SchurSum._checked_columns(n, columns):
            k3, size = 3 * (n - c), len(column)
            nums = list(map(mul, map(mul, range(k3 + 1, k3 + 1 - 2 * size, -2), range(1, size + 1)),
                            range(k3 + 2, k3 + 2 - size, -1)))
            # Each product is even: if t + 1 and 3k - 2t + 1 are odd, t and k are even, so 3k - t + 2 is.
            twice += sum(map(mul, column, nums))
        return twice // 2

    @classmethod
    def zero(cls) -> "SchurSum":
        return cls._wrap({})

    @classmethod
    def one(cls) -> "SchurSum":
        return cls._wrap({(): 1})

    def coeff(self, lam) -> int:
        """Coefficient of s_lam, zero if absent."""
        if not isinstance(lam, Partition):
            lam = Partition(lam)
        return self._terms.get(lam, 0)

    def _sorted_keys(self) -> list[tuple[int, ...]]:
        # The output order of every renderer: keys in descending lex order.
        return sorted(self._terms, reverse=True)

    def terms(self) -> list[tuple[Partition, int]]:
        """Terms as (partition, coefficient) pairs, descending lex order."""
        terms = self._terms
        return [(Partition._unchecked(lam), terms[lam]) for lam in self._sorted_keys()]

    def support(self) -> set[Partition]:
        return {Partition._unchecked(lam) for lam in self._terms}

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchurSum):
            return NotImplemented
        return self._terms == other._terms

    def _merge(self, other: "SchurSum", sign: int) -> "SchurSum":
        # self + sign * other, in one pass over the terms of other.
        out = dict(self._terms)
        _add_into(out, other._terms, sign)
        return SchurSum._wrap(out)

    def __add__(self, other: "SchurSum") -> "SchurSum":
        if not isinstance(other, SchurSum):
            return NotImplemented
        return self._merge(other, 1)

    def __neg__(self) -> "SchurSum":
        return SchurSum._wrap({lam: -c for lam, c in self._terms.items()})

    def __sub__(self, other: "SchurSum") -> "SchurSum":
        if not isinstance(other, SchurSum):
            return NotImplemented
        return self._merge(other, -1)

    def __mul__(self, scalar: int) -> "SchurSum":
        if isinstance(scalar, bool) or not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return SchurSum.zero()
        return SchurSum._wrap({lam: scalar * c for lam, c in self._terms.items()})

    __rmul__ = __mul__

    def odot(self, other: "SchurSum") -> "SchurSum":
        """Bilinear product adding the indexing partitions componentwise.

        Computed as one shift of ``other`` per term c*s_lam of ``self``:
        every key mu becomes lam + mu, with coefficient c*d. Adding a fixed
        lam is injective and c*d is never 0, so a shift is built in one
        pass with no merge check. Terms merge, and may cancel, only between
        the shifts of different terms of ``self``.
        """
        out: dict[tuple[int, ...], int] = {}
        for lam, c in self._terms.items():
            rows = len(lam)
            # Unpacked, not joined with +, which adds when a key is a
            # Partition. One of the two tails is empty.
            shifted = {(*map(add, lam, mu), *lam[len(mu):], *mu[rows:]): c * d
                       for mu, d in other._terms.items()}
            # Merge the smaller dict into the larger; the first shift is
            # taken whole.
            if len(shifted) > len(out):
                out, shifted = shifted, out
            _add_into(out, shifted, 1)
        return SchurSum._wrap(out)

    def is_schur_positive(self) -> bool:
        """True when every stored coefficient is positive (zero sum included)."""
        return min(self._terms.values(), default=1) > 0

    def eval_at_ones(self, k: int) -> int:
        """Exact value after substituting 1 for each of k variables.

        s_lam at k ones is the number of semistandard tableaux of shape lam
        with entries <= k: 0 when lam has more than k rows, and otherwise
        Weyl's product prod_{i<j} (lam_i - lam_j + j - i) / (j - i) over
        1 <= i < j <= k, which is exact in integer arithmetic.
        """
        if k < 1:
            raise ValueError("k must be positive")
        # Weyl's product per term, with its index pairs and denominator
        # built once: (i, j, j - i) over 0 <= i < j < k, and the product of
        # j - i.
        pairs = [(i, j, j - i) for i in range(k) for j in range(i + 1, k)]
        den = prod(d for _, _, d in pairs)
        pad = (0,) * k
        total = 0
        for lam, c in self._terms.items():
            if len(lam) > k:
                continue
            parts = (*lam, *pad)
            num = 1
            for i, j, d in pairs:
                num *= parts[i] - parts[j] + d
            total += c * (num // den)  # exact: a Vandermonde ratio is an integer
        return total

    def json_terms(self) -> list[dict]:
        """Terms in the wire format, as data: [{"lambda": [...], "coeff": n}, ...].

        ``json_terms_text()`` gives the same list as JSON text, without
        building the dicts; ``expand --format json`` prints those bytes.
        """
        terms = self._terms
        return [{"lambda": list(lam), "coeff": terms[lam]} for lam in self._sorted_keys()]

    @classmethod
    def from_json_terms(cls, items: Iterable[Mapping]) -> "SchurSum":
        """The sum of the wire format's terms; a malformed item is a ValueError."""
        pairs = []
        for item in items:
            if not (isinstance(item, Mapping) and "coeff" in item and isinstance(item.get("lambda"), list)):
                raise ValueError(f"a term must map 'lambda' to a list and have a 'coeff', got {item!r}")
            pairs.append((tuple(item["lambda"]), item["coeff"]))
        return cls(pairs)

    @staticmethod
    def _render(runs, as_json: bool, write) -> None:
        # Writes ``runs``, non-empty lists of nonzero terms in the order of
        # _sorted_keys, one join per run. A run is (coefficients, slots), and
        # each slot gives every term one string: its key's parts and the
        # commas between them. Between two terms of a run goes one piece,
        # made on its first lookup from a coefficient: text's closes one term
        # and opens the next with that one's coefficient, JSON's closes one
        # with its own and opens the next. A run with no slots is the constant.
        if as_json:
            # ],"coeff":c},{"lambda":[ after each term, less its last 12
            # characters after the last; a run opens with ,{"lambda":[.
            between = _Pieces(lambda c: '],"coeff":%d},{"lambda":[' % c)
        else:
            # "] + " or "] - ", then "c*" unless c is 1, then "s[" before each
            # term, less its "]" before the first; a run closes with "]".
            between = _Pieces(lambda c: ("] + " if c > 0 else "] - ") + ("%d*s[" % abs(c) if abs(c) != 1 else "s["))
        first = True
        for coefficients, slots in runs:
            if slots or as_json:
                size = len(slots) + 1
                pieces = [""] * (size * len(coefficients) + 1)
                if as_json:
                    pieces[size::size] = map(between.__getitem__, coefficients)
                    pieces[0], pieces[-1] = ',{"lambda":[', pieces[-1][:-12]
                else:
                    pieces[:-1:size] = map(between.__getitem__, coefficients)
                    pieces[0], pieces[-1] = pieces[0][1:], "]"
                for at, slot in enumerate(slots, 1):
                    pieces[at::size] = slot
            else:  # the constant term of text, which sorts last, is its magnitude alone
                c, = coefficients
                pieces = [" %s %d" % ("+" if c > 0 else "-", abs(c))]
            if first:  # JSON opens its list at the first comma; text keeps only a minus
                head, first = pieces[0], False
                pieces[0] = "[" + head[1:] if as_json else head[3:] if head[1] == "+" else "-" + head[3:]
            write("".join(pieces))
            # Freed before the next run's list is made: a sink that keeps
            # every run (a StringIO) peaked 6 MB higher at h3[h1200] as JSON.
            del pieces
        # No term at all is the zero sum; JSON closes its list.
        write(("[]" if as_json else "0") if first else "]" if as_json else "")

    def _rendered(self, as_json: bool) -> str:
        # The sorted keys as one run whose slot is each key's format piece,
        # such as "%d,%d", kept per key length, and one % over all their parts
        # fills it in. The constant, which sorts last, is a run alone.
        keys, terms, out = self._sorted_keys(), self._terms, []
        constant = [([terms[keys.pop()]], [])] if keys and not keys[-1] else []
        formats = _Pieces(lambda r: ",".join(("%d",) * r))
        run = [(list(map(terms.__getitem__, keys)), [map(formats.__getitem__, map(len, keys))])] if keys else []
        SchurSum._render(run + constant, as_json, out.append)
        return "".join(out) % tuple(chain.from_iterable(keys))

    def json_terms_text(self) -> str:
        """``json_terms()`` as compact JSON text: the bytes of
        ``json.dumps(self.json_terms(), separators=(",", ":"))``."""
        return self._rendered(True)

    def __str__(self) -> str:
        return self._rendered(False)

    def __repr__(self) -> str:
        return f"<SchurSum {self}>"


class _Pieces(dict):
    # The pieces of _render by coefficient, or of _rendered by key length:
    # a missing one is made by ``make`` and kept, so C-level lookups find each.
    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key) -> str:
        piece = self[key] = self.make(key)
        return piece


def _add_into(out: dict[tuple[int, ...], int], terms: dict[tuple[int, ...], int], sign: int) -> None:
    # out += sign * terms in place, dropping the keys that cancel.
    for lam, c in terms.items():
        merged = out.pop(lam, 0) + sign * c
        if merged:
            out[lam] = merged


def s(*parts: int) -> SchurSum:
    """The single Schur function with the given index, coefficient 1."""
    return SchurSum._wrap({Partition(parts): 1})
