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
list that ``_sorted_keys`` returns. ``_render`` writes them one row at a
time with one ``%``: a format string that gives each term a piece for its
coefficient and one for its row count, such as ``" - 2*"`` and
``"s[%d,%d]"``, each built once per distinct value, filled in with the
parts of every key of the row. ``str()`` and ``json_terms_text()`` pass
the sorted keys as one row, ``expand --m 3`` the rows of h3's columns
(``_column_rows``) unsorted. ``terms()`` and ``json_terms()`` hand out
the same terms as data.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain, compress, repeat
from math import prod
from operator import add, and_, getitem, mul

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
        # _render's rows of _from_columns(n, columns), once every column is
        # checked: row a = 3n, ..., n holds the terms with first part a, in
        # which b descends as c ascends, so it is entry 3n - a - 2c of column
        # c for c from max(0, 3n - 2a) to min((3n - a) // 2, len(columns) - 1).
        SchurSum._checked_columns(n, columns)
        return map(SchurSum._column_row, repeat(3 * n), repeat(columns), range(3 * n, n - 1, -1))

    @staticmethod
    def _column_row(w: int, columns: list[list[int]], a: int):
        lo, hi = max(0, w - 2 * a), min((w - a) // 2, len(columns) - 1)
        coefficients = list(map(getitem, columns[lo:hi + 1], range(w - a - 2 * lo, w - a - 2 * hi - 1, -2)))
        keys = list(compress(zip(repeat(a), range(w - a - lo, w - a - hi - 1, -1), range(lo, hi + 1)), coefficients))
        if not lo and any(coefficients[:1]):  # the key at c = 0 drops its zero parts
            keys[0] = tuple(filter(None, keys[0]))
        return keys, list(filter(None, coefficients))

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
            for t in compress(range(size), map(and_, nums, repeat(1))):  # the first odd one
                raise AssertionError(f"Weyl product for {Partition((k3 + c - t, c + t, c))!r}, k=3 is not integral")
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
            quotient, remainder = divmod(num, den)
            if remainder:
                raise AssertionError(f"Weyl product for {lam!r}, k={k} is not integral")
            total += c * quotient
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
        return cls((tuple(item["lambda"]), item["coeff"]) for item in items)

    @staticmethod
    def _render(rows, as_json: bool, write) -> None:
        # Writes ``rows``, (keys, coefficients) lists of nonzero terms in the
        # order of _sorted_keys, which it may change, with one % per row. Term
        # by term, the format string takes a lead and a trail piece, one kept
        # per distinct coefficient and the other per distinct row count. Each
        # term starts with its separator, which the first term written drops.
        if as_json:
            # ,{"lambda":[a,b then ],"coeff":c}, and the list closes.
            coeff_at, coeff_piece = 1, lambda c: '],"coeff":%d}' % c
            rows_piece = lambda r: ',{"lambda":[' + ",".join(("%d",) * r)
        else:
            # " + " or " - ", then "c*" unless c is 1, then s[a,b]. The
            # constant term, which sorts last, is its magnitude alone.
            coeff_at, coeff_piece = 0, lambda c: (" + " if c > 0 else " - ") + ("%d*" % abs(c) if abs(c) != 1 else "")
            rows_piece = lambda r: "s[%s]" % ",".join(("%d",) * r)
        by_coeff, by_rows, first = {}, {}, True
        for keys, coefficients in rows:
            if not keys:
                continue
            tail = ""
            if not (as_json or keys[-1]):
                keys.pop()
                c = coefficients.pop()
                tail = " %s %d" % ("+" if c > 0 else "-", abs(c))
            by_coeff.update((c, coeff_piece(c)) for c in set(coefficients).difference(by_coeff))
            by_rows.update((r, rows_piece(r)) for r in set(map(len, keys)).difference(by_rows))
            # Interleaved by slice assignment, which measured faster than
            # chaining zipped pairs.
            pieces = [""] * (2 * len(keys))
            pieces[coeff_at::2] = map(by_coeff.__getitem__, coefficients)
            pieces[1 - coeff_at::2] = map(by_rows.__getitem__, map(len, keys))
            pieces.append(tail)
            if first:  # JSON opens its list at the first comma; text keeps a minus
                head, first = pieces[0], False
                pieces[0] = "[" + head[1:] if as_json else head[3:] if head[1] == "+" else "-" + head[3:]
            write("".join(pieces) % tuple(chain.from_iterable(keys)))
        # No term at all is the zero sum; JSON closes its list.
        write(("[]" if as_json else "0") if first else "]" if as_json else "")

    def _rendered(self, as_json: bool) -> str:
        keys, out = self._sorted_keys(), []  # every term, as one row
        SchurSum._render([(keys, list(map(self._terms.__getitem__, keys)))], as_json, out.append)
        return "".join(out)

    def json_terms_text(self) -> str:
        """``json_terms()`` as compact JSON text: the bytes of
        ``json.dumps(self.json_terms(), separators=(",", ":"))``."""
        return self._rendered(True)

    def __str__(self) -> str:
        return self._rendered(False)

    def __repr__(self) -> str:
        return f"<SchurSum {self}>"


def _add_into(out: dict[tuple[int, ...], int], terms: dict[tuple[int, ...], int], sign: int) -> None:
    # out += sign * terms in place, dropping the keys that cancel.
    for lam, c in terms.items():
        merged = out.pop(lam, 0) + sign * c
        if merged:
            out[lam] = merged


def s(*parts: int) -> SchurSum:
    """The single Schur function with the given index, coefficient 1."""
    return SchurSum._wrap({Partition(parts): 1})
