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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import add

from .partition import Partition


def ssyt_count(lam: tuple[int, ...], k: int) -> int:
    """Number of semistandard tableaux of shape ``lam`` with entries <= k.

    Equals the Schur polynomial s_lam evaluated at k ones. Computed by the
    Weyl product formula, prod_{i<j} (lam_i - lam_j + j - i) / (j - i)
    over 1 <= i < j <= k, which is exact in integer arithmetic.
    """
    if len(lam) > k:
        return 0
    parts = (*lam, *(0,) * (k - len(lam)))
    num = 1
    den = 1
    for i in range(k):
        for j in range(i + 1, k):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    quotient, remainder = divmod(num, den)
    if remainder:
        raise AssertionError(f"Weyl product for {lam!r}, k={k} is not integral")
    return quotient


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

    def terms(self) -> list[tuple[Partition, int]]:
        """Terms as (partition, coefficient) pairs, descending lex order."""
        return [(Partition._unchecked(lam), c) for lam, c in sorted(self._terms.items(), reverse=True)]

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

    def max_rows(self) -> int:
        """The largest number of rows of a shape in the sum; 0 for the zero sum."""
        return max(map(len, self._terms), default=0)

    def eval_at_ones(self, k: int) -> int:
        """Exact value after substituting 1 for each of k variables."""
        if k < 1:
            raise ValueError("k must be positive")
        return sum(c * ssyt_count(lam, k) for lam, c in self._terms.items())

    def json_terms(self) -> list[dict]:
        """Terms in the wire format: [{"lambda": [...], "coeff": n}, ...]."""
        return [{"lambda": list(lam), "coeff": c} for lam, c in sorted(self._terms.items(), reverse=True)]

    @classmethod
    def from_json_terms(cls, items: Iterable[Mapping]) -> "SchurSum":
        return cls((tuple(item["lambda"]), item["coeff"]) for item in items)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for lam, c in sorted(self._terms.items(), reverse=True):
            magnitude = abs(c)
            if lam:
                body = "s[%s]" % ",".join(map(str, lam))
                text = body if magnitude == 1 else f"{magnitude}*{body}"
            else:
                text = str(magnitude)
            if not rendered:
                rendered.append(text if c > 0 else "-" + text)
            else:
                rendered.append(("+ " if c > 0 else "- ") + text)
        return " ".join(rendered)

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
