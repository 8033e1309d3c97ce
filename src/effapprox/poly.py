"""Sparse multivariate polynomials with float coefficients.

Terms are keyed by exponent tuples.  Coefficients that are exactly zero are
never stored: every operation that sums terms does so in ``_summed``, which
drops a sum that reaches 0.0.  Approximate cleanup is a separate explicit
operation so that solver round-off can be stripped without surprising exact
arithmetic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

Exponent = tuple[int, ...]

# Float64 elements per rows x terms buffer of Polynomial.eval_many (512 KiB):
# a piece has EVAL_BUDGET // terms rows, so the working set stays in cache
# whatever the number of points.  Each row is reduced on its own, so any
# piece size gives results bitwise equal to one unchunked call.
EVAL_BUDGET = 2**16


def _power_table(x: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """``x[:, None] ** distinct`` bit for bit, for exponents in ascending
    order.  The columns of exponents 0 and 1 are filled with 1 and x, which
    is what pow returns for them, without a pow call.  Whenever the table
    has two columns or more, pow still gets two or more: numpy computes a
    lone column of exponent 2 as x * x, which can differ in the last bit
    from the pow of a wider table."""
    table = np.empty((len(x), len(distinct)))
    low = int(np.searchsorted(distinct, 2.0))  # the columns of exponents 0 and 1
    cut = low if low == len(distinct) else min(low, max(len(distinct) - 2, 0))
    for c, e in enumerate(distinct[:cut].tolist()):
        table[:, c] = x if e else 1.0
    np.power(x[:, None], distinct[cut:], out=table[:, cut:])
    return table


def _check_exponent(alpha, dim: int) -> Exponent:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"exponent {alpha} has a negative entry")
    return alpha


def _summed(pairs) -> dict[Exponent, float]:
    """Sum the coefficients of equal exponents over (exponent, coefficient)
    pairs, in the order given.  A sum that reaches exactly 0.0 is dropped, so
    no stored coefficient is zero; a later pair may bring the exponent back."""
    out: dict[Exponent, float] = {}
    for alpha, c in pairs:
        acc = out.get(alpha, 0.0) + c
        if acc != 0.0:
            out[alpha] = acc
        elif alpha in out:
            del out[alpha]
    return out


class Polynomial:
    """Polynomial in ``dim`` variables stored as {exponent: coefficient}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = int(dim)
        if isinstance(terms, dict):
            terms = terms.items()
        self.terms = _summed((_check_exponent(alpha, self.dim), float(c))
                             for alpha, c in terms or ())

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, dim: int, terms: dict) -> "Polynomial":
        """Hold ``terms`` as given: exponents of length ``dim``, no zero
        coefficient."""
        res = object.__new__(cls)
        res.dim = dim
        res.terms = terms
        return res

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: float) -> "Polynomial":
        return cls(dim, {(0,) * dim: float(value)})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dimension {dim}")
        alpha = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {alpha: 1.0})

    @classmethod
    def monomial(cls, dim: int, alpha, coefficient: float = 1.0) -> "Polynomial":
        return cls(dim, {tuple(alpha): float(coefficient)})

    @classmethod
    def from_terms(cls, dim: int, term_list) -> "Polynomial":
        """Build from ``[[coefficient, [a_1, ..., a_dim]], ...]``."""
        return cls(dim, [(tuple(alpha), c) for c, alpha in term_list])

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, float]]:
        return [(a, self.terms[a]) for a in sorted(self.terms, key=grlex_key)]

    # -- arithmetic --------------------------------------------------------

    def _require_same_space(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return Polynomial._wrap(self.dim, _summed(pairs))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial._wrap(self.dim, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = float(other)
            if other == 0.0:  # zero even where a coefficient is infinite
                return Polynomial.zero(self.dim)
            pairs = ((a, c * other) for a, c in self.terms.items())
        elif isinstance(other, Polynomial):
            self._require_same_space(other)
            pairs = ((tuple(x + y for x, y in zip(a, b)), ca * cb)
                     for a, ca in self.terms.items() for b, cb in other.terms.items())
        else:
            return NotImplemented
        return Polynomial._wrap(self.dim, _summed(pairs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        res = Polynomial.constant(self.dim, 1.0)
        for _ in range(exponent):
            res = res * self
        return res

    # -- evaluation --------------------------------------------------------

    def __call__(self, point) -> float:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise ValueError(f"point has shape {point.shape}, expected ({self.dim},)")
        return float(self.eval_many(point[None, :])[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, dim) array of points, returning shape (N,).

        Points go in pieces of EVAL_BUDGET // terms rows.  Per piece, x_i ** a
        is computed once for each distinct exponent a of variable i, by
        ``_power_table``; a term's monomial multiplies its entries of those
        power tables across the variables, in variable order: ``np.take``
        gathers variable 0 into a rows x terms product buffer and each later
        variable into a gather buffer that multiplies it in place.  The two
        buffers are allocated once per call, so a call needs about
        2 * EVAL_BUDGET floats beside its output for any N.  The sum over
        terms is numpy's, not BLAS's: a BLAS matrix-vector product rounds a
        row differently by row count and thread count, so a point would get
        another value alone (``__call__``) than among others.  An overflow
        gives inf or NaN, with no warning.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"points must have shape (N, {self.dim})")
        if not self.terms or not self.dim:
            return np.full(points.shape[0], self.terms.get((), 0.0))
        items = self.sorted_terms()
        expo = np.array([a for a, _ in items], dtype=float)
        coef = np.array([c for _, c in items])
        # per variable: its distinct exponents, and each term's index into them
        powers = [np.unique(e, return_inverse=True) for e in expo.T]
        n = points.shape[0]
        rows = max(1, min(EVAL_BUDGET // len(items), n))
        mono = np.empty((rows, len(items)))
        gathered = np.empty_like(mono)
        out = np.empty(n)
        for s in range(0, n, rows):
            chunk = points[s : s + rows]
            m, g = mono[: len(chunk)], gathered[: len(chunk)]
            with np.errstate(over="ignore", invalid="ignore"):  # the callers test for inf, NaN
                for i, (x, (distinct, term)) in enumerate(zip(chunk.T, powers)):
                    np.take(_power_table(x, distinct), term, axis=1, out=g if i else m)
                    if i:
                        m *= g
                out[s : s + len(chunk)] = np.einsum("ij,j->i", m, coef)
        return out

    # -- structural maps ---------------------------------------------------

    def embed(self, variable_map, target_dim: int) -> "Polynomial":
        """Reinterpret in a larger ring, sending variable i to variable_map[i]."""
        variable_map = tuple(int(j) for j in variable_map)
        if len(variable_map) != self.dim:
            raise ValueError("variable_map must list a target index per variable")
        if len(set(variable_map)) != len(variable_map):
            raise ValueError("variable_map must be injective")
        if any(not 0 <= j < target_dim for j in variable_map):
            raise ValueError("variable_map entry out of range for target dimension")
        out: dict[Exponent, float] = {}
        for alpha, c in self.terms.items():
            beta = [0] * target_dim
            for i, a in enumerate(alpha):
                beta[variable_map[i]] = a
            out[tuple(beta)] = c
        return Polynomial._wrap(target_dim, out)

    def compose_affine(self, shift, scale) -> "Polynomial":
        """Substitute x_i -> shift_i + scale_i * x_i."""
        shift = np.asarray(shift, dtype=float)
        scale = np.asarray(scale, dtype=float)
        if shift.shape != (self.dim,) or scale.shape != (self.dim,):
            raise ValueError("shift and scale must each have one entry per variable")

        def expanded():
            for alpha, c in self.sorted_terms():
                # Expand prod_i (shift_i + scale_i x_i)^alpha_i by binomials:
                # each combination of powers is one exponent beta.
                per_var = [
                    [(j, math.comb(a, j) * shift[i] ** (a - j) * scale[i] ** j)
                     for j in range(a + 1)]
                    for i, a in enumerate(alpha)
                ]
                for combo in itertools.product(*per_var):
                    w = c
                    for _, factor in combo:
                        w *= factor
                    yield tuple(j for j, _ in combo), float(w)

        return Polynomial._wrap(self.dim, _summed(expanded()))

    def cleanup(self, tol: float = 1e-12) -> "Polynomial":
        """Drop coefficients with absolute value at most ``tol``."""
        kept = {a: c for a, c in self.terms.items() if abs(c) > tol}
        return Polynomial._wrap(self.dim, kept)

    def partial(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.dim:
            raise ValueError(f"variable index {index} out of range")
        pairs = (
            (alpha[:index] + (alpha[index] - 1,) + alpha[index + 1 :], c * alpha[index])
            for alpha, c in self.terms.items()
            if alpha[index]
        )
        return Polynomial._wrap(self.dim, _summed(pairs))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.dim}, 0)"
        bits = []
        for alpha, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a
            )
            bits.append(f"{c:g}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.dim}, {' + '.join(bits)})"


def grlex_key(alpha: Exponent):
    """Sort key for graded lexicographic monomial order."""
    return (sum(alpha), alpha)


def monomials_up_to(dim: int, degree: int) -> list[Exponent]:
    """Exponents of all monomials of total degree <= degree, graded lex order."""
    if dim < 0 or degree < 0:
        raise ValueError("dimension and degree must be nonnegative")
    if dim == 0:
        return [()]
    out: list[Exponent] = []
    for total in range(degree + 1):
        out.extend(_compositions(total, dim))
    return out


def _compositions(total: int, dim: int) -> list[Exponent]:
    """All exponents with given total degree, lexicographically increasing."""
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, dim - 1):
            out.append((first,) + rest)
    return out
