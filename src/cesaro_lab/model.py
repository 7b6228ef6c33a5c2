"""Shared data model: partitions, step functions, finitely supported
vectors, space descriptions, and certified numeric results.

Everything is an immutable value and every operation is pure, so the
types are safe to share across threads without coordination.  Sequence
indices start at 1 throughout, and end at MAX_INDEX = 2**53.

A finitely supported vector (TaggedVector) is stored as two columns,
the support indices and the coefficients, each one tuple: a parse
builds no object per entry, and every norm reads the column it needs
(abs_prefix_sums, vector_norm, l1_mass), as do restrict, shift and
scale.  The columns are tuples rather than arrays, so building and
norming short vectors never loads numpy; abs_prefix_sums turns them
into float arrays from _ARRAYS_FROM entries on.
``entries`` derives the (index, coefficient) pairs for the few callers
that want pairs.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

from .numerics import running_sums

# the one list/array crossover (numerics module docstring): the column
# builders abs_prefix_sums (support entries) and scalar._quadrature_prelude
# (cells after the first, read here at call time) give float arrays from
# this many on, lists below, and every kernel follows the type it gets
_ARRAYS_FROM = 12


class CesaroLabError(Exception):
    """Base class for all workbench errors."""


class UnsupportedSpace(CesaroLabError):
    """The space description has no norm rule for the given object."""


class SpaceMismatch(CesaroLabError):
    """Operands live in incompatible spaces or modes."""


class InvalidExponent(CesaroLabError):
    """Exponent outside the admissible range for the operation."""


class InvalidTolerance(CesaroLabError):
    """Nonpositive or otherwise unusable tolerance."""


class DomainError(CesaroLabError):
    """Parameter outside its mathematical domain (e.g. eps <= 0)."""


class SchemaError(CesaroLabError):
    """Malformed serialized input."""


def require_positive_finite(error: type[CesaroLabError], **values: float) -> None:
    """Raise ``error`` naming the first value that is not a positive
    finite number (nan and inf included)."""
    for name, val in values.items():
        if not (val > 0.0 and math.isfinite(val)):
            raise error(f"{name} must be positive and finite, got {val!r}")


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exponent:
    """An exponent p in [1, infinity) with its conjugate available as q."""

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not math.isfinite(p) or p < 1.0:
            raise InvalidExponent(f"exponent must satisfy 1 <= p < inf, got {self.p!r}")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Conjugate exponent with 1/p + 1/q = 1; infinite at p = 1."""
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)

    @property
    def is_one(self) -> bool:
        return self.p == 1.0


def as_exponent(p) -> Exponent:
    if isinstance(p, Exponent):
        return p
    return Exponent(float(p))


# ---------------------------------------------------------------------------
# finitely supported vectors
# ---------------------------------------------------------------------------

# the largest index or slot: every integer up to 2**53 is a double
# exactly, and the sequence norm's bracket turns the indices into floats
MAX_INDEX = 2**53


@dataclass(frozen=True, init=False, slots=True)
class TaggedVector:
    """Finitely supported sequence element as two columns: ``indices``
    (ints) and ``coeffs`` (floats), tuples of one length.

    Indices are strictly increasing integers from 1 to MAX_INDEX and no
    zero coefficient is stored; empty columns are the zero vector.  The
    constructor stores columns of exact ints and finite nonzero floats
    as given, after one loop over them that allocates nothing.  Only
    columns that fail it are walked again entry by entry
    (_checked_coeffs), which converts int (not bool) and float
    coefficients to float or names the first bad entry in a ValueError;
    it is the wire format's validator too (schemas.tagged_from_json).

    The loop costs less than one C-level pass per condition (map(type),
    map(operator.lt) over the shifted indices, map(math.isfinite) and
    ``0.0 in``) at every length: each pass pays a start-up cost that
    tells on the short vectors the suite builds by the thousand, and
    costs more per entry than the loop.

    The class has slots: an instance takes 57 bytes beside its columns,
    against 97 with an attribute dict (248 once that dict is touched).
    """

    indices: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __init__(self, indices: Iterable[int] = (), coeffs: Iterable[float] = ()) -> None:
        idx, co = tuple(indices), tuple(coeffs)
        plain, prev = len(idx) == len(co), 0
        for i, c in zip(idx, co):
            if not (type(i) is int and prev < i <= MAX_INDEX and type(c) is float
                    and c != 0.0 and math.isfinite(c)):
                plain = False
                break
            prev = i
        if not plain:
            co = _checked_coeffs(idx, co)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "coeffs", co)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "TaggedVector":
        return cls()

    @classmethod
    def basis(cls, index: int, coeff: float = 1.0) -> "TaggedVector":
        if coeff == 0.0:
            return cls()
        return cls((index,), (float(coeff),))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "TaggedVector":
        """Build from unsorted (index, coefficient) pairs; duplicate
        indices are summed in order, and a zero sum is dropped."""
        acc: dict[int, float] = {}
        for idx, coeff in pairs:
            acc[idx] = acc.get(idx, 0.0) + float(coeff)
        return cls._from_sums(acc)

    @classmethod
    def _from_sums(cls, acc: dict[int, float]) -> "TaggedVector":
        """The nonzero values of acc at their indices, in index order."""
        indices = sorted(acc)
        coeffs = list(map(acc.__getitem__, indices))
        if 0.0 in coeffs:
            indices = [i for i in indices if acc[i] != 0.0]
            coeffs = [c for c in coeffs if c != 0.0]
        return cls(indices, coeffs)

    @classmethod
    def from_dense(cls, coeffs: Sequence[float]) -> "TaggedVector":
        return cls.from_pairs(enumerate(coeffs, 1))

    # -- structure ---------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        """(index, coefficient) pairs, derived from the columns."""
        return tuple(zip(self.indices, self.coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.indices

    @property
    def min_index(self) -> int:
        if self.is_zero:
            raise ValueError("zero vector has no support")
        return self.indices[0]

    @property
    def max_index(self) -> int:
        if self.is_zero:
            raise ValueError("zero vector has no support")
        return self.indices[-1]

    @property
    def width(self) -> int:
        """Span of the support, max_index - min_index + 1 (0 for zero)."""
        if self.is_zero:
            return 0
        return self.max_index - self.min_index + 1

    # -- algebra (exact on stored floats) -----------------------------------

    def shift(self, k: int) -> "TaggedVector":
        if self.is_zero:
            return self
        if self.min_index + k < 1:
            raise ValueError("shift would push indices below 1")
        return TaggedVector(tuple(map(operator.add, self.indices, repeat(k))), self.coeffs)

    def scale(self, lam: float) -> "TaggedVector":
        lam = float(lam)
        if lam == 0.0:
            return TaggedVector()
        idx, co = self.indices, tuple(map(lam.__mul__, self.coeffs))
        if 0.0 in co:  # a product that underflows to zero is dropped, as add drops a zero sum
            idx = tuple(i for i, c in zip(idx, co) if c != 0.0)
            co = tuple(c for c in co if c != 0.0)
        return TaggedVector(idx, co)

    def add(self, other: "TaggedVector") -> "TaggedVector":
        """Coefficientwise sum, as from_pairs of both vectors' entries."""
        acc = dict(zip(self.indices, self.coeffs))  # 0.0 + c is c for a stored c
        for i, c in zip(other.indices, other.coeffs):
            acc[i] = acc.get(i, 0.0) + c
        return TaggedVector._from_sums(acc)

    def sub(self, other: "TaggedVector") -> "TaggedVector":
        return self.add(other.scale(-1.0))

    def restrict(self, max_index: int) -> "TaggedVector":
        """Entries with index <= max_index (coefficients bit-preserved)."""
        k = bisect.bisect_right(self.indices, max_index)
        return TaggedVector(self.indices[:k], self.coeffs[:k])


def _checked_coeffs(indices: tuple, coeffs: tuple) -> tuple[float, ...]:
    """The coefficients as floats, after the entry-by-entry checks of
    columns that are not plain: raises on the first offending entry,
    naming it."""
    if len(indices) != len(coeffs):
        raise ValueError(f"{len(indices)} indices but {len(coeffs)} coefficients")
    prev = 0
    clean = []
    for idx, coeff in zip(indices, coeffs):
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ValueError(f"index must be an int, got {idx!r}")
        if idx <= prev:
            raise ValueError("indices must be strictly increasing and >= 1")
        if idx > MAX_INDEX:
            raise ValueError(f"indices must be at most 2**53, past which floats skip integers "
                             f"(entry {len(clean) + 1} exceeds it)")
        if isinstance(coeff, bool) or not isinstance(coeff, (int, float)):
            raise ValueError(f"coefficient at index {idx} must be a number, got {coeff!r}")
        try:
            c = float(coeff)
        except OverflowError:
            raise ValueError(f"coefficient at index {idx} exceeds the float range") from None
        if not math.isfinite(c):
            raise ValueError(f"coefficient at index {idx} is not finite")
        if c == 0.0:
            raise ValueError(f"zero coefficient stored at index {idx}")
        clean.append(c)
        prev = idx
    return tuple(clean)


def abs_prefix_sums(v: TaggedVector):
    """(starts, prefixes): the support indices and the running sums of
    |coefficients| there, as two columns.

    Lists below _ARRAYS_FROM entries, so that the sequence norm's
    bracket runs on Python floats; 1-D float arrays from there on, read
    straight off the vector's columns and summed by running_sums' array
    path (same bits), so that every later step, the bracket included,
    is a numpy call.  The sequence norm, the Cesaro-sum norm and the
    embeddings' outer norm and block masses all read these prefix
    values.
    """
    idx, co = v.indices, v.coeffs
    if len(idx) < _ARRAYS_FROM:
        return list(idx), running_sums(list(map(abs, co)))
    import numpy as np

    return np.fromiter(idx, float, len(idx)), running_sums(np.abs(np.fromiter(co, float, len(co))))


def _scale_exponent(top: float, p: float) -> int:
    """The power of two 2**exp2 that puts top >= 0 in [1/2, 1), 0 for 0.

    Raises DomainError when top / 2**exp2 to the p-th power underflows.
    """
    if top == 0.0:
        return 0
    mantissa, exp2 = math.frexp(top)
    if mantissa ** p < sys.float_info.min:
        raise DomainError(f"max|x|**p leaves the float range at every scale for p = {p!r}")
    return exp2


def _scaled_magnitudes(mags: list[float], p: float) -> tuple[list[float], int]:
    """mags / 2**exp2 and exp2, for nonnegative finite mags, with exp2 the
    power of two that puts max(mags) in [1/2, 1) (0 for all zeros).

    Every norm takes its p-th powers so: none overflows, and the root of
    their sum lies near 1, where the rounded 1/p costs little.  Raises
    DomainError when the scaled maximum's p-th power underflows.
    """
    exp2 = _scale_exponent(max(mags), p)
    return [math.ldexp(m, -exp2) for m in mags], exp2


def _unscale(value: float, err: float, exp2: int, what: str) -> tuple[float, float]:
    """(value, err) of a norm computed on data scaled by 2**-exp2, scaled back."""
    try:
        # math.ulp(0.0) covers the rounding of both into the subnormal range
        return math.ldexp(value, exp2), math.ldexp(err, exp2) + math.ulp(0.0)
    except OverflowError:
        raise DomainError(f"the {what} norm exceeds the float range") from None


def p_norms(rows, p: float) -> list[float]:
    """(sum m**p)**(1/p) of every row of nonnegative finite magnitudes m
    (lists or tuples), in one loop over the rows.

    A row with at most one nonzero magnitude gives its largest element
    exactly (||c e_i||_p = |c|).  Any other row is scaled as in
    _scaled_magnitudes, so no p-th power overflows; raises DomainError
    when its scaled maximum's p-th power underflows or its norm leaves
    the float range.
    """
    root, ldexp, fsum = 1.0 / p, math.ldexp, math.fsum
    norms = []
    for row in rows:
        if len(row) - row.count(0.0) < 2:
            norms.append(max(row) if row else 0.0)
            continue
        exp2 = _scale_exponent(max(row), p)
        try:
            norms.append(ldexp(fsum([ldexp(m, -exp2) ** p for m in row]) ** root, exp2))
        except OverflowError:
            raise DomainError("the lp norm exceeds the float range") from None
    return norms


# ---------------------------------------------------------------------------
# space descriptions
# ---------------------------------------------------------------------------

LP = "lp"
FINITE_L1 = "finite_l1"
CESARO_SUM = "cesaro_sum"


@dataclass(frozen=True)
class SpaceSpec:
    """Description of the ambient sequence-space model.

    Variants: lp(p) for 1 <= p < inf, finite_l1(n), and a Cesaro sum
    with exponent p > 1.
    """

    kind: str
    p: float | None = None
    n: int | None = None

    def __post_init__(self) -> None:
        if self.kind == LP:
            if self.p is None or not (math.isfinite(self.p) and self.p >= 1.0):
                raise UnsupportedSpace("lp space requires 1 <= p < inf")
            object.__setattr__(self, "p", float(self.p))
        elif self.kind == FINITE_L1:
            if self.n is None or self.n < 1:
                raise UnsupportedSpace("finite_l1 requires dimension n >= 1")
        elif self.kind == CESARO_SUM:
            if self.p is None or not (math.isfinite(self.p) and self.p > 1.0):
                raise UnsupportedSpace("cesaro_sum requires p > 1")
            object.__setattr__(self, "p", float(self.p))
        else:
            raise UnsupportedSpace(f"unknown space kind {self.kind!r}")

    @classmethod
    def lp(cls, p: float) -> "SpaceSpec":
        return cls(LP, p=float(p))

    @classmethod
    def finite_l1(cls, n: int) -> "SpaceSpec":
        return cls(FINITE_L1, n=int(n))

    @classmethod
    def cesaro_sum(cls, p: float) -> "SpaceSpec":
        return cls(CESARO_SUM, p=float(p))

    @property
    def schur_flag(self) -> bool:
        """True exactly for the finite-dimensional and l1 variants, where
        weak and norm sequential convergence coincide."""
        return self.kind == FINITE_L1 or (self.kind == LP and self.p == 1.0)

    @property
    def lp_above_one(self) -> bool:
        """lp with p > 1: disjoint bounded translates are weakly null."""
        return self.kind == LP and self.p > 1.0

    def vector_norm(self, v: TaggedVector) -> float:
        """Norm of a finitely supported vector in this space (exact
        closed-form sum)."""
        if self.kind == LP:
            if self.p == 1.0:
                return l1_mass(v)
            return p_norms([list(map(abs, v.coeffs))], self.p)[0]
        if self.kind == FINITE_L1:
            if v.is_zero:
                return 0.0
            if v.max_index > self.n:
                raise SpaceMismatch(
                    f"support index {v.max_index} exceeds finite_l1 dimension {self.n}"
                )
            return l1_mass(v)
        raise UnsupportedSpace(f"no vector norm rule for space kind {self.kind!r}")

    def vector_norms(self, vectors: Iterable[TaggedVector]) -> list[float]:
        """vector_norm of every vector: one p_norms call for lp with
        p > 1 (the same bits), vector_norm one by one otherwise."""
        if self.lp_above_one:
            return p_norms([list(map(abs, v.coeffs)) for v in vectors], self.p)
        return [self.vector_norm(v) for v in vectors]


def l1_mass(v: TaggedVector) -> float:
    """Correctly rounded sum of |coefficients|; DomainError when it
    exceeds the float range."""
    try:
        return math.fsum(map(abs, v.coeffs))
    except OverflowError:
        raise DomainError("the l1 norm of the vector exceeds the float range") from None


# ---------------------------------------------------------------------------
# elements of c (used by the sharpness check only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CElement:
    """Convergent sequence with finitely many deviations from its limit.

    The value at index i is ``tail_limit + adjustments[i]`` (adjustment
    zero off the support), so the sup-norm is attained either on the
    support or in the constant tail.
    """

    adjustments: TaggedVector = TaggedVector()
    tail_limit: float = 0.0

    def sup_norm(self) -> float:
        peak = abs(self.tail_limit)
        for c in self.adjustments.coeffs:
            peak = max(peak, abs(self.tail_limit + c))
        return peak

    def sub(self, other: "CElement") -> "CElement":
        return CElement(self.adjustments.sub(other.adjustments), self.tail_limit - other.tail_limit)


# ---------------------------------------------------------------------------
# partitions and step functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints 0 = t_0 < t_1 < ... < t_K = 1."""

    breakpoints: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(map(float, self.breakpoints))
        if len(bps) < 2:
            raise ValueError("partition needs at least breakpoints 0 and 1")
        if bps[0] != 0.0 or bps[-1] != 1.0:
            raise ValueError("partition must start at exactly 0 and end at exactly 1")
        if not all(map(operator.lt, bps, bps[1:])):  # false at a nan as well
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)

    @classmethod
    def unit(cls) -> "Partition":
        return cls((0.0, 1.0))

    @classmethod
    def uniform(cls, cells: int) -> "Partition":
        if cells < 1:
            raise ValueError("need at least one cell")
        return cls(tuple(k / cells for k in range(cells + 1)))

    @property
    def cell_count(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def cells(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in self.cells)

    def merge(self, other: "Partition") -> "Partition":
        """The common refinement: both breakpoint lists merged in one
        linear pass, a point of both taken once."""
        ours, theirs = self.breakpoints, other.breakpoints
        pts = [ours[0]]
        i = j = 1
        while pts[-1] != 1.0:  # both lists end at 1.0
            a, b = ours[i], theirs[j]
            if a <= b:
                pts.append(a)
                i += 1
                if a == b:
                    j += 1
            else:
                pts.append(b)
                j += 1
        return Partition(tuple(pts))


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on a partition of [0, 1].

    ``values[k]`` is the value on the half-open cell (t_k, t_{k+1}];
    scalar mode stores floats, vector mode stores TaggedVectors that all
    live in the single attached SpaceSpec.
    """

    partition: Partition
    values: tuple
    space: SpaceSpec | None = None

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if len(vals) != self.partition.cell_count:
            raise ValueError("one value per cell required")
        if self.space is None:
            vals = tuple(map(float, vals))
            if not all(map(math.isfinite, vals)):
                raise ValueError("cell values must be finite")
        else:
            for v in vals:
                if not isinstance(v, TaggedVector):
                    raise SpaceMismatch("vector mode requires TaggedVector cell values")
        object.__setattr__(self, "values", vals)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, space: SpaceSpec | None = None) -> "StepFunction":
        return cls(Partition.unit(), (value,), space)

    @classmethod
    def indicator(cls, a: float, b: float, value: float = 1.0) -> "StepFunction":
        """Scalar step equal to ``value`` on (a, b] and 0 elsewhere."""
        if not 0.0 <= a < b <= 1.0:
            raise ValueError("need 0 <= a < b <= 1")
        pts = sorted({0.0, a, b, 1.0})
        part = Partition(tuple(pts))
        vals = tuple(value if (lo >= a and hi <= b) else 0.0 for lo, hi in part.cells)
        return cls(part, vals)

    # -- structure ---------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.space is None

    def is_zero(self) -> bool:
        if self.is_scalar:
            return all(v == 0.0 for v in self.values)
        return all(v.is_zero for v in self.values)

    def max_support_index(self) -> int:
        """Largest sequence index used by any cell (0 if identically zero)."""
        if self.is_scalar:
            raise SpaceMismatch("support index applies to vector mode")
        return max((v.max_index for v in self.values if not v.is_zero), default=0)

    def on_partition(self, refined: Partition) -> "StepFunction":
        """Re-express on a refinement (values repeated per sub-cell), in
        one linear pass over both breakpoint lists."""
        own, values = self.partition.breakpoints, self.values
        vals = []
        k = 1  # the refined cell ending at t lies in the own cell k - 1
        for t in refined.breakpoints[1:]:
            vals.append(values[k - 1])
            if t >= own[k]:
                if t != own[k]:
                    raise ValueError("target partition must refine the current one")
                k += 1
        return StepFunction(refined, tuple(vals), self.space)


def common_refinement(f: StepFunction, g: StepFunction) -> tuple[StepFunction, StepFunction]:
    part = f.partition.merge(g.partition)
    return f.on_partition(part), g.on_partition(part)


def scale(f: StepFunction, lam: float) -> StepFunction:
    """Pointwise scaling; exact, partition preserved."""
    lam = float(lam)
    if f.is_scalar:
        return StepFunction(f.partition, tuple(v * lam for v in f.values))
    return StepFunction(f.partition, tuple(v.scale(lam) for v in f.values), f.space)


def add(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise sum on the common refinement; exact."""
    if f.is_scalar != g.is_scalar:
        raise SpaceMismatch("cannot add scalar and vector step functions")
    if not f.is_scalar and f.space != g.space:
        raise SpaceMismatch("vector step functions live in different spaces")
    fr, gr = common_refinement(f, g)
    if f.is_scalar:
        vals = tuple(a + b for a, b in zip(fr.values, gr.values))
        return StepFunction(fr.partition, vals)
    vals = tuple(a.add(b) for a, b in zip(fr.values, gr.values))
    return StepFunction(fr.partition, vals, f.space)


def pointwise_norm(f: StepFunction) -> StepFunction:
    """Scalar step function t -> ||f(t)|| on the same partition; exact."""
    if f.is_scalar:
        raise SpaceMismatch("pointwise_norm expects a vector-mode step function")
    return StepFunction(f.partition, tuple(f.space.vector_norms(f.values)))


# ---------------------------------------------------------------------------
# certified results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormResult:
    """A computed norm with a certified absolute error bound.

    The true value lies in [value - error_bound, value + error_bound].
    ``exact`` marks closed-form evaluations whose only error is
    floating-point rounding.
    """

    value: float
    error_bound: float
    exact: bool = False
    warning: str | None = None

    def __post_init__(self) -> None:
        value, err = self.value, self.error_bound
        if type(value) is not float or type(err) is not float:  # ints and numpy scalars
            value, err = float(value), float(err)
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "error_bound", err)
        # false on nan as well
        if not 0.0 <= value < math.inf:
            raise ValueError("norm value must be finite and nonnegative")
        if not 0.0 <= err < math.inf:
            raise ValueError("error bound must be finite and nonnegative")

    @property
    def lower(self) -> float:
        return max(self.value - self.error_bound, 0.0)

    @property
    def upper(self) -> float:
        return self.value + self.error_bound


@dataclass
class CheckReport:
    """Structured pass/fail record carrying every named intermediate."""

    check: str
    holds: bool
    quantities: dict[str, float] = field(default_factory=dict)
    mode: str = "exact"  # "exact" | "quadrature" | "windowed"
    notes: str = ""

    def __post_init__(self) -> None:
        # normalize away numpy scalar types so reports render cleanly
        self.holds = bool(self.holds)
        self.quantities = {k: float(v) for k, v in self.quantities.items()}

    @staticmethod
    def warnings_of(**norms: NormResult) -> str:
        """notes for a check that compares these norms: the warning of
        each norm that carries one, after its name, joined by " | " (a
        warning may hold a semicolon); empty when none warns."""
        return " | ".join(f"{name}: {norm.warning}" for name, norm in norms.items() if norm.warning)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "holds": self.holds,
            "mode": self.mode,
            "notes": self.notes,
            "quantities": dict(self.quantities),
        }
