"""Discrete densities on {1, ..., k} and the shape classes used everywhere else.

A density is a non-negative mass vector summing to 1.  The two shape classes
of interest are the non-increasing densities and the convex non-increasing
densities; both predicates use exact comparisons, no tolerance, so anything
claiming membership has to earn it in actual float arithmetic.

Every size, count, seed and atom index in the package passes one rule,
_check_int: an integer (a numbers.Integral, never a bool) within its
site's bounds, kept as the Python int it returns, else a TreedensError.
Array sizes stop at _MAX_SIZE; counts, spec sizes and rate inputs do not.
Every vector of numbers (masses, atom values, counts) passes one rule too,
_check_vector: what numpy reads as a 1-D array, with no text, None or
nested item, else a BadParam.  Masses and atom values are read as float64,
a bool as 0.0 or 1.0, and NaN and inf are left to the caller; counts are
read exactly as int64, and a bool, a non-integral item or one past int64
is refused.  A function taking a record (a density, sample, tree,
estimate, spec or candidate set) refuses anything else with BadParam
before it reads an attribute (_check_type).  A collection of items is
read by _check_items: tuple(v), else BadParam, for text too.  The six
records share one copy, pickle and equality protocol, _Record.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import BadParam, DomainMismatch, NegativeMass, NotNormalized

#: absolute tolerance on sum(mass) == 1 for validation.
NORMALIZATION_TOL = 1e-9

# the longest array of 8-byte items numpy can describe; past it numpy
# raises ValueError rather than MemoryError
_MAX_SIZE = int(np.iinfo(np.intp).max) // 8

UNIFORM = "uniform"
HARMONIC_ZIPF = "harmonic-zipf"
TRUNC_GEOMETRIC = "trunc-geometric"
LINEAR_DECREASING = "linear-decreasing"

FAMILY_NAMES = (UNIFORM, HARMONIC_ZIPF, TRUNC_GEOMETRIC, LINEAR_DECREASING)


class _Record:
    """The six records' protocol.  _args names the checked constructor's
    arguments, kept as attributes of those names: a pickle or copy goes
    through that constructor, and _trusted(*values) skips its checks.  A
    dataclass(eq=False) record compares its compared fields by value,
    arrays by np.array_equal, and is unhashable."""

    @classmethod
    def _trusted(cls, *values):
        rec = cls.__new__(cls)
        rec.__dict__.update(zip(cls._args, values))
        return rec

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare]
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    __hash__ = None


@dataclass(frozen=True, eq=False)
class DiscreteDensity(_Record):
    """A probability mass function on atoms 1..k.

    ``mass[i]`` is the probability of atom ``i + 1``; the atom labels are
    1-based everywhere in the public API, storage is a plain 0-based array.
    Instances are validated at construction: no NaN or infinite entries, no
    negative entries, total mass 1 within ``NORMALIZATION_TOL``.

    Normalization is decided exactly as ``abs(math.fsum(mass) - 1) <=
    NORMALIZATION_TOL`` decides it.  ``mass.sum()`` settles the clear
    cases without one Python float per atom (see ``_sum_decides``); totals
    near the bound, and every rejection, whose message quotes the fsum
    total, go to fsum.  The CDF edges are computed on first use and kept
    as ``_cdf``.  Equality compares k and mass by value, repr shows only
    them, and a density is unhashable.  Pickling and copying call the
    constructor, so a copy is checked anew and keeps no ``_cdf``.
    """

    k: int
    mass: np.ndarray
    _args = ("k", "mass")

    def __post_init__(self):
        k = _check_int("k", self.k, 1)
        m = _check_vector("mass", self.mass)
        m = m.copy() if m is self.mass else m  # own copy, frozen: threads share it unguarded
        if m.size != k:
            raise BadParam(f"mass must be a length-{k} vector")
        if not np.all(np.isfinite(m)):
            raise BadParam("mass has a NaN or infinite entry")
        if np.any(m < 0):
            raise NegativeMass("mass has a negative entry")
        with np.errstate(over="ignore"):  # an overflowing total goes to fsum
            s = float(m.sum())
        if not _sum_decides(s, k):
            try:
                total = _fsum(m)
            except OverflowError:  # the exact total is past the largest float
                total = math.inf
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise NotNormalized(f"mass sums to {total!r}, not 1")
        m.setflags(write=False)
        self.__dict__.update(k=k, mass=m)

    @cached_property
    def _cdf(self) -> np.ndarray:
        """np.cumsum(mass), read-only: every sample of the density reads it."""
        edges = np.cumsum(self.mass)
        edges.setflags(write=False)
        return edges

    def __call__(self, x: int) -> float:
        """Mass of atom x (1-based)."""
        return float(self.mass[_check_int("atom", x, 1, self.k, DomainMismatch) - 1])

    def to_json(self) -> str:
        return json.dumps({"k": self.k, "mass": self.mass.tolist()})

    def to_csv(self) -> str:
        """Rows of (index, mass), index 1-based, with a header line."""
        return _atom_csv("index,mass", self.mass)


def _atom_csv(header: str, values: np.ndarray) -> str:
    """The header line, then one row x,repr(v) per value, x from 1: the CSV
    layout of every per-atom table (densities, counts, estimates).

    values is a float64 or integer array.  An estimate is constant on long
    runs of atoms, so repr runs once per run of bit-identical values (a
    float64 is compared through its int64 view: -0.0 and 0.0 differ, and a
    NaN equals a NaN of the same bits), and ndarray.repeat spreads the
    texts over the run.  The rows are the ones repr of each item of
    values.tolist() gives.
    """
    v = np.asarray(values)
    bits = v.view(np.int64) if v.dtype == np.float64 else v
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    first = np.concatenate(([0], starts)) if v.size else starts
    texts = np.array([repr(x) for x in v[first].tolist()], dtype=object)
    # one %-format call writes every row: index x, then the text of x's run
    cells = [None] * (2 * v.size)
    cells[0::2] = range(1, v.size + 1)
    cells[1::2] = texts.repeat(np.diff(first, append=v.size)).tolist()
    return header + "\n" + ("%d,%s\n" * v.size) % tuple(cells)


_encode_str = json.encoder.encode_basestring_ascii
# json's names for the floats repr writes as nan, inf and -inf
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, without the stdlib's
    per-token generators: every container is one ",".join of its items'
    texts.  The writer takes only the exact types records hold (see
    _json_value); for anything else, a subclass such as np.float64 or a
    non-str key included, the whole object is handed to json.dumps, which
    alone decides how to write it or which error to raise.
    """
    try:
        return _json_value(obj, "\n")
    except (TypeError, ValueError, RecursionError):
        return json.dumps(obj, indent=2)


def _json_value(o, nl: str) -> str:
    """o as json.dumps(o, indent=2) writes it at the depth whose line
    break and indent is nl.

    o holds only the exact types str, int, float, None, True and False,
    and lists, tuples and str-keyed dicts of these; any other type, or a
    key that is not exactly a str, raises TypeError.
    """
    t = type(o)
    if t is str:
        return _encode_str(o)
    if t is int:
        return repr(o)
    if t is float:
        text = repr(o)
        return _FLOAT_NAMES.get(text, text)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if t is not dict and t is not list and t is not tuple:
        raise TypeError(f"no exact JSON type for {t.__name__}")
    if not o:
        return "{}" if t is dict else "[]"
    inner = nl + "  "
    if t is not dict:
        return "[" + inner + ("," + inner).join([_json_value(v, inner) for v in o]) + nl + "]"
    items = []
    for key, v in o.items():
        if type(key) is not str:
            raise TypeError(f"no exact JSON type for a {type(key).__name__} key")
        # the record's values are mostly int: no call for those
        text = repr(v) if type(v) is int else _json_value(v, inner)
        items.append(_encode_str(key) + ": " + text)
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _check_int(name: str, v, low, high=_MAX_SIZE, error=BadParam) -> int:
    """The package's one integer rule: v as the Python int it equals if v
    is an integer with low <= v <= high (None: no bound), else raise error.

    An integer is a numbers.Integral other than a bool, so numpy integers
    pass and floats, strings, None and True do not.  The type and the upper
    bound are checked first, then the lower one.  The default upper bound,
    _MAX_SIZE, makes a size past numpy's index range fail here and not
    inside numpy.  A Python int skips the Integral test, an ABC lookup many
    times dearer than the type test: the rule runs on every sample drawn.
    """
    integral = type(v) is int or (type(v) is not bool and isinstance(v, numbers.Integral))
    if not integral or (high is not None and v > high):
        bound = "" if high is None else f" of at most {high}"
        raise error(f"{name} must be an integer{bound}, got {_quote(v)}")
    if low is not None and v < low:
        raise error(f"{name} must be >= {low}, got {_quote(v)}")
    return int(v)


def _check_type(name: str, v, cls) -> None:
    """The record rule: a function taking a record refuses anything but a
    cls, with BadParam naming the type, before it reads an attribute."""
    if not isinstance(v, cls):
        raise BadParam(f"{name} must be a {cls.__name__}, got {type(v).__name__}")


def _check_items(name: str, v, what: str) -> tuple:
    """The collection rule: tuple(v), or BadParam when v is text (str,
    bytes or bytearray, never read item by item) or not iterable."""
    try:
        if isinstance(v, (str, bytes, bytearray)):
            raise TypeError
        return tuple(v)
    except TypeError:
        raise BadParam(f"{name} must be an iterable of {what}") from None


def _check_vector(name: str, v, integer: bool = False) -> np.ndarray:
    """The package's one vector rule (see the module docstring): v as a 1-D
    float64 array, v itself if it is one and else a fresh one, or when
    integer as a fresh int64 array; else BadParam."""
    if not integer and type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64:
        return v  # every per-replication tv call lands here
    refused = (str, bytes, type(None)) + ((bool, np.bool_) if integer else ())
    try:
        # integer mode reads items as Python objects, unless v is a signed
        # int array: numpy reads [True, 2] as ints, [1.0, 2**62 + 1] as floats
        native = not integer or isinstance(v, np.ndarray) and v.dtype.kind == "i"
        a = np.asarray(v, None if native else object)
        items = a.tolist() if a.dtype.kind == "O" and a.ndim == 1 else None
        bad = [x for x in items or [v] if isinstance(x, refused)]
        if bad or a.ndim != 1 or a.dtype.kind not in "biufO":  # text arrays are "U" or "S"
            raise TypeError(f"got {bad[0]!r}" if bad else f"got {a.dtype} items in shape {a.shape}")
        if not integer or items is None:
            return a.astype(np.int64 if integer else np.float64)
        a.astype(np.float64)  # numpy's refusal of a non-number or an int past the float range
        ints = [int(x) for x in items]  # exact; np.array refuses an int past int64
        if ints != items:
            raise ValueError("got a non-integral item")
        return np.array(ints, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:  # numpy's and int()'s refusals too
        what = "finite integers" if integer else "numbers"
        raise BadParam(f"{name} must be {what} in a 1-D vector: {exc}") from None


def _quote(v) -> str:
    """repr(v) for a refusal's message; an int too long for repr (Python
    limits int-to-text conversion, 4300 digits by default) is quoted by
    its digit count, so the refusal stays a one-line TreedensError."""
    try:
        return repr(v)
    except ValueError:
        a = abs(int(v))
        e = int(a.bit_length() * math.log10(2))  # a has e or e + 1 digits
        return f"{'-' if v < 0 else ''}<an integer of {e + (a >= 10**e)} digits>"


def _fsum(a: np.ndarray) -> float:
    """math.fsum of a 1-D float64 array, read through its buffer.

    The memoryview hands fsum the same floats in the same order as
    ``a.tolist()`` would, so the bits, and an OverflowError, are the same,
    but no k-element list is built: one float lives at a time.  A strided
    array is copied to a contiguous one first.
    """
    return math.fsum(memoryview(np.ascontiguousarray(a)))


def _sum_decides(s: float, k: int) -> bool:
    """True when a non-negative k-atom mass whose float sum is s surely
    passes ``abs(math.fsum(mass) - 1) <= NORMALIZATION_TOL``; False means
    only that fsum has to decide.

    In any summation order, the float sum s of k non-negative terms with
    exact total S has |s - S| <= g S, g = (k-1) u / (1 - (k-1) u), u =
    2**-53.  Where this rule can pass, k u < 1e-9, so |s - S| < k u s,
    half the relative margin k 2**-52 s; the other half covers the
    rounding of the rule's own arithmetic.  fsum returns S correctly
    rounded, within 2**-53 of S near 1, which the absolute margin 2**-52
    covers.  The relative margin alone exceeds the tolerance from k of
    about 4.5e6 on, so there fsum decides every case.
    """
    return abs(s - 1.0) + k * 2.0**-52 * s <= NORMALIZATION_TOL - 2.0**-52


def make_density(mass) -> DiscreteDensity:
    """Validate a mass vector and wrap it as a DiscreteDensity of len(mass) atoms.

    Raises BadParam on any NaN or infinite entry, NegativeMass on any
    negative entry (checked before normalization so [-0.1, 1.1] reports the
    sign problem, not the sum), NotNormalized when the total is off by more
    than 1e-9.  No silent renormalization ever.  What is not a vector of
    numbers under _check_vector raises BadParam.
    """
    try:
        k = len(mass)
    except TypeError:  # no length, so no vector: the rule says why
        k = _check_vector("mass", mass).size
    return DiscreteDensity(k=k, mass=mass)


def density_from_json(text: str) -> DiscreteDensity:
    try:
        obj = json.loads(text)
        mass, k = obj["mass"], obj["k"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadParam(f"density JSON needs k and mass fields: {exc!r}") from None
    k = _check_int("k", k, 1)
    d = make_density(mass)
    if d.k != k:
        raise DomainMismatch("k field disagrees with mass length")
    return d


def density_from_csv(text: str) -> DiscreteDensity:
    if not isinstance(text, str):
        raise BadParam(f"csv text must be a str, got {type(text).__name__}")
    rows = list(csv.reader(io.StringIO(text)))
    if rows and rows[0][:1] == ["index"]:
        rows = rows[1:]
    try:
        pairs = sorted((int(i), float(v)) for i, v in filter(None, rows))
    except ValueError as exc:  # a bad number, or a row of other than two fields
        raise BadParam(f"csv rows must be index,mass pairs of numbers: {exc}") from None
    if [i for i, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise BadParam("csv rows must cover indices 1..k exactly once")
    return make_density([v for _, v in pairs])


def is_non_increasing(f: DiscreteDensity) -> bool:
    """Exact check of f(x+1) <= f(x) for every x < k."""
    _check_type("density", f, DiscreteDensity)
    m = f.mass
    return bool(np.all(m[1:] <= m[:-1]))


def is_convex_non_increasing(f: DiscreteDensity) -> bool:
    """Exact check of monotonicity plus f(x) - 2 f(x+1) + f(x+2) >= 0.

    The second difference is evaluated as (f(x) - 2 f(x+1)) + f(x+2) so that
    dyadic-grid constructions, whose values are integers times a power of
    two, are compared exactly.
    """
    if not is_non_increasing(f):
        return False
    m = f.mass
    second = (m[:-2] - 2.0 * m[1:-1]) + m[2:]
    return bool(np.all(second >= 0))


def family(name: str, k: int, param: float | None = None) -> DiscreteDensity:
    """Build a named density family member on {1, ..., k}.

    Parameters
    ----------
    name : one of "uniform", "harmonic-zipf", "trunc-geometric",
        "linear-decreasing".
    k : support size, k >= 1.
    param : ratio in (0, 1) for "trunc-geometric", default 0.9 (the member
        the risk harness documents); rejected for the parameter-free
        families.

    All four families are non-increasing; all but some harmonic cases are
    also convex non-increasing ("harmonic-zipf" is convex since 1/x is).
    """
    k = _check_int("k", k, 1)
    if not isinstance(name, str) or name not in FAMILY_NAMES:
        raise BadParam(f"unknown family {name!r}")
    if param is not None and name != TRUNC_GEOMETRIC:
        raise BadParam(f"{name} takes no parameter")
    if name == UNIFORM:
        mass = np.full(k, 1.0 / k)
    elif name == HARMONIC_ZIPF:
        mass = 1.0 / np.arange(1, k + 1, dtype=float)
        mass /= _fsum(mass)
    elif name == TRUNC_GEOMETRIC:
        if param is None:
            param = 0.9
        if not (isinstance(param, numbers.Real) and 0.0 < param < 1.0):
            raise BadParam(f"trunc-geometric needs a ratio in (0, 1), got {param!r}")
        mass = param ** np.arange(k, dtype=float)
        mass /= _fsum(mass)
    else:  # linear-decreasing
        # mass[x] = (k + 1 - x) c 2**-q with c ~ 2**30: for k <= 2**22 every
        # value is an integer below 2**53 times 2**-q, so the second
        # differences are exactly 0 and the family is exactly convex
        total = k * (k + 1) // 2
        q = 30 + total.bit_length()
        mass = np.arange(k, 0, -1, dtype=float) * (round(2**q / total) * 2.0**-q)
    return DiscreteDensity(k=k, mass=mass)
