"""Discrete densities on {1, ..., k} and the shape classes used everywhere else.

A density is a non-negative mass vector summing to 1.  The two shape classes
of interest are the non-increasing densities and the convex non-increasing
densities; both predicates use exact comparisons, no tolerance, so anything
claiming membership has to earn it in actual float arithmetic.

Every size, count, seed and atom index in the package passes one rule,
_check_int: an integer (a numbers.Integral, never a bool) within its
site's bounds, or the site's TreedensError.  A size that makes an array
stops at _MAX_SIZE; sample counts, spec sizes and rate inputs do not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DiscreteDensity:
    """A probability mass function on atoms 1..k.

    ``mass[i]`` is the probability of atom ``i + 1``; the atom labels are
    1-based everywhere in the public API, storage is a plain 0-based array.
    Instances are validated at construction: no NaN or infinite entries, no
    negative entries, total mass 1 within ``NORMALIZATION_TOL``.

    Normalization is decided exactly as ``abs(math.fsum(mass) - 1) <=
    NORMALIZATION_TOL`` decides it.  ``mass.sum()`` settles the clear
    cases without one Python float per atom (see ``_sum_decides``); totals
    near the bound, and every rejection, whose message quotes the fsum
    total, go to fsum.
    """

    k: int
    mass: np.ndarray

    def __post_init__(self):
        _check_int("k", self.k, 1)
        # own copy, frozen: instances are shared across threads unguarded
        try:
            m = np.array(self.mass, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadParam(f"mass must be a vector of numbers: {exc}") from None
        if m.shape != (self.k,):
            raise BadParam(f"mass must be a length-{self.k} vector")
        if not np.all(np.isfinite(m)):
            raise BadParam("mass has a NaN or infinite entry")
        if np.any(m < 0):
            raise NegativeMass("mass has a negative entry")
        with np.errstate(over="ignore"):  # an overflowing total goes to fsum
            s = float(m.sum())
        if not _sum_decides(s, self.k):
            try:
                total = _fsum(m)
            except OverflowError:  # the exact total is past the largest float
                total = math.inf
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise NotNormalized(f"mass sums to {total!r}, not 1")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    def __call__(self, x: int) -> float:
        """Mass of atom x (1-based)."""
        _check_int("atom", x, 1, self.k, DomainMismatch)
        return float(self.mass[x - 1])

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


def _check_int(name: str, v, low, high=_MAX_SIZE, error=BadParam) -> None:
    """The package's one integer rule: raise error unless v is an integer
    with low <= v <= high, a bound of None being no bound.

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
        raise error(f"{name} must be an integer{bound}, got {v!r}")
    if low is not None and v < low:
        raise error(f"{name} must be >= {low}, got {v!r}")


def _fsum(a: np.ndarray) -> float:
    """math.fsum of a 1-D array, read through its float64 buffer.

    The memoryview hands fsum the same floats in the same order as
    ``a.tolist()`` would, so the bits, and an OverflowError, are the same,
    but no k-element list is built: one float lives at a time.  A strided
    array is copied to a contiguous one first; an int or object array is
    converted to float64 first, each item rounded as fsum rounds it.
    """
    return math.fsum(memoryview(np.ascontiguousarray(a, dtype=float)))


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
    """Validate a mass sequence and wrap it as a DiscreteDensity.

    Raises BadParam on any NaN or infinite entry, NegativeMass on any
    negative entry (checked before normalization so [-0.1, 1.1] reports the
    sign problem, not the sum), NotNormalized when the total is off by more
    than 1e-9.  No silent renormalization ever.  A scalar, a string, None
    or anything else that is not a sequence of numbers raises BadParam.

    An ndarray is passed on as it is: DiscreteDensity's one conversion to
    its own float array gives the bits that converting element by element
    gives, without building a list.
    """
    if isinstance(mass, (str, bytes)):
        raise BadParam(f"mass must be a sequence of numbers, not {type(mass).__name__}")
    try:
        arr = mass if isinstance(mass, np.ndarray) else list(mass)
        k = len(arr)  # a 0-d array has no len
    except TypeError as exc:
        raise BadParam(f"mass must be a sequence of numbers: {exc}") from None
    return DiscreteDensity(k=k, mass=arr)


def density_from_json(text: str) -> DiscreteDensity:
    try:
        obj = json.loads(text)
        mass, k = obj["mass"], obj["k"]
    except (ValueError, KeyError, TypeError) as exc:
        raise BadParam(f"density JSON needs k and mass fields: {exc!r}") from None
    _check_int("k", k, 1)
    d = make_density(mass)
    if d.k != k:
        raise DomainMismatch("k field disagrees with mass length")
    return d


def density_from_csv(text: str) -> DiscreteDensity:
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
    if f.k < 3:
        return True
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
    _check_int("k", k, 1)
    if name == UNIFORM:
        if param is not None:
            raise BadParam("uniform takes no parameter")
        mass = np.full(k, 1.0 / k)
    elif name == HARMONIC_ZIPF:
        if param is not None:
            raise BadParam("harmonic-zipf takes no parameter")
        mass = 1.0 / np.arange(1, k + 1, dtype=float)
        mass /= _fsum(mass)
    elif name == TRUNC_GEOMETRIC:
        if param is None:
            param = 0.9
        if not (isinstance(param, numbers.Real) and 0.0 < param < 1.0):
            raise BadParam(f"trunc-geometric needs a ratio in (0, 1), got {param!r}")
        mass = param ** np.arange(k, dtype=float)
        mass /= _fsum(mass)
    elif name == LINEAR_DECREASING:
        if param is not None:
            raise BadParam("linear-decreasing takes no parameter")
        # mass[x] = (k + 1 - x) c 2**-q with c ~ 2**30: for k <= 2**22 every
        # value is an integer below 2**53 times 2**-q, so the second
        # differences are exactly 0 and the family is exactly convex
        total = k * (k + 1) // 2
        q = 30 + total.bit_length()
        mass = np.arange(k, 0, -1, dtype=float) * (round(2**q / total) * 2.0**-q)
    else:
        raise BadParam(f"unknown family {name!r}")
    return DiscreteDensity(k=k, mass=mass)
