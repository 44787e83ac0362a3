import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import treedens.densities as densities
from oracles import ref_atom_csv, ref_density_to_csv, ref_family_mass
from treedens import (
    FAMILY_NAMES,
    NORMALIZATION_TOL,
    DiscreteDensity,
    HypercubeSpec,
    Regime,
    NegativeMass,
    NotNormalized,
    BadParam,
    assouad_default_params,
    assouad_density,
    density_from_csv,
    density_from_json,
    family,
    is_convex_non_increasing,
    is_non_increasing,
    make_density,
)


def test_point_mass():
    f = make_density([1.0])
    assert f.k == 1
    assert f(1) == 1.0


def test_two_atom():
    f = make_density([0.5, 0.5])
    assert f.k == 2


def test_not_normalized():
    with pytest.raises(NotNormalized):
        make_density([0.5, 0.6])


def test_total_past_the_largest_float_is_not_normalized():
    with pytest.raises(NotNormalized, match="^mass sums to inf, not 1$"):
        make_density([1e308, 1e308, 0.0])


def test_negative_mass_wins_over_normalization():
    # both defects present: the sign check must fire first
    with pytest.raises(NegativeMass):
        make_density([1.5, -0.5])


def test_normalization_tolerance():
    make_density([0.5, 0.5 + 5e-10])  # inside 1e-9
    with pytest.raises(NotNormalized):
        make_density([0.5, 0.5 + 5e-9])


@pytest.mark.parametrize(
    "mass", [[float("nan"), 1.0], [0.5, float("nan"), 0.5], [float("inf"), 0.0], [-float("inf"), 1.0]]
)
def test_non_finite_mass_rejected(mass):
    with pytest.raises(BadParam):
        make_density(mass)


def test_empty_mass_rejected():
    with pytest.raises(BadParam):
        make_density([])


def test_monotone_predicate():
    assert is_non_increasing(family("uniform", 4))
    assert is_non_increasing(make_density([0.5, 0.3, 0.2]))
    assert not is_non_increasing(make_density([0.3, 0.5, 0.2]))


def test_convex_predicate():
    assert is_convex_non_increasing(make_density([0.5, 0.3, 0.2]))
    assert is_convex_non_increasing(make_density([0.5, 0.25, 0.25]))
    assert not is_convex_non_increasing(make_density([0.4, 0.35, 0.25]))
    # fewer than 3 atoms: no second difference exists to violate
    assert is_convex_non_increasing(make_density([0.5, 0.5]))


def test_predicates_are_exact_not_tolerant():
    eps = 1e-15
    base = 1.0 / 3.0
    m = np.array([base, base + eps, base - eps])
    m = m / m.sum()
    assert not is_non_increasing(make_density(m))


def test_uniform_family():
    f = family("uniform", 4)
    assert np.array_equal(f.mass, np.full(4, 0.25))


def test_harmonic_zipf_k2():
    f = family("harmonic-zipf", 2)
    assert f.mass == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-15)


def test_harmonic_zipf_64_convex():
    assert is_convex_non_increasing(family("harmonic-zipf", 64))


def test_linear_decreasing_is_exactly_convex():
    # the family's mass sits on a dyadic grid, so its second differences
    # are exactly zero rather than rounding noise either side of it
    for k in [*range(1, 300), 1000, 4096, 65536, 2**20]:
        assert is_convex_non_increasing(family("linear-decreasing", k)), k


def test_all_families_valid_and_monotone():
    for name in FAMILY_NAMES:
        f = family(name, 17)
        assert f.k == 17
        assert is_non_increasing(f), name


def test_trunc_geometric_param():
    f = family("trunc-geometric", 8, 0.5)
    assert f(1) / f(2) == pytest.approx(2.0)


def test_family_rejects_unknown():
    with pytest.raises(BadParam):
        family("no-such-family", 4)
    with pytest.raises(BadParam, match="unknown family"):
        family("no-such-family", 4, 0.5)


@pytest.mark.parametrize("name", ["uniform", "harmonic-zipf", "linear-decreasing"])
def test_parameter_free_families_reject_a_parameter(name):
    with pytest.raises(BadParam, match=f"^{name} takes no parameter$"):
        family(name, 4, 0.5)


def test_call_bounds():
    f = family("uniform", 4)
    with pytest.raises(Exception):
        f(0)
    with pytest.raises(Exception):
        f(5)


def test_json_roundtrip():
    f = family("harmonic-zipf", 8)
    g = density_from_json(f.to_json())
    assert g.k == f.k
    assert np.array_equal(g.mass, f.mass)
    payload = json.loads(f.to_json())
    assert set(payload) == {"k", "mass"}


def test_csv_roundtrip():
    f = family("linear-decreasing", 5)
    g = density_from_csv(f.to_csv())
    assert np.array_equal(g.mass, f.mass)
    assert f.to_csv().splitlines()[0] == "index,mass"


@pytest.mark.parametrize(
    "read, text",
    [
        (density_from_json, "{}"),  # was KeyError
        (density_from_json, "x"),  # was JSONDecodeError
        (density_from_csv, "index,mass\n1,a\n"),  # was ValueError
        (density_from_csv, "index,mass\n1\n"),  # was IndexError
        (density_from_csv, "index,mass\n1,0.5,9\n2,0.5\n"),  # the 9 was dropped
    ],
)
def test_malformed_text_is_rejected(read, text):
    with pytest.raises(BadParam):
        read(text)


def test_trunc_geometric_rejects_a_ratio_that_is_not_a_number():
    # a str ratio was a bare TypeError from the range comparison
    with pytest.raises(BadParam, match="ratio in"):
        family("trunc-geometric", 5, "0.5")


def test_mass_is_immutable():
    f = family("uniform", 3)
    with pytest.raises(ValueError):
        f.mass[0] = 0.9


# --- normalization is decided as fsum decides it -----------------------------


def _fsum_verdict(m: np.ndarray):
    """None when fsum accepts the mass, else the NotNormalized message."""
    total = math.fsum(m.tolist())
    return None if abs(total - 1.0) <= NORMALIZATION_TOL else f"mass sums to {total!r}, not 1"


def _check_as_fsum(m: np.ndarray) -> None:
    want = _fsum_verdict(m)
    if want is None:
        assert np.array_equal(DiscreteDensity(k=m.shape[0], mass=m).mass, m)
    else:
        with pytest.raises(NotNormalized) as err:
            DiscreteDensity(k=m.shape[0], mass=m)
        assert str(err.value) == want


@st.composite
def _mass_near_bound(draw):
    """Non-negative vectors with zeros, subnormals and a wide exponent
    spread, their exact total put a few ulps either side of 1 +- tol, at
    1, or far from 1, by setting the largest atom."""
    k = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0, 8, 60, 400, 1100]))
    m = rng.random(k) * 2.0 ** -rng.integers(0, spread + 1, size=k).astype(float)
    m[rng.random(k) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    subnormal = rng.random(k) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    m[subnormal] = rng.integers(1, 2**40, size=int(subnormal.sum())) * 5e-324
    j = int(np.argmax(m))
    m[j] = max(m[j], 0.25)
    m /= math.fsum(m.tolist())
    centre = draw(st.sampled_from([
        1 + Fraction(NORMALIZATION_TOL), 1 - Fraction(NORMALIZATION_TOL), Fraction(1),
        Fraction(1 + 1e-6), Fraction(1 - 1e-6), Fraction(3, 2),
    ]))
    target = centre + draw(st.integers(-6, 6)) * Fraction(2) ** -53
    rest = sum(Fraction(v) for i, v in enumerate(m.tolist()) if i != j)
    m[j] = float(target - rest)
    assume(m[j] >= 0.0)
    return m


@settings(max_examples=300, deadline=None)
@given(m=_mass_near_bound())
def test_normalization_is_decided_as_fsum_decides(m):
    _check_as_fsum(m)


def _largest_accepted() -> float:
    x = 1.0 + NORMALIZATION_TOL
    while x - 1.0 > NORMALIZATION_TOL:
        x = math.nextafter(x, 0.0)
    return x


def test_float_sum_inside_but_fsum_outside():
    # x is the largest double fsum accepts; the two tiny atoms vanish in a
    # left-to-right float sum but push the correctly rounded total past x
    x = _largest_accepted()
    t = 0.375 * (math.nextafter(x, 2.0) - x)
    m = np.array([x, t, t])
    assert abs(float(m.sum()) - 1.0) <= NORMALIZATION_TOL
    assert _fsum_verdict(m) is not None
    _check_as_fsum(m)
    _check_as_fsum(np.array([x]))


def test_sum_shortcut_margin_grows_with_k(monkeypatch):
    decides = densities._sum_decides
    assert decides(1.0, 1) and decides(1.0, 4_000_000)
    assert not decides(1.0, 4_600_000)
    assert decides(1.0 + 5e-10, 10) and not decides(1.0 + 5e-10, 3_000_000)
    assert not decides(1.0 + NORMALIZATION_TOL, 1) and not decides(1.0 - NORMALIZATION_TOL, 1)

    calls = []
    fsum = densities._fsum
    monkeypatch.setattr(densities, "_fsum", lambda a: calls.append(a.shape[0]) or fsum(a))
    make_density(np.full(1000, 1e-3))
    assert calls == []
    make_density([1.0 + 0.9 * NORMALIZATION_TOL])
    assert calls == []
    make_density([_largest_accepted()])
    with pytest.raises(NotNormalized):
        make_density([0.5, 0.6])
    assert calls == [1, 2]


_fsum_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 8.98846567431158e307]),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_fsum_floats, max_size=40),
    start=st.integers(0, 3),
    step=st.sampled_from([1, 1, 2, 3, -1]),
)
def test_fsum_is_math_fsum_of_the_list(values, start, step):
    # the same bits as fsum of the list, or the same OverflowError, on
    # contiguous, strided and reversed slices (empty ones included)
    a = np.array(values, dtype=float)[start::step]
    try:
        want = math.fsum(a.tolist())
    except OverflowError:
        with pytest.raises(OverflowError):
            densities._fsum(a)
        return
    got = densities._fsum(a)
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# --- family bits and memory ----------------------------------------------------


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_bits_equal_full_list_fsum(name):
    ks = [1, 2, 3, 17, 768, 65535, 65536, 65537, 3 * 65536 + 5, 2**20]
    for k in ks:
        assert np.array_equal(family(name, k).mass, ref_family_mass(name, k)), (name, k)
    if name == "trunc-geometric":
        for p in (0.5, 0.999, 1e-3):
            assert np.array_equal(family(name, 70_000, p).mass, ref_family_mass(name, 70_000, p))


def test_family_peak_memory_stays_near_the_array():
    tracemalloc.start()
    try:
        f = family("harmonic-zipf", 2**21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the mass and one working array; fsum reads the array's own buffer
    assert peak <= 3 * f.mass.nbytes


# --- csv bytes -----------------------------------------------------------------


def _assouad_members():
    specs = [
        HypercubeSpec(Regime.MONOTONE_LARGE_K, 1000, 200, 4, 0.3, (0, 1, 1, 0)),
        HypercubeSpec(Regime.MONOTONE_SMALL_K, 1000, 50, 4, 0.2, (1, 0, 1, 0)),
        HypercubeSpec(Regime.CONVEX_LARGE_K, 777, 500, 4, 0.3, (0, 1, 1, 0)),
    ]
    r, eps = assouad_default_params(Regime.CONVEX_SMALL_K, 10_000, 768)
    specs.append(HypercubeSpec(Regime.CONVEX_SMALL_K, 10_000, 768, r, eps, (1, 0) * (r // 2)))
    return [assouad_density(s) for s in specs]


def test_to_csv_bytes_equal_csv_writer():
    members = [family(name, k) for name in FAMILY_NAMES for k in (1, 2, 3, 768, 4096)]
    members += _assouad_members()
    members.append(make_density([0.5, 0.5 - 2e-323, 0.0, 5e-324, 1.5e-323, -0.0]))
    for f in members:
        assert f.to_csv() == ref_density_to_csv(f.mass)


# --- make_density on arrays and on inputs that are no sequence ---------------


@pytest.mark.parametrize(
    "arr",
    [
        np.array([0.5, 0.25, 0.25]),
        np.array([0.5, 0.25, 0.25], dtype=np.float32),
        np.array([0.0, 1.0, 0.0], dtype=np.float16),
        np.array([1, 0], dtype=np.int64),
        np.array([0, 1], dtype=np.uint8),
        np.array([True, False]),
        np.array([0.1] * 20)[::2],  # not contiguous
        np.array([[0.5], [0.5]]).ravel(),
        np.array([0.3, 0.7], dtype=object),
    ],
    ids=lambda a: f"{a.dtype}-{a.size}",
)
def test_make_density_array_bits_equal_list_path(arr):
    want = np.asarray(list(arr), dtype=float)
    got = make_density(arr).mass
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_make_density_array_peak_memory():
    k = 2**20
    for arr in (np.full(k, 1.0 / k), np.full(k, 1.0 / k, dtype=np.float32)):
        tracemalloc.start()
        try:
            f = make_density(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.k == k
        assert peak <= 3 * arr.nbytes, (arr.dtype, peak / arr.nbytes)


@pytest.mark.parametrize(
    "bad",
    [
        0.5, 3, np.float64(1.0), np.array(1.0), None, "1", "0.5", b"1",
        ["x", 1.0], [[1.0], [0.5, 0.5]], np.array(["0.5", "x"]),
    ],
    ids=repr,
)
def test_make_density_rejects_non_sequences(bad):
    with pytest.raises(BadParam):
        make_density(bad)


@pytest.mark.parametrize("k", [4.5, 4.0, "4", 2**60, 10**20])
def test_family_rejects_a_k_that_cannot_size_an_array(k):
    # a float k was a numpy TypeError, and a k past numpy's index range a
    # ValueError, raised while building the mass array
    with pytest.raises(BadParam, match="^k must be an integer of at most"):
        family("uniform", k)


# --- the two encoders against their references --------------------------------


class _Float(float):
    def __repr__(self):
        return "not the value"


class _Int(int):
    def __repr__(self):
        return "not the value"


class _Str(str):
    pass


_json_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7]),
)
_exact_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    _json_floats,
    st.text(),
)
_json_scalars = st.one_of(
    _exact_scalars,
    _json_floats.map(np.float64),
    _json_floats.map(_Float),
    st.integers().map(_Int),
    st.text().map(_Str),
)
_json_keys = st.one_of(
    st.text(), st.text().map(_Str), st.integers(), _json_floats, st.booleans(), st.none(),
    _json_floats.map(np.float64),
)


def _nested(scalars, keys):
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(keys, inner, max_size=5),
        ),
        max_leaves=40,
    )


def _exact(v) -> bool:
    """v holds only the exact types records hold: the writer's own input."""
    t = type(v)
    if t is dict:
        return all(type(key) is str and _exact(x) for key, x in v.items())
    if t is list or t is tuple:
        return all(map(_exact, v))
    return t in (str, int, float, bool) or v is None


@settings(max_examples=500, deadline=None)
@given(v=st.one_of(_nested(_exact_scalars, st.text()), _nested(_json_scalars, _json_keys)))
def test_json_writer_is_json_dumps_indent_2(v):
    want = json.dumps(v, indent=2)
    if _exact(v):
        # the writer itself, and not json.dumps behind it, gives the text
        assert densities._json_value(v, "\n") == want
    else:
        with pytest.raises(TypeError):
            densities._json_value(v, "\n")
    assert densities._json_text(v) == want


def _circular():
    a = [1, {"b": 2}]
    a[1]["c"] = a
    return a


@pytest.mark.parametrize(
    "v",
    [
        np.int64(3),
        [1, np.bool_(True)],
        {"a": {1, 2}},
        {(1, 2): 3},
        {"ok": 1, b"key": 2},
        [b"bytes"],
        _circular(),
        [[[[[[object()]]]]]],
    ],
)
def test_json_writer_rejects_what_json_rejects(v):
    with pytest.raises(Exception) as want:
        json.dumps(v, indent=2)
    with pytest.raises(type(want.value)) as got:
        densities._json_text(v)
    assert str(got.value) == str(want.value)


def test_json_writer_on_deep_nesting():
    # past the depth the writer's own recursion reaches, json decides
    for depth in (10, 400, 900, 5000):
        v = []
        for _ in range(depth):
            v = [v, 1]
        try:
            want = json.dumps(v, indent=2)
        except RecursionError:
            with pytest.raises(RecursionError):
                densities._json_text(v)
        else:
            assert densities._json_text(v) == want


def _runs(values):
    """Draws expanded into runs of 1-4 equal items, so neighbours repeat."""
    return st.lists(st.tuples(values, st.integers(1, 4)), max_size=30).map(
        lambda pairs: [x for x, n in pairs for _ in range(n)]
    )


_bits = st.integers(-(2**63), 2**63 - 1)
_csv_floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1 / 3]),
    # any bit pattern: NaNs with payloads, subnormals, both zeros
    _bits.map(lambda b: float(np.int64(b).view(np.float64))),
)


@settings(max_examples=500, deadline=None)
@given(
    values=st.one_of(
        _runs(_csv_floats).map(lambda xs: np.array(xs, dtype=np.float64)),
        _runs(st.one_of(st.integers(0, 3), _bits)).map(lambda xs: np.array(xs, dtype=np.int64)),
    ),
    header=st.sampled_from(["index,mass", "index,count", "x,value"]),
)
def test_atom_csv_is_the_per_atom_writer(values, header):
    assert densities._atom_csv(header, values) == ref_atom_csv(header, values)


def test_atom_csv_splits_signed_zeros_and_keeps_nan():
    v = np.array([0.0, -0.0, -0.0, 0.0, math.nan, math.nan, 1.0])
    assert densities._atom_csv("x,value", v) == (
        "x,value\n1,0.0\n2,-0.0\n3,-0.0\n4,0.0\n5,nan\n6,nan\n7,1.0\n"
    )
    assert densities._atom_csv("x,value", np.array([], dtype=float)) == "x,value\n"
