import json

import numpy as np
import pytest

from treedens import (
    FAMILY_NAMES,
    DiscreteDensity,
    NegativeMass,
    NotNormalized,
    BadParam,
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


def test_mass_is_immutable():
    f = family("uniform", 3)
    with pytest.raises(ValueError):
        f.mass[0] = 0.9
