import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavestab.multiplier import MultiplierSymbol, builtin_symbol


# the paper's sandwich hypothesis A1 |kappa|^m2 <= theta <= A2 |kappa|^m2,
# (m2, A1, A2) per builtin; fractional(alpha) has (alpha, 1, 1)
BOUNDS = {"kawahara": (4.0, 1.0, 2.0), "kdv": (2.0, 1.0, 1.0), "bo": (1.0, 1.0, 1.0)}


def builtin_bounds(name, alpha=None):
    return (float(alpha), 1.0, 1.0) if name == "fractional" else BOUNDS[name]


def verify_bounds(sym, bounds, kappa_max):
    """Check A1*|kappa|^m2 <= theta(kappa) <= A2*|kappa|^m2 on 1 <= |kappa| <= kappa_max
    for bounds = (m2, A1, A2).

    Returns (ok, first_violating_kappa_or_None).  A relative slack of 1e-12
    absorbs rounding at exact-equality bounds.
    """
    m2, A1, A2 = bounds
    if kappa_max < 1:
        raise ValueError("kappa_max must be >= 1")
    slack = 1e-12
    for n in range(1, int(kappa_max) + 1):
        for kappa in (float(n), float(-n)):
            th = sym(kappa)
            lo = A1 * abs(kappa) ** m2
            hi = A2 * abs(kappa) ** m2
            if th < lo * (1 - slack) or th > hi * (1 + slack):
                return False, kappa
    return True, None


def test_kawahara_values():
    kaw = builtin_symbol("kawahara")
    assert kaw(2.0) == 16.0 + 4.0
    assert kaw(0.0) == 0.0
    # a symbol carries no bounds: nothing in the library reads them
    assert not any(hasattr(kaw, attr) for attr in ("m2", "A1", "A2"))
    assert repr(kaw) == "MultiplierSymbol('kawahara')"


def test_all_builtins_vanish_at_zero():
    for name, alpha in (("kawahara", None), ("kdv", None), ("bo", None),
                        ("fractional", 1.5)):
        assert builtin_symbol(name, alpha=alpha)(0.0) == 0.0


@pytest.mark.parametrize("name, alpha", [
    ("kawahara", None), ("kdv", None), ("bo", None),
    ("fractional", 0.1), ("fractional", 0.3), ("fractional", 1.0), ("fractional", 2.0)])
def test_builtins_are_nondecreasing_in_abs_kappa(name, alpha):
    # the Galerkin tail floor bounds the rows past the truncation only where
    # theta does not decrease; checked up to |kappa| 1e4, past mode 2048 at
    # any period of 2 pi or more
    sym = builtin_symbol(name, alpha=alpha)
    kk = np.concatenate([np.linspace(0.0, 1.0, 1001), np.geomspace(1.0, 1e4, 4001)])
    theta = sym(kk)
    assert np.all(np.diff(theta) >= 0.0)


def test_kdv_bounds_exact():
    kdv = builtin_symbol("kdv")
    kk = np.arange(-64, 65, dtype=float)
    assert np.array_equal(kdv(kk), kk**2)
    ok, bad = verify_bounds(kdv, builtin_bounds("kdv"), 64)
    assert ok and bad is None


def test_fractional_one_is_abs():
    frac = builtin_symbol("fractional", alpha=1.0)
    ok, bad = verify_bounds(frac, builtin_bounds("fractional", 1.0), 64)
    assert ok and bad is None
    assert frac(-3.0) == 3.0


def test_kawahara_sandwich():
    ok, bad = verify_bounds(builtin_symbol("kawahara"), builtin_bounds("kawahara"), 64)
    assert ok and bad is None


def test_wrong_declared_order_detected():
    # kappa^4 + kappa^2 against A2 kappa^2 fails first at |kappa| = 2
    wrong = MultiplierSymbol("kawahara-as-kdv", lambda x: x**4 + x**2)
    ok, bad = verify_bounds(wrong, (2.0, 1.0, 2.0), 64)
    assert not ok
    assert abs(bad) == 2.0


def test_bounds_all_builtins_to_512():
    for name, alpha in (("kawahara", None), ("kdv", None), ("bo", None),
                        ("fractional", 0.5), ("fractional", 2.0)):
        sym = builtin_symbol(name, alpha=alpha)
        ok, bad = verify_bounds(sym, builtin_bounds(name, alpha), 512)
        assert ok, (name, bad)


def test_validation_rejects_nonzero_origin():
    with pytest.raises(ValueError):
        MultiplierSymbol("bad", lambda x: x**2 + 1.0)


def test_validation_rejects_odd_symbol():
    with pytest.raises(ValueError):
        MultiplierSymbol("odd", lambda x: x**3)


def test_unknown_name_and_bad_alpha():
    with pytest.raises(ValueError):
        builtin_symbol("airy")
    for alpha in (None, 0.0, 2.5, -1.0):
        with pytest.raises(ValueError):
            builtin_symbol("fractional", alpha=alpha)


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(min_value=-100.0, max_value=100.0))
def test_builtin_evenness(kappa):
    for name, alpha in (("kawahara", None), ("fractional", 1.3)):
        sym = builtin_symbol(name, alpha=alpha)
        assert sym(kappa) == pytest.approx(sym(-kappa), rel=1e-14, abs=1e-14)
