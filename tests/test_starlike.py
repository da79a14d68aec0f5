import itertools
import math

import numpy as np
import pytest

from h2star import (
    Alpha,
    CoefficientVector,
    DomainError,
    MomentTriple,
    closed_form_a234,
    coeffs_from_moments,
    extremal_coeffs,
)
from h2star.caratheodory import random_disk_point
from h2star.starlike import coeff_rows


class TestAlpha:
    def test_accepts_half(self):
        assert Alpha(0.5).value == 0.5

    @pytest.mark.parametrize("bad", [-0.01, 1.0, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            Alpha(bad)


class TestCoefficientVector:
    def test_requires_unit_leading_coefficient(self):
        with pytest.raises(ValueError):
            CoefficientVector([2.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(2.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            CoefficientVector([1.0, bad, 2.0, 3.0])

    def test_one_indexed_access(self):
        f = CoefficientVector([1, 5, 7])
        assert f.coeff(1) == 1
        assert f.coeff(3) == f.coeff(3.0) == 7
        with pytest.raises(IndexError):
            f.coeff(4)
        with pytest.raises(IndexError):
            f.coeff(2**60)


class TestCoeffsFromMoments:
    def test_koebe(self):
        f = coeffs_from_moments(Alpha(0.0), [2.0] * 7)
        np.testing.assert_allclose(f.coeffs, np.arange(1, 9), atol=0)

    def test_sharpness_moments(self):
        for a in (0.0, 0.3, 0.75):
            f = coeffs_from_moments(Alpha(a), [0.0, 2.0, 0.0])
            np.testing.assert_allclose(f.coeffs, [1.0, 0.0, 1.0 - a, 0.0], atol=0)

    def test_zero_moments_give_identity(self):
        f = coeffs_from_moments(Alpha(0.4), [0.0] * 5)
        np.testing.assert_allclose(f.coeffs, [1, 0, 0, 0, 0, 0], atol=0)

    def test_a2_linear_in_one_minus_alpha(self):
        p1 = 1.3 - 0.2j
        base = coeffs_from_moments(Alpha(0.0), [p1, 0.0, 0.0]).coeff(2)
        for a in (0.1, 0.5, 0.9):
            scaled = coeffs_from_moments(Alpha(a), [p1, 0.0, 0.0]).coeff(2)
            assert scaled == pytest.approx((1.0 - a) * base, abs=1e-15)


def _dot_recurrence(alpha, p):
    """The recurrence at the alpha value ``alpha``, one coefficient at a time through np.dot."""
    a = np.zeros(len(p) + 1, dtype=complex)
    a[0] = 1.0
    for n in range(2, len(p) + 2):
        a[n - 1] = (1.0 - alpha) / (n - 1) * np.dot(a[: n - 1][::-1], p[: n - 1])
    return a


class TestCoeffRows:
    """coeff_rows, and coeffs_from_moments through it, bit-equal to np.dot."""

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11])
    def test_random_moments(self, m):
        rng = np.random.default_rng(60 + m)
        alpha = float(rng.uniform(0.0, 1.0))
        p = rng.normal(size=(300, m)) + 1j * rng.normal(size=(300, m))
        rows = coeff_rows(alpha, p)
        for r in range(p.shape[0]):
            want = _dot_recurrence(alpha, p[r]).tobytes()
            assert coeffs_from_moments(Alpha(alpha), p[r]).coeffs.tobytes() == want
            assert rows[r].tobytes() == want

    def test_signed_zeros_and_negative_parts(self):
        # Every moment pair drawn from these parts, signed zeros included.
        parts = [0.0, -0.0, 1.5, -1.5, 2.0]
        values = [complex(x, y) for x in parts for y in parts]
        p = np.array(list(itertools.product(values, repeat=2)), dtype=complex)
        alpha = 0.39
        rows = coeff_rows(alpha, p)
        for r in range(p.shape[0]):
            assert rows[r].tobytes() == _dot_recurrence(alpha, p[r]).tobytes()


class TestCoeffRowsPerRowAlpha:
    """coeff_rows with one alpha per row, bit-equal to one call per alpha."""

    ALPHAS = (0.0, 0.39, 0.5, 0.9999)

    @staticmethod
    def _assert_per_alpha(values, p):
        rows = coeff_rows(values, p)
        for a in np.unique(values):
            mask = values == a
            alpha = float(a)
            assert rows[mask].tobytes() == coeff_rows(alpha, p[mask]).tobytes()
            for r in np.flatnonzero(mask):
                assert rows[r].tobytes() == _dot_recurrence(alpha, p[r]).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11])
    def test_random_moments(self, m):
        rng = np.random.default_rng(70 + m)
        values = np.concatenate([self.ALPHAS, rng.uniform(0.0, 1.0, size=296)])
        rng.shuffle(values)
        p = rng.normal(size=(300, m)) + 1j * rng.normal(size=(300, m))
        self._assert_per_alpha(values, p)

    def test_signed_zeros_and_negative_parts(self):
        parts = [0.0, -0.0, 1.5, -1.5, 2.0]
        values = [complex(x, y) for x in parts for y in parts]
        p = np.array(list(itertools.product(values, repeat=2)), dtype=complex)
        alphas = np.resize(np.array(self.ALPHAS), p.shape[0])
        self._assert_per_alpha(alphas, p)


class TestClosedForm:
    def test_koebe_values(self):
        a2, a3, a4 = closed_form_a234(Alpha(0.0), MomentTriple(2, 2, 2))
        assert (a2, a3, a4) == (2.0, 3.0, 4.0)

    def test_sharpness_configuration(self):
        for a in (0.0, 0.25, 0.6):
            a2, a3, a4 = closed_form_a234(Alpha(a), MomentTriple(0, 2, 0))
            assert (a2, a3, a4) == (0.0, 1.0 - a, 0.0)

    def test_zero_triple(self):
        assert closed_form_a234(Alpha(0.3), MomentTriple(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_matches_recurrence(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(1000):
            alpha = Alpha(rng.random())
            p = [random_disk_point(rng, 2.0) for _ in range(3)]
            a2, a3, a4 = closed_form_a234(alpha, MomentTriple(*p))
            f = coeffs_from_moments(alpha, p)
            for lhs, n in ((a2, 2), (a3, 3), (a4, 4)):
                diff = abs(lhs - f.coeff(n))
                worst = max(worst, diff / max(1.0, abs(lhs)))
        assert worst <= 1e-12, worst


class TestExtremal:
    def test_alpha_zero_is_odd_geometric(self):
        f = extremal_coeffs(Alpha(0.0), 9)
        np.testing.assert_allclose(f.coeffs, [1, 0, 1, 0, 1, 0, 1, 0, 1], atol=0)

    def test_even_coefficients_vanish(self):
        f = extremal_coeffs(Alpha(0.37), 10)
        assert all(f.coeff(n) == 0 for n in range(2, 11, 2))

    def test_alpha_half_binomial(self):
        f = extremal_coeffs(Alpha(0.5), 6)
        assert f.coeff(3) == pytest.approx(0.5, abs=0)
        assert f.coeff(5) == pytest.approx(0.375, abs=0)

    def test_order_must_cover_determinant(self):
        with pytest.raises(DomainError):
            extremal_coeffs(Alpha(0.1), 3)

    def test_matches_series_route(self):
        # binomial series of z (1 - z^2)^(alpha - 1):
        # a_{2k+1} = Gamma(k + 1 - alpha) / (Gamma(1 - alpha) k!); even a_n vanish
        for a in np.linspace(0.0, 0.95, 20):
            expected = np.zeros(16)
            for k in range(8):
                expected[2 * k] = math.gamma(k + 1 - a) / (math.gamma(1 - a) * math.factorial(k))
            direct = extremal_coeffs(Alpha(float(a)), 16)
            np.testing.assert_allclose(direct.coeffs, expected, rtol=0.0, atol=1e-12)

    def test_matches_moment_route(self):
        # p_n = 1 + (-1)^n is the even two-atom measure
        moments = [1.0 + (-1.0) ** n for n in range(1, 16)]
        for a in (0.0, 0.2, 0.8):
            via_moments = coeffs_from_moments(Alpha(a), moments)
            direct = extremal_coeffs(Alpha(a), 16)
            np.testing.assert_allclose(direct.coeffs, via_moments.coeffs, atol=1e-12)


def test_rotation_commutes_with_moment_normalization():
    # rotating the moments and rotating the function give the same coefficients,
    # and the determinant functional is invariant in modulus
    from h2star import HankelSpec, hankel_det, normalize_rotation

    rng = np.random.default_rng(22)
    for _ in range(200):
        alpha = Alpha(rng.random())
        p = [random_disk_point(rng, 2.0) for _ in range(3)]
        q, theta = normalize_rotation(p)
        f = coeffs_from_moments(alpha, p)
        g = coeffs_from_moments(alpha, q)
        rotated = f.coeffs * np.exp(1j * theta * np.arange(len(f)))  # a_n e^{i (n-1) theta}
        np.testing.assert_allclose(rotated, g.coeffs, atol=1e-12)
        spec = HankelSpec(q=2, n=2)
        assert abs(hankel_det(g, spec)) == pytest.approx(abs(hankel_det(f, spec)), abs=1e-12)
