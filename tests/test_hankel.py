import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from h2star import (
    Alpha,
    CoefficientVector,
    DomainError,
    HankelSpec,
    InsufficientCoefficients,
    LemmaPoint,
    MomentTriple,
    UnsupportedOrder,
    bound_profile,
    closed_form_a234,
    coeffs_from_moments,
    functional_moment_form,
    functional_param_form,
    hankel_det,
    normalize_rotation,
    phi,
    sharp_bound,
)
from h2star.caratheodory import _lemma_forward_raw, _lemma_row_blocks, random_disk_point
from h2star.hankel import _moment_form_raw, _param_form_raw, _phi_raw, _zeta_free_terms, det2

KOEBE = CoefficientVector([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])


class TestHankelDet:
    def test_order_one_is_coefficient(self):
        for n in range(1, 6):
            assert hankel_det(KOEBE, HankelSpec(q=1, n=n)) == n

    def test_koebe_central(self):
        assert hankel_det(KOEBE, HankelSpec(q=2, n=2)) == -1.0

    def test_koebe_first(self):
        assert hankel_det(KOEBE, HankelSpec(q=2, n=1)) == -1.0

    def test_order_two_bit_equal_to_complex_products(self):
        # det2 forms the products in real arithmetic; on scalars that is how
        # numpy multiplies complex numbers, signed zeros included.
        parts = [0.0, -0.0, 1.25, -2.5]
        values = [complex(x, y) for x in parts for y in parts]
        rng = np.random.default_rng(8)
        randoms = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
        triples = list(itertools.product(values, repeat=3)) + [tuple(r) for r in randoms]
        a2, a3, a4 = (np.array(col) for col in zip(*triples))
        re, im = det2(a2, a4, a3, a3)
        for i, (x2, x3, x4) in enumerate(triples):
            f = CoefficientVector([1.0, x2, x3, x4])
            want = complex(f.coeffs[1] * f.coeffs[3] - f.coeffs[2] * f.coeffs[2])
            got = hankel_det(f, HankelSpec(q=2, n=2))
            assert np.array([got, complex(re[i], im[i])]).tobytes() == np.array([want] * 2).tobytes()

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_matches_numpy_determinant(self, q):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            need = n + 2 * q - 2
            coeffs = np.concatenate(
                ([1.0 + 0j], rng.uniform(-2, 2, need - 1) + 1j * rng.uniform(-2, 2, need - 1))
            )
            f = CoefficientVector(coeffs)
            mat = np.array(
                [[coeffs[n + i + j - 1] for j in range(q)] for i in range(q)]
            )
            expected = np.linalg.det(mat)
            got = hankel_det(f, HankelSpec(q=q, n=n))
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))

    @pytest.mark.parametrize("q, n, coeffs", [
        (2, 2, [1.0, 1e200, 1e200, 1e200, 1e200, 1e200]),
        # [[1, 0, 1e200], [0, 1e200, 0], [1e200, 0, 1e200]]: det = 1e400 - 1e600
        (3, 1, [1.0, 0.0, 1e200, 0.0, 1e200]),
    ], ids=["2-2", "3-1"])
    def test_overflow_is_a_domain_error(self, q, n, coeffs):
        f = CoefficientVector(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                hankel_det(f, HankelSpec(q=q, n=n))

    @pytest.mark.parametrize("q", [3, 4, 5, 6])
    def test_scales_with_the_coefficients(self, q):
        # Scaling a_2, a_3, ... by s scales the determinant by s^q at any
        # size: no pivot is too small to count.
        rng = np.random.default_rng(60 + q)
        a = rng.uniform(-2, 2, 2 * q - 1) + 1j * rng.uniform(-2, 2, 2 * q - 1)
        want = hankel_det(CoefficientVector([1.0, *a]), HankelSpec(q=q, n=2))
        for e in range(31):
            s = 10.0**-e
            got = hankel_det(CoefficientVector([1.0, *(s * a)]), HankelSpec(q=q, n=2))
            assert abs(got - want * s**q) <= 1e-14 * abs(want) * s**q, e

    def test_overflowing_modulus_is_a_domain_error(self):
        # both parts are finite, but abs() of the value would raise OverflowError
        f = CoefficientVector([1.0, complex(1.5e308, 1.5e308)])
        with pytest.raises(DomainError, match="Hankel determinant or its modulus is not finite"):
            hankel_det(f, HankelSpec(q=1, n=2))

    def test_constant_coefficients_are_singular(self):
        f = CoefficientVector(np.ones(10))
        assert hankel_det(f, HankelSpec(q=2, n=2)) == 0.0
        assert hankel_det(f, HankelSpec(q=4, n=2)) == 0.0

    def test_rejects_large_order(self):
        with pytest.raises(UnsupportedOrder):
            hankel_det(KOEBE, HankelSpec(q=7, n=1))

    def test_rejects_short_vector(self):
        with pytest.raises(InsufficientCoefficients):
            hankel_det(CoefficientVector([1, 2, 3]), HankelSpec(q=2, n=2))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HankelSpec(q=0, n=1)
        with pytest.raises(DomainError):
            HankelSpec(q=2, n=0)


class TestMomentForm:
    def test_koebe_value(self):
        value = functional_moment_form(Alpha(0.0), MomentTriple(2, 2, 2))
        assert value == pytest.approx(-1.0, abs=1e-15)

    def test_sharpness_value(self):
        for a in (0.0, 0.25, 0.5, 0.9):
            value = functional_moment_form(Alpha(a), MomentTriple(0, 2, 0))
            assert value == pytest.approx(-((1.0 - a) ** 2), abs=0)

    def test_zero_triple(self):
        assert functional_moment_form(Alpha(0.3), MomentTriple(0, 0, 0)) == 0.0

    @pytest.mark.parametrize("p1", [1e300, 1e100])
    def test_overflow_is_a_domain_error(self, p1):
        # 1e300 overflows to NaN; 1e100 makes Python's complex power raise
        with pytest.raises(DomainError, match="not finite"):
            functional_moment_form(Alpha(0.1), MomentTriple(p1, 0, 0))

    def test_matches_determinant_route(self):
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(1000):
            alpha = Alpha(rng.random())
            m = MomentTriple(*(random_disk_point(rng, 2.0) for _ in range(3)))
            a2, a3, a4 = closed_form_a234(alpha, m)
            f = coeffs_from_moments(alpha, [m.p1, m.p2, m.p3])
            det = hankel_det(f, HankelSpec(q=2, n=2))
            assert det == pytest.approx(a2 * a4 - a3 * a3, abs=1e-14)
            diff = abs(functional_moment_form(alpha, m) - det)
            worst = max(worst, diff / max(1.0, abs(det)))
        assert worst <= 1e-12, worst

    def test_rotation_invariance(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            alpha = Alpha(rng.random())
            p = [random_disk_point(rng, 2.0) for _ in range(3)]
            rotated, _ = normalize_rotation(p)
            before = abs(functional_moment_form(alpha, MomentTriple(*p)))
            after = abs(functional_moment_form(alpha, MomentTriple(*rotated)))
            assert after == pytest.approx(before, abs=1e-12)


class TestParamForm:
    def test_pure_y_square_term(self):
        for a in (0.0, 0.4, 0.8):
            value = functional_param_form(Alpha(a), LemmaPoint(0.0, 1.0, 0.3))
            assert value == pytest.approx(-((1.0 - a) ** 2), abs=0)

    def test_boundary_p(self):
        for a in (0.0, 0.4, 0.8):
            value = functional_param_form(Alpha(a), LemmaPoint(2.0, 0.5j, -0.2))
            c = 3.0 - 8.0 * a + 4.0 * a * a
            assert value == pytest.approx(-(1.0 - a) ** 2 * c / 3.0, abs=1e-15)

    def test_isolated_quartic_term(self):
        for a in (0.0, 0.4, 0.8):
            value = functional_param_form(Alpha(a), LemmaPoint(1.0, 0.0, 0.0))
            c = 3.0 - 8.0 * a + 4.0 * a * a
            assert value == pytest.approx(-(1.0 - a) ** 2 * c / 48.0, abs=1e-16)

    # The next two tests draw (alpha, p, y, zeta) in blocks from the
    # distributions of ``alpha = Alpha(rng.random()); pt = random_lemma_point(rng)``.

    def test_substitution_identity(self):
        rows = 0
        for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(34), 20_000):
            diff = np.abs(
                _param_form_raw(alpha, p, y, zeta)
                - _moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta))
            )
            assert np.all(diff <= 1e-12), diff.max()
            rows += alpha.size
        assert rows == 20_000

    def test_dominated_by_majorant(self):
        rows = 0
        for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(35), 20_000):
            excess = np.abs(_param_form_raw(alpha, p, y, zeta)) - _phi_raw(alpha, p, np.abs(y))
            assert np.all(excess <= 1e-12), excess.max()
            rows += alpha.size
        assert rows == 20_000


    def test_bit_equal_to_the_inline_zeta_term(self):
        # _param_form_raw takes its zeta term from _zeta_coefficient; this is
        # the expression it had with the term written inline.
        def inline(alpha_value, p, y, zeta):
            s2 = (1.0 - alpha_value) ** 2
            c = 3.0 - 8.0 * alpha_value + 4.0 * alpha_value * alpha_value
            q = 4.0 - p * p
            y_sq_mod = np.abs(y) ** 2
            return s2 * (
                -c * p**4 / 48.0
                + p * p * q * y / 24.0
                - p * p * q * y * y / 12.0
                - q * q * y * y / 16.0
                + p * q * (1.0 - y_sq_mod) * zeta / 6.0
            )

        rng = np.random.default_rng(36)
        for alpha, p, y, zeta in _lemma_row_blocks(rng, 20_000):
            got, want = _param_form_raw(alpha, p, y, zeta), inline(alpha, p, y, zeta)
            assert got.tobytes() == want.tobytes()
        e_mu = np.exp(2j * np.pi * np.arange(64) / 64)
        for a in (0.0, 0.25, 0.5, 0.75, 0.99):
            for p in (0.0, 0.02, 1.0, 2.0):
                for t in (0.0, 0.5, 1.0):
                    args = (a, p, (t * e_mu)[:, None], e_mu[None, :])
                    assert _param_form_raw(*args).tobytes() == inline(*args).tobytes()
                    for y, zeta in zip(t * e_mu[:8], e_mu[::8]):
                        pt = LemmaPoint(p, complex(y), complex(zeta))
                        value = functional_param_form(Alpha(a), pt)
                        assert np.array(value).tobytes() == np.array(
                            complex(inline(a, p, complex(y), complex(zeta)))).tobytes()

    def test_zeta_free_terms_bit_equal_to_the_inline_terms(self):
        # _zeta_free_terms computes p * p, q and p * p * q * y once; this is
        # the sum with each term written out in full.
        def inline(alpha_value, p, y):
            c = 3.0 - 8.0 * alpha_value + 4.0 * alpha_value * alpha_value
            q = 4.0 - p * p
            return (
                -c * p**4 / 48.0
                + p * p * q * y / 24.0
                - p * p * q * y * y / 12.0
                - q * q * y * y / 16.0
            )

        rng = np.random.default_rng(37)
        for alpha, p, y, _ in _lemma_row_blocks(rng, 20_000):
            assert _zeta_free_terms(alpha, p, y).tobytes() == inline(alpha, p, y).tobytes()
        e_mu = np.exp(2j * np.pi * np.arange(64) / 64)
        ps = np.linspace(0.0, 2.0, 201)[:, None]
        for a in (0.0, 0.25, 0.5, 0.75, 0.99):
            for t in (0.0, 0.5, 1.0):
                y = t * e_mu[None, :]
                assert _zeta_free_terms(a, ps, y).tobytes() == inline(a, ps, y).tobytes()
                for p, yy in zip(ps[::25, 0], y[0, ::8]):
                    got = _zeta_free_terms(a, float(p), complex(yy))
                    assert repr(got) == repr(inline(a, float(p), complex(yy)))


class TestPhi:
    def test_corner_value(self):
        for a in (0.0, 0.3, 0.9):
            assert phi(Alpha(a), 0.0, 1.0) == (1.0 - a) ** 2

    def test_zero_at_origin(self):
        assert phi(Alpha(0.5), 0.0, 0.0) == 0.0

    def test_flat_at_alpha_zero_p_two(self):
        for t in (0.0, 0.5, 1.0):
            assert phi(Alpha(0.0), 2.0, t) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_outside_box(self):
        with pytest.raises(DomainError):
            phi(Alpha(0.1), 2.1, 0.5)
        with pytest.raises(DomainError):
            phi(Alpha(0.1), 1.0, -0.1)

    def test_rejects_shapes_that_do_not_broadcast(self):
        with pytest.raises(DomainError, match=r"p and t .* \(2,\) and \(3,\)"):
            phi(0.1, [0.5, 1.0], [0.1, 0.2, 0.3])
        assert phi(0.1, [[0.5], [1.0]], [0.1, 0.2, 0.3]).shape == (2, 3)

    @pytest.mark.parametrize("p, t", [(np.nan, 0.5), (1.0, np.nan), ([0.5, np.inf], 0.5)])
    def test_rejects_non_finite(self, p, t):
        with pytest.raises(DomainError):
            phi(Alpha(0.1), p, t)

    @pytest.mark.parametrize("p, t, text", [
        (2.1, 0.5, "p must lie in [0, 2], got 2.1"),
        (1.0, -0.1, "t must lie in [0, 1], got -0.1"),
        (np.nan, 0.5, "p must lie in [0, 2], got nan"),
        (1.0, np.nan, "t must lie in [0, 1], got nan"),
        ([0.5, np.inf], 0.5, "p must lie in [0, 2], got inf"),
        ([[0.5, 2.5]], [[0.3], [1.5]], "p must lie in [0, 2], got 2.5"),
        ("x", 0.5, "p must be numeric: got str 'x'"),
        (1.0, np.array([True, False]), "t must be numeric: got text or truth-value entries"),
        ([0.5, 1.0], [0.1, 0.2, 0.3],
         "p and t must broadcast together, got shapes (2,) and (3,)"),
    ])
    def test_rejection_texts(self, p, t, text):
        with pytest.raises(DomainError) as info:
            phi(0.1, p, t)
        assert str(info.value) == text

    def test_raw_kernel_is_exact_on_fractions(self):
        # At t = 1 the majorant collapses to the profile s2 (1 - p^4/16 + |c| p^4/48).
        for a in (Fraction(k, 40) for k in range(40)):
            s2 = (1 - a) ** 2
            c = abs(3 - 8 * a + 4 * a**2)
            for p in (Fraction(k, 12) for k in range(25)):
                got = _phi_raw(a, p, 1)
                assert type(got) is Fraction
                assert got == s2 * (1 - p**4 / 16 + c * p**4 / 48)

    def test_t_derivative_sign_factor(self):
        # phi' in t equals s2 * (4 - p^2) * [p^2 + t (p-2)(p-6)] / 24, which is
        # nonnegative on the box; cross-check against central differences
        ps = np.linspace(0.0, 2.0, 41)[:, None]
        ts = np.linspace(0.0, 1.0, 41)[None, :]
        factor = (4.0 - ps**2) * (ps**2 + ts * (ps - 2.0) * (ps - 6.0)) / 24.0
        assert np.all(factor >= 0.0)
        alpha = Alpha(0.35)
        s2 = (1.0 - 0.35) ** 2
        h = 1e-6
        for p in (0.0, 0.7, 1.4, 2.0):
            for t in (0.2, 0.5, 0.8):
                fd = (phi(alpha, p, t + h) - phi(alpha, p, t - h)) / (2.0 * h)
                closed = s2 * (4.0 - p * p) * (p * p + t * (p - 2.0) * (p - 6.0)) / 24.0
                assert fd == pytest.approx(closed, abs=1e-6)


class TestBoundProfile:
    def test_maximum_at_origin(self):
        for a in (0.0, 0.2, 0.5, 0.9):
            assert bound_profile(Alpha(a), 0.0) == (1.0 - a) ** 2

    def test_flat_for_alpha_zero(self):
        ps = np.linspace(0.0, 2.0, 101)
        np.testing.assert_allclose(bound_profile(Alpha(0.0), ps), np.ones(101), atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bound_profile(Alpha(0.1), [0.5, np.nan])

    def test_vanishing_discriminant_case(self):
        # 3 - 8 alpha + 4 alpha^2 = 0 at alpha = 1/2, so the profile dies at p = 2
        assert bound_profile(Alpha(0.5), 2.0) == pytest.approx(0.0, abs=1e-16)

    def test_matches_majorant_at_t_one(self):
        ps = np.linspace(0.0, 2.0, 101)
        for a in np.linspace(0.0, 0.95, 20):
            alpha = Alpha(float(a))
            np.testing.assert_allclose(
                phi(alpha, ps, 1.0), bound_profile(alpha, ps), rtol=0.0, atol=1e-12
            )
            assert float(np.max(bound_profile(alpha, ps))) <= sharp_bound(alpha) + 1e-12


class TestSharpBound:
    def test_classical_endpoint(self):
        assert sharp_bound(Alpha(0.0)) == 1.0

    def test_half(self):
        assert sharp_bound(Alpha(0.5)) == 0.25

    def test_vanishes_in_the_limit(self):
        assert sharp_bound(Alpha(1.0 - 1e-12)) == pytest.approx(0.0, abs=1e-23)
