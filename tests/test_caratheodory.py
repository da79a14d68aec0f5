import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2star import (
    Alpha,
    CoefficientVector,
    DegenerateP1,
    DomainError,
    H2StarError,
    HankelSpec,
    HerglotzAtoms,
    InadmissibleMoments,
    InvalidAtoms,
    InvalidLemmaPoint,
    LemmaPoint,
    MomentTriple,
    bound_profile,
    closed_form_a234,
    coeffs_from_moments,
    extremal_coeffs,
    functional_moment_form,
    functional_param_form,
    hankel_det,
    lemma_forward,
    lemma_inverse,
    maximize_herglotz,
    maximize_param,
    maximize_phi,
    moments_from_atoms,
    monotonicity_scan,
    normalize_rotation,
    phi,
    sharp_bound,
    sweep_alpha,
    toeplitz_psd,
)
from h2star.caratheodory import (
    _atom_moment_rows,
    _atom_rows,
    atom_pairs_from_text,
    random_disk_point,
    random_lemma_point,
)
from h2star.errors import MAX_ENTRIES, whole_number
from h2star.search import run_method
import reference
from reference import bits

HALF_HALF_0_PI = HerglotzAtoms((0.5, 0.5), (0.0, math.pi))
A = Alpha(0.1)
DISK_POINTS = (0.3, -0.4j, 0.2 + 0.25j, -0.45 + 0.1j)


def _atom_sets(rng, count):
    """The rows of _atom_rows as HerglotzAtoms, zero-weight pads included."""
    return [HerglotzAtoms(tuple(w), tuple(t)) for w, t in zip(*_atom_rows(rng, count))]


class TestAtoms:
    def test_rejects_empty(self):
        with pytest.raises(InvalidAtoms):
            HerglotzAtoms((), ())

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidAtoms):
            HerglotzAtoms((-0.1, 1.1), (0.0, 1.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidAtoms):
            HerglotzAtoms((0.5, 0.4), (0.0, 1.0))

    def test_overflowing_sum_is_refused_without_a_warning(self):
        # The running total of the weights overflows to inf; warnings are errors here.
        with pytest.raises(InvalidAtoms) as info:
            HerglotzAtoms((1e308, 1e308), (0.0, 1.0))
        assert str(info.value) == "weights must sum to 1, got inf"

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidAtoms):
            HerglotzAtoms((1.0,), (0.0, 1.0))

    @pytest.mark.parametrize(
        "weights, angles",
        [
            ((math.nan,), (0.0,)),
            ((math.inf,), (0.0,)),
            ((1.0,), (math.nan,)),
            ((0.5, 0.5), (0.0, -math.inf)),
        ],
    )
    def test_rejects_non_finite(self, weights, angles):
        with pytest.raises(InvalidAtoms, match="finite"):
            HerglotzAtoms(weights, angles)

    def test_angles_wrap_into_period(self):
        atoms = HerglotzAtoms((0.5, 0.5), (math.pi / 3, -math.pi / 3))
        assert atoms.angles[1] == pytest.approx(2 * math.pi - math.pi / 3)
        # np.mod(-1e-20, 2 pi) rounds to 2 pi itself, outside [0, 2 pi)
        assert HerglotzAtoms((1.0,), (-1e-20,)).angles == (0.0,)

    def test_text_round_trip(self):
        # the CLI reads --atoms with atom_pairs_from_text; 17 digits parse back exactly
        atoms = HerglotzAtoms((0.25, 0.75), (0.5, 3.141592653589793))
        text = ",".join(
            f"{format(w, '.17g')}:{format(t, '.17g')}"
            for w, t in zip(atoms.weights, atoms.angles)
        )
        again = HerglotzAtoms(*atom_pairs_from_text(text))
        assert again.weights == atoms.weights
        assert again.angles == atoms.angles

    def test_text_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            atom_pairs_from_text("0.5;0")


class TestAtomRows:
    def test_rows_are_atom_sets_of_one_to_five_atoms(self):
        weights, angles = _atom_rows(np.random.default_rng(5), 2000)
        assert weights.shape == angles.shape == (2000, 5)
        k = np.count_nonzero(weights, axis=1)
        assert set(k.tolist()) == {1, 2, 3, 4, 5}
        pad = np.arange(5) >= k[:, None]
        assert np.all(weights[pad] == 0.0) and np.all(angles[pad] == 0.0)
        assert np.all(weights >= 0.0)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all((angles >= 0.0) & (angles < 2 * math.pi))

    def test_rows_are_seeded(self):
        first = _atom_rows(np.random.default_rng(5), 50)
        again = _atom_rows(np.random.default_rng(5), 50)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_zero_rows(self):
        weights, angles = _atom_rows(np.random.default_rng(5), 0)
        assert weights.shape == angles.shape == (0, 5)


class TestMoments:
    def test_single_atom_at_zero(self):
        atoms = HerglotzAtoms((1.0,), (0.0,))
        np.testing.assert_allclose(moments_from_atoms(atoms, 5), 2.0 * np.ones(5), atol=0)

    def test_sharpness_pair(self):
        np.testing.assert_allclose(
            moments_from_atoms(HALF_HALF_0_PI, 3), [0.0, 2.0, 0.0], atol=1e-15
        )

    def test_powers_of_i(self):
        atoms = HerglotzAtoms((1.0,), (math.pi / 2,))
        np.testing.assert_allclose(
            moments_from_atoms(atoms, 3), [2.0j, -2.0, -2.0j], atol=1e-14
        )

    def test_alternating(self):
        atoms = HerglotzAtoms((1.0,), (math.pi,))
        np.testing.assert_allclose(moments_from_atoms(atoms, 2), [-2.0, 2.0], atol=1e-14)

    def test_moment_bound(self):
        p = _atom_moment_rows(*_atom_rows(np.random.default_rng(5), 300), 6)
        assert np.max(np.abs(p)) <= 2.0 + 1e-14

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            moments_from_atoms(HALF_HALF_0_PI, 0)


def _assert_series(atoms, kernel, tol):
    """1 + p_1 z + ... + p_80 z^80, from the atom moments, within ``tol`` of
    kernel(z) at each of DISK_POINTS."""
    p = moments_from_atoms(atoms, 80)
    for z in DISK_POINTS:
        assert 1.0 + np.sum(p * z ** np.arange(1, 81)) == pytest.approx(kernel(z), abs=tol)


class TestSeriesFromAtoms:
    # the moment series sums to the Herglotz kernel: sum_k w_k (1 + e^{i t_k} z) / (1 - e^{i t_k} z)
    def test_even_kernel(self):
        _assert_series(HALF_HALF_0_PI, lambda z: (1 + z * z) / (1 - z * z), 1e-14)

    def test_single_atom(self):
        _assert_series(HerglotzAtoms((1.0,), (0.0,)), lambda z: (1 + z) / (1 - z), 1e-14)

    def test_alternating(self):
        _assert_series(HerglotzAtoms((1.0,), (math.pi,)), lambda z: (1 - z) / (1 + z), 1e-14)

    def test_matches_moments(self):
        for atoms in _atom_sets(np.random.default_rng(6), 20):
            e = np.exp(1j * np.asarray(atoms.angles))
            w = np.asarray(atoms.weights)
            _assert_series(atoms, lambda z: np.sum(w * (1 + e * z) / (1 - e * z)), 1e-13)


class TestLemmaForward:
    def test_sharpness_triple(self):
        m = lemma_forward(LemmaPoint(0.0, 1.0, 0.0))
        assert (m.p1, m.p2, m.p3) == (0.0, 2.0, 0.0)

    def test_boundary_p(self):
        m = lemma_forward(LemmaPoint(2.0, 0.3 + 0.4j, -0.7j))
        assert (m.p1, m.p2, m.p3) == (2.0, 2.0, 2.0)

    def test_hand_substitution(self):
        m = lemma_forward(LemmaPoint(1.0, 0.0, 1.0))
        assert m.p1 == 1.0
        assert m.p2 == pytest.approx(0.5, abs=0)
        assert m.p3 == pytest.approx(1.75, abs=0)

    def test_rejects_out_of_box(self):
        with pytest.raises(InvalidLemmaPoint):
            LemmaPoint(-0.1, 0.0, 0.0)
        with pytest.raises(InvalidLemmaPoint):
            LemmaPoint(2.1, 0.0, 0.0)
        with pytest.raises(InvalidLemmaPoint):
            LemmaPoint(1.0, 1.0 + 1e-6, 0.0)
        with pytest.raises(InvalidLemmaPoint):
            LemmaPoint(1.0, 0.0, -1.0 - 1e-6)

    @pytest.mark.parametrize(
        "p, y, zeta",
        [
            (math.nan, 0.0, 0.0),
            (math.inf, 0.0, 0.0),
            (1.0, complex(0.0, math.nan), 0.0),
            (1.0, 0.0, math.nan),
            (1.0, 0.0, complex(math.nan, math.inf)),
            # finite, but abs() of it overflows
            (1.0, complex(1.5e308, 1.5e308), 0.0),
        ],
    )
    def test_rejects_non_finite(self, p, y, zeta):
        with pytest.raises(InvalidLemmaPoint):
            LemmaPoint(p, y, zeta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_moment_triple_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            MomentTriple(1.0, bad, 0.0)


class TestLemmaInverse:
    def test_sharpness_triple_boundary_y(self):
        y, zeta = lemma_inverse(MomentTriple(0.0, 2.0, 0.0))
        assert y == pytest.approx(1.0, abs=0)
        assert zeta is None

    def test_degenerate_boundary_atom(self):
        with pytest.raises(DegenerateP1):
            lemma_inverse(MomentTriple(2.0, 2.0, 2.0))

    def test_two_atom_measure_hits_circle(self):
        atoms = HerglotzAtoms((0.5, 0.5), (math.pi / 3, -math.pi / 3))
        p = moments_from_atoms(atoms, 3)
        np.testing.assert_allclose(p, [1.0, -1.0, -2.0], atol=1e-14)
        y, zeta = lemma_inverse(MomentTriple(*p))
        assert y == pytest.approx(-1.0, abs=1e-14)
        assert zeta is None

    def test_inadmissible_moments(self):
        with pytest.raises(InadmissibleMoments):
            lemma_inverse(MomentTriple(0.0, 2.5, 0.0))

    def test_requires_normalized_p1(self):
        with pytest.raises(ValueError):
            lemma_inverse(MomentTriple(1.0j, 0.0, 0.0))

    def test_recovers_interior_points(self):
        # start from a parameterization point, push forward, invert
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(500):
            pt = LemmaPoint(
                rng.uniform(0.0, 1.9),
                random_disk_point(rng, 0.99),
                random_disk_point(rng),
            )
            y, zeta = lemma_inverse(lemma_forward(pt))
            worst = max(worst, abs(y - pt.y))
            if zeta is not None:
                worst = max(worst, abs(zeta - pt.zeta))
        assert worst <= 1e-10, worst

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(1e-12, 1.0)),
        angles=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        gap=st.one_of(st.floats(-1e-3, 1e-3), st.floats(0.0, 2 * math.pi)),
    )
    def test_accepts_three_atom_measures(self, weights, angles, gap):
        # Three atoms make the 4 x 4 Toeplitz matrix singular, so the true
        # |zeta| is 1; near a two-atom measure (a tiny weight, or two close
        # angles) |y| nears 1 and rounding pushes the recovered |zeta| past it.
        total = sum(weights)
        atoms = HerglotzAtoms(tuple(w / total for w in weights), (*angles, angles[1] + gap))
        rotated, _ = normalize_rotation(moments_from_atoms(atoms, 3))
        try:
            y, zeta = lemma_inverse(MomentTriple(*rotated))
        except DegenerateP1:  # one atom carries nearly all the weight
            assert rotated[0].real >= 2.0 - 1e-12
            return
        # on the closed disk, up to the rounding of the scaling onto the circle
        assert abs(y) <= 1.0 + 1e-15
        assert zeta is None or abs(zeta) <= 1.0 + 1e-15

    def test_refuses_zeta_past_the_moment_rule(self):
        # p = 1, y = 0.9: q (1 - |y|^2) / 2 = 0.285, so |zeta| = 1 + 1e-8
        # moves p3 by 2.85e-9 > PSD_TOL, and |zeta| = 1 + 1e-9 by 2.85e-10.
        m = lemma_forward(LemmaPoint(1.0, 0.9, 1.0))
        for excess, refused in ((1e-8, True), (1e-9, False)):
            p3 = m.p3 + 3.0 * (1.0 - 0.81) * excess / 2.0
            if refused:
                with pytest.raises(InadmissibleMoments, match="zeta"):
                    lemma_inverse(MomentTriple(m.p1, m.p2, p3))
            else:
                y, zeta = lemma_inverse(MomentTriple(m.p1, m.p2, p3))
                assert zeta == pytest.approx(1.0, abs=1e-12) and abs(zeta) <= 1.0


class TestToeplitzPsd:
    def test_rank_one_extreme(self):
        min_eig, admissible = toeplitz_psd([2.0, 2.0, 2.0])
        assert admissible
        assert min_eig == pytest.approx(0.0, abs=1e-12)

    def test_even_extreme_spectrum(self):
        min_eig, admissible = toeplitz_psd([0.0, 2.0, 0.0])
        assert admissible
        assert min_eig == pytest.approx(0.0, abs=1e-12)
        # independent eigendecomposition of the same 4x4 matrix
        t = np.array(
            [
                [2, 0, 2, 0],
                [0, 2, 0, 2],
                [2, 0, 2, 0],
                [0, 2, 0, 2],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(np.linalg.eigvalsh(t), [0, 0, 4, 4], atol=1e-12)

    def test_oversized_first_moment(self):
        min_eig, admissible = toeplitz_psd([2.5, 0.0, 0.0])
        assert not admissible
        assert min_eig < 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            toeplitz_psd([bad, 2.0, 0.0])

    def test_atom_measures_always_admissible(self):
        for atoms in _atom_sets(np.random.default_rng(8), 300):
            min_eig, admissible = toeplitz_psd(moments_from_atoms(atoms, 3))
            assert admissible, min_eig

    def test_parameterized_moments_admissible_in_bulk(self):
        # vectorized rebuild of the oracle, checked over 1e5 points
        rng = np.random.default_rng(9)
        n = 100_000
        p = rng.uniform(0.0, 2.0, n)
        y = reference.join(*reference.disk_parts(rng, n))
        zeta = reference.join(*reference.disk_parts(rng, n))
        p1, p2, p3 = reference.lemma_forward(p, y, zeta)
        least = reference.toeplitz_min_eig(np.stack([p1, p2, p3], axis=1).astype(complex))
        assert float(least.min()) >= -1e-7
        # spot-check the scalar oracle against the batched one
        for i in range(0, n, n // 200):
            min_eig, _ = toeplitz_psd([p1[i], p2[i], p3[i]])
            assert min_eig == pytest.approx(float(least[i]), abs=1e-10)


class TestNormalizeRotation:
    def test_quarter_turn(self):
        q, theta = normalize_rotation([2.0j, -2.0, -2.0j])
        assert theta == pytest.approx(-math.pi / 2)
        np.testing.assert_allclose(q, [2.0, 2.0, 2.0], atol=1e-14)

    def test_already_normalized(self):
        q, theta = normalize_rotation([1.0, 1.0j, 0.0])
        assert theta == 0.0
        np.testing.assert_allclose(q, [1.0, 1.0j, 0.0], atol=0)

    def test_zero_first_moment(self):
        q, theta = normalize_rotation([0.0, 2.0, 0.0])
        assert theta == 0.0
        np.testing.assert_allclose(q, [0.0, 2.0, 0.0], atol=0)

    def test_preserves_admissibility(self):
        for atoms in _atom_sets(np.random.default_rng(10), 200):
            p = moments_from_atoms(atoms, 3)
            before, _ = toeplitz_psd(p)
            rotated, _ = normalize_rotation(p)
            after, _ = toeplitz_psd(rotated)
            assert after == pytest.approx(before, abs=1e-10)
            assert abs(rotated[0].imag) <= 1e-12
            assert rotated[0].real >= -1e-15


def test_moment_round_trip_through_atoms():
    round_trips = 0
    for atoms in _atom_sets(np.random.default_rng(14), 500):
        trip = reference.round_trip(moments_from_atoms(atoms, 3))
        if trip is None:
            continue
        m, back = trip
        for lhs, rhs in ((back.p1, m.p1), (back.p2, m.p2), (back.p3, m.p3)):
            assert abs(lhs - rhs) <= 1e-10
        round_trips += 1
    assert round_trips > 100


class TestRandomDiskPoint:
    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf, 1e308, True, "1"])
    def test_rejects_bad_radius(self, radius):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="^radius must"):
            random_disk_point(rng, radius)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("radius", [0, 0.0])
    def test_zero_radius_is_the_origin(self, radius):
        z = random_disk_point(np.random.default_rng(3), radius)
        assert z == 0j and repr(z) == "0j"

    def test_points_lie_in_the_disk(self):
        rng = np.random.default_rng(4)
        for radius in (1e-300, 0.3, 1, 8.9e307):
            assert all(abs(random_disk_point(rng, radius)) <= radius for _ in range(50))


def test_random_lemma_point_stays_in_box():
    rng = np.random.default_rng(15)
    for _ in range(200):
        pt = random_lemma_point(rng)
        assert 0.0 <= pt.p <= 2.0
        assert abs(pt.y) <= 1.0
        assert abs(pt.zeta) <= 1.0


# Each call of an export with an argument it must refuse, by test id.
_REJECTED_CALLS = {
    "spec-inf": lambda: HankelSpec(math.inf, 2),
    "spec-nan": lambda: HankelSpec(math.nan, 2),
    "spec-fraction": lambda: HankelSpec(2.7, 2),
    "spec-n-fraction": lambda: HankelSpec(2, 1.5),
    "rotate-nan": lambda: normalize_rotation([math.nan]),
    "rotate-inf": lambda: normalize_rotation([0.5, complex(0.0, math.inf)]),
    "rotate-empty": lambda: normalize_rotation([]),
    "toeplitz-empty": lambda: toeplitz_psd([]),
    "inverse-unrotated": lambda: lemma_inverse(MomentTriple(1.0j, 0.0, 0.0)),
    "moments-m0": lambda: moments_from_atoms(HALF_HALF_0_PI, 0),
    "coeffs-empty": lambda: CoefficientVector([]),
    "coeffs-a1": lambda: CoefficientVector([2.0, 1.0]),
    "phi-grid-fraction": lambda: maximize_phi(A, 2.5, 3),
    "param-grid-nan": lambda: maximize_param(A, math.nan, 3, 3, 3),
    "scan-grid-nan": lambda: monotonicity_scan(A, math.nan, 5),
    "sweep-steps-nan": lambda: sweep_alpha(0.0, 0.5, math.nan, "phi"),
    "herglotz-restarts-fraction": lambda: maximize_herglotz(A, restarts=2.5),
    "extremal-order-nan": lambda: extremal_coeffs(A, math.nan),
    "moments-m-fraction": lambda: moments_from_atoms(HALF_HALF_0_PI, 2.5),
    "phi-workers-nan": lambda: maximize_phi(A, workers=math.nan),
    "herglotz-seed-fraction": lambda: maximize_herglotz(A, restarts=1, seed=2.5),
    "phi-grid-2^60": lambda: maximize_phi(A, 2**60, 3),
    "closed-form-power-overflow": lambda: closed_form_a234(A, MomentTriple(1e308, 0.0, 0.0)),
    "closed-form-a4-inf": lambda: closed_form_a234(A, MomentTriple(1.0, 1.0, 1e308)),
    "coeffs-overflow-warning": lambda: coeffs_from_moments(A, [1e308, 1.0, 1.0]),
    "toeplitz-eigenvalue-inf": lambda: toeplitz_psd([1e308 + 1e308j, -1e308, 1.7e308]),
    "rotate-overflow": lambda: normalize_rotation([1.7e308 + 1.7e308j, 1.7e308]),
    "inverse-y-nan": lambda: lemma_inverse(MomentTriple(1.0, 1.5e308 + 1.5e308j, 0.0)),
    "alpha-string": lambda: Alpha("x"),
    "moments-string": lambda: MomentTriple("x", 0, 0),
    "lemma-p-string": lambda: LemmaPoint("x", 0, 0),
    "lemma-y-string": lambda: LemmaPoint(1.0, "x", 0),
    "lemma-zeta-string": lambda: LemmaPoint(1.0, 0, "x"),
    "phi-p-string": lambda: phi(A, "x", 0.5),
    "profile-p-string": lambda: bound_profile(A, "x"),
    "coeffs-moment-string": lambda: coeffs_from_moments(A, ["x", 0, 0]),
    "toeplitz-string": lambda: toeplitz_psd(["x", 0, 0]),
    "rotate-string": lambda: normalize_rotation(["x", 0, 0]),
    "coeffvector-string": lambda: CoefficientVector(["x", 0, 0]),
    "sweep-alpha-string": lambda: sweep_alpha("x", 0.5, 1, "phi"),
    "coeffs-alpha-1.5": lambda: coeffs_from_moments(1.5, [1, 0, 0]),
    "coeffs-alpha-int-3": lambda: coeffs_from_moments(-3, [1, 0, 0]),
    "phi-alpha-1.5": lambda: phi(1.5, 1, 0.5),
    "phi-search-alpha-1.5": lambda: maximize_phi(1.5),
    "bound-alpha-negative": lambda: sharp_bound(-0.25),
    "extremal-alpha-1": lambda: extremal_coeffs(1.0, 5),
    "closed-form-alpha-nan": lambda: closed_form_a234(math.nan, MomentTriple(1, 0, 0)),
    "moment-form-tuple": lambda: functional_moment_form(A, (1, 0, 0)),
    "closed-form-tuple": lambda: closed_form_a234(A, (1, 0, 0)),
    "inverse-tuple": lambda: lemma_inverse((1, 0, 0)),
    "param-form-tuple": lambda: functional_param_form(A, (1, 0, 0)),
    "forward-tuple": lambda: lemma_forward((1, 0, 0)),
    "moments-atoms-tuple": lambda: moments_from_atoms((1,), 3),
    "hankel-list": lambda: hankel_det([1, 2, 3, 4], HankelSpec(2, 2)),
    "hankel-spec-tuple": lambda: hankel_det(CoefficientVector([1, 2, 3, 4]), (2, 2)),
    "param-search-seed-object": lambda: maximize_param(A, 2, 2, 2, 2, seed=object()),
    "coeffs-moments-2d": lambda: coeffs_from_moments(A, [[1, 2], [3, 4]]),
    "toeplitz-2d": lambda: toeplitz_psd([[1, 2], [3, 4]]),
    "rotate-2d": lambda: normalize_rotation([[1, 2], [3, 4]]),
    "alpha-numeric-string": lambda: Alpha("0.5"),
    "alpha-bytes": lambda: Alpha(b"0.5"),
    "alpha-false": lambda: Alpha(False),
    "alpha-numpy-bool": lambda: Alpha(np.bool_(False)),
    "atoms-numeric-strings": lambda: HerglotzAtoms(("0.5", "0.5"), (0, 1)),
    "atoms-bool-angle": lambda: HerglotzAtoms((0.5, 0.5), (0, True)),
    "moments-numeric-string": lambda: MomentTriple("1", 0, 0),
    "lemma-p-bool": lambda: LemmaPoint(True, 0, 0),
    "whole-number-true": lambda: whole_number("seed", True, 0),
    "whole-number-numpy-true": lambda: whole_number("seed", np.bool_(True), 0),
    "phi-search-seed-true": lambda: maximize_phi(A, 3, 3, seed=True),
    "phi-p-string-list": lambda: phi(A, ["0.5"], 0.5),
    "phi-t-bool-array": lambda: phi(A, 1.0, np.array([True, False])),
    "coeffs-moment-string-list": lambda: coeffs_from_moments(A, ["1", "0"]),
    "phi-p-bool-among-numbers": lambda: phi(0.1, [True, 0.5], 0.5),
    "toeplitz-bool-among-numbers": lambda: toeplitz_psd([0.5, True]),
    "rotate-bool-among-numbers": lambda: normalize_rotation([0.5, True, 1]),
    "coeffs-bool-among-numbers": lambda: coeffs_from_moments(0.1, [True, 1.0]),
    "sweep-option-of-another-method": lambda: sweep_alpha(0.0, 0.5, 1, "herglotz", grid_p=3),
    "run-option-of-another-method": lambda: run_method("phi", 0.5, restarts=3),
    "coeff-true": lambda: CoefficientVector([1, 5, 7]).coeff(True),
    "coeff-fraction": lambda: CoefficientVector([1, 5, 7]).coeff(2.5),
    "coeff-string": lambda: CoefficientVector([1, 5, 7]).coeff("2"),
}


@pytest.mark.parametrize("call", _REJECTED_CALLS.values(), ids=_REJECTED_CALLS.keys())
def test_public_rejections_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


_REALS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_COMPLEX = st.builds(complex, _REALS, _REALS)
_TRIPLES = st.one_of(st.builds(MomentTriple, _COMPLEX, _COMPLEX, _COMPLEX),
                     st.tuples(_COMPLEX, _COMPLEX, _COMPLEX))
_POINTS = st.one_of(st.builds(LemmaPoint, _REALS, _COMPLEX, _COMPLEX),
                    st.tuples(_REALS, _COMPLEX, _COMPLEX))
# Half the lists mix truth values in among the numbers.
_MOMENT_LISTS = st.one_of(
    st.lists(_COMPLEX, max_size=4),
    st.lists(st.one_of(_COMPLEX, st.booleans()), min_size=1, max_size=4),
)
_REAL_ARGS = st.one_of(_REALS, st.lists(st.one_of(_REALS, st.booleans()), min_size=1, max_size=3))
_ALPHAS = st.one_of(st.floats(0.0, 1.0, exclude_max=True).map(Alpha), _REALS)

# Each exported function that takes real or complex numbers, with the
# strategies of its arguments.  A strategy that builds a MomentTriple or a
# LemmaPoint may raise, which the property counts as a rejection; a plain
# tuple in their place must be rejected too.  Alpha is drawn as an Alpha or
# as any real number.
_NUMERIC_CALLS = {
    "Alpha": (Alpha, [_REALS]),
    "LemmaPoint": (LemmaPoint, [_REALS, _COMPLEX, _COMPLEX]),
    "MomentTriple": (MomentTriple, [_COMPLEX, _COMPLEX, _COMPLEX]),
    "phi": (phi, [_ALPHAS, _REAL_ARGS, _REALS]),
    "sharp_bound": (sharp_bound, [_ALPHAS]),
    "extremal_coeffs": (extremal_coeffs, [_ALPHAS, st.integers(4, 12)]),
    "bound_profile": (bound_profile, [_ALPHAS, _REALS]),
    "closed_form_a234": (closed_form_a234, [_ALPHAS, _TRIPLES]),
    "functional_moment_form": (functional_moment_form, [_ALPHAS, _TRIPLES]),
    "functional_param_form": (functional_param_form, [_ALPHAS, _POINTS]),
    "coeffs_from_moments": (coeffs_from_moments, [_ALPHAS, _MOMENT_LISTS]),
    "toeplitz_psd": (toeplitz_psd, [_MOMENT_LISTS]),
    "normalize_rotation": (normalize_rotation, [_MOMENT_LISTS]),
    "lemma_inverse": (lemma_inverse, [_TRIPLES]),
    "lemma_forward": (lemma_forward, [_POINTS]),
}


def _numbers(result) -> list:
    """Every number in a result, flattened; None entries are left out."""
    if isinstance(result, CoefficientVector):
        result = result.coeffs
    elif dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, tuple):
        return [x for item in result if item is not None for x in _numbers(item)]
    return list(np.ravel(result))


@pytest.mark.parametrize("name", list(_NUMERIC_CALLS))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_numeric_exports_return_finite_values_or_raise(name, data):
    """Finite, huge (1e308), NaN and infinite inputs give finite values or an H2StarError."""
    fn, strategies = _NUMERIC_CALLS[name]
    try:
        args = [data.draw(s) for s in strategies]
        result = fn(*args)
    except H2StarError:
        return
    assert np.isfinite(np.asarray(_numbers(result), dtype=complex)).all(), (args, result)


# Each exported function that takes a sequence of numbers, called with one.
_SEQUENCE_CALLS = {
    "phi": lambda entries: phi(0.1, entries, 0.5),
    "toeplitz_psd": toeplitz_psd,
    "normalize_rotation": normalize_rotation,
    "coeffs_from_moments": lambda entries: coeffs_from_moments(0.1, entries),
}


@pytest.mark.parametrize("name", list(_SEQUENCE_CALLS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    numbers=st.lists(st.floats(0.0, 1.0), max_size=3),
    truth=st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_])),
    at=st.integers(0, 3),
    kind=st.sampled_from([list, tuple]),
)
def test_truth_values_among_numbers_are_rejected(name, numbers, truth, at, kind):
    entries = kind(numbers[:at] + [truth] + numbers[at:])
    with pytest.raises(DomainError, match="truth-value"):
        _SEQUENCE_CALLS[name](entries)


_NON_INTEGRAL = st.floats().filter(lambda x: not x.is_integer())
_COUNTS = st.one_of(
    _NON_INTEGRAL,
    st.integers(min_value=MAX_ENTRIES + 1),
    st.floats(min_value=float(MAX_ENTRIES), exclude_min=True),
)

# Each count argument of the exported functions.  A seed is any whole number
# of at least 0, and coeff(n) raises IndexError on a whole number outside
# 1..N, so only non-integral values are drawn for these.
_COUNT_CALLS = {
    "HankelSpec.q": (lambda c: HankelSpec(c, 2), _COUNTS),
    "HankelSpec.n": (lambda c: HankelSpec(2, c), _COUNTS),
    "moments_from_atoms.m": (lambda c: moments_from_atoms(HALF_HALF_0_PI, c), _COUNTS),
    "extremal_coeffs.order": (lambda c: extremal_coeffs(A, c), _COUNTS),
    "maximize_phi.grid_p": (lambda c: maximize_phi(A, c, 3), _COUNTS),
    "maximize_phi.grid_t": (lambda c: maximize_phi(A, 3, c), _COUNTS),
    "maximize_phi.workers": (lambda c: maximize_phi(A, 3, 3, workers=c), _COUNTS),
    "maximize_param.grid_p": (lambda c: maximize_param(A, c, 2, 2, 2), _COUNTS),
    "maximize_param.grid_ymod": (lambda c: maximize_param(A, 2, c, 2, 2), _COUNTS),
    "maximize_param.grid_yarg": (lambda c: maximize_param(A, 2, 2, c, 2), _COUNTS),
    "maximize_param.grid_zarg": (lambda c: maximize_param(A, 2, 2, 2, c), _COUNTS),
    "maximize_param.workers": (lambda c: maximize_param(A, 2, 2, 2, 2, workers=c), _COUNTS),
    "monotonicity_scan.grid_p": (lambda c: monotonicity_scan(A, c, 3), _COUNTS),
    "monotonicity_scan.grid_t": (lambda c: monotonicity_scan(A, 3, c), _COUNTS),
    "sweep_alpha.steps": (lambda c: sweep_alpha(0.0, 0.5, c, "phi"), _COUNTS),
    "sweep_alpha.workers": (lambda c: sweep_alpha(0.0, 0.5, 1, "herglotz", workers=c),
                            _COUNTS),
    "maximize_herglotz.atom_count": (lambda c: maximize_herglotz(A, c, 1), _COUNTS),
    "maximize_herglotz.restarts": (lambda c: maximize_herglotz(A, restarts=c), _COUNTS),
    "maximize_herglotz.local_steps": (lambda c: maximize_herglotz(A, restarts=1, local_steps=c),
                                      _COUNTS),
    "maximize_herglotz.seed": (lambda c: maximize_herglotz(A, restarts=1, seed=c),
                               _NON_INTEGRAL),
    "maximize_phi.seed": (lambda c: maximize_phi(A, 3, 3, seed=c), _NON_INTEGRAL),
    "maximize_param.seed": (lambda c: maximize_param(A, 2, 2, 2, 2, seed=c), _NON_INTEGRAL),
    "coeff.n": (lambda c: CoefficientVector([1, 5, 7]).coeff(c), _NON_INTEGRAL),
}


@pytest.mark.parametrize("name", list(_COUNT_CALLS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_count_arguments_reject_non_integral_and_oversized_values(name, data):
    call, counts = _COUNT_CALLS[name]
    count = data.draw(counts)
    with pytest.raises(DomainError, match=name.split(".")[1]):
        call(count)


@pytest.mark.parametrize("least, most, text", [
    (1, 4, "n must be a whole number from 1 to 4, got 2.5"),
    (0, math.inf, "n must be a whole number of at least 0, got 2.5"),
    (-math.inf, math.inf, "n must be a whole number, got 2.5"),
])
def test_whole_number_error_names_only_bounded_ends(least, most, text):
    with pytest.raises(DomainError) as err:
        whole_number("n", 2.5, least, most)
    assert str(err.value) == text


_MOMENTS = MomentTriple(1.5, 0.3 + 0.2j, -1.0 + 0.5j)

# Each exported function that takes alpha, called at one alpha.
_ALPHA_CALLS = {
    "coeffs_from_moments": lambda a: coeffs_from_moments(a, [1.5, 0.3 + 0.2j, -1.0 + 0.5j, 0.1]),
    "closed_form_a234": lambda a: closed_form_a234(a, _MOMENTS),
    "extremal_coeffs": lambda a: extremal_coeffs(a, 9),
    "functional_moment_form": lambda a: functional_moment_form(a, _MOMENTS),
    "functional_param_form": lambda a: functional_param_form(a, LemmaPoint(1.2, 0.3 - 0.4j, 0.6j)),
    "phi": lambda a: phi(a, np.linspace(0.0, 2.0, 5)[:, None], np.linspace(0.0, 1.0, 3)),
    "bound_profile": lambda a: bound_profile(a, np.linspace(0.0, 2.0, 7)),
    "sharp_bound": sharp_bound,
    "maximize_phi": maximize_phi,
    "maximize_param": maximize_param,
    "maximize_herglotz": maximize_herglotz,
    "monotonicity_scan": monotonicity_scan,
}


@pytest.mark.parametrize("a", [0.0, 0.25, 0.75])
@pytest.mark.parametrize("name", list(_ALPHA_CALLS))
def test_float_alpha_gives_the_alpha_result_bit_for_bit(name, a):
    call = _ALPHA_CALLS[name]
    assert bits(call(a)) == bits(call(Alpha(a)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: coeffs_from_moments(2.0, ["x"]),
        lambda: extremal_coeffs(2.0, 0),
        lambda: bound_profile(2.0, "x"),
        lambda: phi(2.0, "x", 0.5),
        lambda: maximize_phi(2.0, 0),
        lambda: maximize_param(2.0, 0),
        lambda: maximize_herglotz(2.0, restarts=0),
        lambda: monotonicity_scan(2.0, 0),
        lambda: functional_moment_form(2.0, (1, 0, 0)),
        lambda: functional_param_form(2.0, (1, 0, 0)),
        lambda: closed_form_a234(2.0, (1, 0, 0)),
    ],
    ids=["coeffs", "extremal", "profile", "phi", "phi-search", "param-search", "herglotz",
         "scan", "moment-form", "param-form", "closed-form"],
)
def test_alpha_is_checked_before_the_other_arguments(call):
    with pytest.raises(DomainError, match="alpha"):
        call()
