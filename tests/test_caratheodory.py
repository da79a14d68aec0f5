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
    lemma_forward,
    lemma_inverse,
    maximize_herglotz,
    maximize_param,
    maximize_phi,
    moments_from_atoms,
    monotonicity_scan,
    normalize_rotation,
    phi,
    sweep_alpha,
    toeplitz_psd,
)
from h2star.caratheodory import (
    _lemma_row_blocks,
    atom_pairs_from_text,
    random_atoms,
    random_disk_point,
    random_lemma_point,
)
from h2star.errors import MAX_ENTRIES

HALF_HALF_0_PI = HerglotzAtoms((0.5, 0.5), (0.0, math.pi))
A = Alpha(0.1)
DISK_POINTS = (0.3, -0.4j, 0.2 + 0.25j, -0.45 + 0.1j)


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
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = moments_from_atoms(random_atoms(rng), 6)
            assert np.max(np.abs(p)) <= 2.0 + 1e-14

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            moments_from_atoms(HALF_HALF_0_PI, 0)


def _series_at(atoms, z, order=80):
    """1 + p_1 z + ... + p_order z^order, from the atom moments."""
    p = moments_from_atoms(atoms, order)
    return 1.0 + np.sum(p * z ** np.arange(1, order + 1))


class TestSeriesFromAtoms:
    # the moment series sums to the Herglotz kernel: sum_k w_k (1 + e^{i t_k} z) / (1 - e^{i t_k} z)
    def test_even_kernel(self):
        for z in DISK_POINTS:
            assert _series_at(HALF_HALF_0_PI, z) == pytest.approx(
                (1 + z * z) / (1 - z * z), abs=1e-14
            )

    def test_single_atom(self):
        for z in DISK_POINTS:
            assert _series_at(HerglotzAtoms((1.0,), (0.0,)), z) == pytest.approx(
                (1 + z) / (1 - z), abs=1e-14
            )

    def test_alternating(self):
        for z in DISK_POINTS:
            assert _series_at(HerglotzAtoms((1.0,), (math.pi,)), z) == pytest.approx(
                (1 - z) / (1 + z), abs=1e-14
            )

    def test_matches_moments(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            atoms = random_atoms(rng)
            e = np.exp(1j * np.asarray(atoms.angles))
            w = np.asarray(atoms.weights)
            for z in DISK_POINTS:
                kernel = np.sum(w * (1 + e * z) / (1 - e * z))
                assert _series_at(atoms, z) == pytest.approx(kernel, abs=1e-13)


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
        rng = np.random.default_rng(8)
        for _ in range(300):
            min_eig, admissible = toeplitz_psd(moments_from_atoms(random_atoms(rng), 3))
            assert admissible, min_eig

    def test_parameterized_moments_admissible_in_bulk(self):
        # vectorized rebuild of the oracle, checked over 1e5 points
        rng = np.random.default_rng(9)
        n = 100_000
        p = rng.uniform(0.0, 2.0, n)
        y = _disk_batch(rng, n)
        zeta = _disk_batch(rng, n)
        q = 4.0 - p * p
        p1 = p.astype(complex)
        p2 = 0.5 * (p * p + y * q)
        p3 = 0.25 * (p**3 + 2 * q * p * y - p * q * y * y + 2 * q * (1 - np.abs(y) ** 2) * zeta)
        t = np.empty((n, 4, 4), dtype=complex)
        moments = np.stack([np.full(n, 2.0 + 0j), p1, p2, p3], axis=1)
        for j in range(4):
            for k in range(4):
                d = j - k
                t[:, j, k] = moments[:, d] if d >= 0 else np.conj(moments[:, -d])
        eigs = np.linalg.eigvalsh(t)
        assert float(eigs[:, 0].min()) >= -1e-7
        # spot-check the scalar oracle against the batched one
        for i in range(0, n, n // 200):
            min_eig, _ = toeplitz_psd([p1[i], p2[i], p3[i]])
            assert min_eig == pytest.approx(float(eigs[i, 0]), abs=1e-10)


def _disk_batch(rng, n):
    out = np.empty(n, dtype=complex)
    filled = 0
    while filled < n:
        cand = rng.uniform(-1, 1, 2 * (n - filled)) + 1j * rng.uniform(-1, 1, 2 * (n - filled))
        cand = cand[np.abs(cand) <= 1.0][: n - filled]
        out[filled : filled + cand.size] = cand
        filled += cand.size
    return out


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
        rng = np.random.default_rng(10)
        for _ in range(200):
            p = moments_from_atoms(random_atoms(rng), 3)
            before, _ = toeplitz_psd(p)
            rotated, _ = normalize_rotation(p)
            after, _ = toeplitz_psd(rotated)
            assert after == pytest.approx(before, abs=1e-10)
            assert abs(rotated[0].imag) <= 1e-12
            assert rotated[0].real >= -1e-15


def test_moment_round_trip_through_atoms():
    rng = np.random.default_rng(14)
    round_trips = 0
    for _ in range(500):
        atoms = random_atoms(rng)
        rotated, _ = normalize_rotation(moments_from_atoms(atoms, 3))
        m = MomentTriple(*rotated)
        if m.p1.real >= 2.0 - 1e-3:
            continue
        y, zeta = lemma_inverse(m)
        if zeta is None or abs(y) >= 1.0 - 1e-6:
            continue
        if abs(zeta) > 1.0:
            zeta = zeta / abs(zeta)
        back = lemma_forward(LemmaPoint(m.p1.real, y, zeta))
        for lhs, rhs in ((back.p1, m.p1), (back.p2, m.p2), (back.p3, m.p3)):
            assert abs(lhs - rhs) <= 1e-10
        round_trips += 1
    assert round_trips > 100


def test_random_lemma_point_stays_in_box():
    rng = np.random.default_rng(15)
    for _ in range(200):
        pt = random_lemma_point(rng)
        assert 0.0 <= pt.p <= 2.0
        assert abs(pt.y) <= 1.0
        assert abs(pt.zeta) <= 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: HankelSpec(math.inf, 2),
        lambda: HankelSpec(math.nan, 2),
        lambda: HankelSpec(2.7, 2),
        lambda: HankelSpec(2, 1.5),
        lambda: normalize_rotation([math.nan]),
        lambda: normalize_rotation([0.5, complex(0.0, math.inf)]),
        lambda: normalize_rotation([]),
        lambda: toeplitz_psd([]),
        lambda: lemma_inverse(MomentTriple(1.0j, 0.0, 0.0)),
        lambda: moments_from_atoms(HALF_HALF_0_PI, 0),
        lambda: CoefficientVector([]),
        lambda: CoefficientVector([2.0, 1.0]),
        lambda: maximize_phi(A, 2.5, 3),
        lambda: maximize_param(A, math.nan, 3, 3, 3),
        lambda: monotonicity_scan(A, math.nan, 5),
        lambda: sweep_alpha(0.0, 0.5, math.nan, "phi"),
        lambda: maximize_herglotz(A, restarts=2.5),
        lambda: extremal_coeffs(A, math.nan),
        lambda: moments_from_atoms(HALF_HALF_0_PI, 2.5),
        lambda: maximize_phi(A, workers=math.nan),
        lambda: maximize_herglotz(A, restarts=1, seed=2.5),
        lambda: maximize_phi(A, 2**60, 3),
        lambda: next(_lemma_row_blocks(np.random.default_rng(0), 1, 0)),
        lambda: closed_form_a234(A, MomentTriple(1e308, 0.0, 0.0)),
        lambda: closed_form_a234(A, MomentTriple(1.0, 1.0, 1e308)),
        lambda: coeffs_from_moments(A, [1e308, 1.0, 1.0]),
        lambda: toeplitz_psd([1e308 + 1e308j, -1e308, 1.7e308]),
        lambda: normalize_rotation([1.7e308 + 1.7e308j, 1.7e308]),
        lambda: lemma_inverse(MomentTriple(1.0, 1.5e308 + 1.5e308j, 0.0)),
        lambda: Alpha("x"),
        lambda: MomentTriple("x", 0, 0),
        lambda: LemmaPoint("x", 0, 0),
        lambda: LemmaPoint(1.0, "x", 0),
        lambda: LemmaPoint(1.0, 0, "x"),
        lambda: phi(A, "x", 0.5),
        lambda: bound_profile(A, "x"),
        lambda: coeffs_from_moments(A, ["x", 0, 0]),
        lambda: toeplitz_psd(["x", 0, 0]),
        lambda: normalize_rotation(["x", 0, 0]),
        lambda: CoefficientVector(["x", 0, 0]),
        lambda: sweep_alpha("x", 0.5, 1, "phi"),
    ],
    ids=["spec-inf", "spec-nan", "spec-fraction", "spec-n-fraction", "rotate-nan",
         "rotate-inf", "rotate-empty", "toeplitz-empty", "inverse-unrotated",
         "moments-m0", "coeffs-empty", "coeffs-a1", "phi-grid-fraction", "param-grid-nan",
         "scan-grid-nan", "sweep-steps-nan", "herglotz-restarts-fraction",
         "extremal-order-nan", "moments-m-fraction", "phi-workers-nan",
         "herglotz-seed-fraction", "phi-grid-2^60", "row-blocks-block0",
         "closed-form-power-overflow", "closed-form-a4-inf", "coeffs-overflow-warning",
         "toeplitz-eigenvalue-inf", "rotate-overflow", "inverse-y-nan", "alpha-string",
         "moments-string", "lemma-p-string", "lemma-y-string", "lemma-zeta-string",
         "phi-p-string", "profile-p-string", "coeffs-moment-string", "toeplitz-string",
         "rotate-string", "coeffvector-string", "sweep-alpha-string"],
)
def test_public_rejections_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


_REALS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_COMPLEX = st.builds(complex, _REALS, _REALS)
_TRIPLES = st.builds(MomentTriple, _COMPLEX, _COMPLEX, _COMPLEX)
_POINTS = st.builds(LemmaPoint, _REALS, _COMPLEX, _COMPLEX)
_MOMENT_LISTS = st.lists(_COMPLEX, max_size=4)
_ALPHAS = st.floats(0.0, 1.0, exclude_max=True).map(Alpha)

# Each exported function that takes real or complex numbers, with the
# strategies of its arguments.  A strategy that builds a MomentTriple or a
# LemmaPoint may raise, which the property counts as a rejection.
_NUMERIC_CALLS = {
    "Alpha": (Alpha, [_REALS]),
    "LemmaPoint": (LemmaPoint, [_REALS, _COMPLEX, _COMPLEX]),
    "MomentTriple": (MomentTriple, [_COMPLEX, _COMPLEX, _COMPLEX]),
    "phi": (phi, [_ALPHAS, _REALS, _REALS]),
    "bound_profile": (bound_profile, [_ALPHAS, _REALS]),
    "closed_form_a234": (closed_form_a234, [_ALPHAS, _TRIPLES]),
    "functional_moment_form": (functional_moment_form, [_ALPHAS, _TRIPLES]),
    "functional_param_form": (functional_param_form, [_ALPHAS, _POINTS]),
    "coeffs_from_moments": (coeffs_from_moments, [_ALPHAS, _MOMENT_LISTS]),
    "toeplitz_psd": (toeplitz_psd, [_MOMENT_LISTS]),
    "normalize_rotation": (normalize_rotation, [_MOMENT_LISTS]),
    "lemma_inverse": (lemma_inverse, [_TRIPLES]),
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


_NON_INTEGRAL = st.floats().filter(lambda x: not x.is_integer())
_COUNTS = st.one_of(
    _NON_INTEGRAL,
    st.integers(min_value=MAX_ENTRIES + 1),
    st.floats(min_value=float(MAX_ENTRIES), exclude_min=True),
)

# Each count argument of the exported functions.  A seed is any whole number
# of at least 0, so only non-integral seeds are drawn.
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
}


@pytest.mark.parametrize("name", list(_COUNT_CALLS))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_count_arguments_reject_non_integral_and_oversized_values(name, data):
    call, counts = _COUNT_CALLS[name]
    count = data.draw(counts)
    with pytest.raises(DomainError, match=name.split(".")[1]):
        call(count)
