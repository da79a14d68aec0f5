"""The blocked and row-kernel acceptance checks against their one-point loops.

``_lemma_row_blocks`` must draw its rows from the distributions of
``alpha = rng.random(); pt = random_lemma_point(rng)``, and the atom sets and
moment triples of ``caratheodory-admissibility`` and ``algebra-reconciliation``
from theirs, and the array kernels the checks evaluate must agree, row by
row, with the scalar functions the checks called one point at a time.  The
scalar functions below are the reference.
"""
import math

import numpy as np
import pytest

from h2star import (
    Alpha,
    DegenerateP1,
    DomainError,
    H2StarError,
    HerglotzAtoms,
    InadmissibleMoments,
    InvalidAtoms,
    InvalidLemmaPoint,
    LemmaPoint,
    MomentTriple,
    caratheodory,
    checks,
    closed_form_a234,
    lemma_inverse,
    moments_from_atoms,
    normalize_rotation,
    toeplitz_psd,
)
from h2star.caratheodory import (
    _atom_moment_rows,
    _atom_rows,
    _check_lemma_box,
    _lemma_forward_raw,
    _lemma_inverse_rows,
    _lemma_row_blocks,
    _rotation_rows,
    _toeplitz_min_eig_rows,
    _triple_rows,
    lemma_forward,
    random_disk_point,
    random_lemma_point,
)
from h2star.hankel import (
    _moment_form_raw,
    _param_form_raw,
    _phi_raw,
    functional_moment_form,
    functional_param_form,
    phi,
)
from h2star.starlike import _closed_form_rows


def _rows(rng, count):
    """The blocks of _lemma_row_blocks, checked for size, as one (count, 4) array."""
    block = caratheodory.LEMMA_BLOCK_ROWS
    blocks = list(_lemma_row_blocks(rng, count))
    assert [b[0].size for b in blocks] == [min(block, count - s) for s in range(0, count, block)]
    assert all(col.size == b[0].size for b in blocks for col in b)
    return np.column_stack([np.concatenate(col) for col in zip(*blocks)]).astype(complex)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_rows_are_seeded_and_sized(block, monkeypatch):
    monkeypatch.setattr(caratheodory, "LEMMA_BLOCK_ROWS", block)
    rows = _rows(np.random.default_rng(12), 2000)
    assert rows.shape == (2000, 4)
    again = _rows(np.random.default_rng(12), 2000)
    assert np.array_equal(rows.view(np.uint64), again.view(np.uint64))


# Each statistic below is a mean of n independent draws; at 5 standard
# errors a seed fails by chance about once in 1.7 million.
def _assert_uniform_alpha_and_disks(alpha, disks, radius):
    """alpha uniform on [0, 1) and each of ``disks`` uniform on the closed
    disk of ``radius``, at 5 standard errors."""
    n = alpha.size
    assert np.all(alpha.imag == 0)
    # alpha uniform on [0, 1): mean 1/2, variance 1/12
    assert abs(alpha.real.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / n)
    # uniform on the disk: P(|z| <= r) = (r / radius)^2, so 1/2 at r = radius/sqrt(2)
    for z in disks:
        assert np.all(np.abs(z) <= radius)
        share = np.mean(np.abs(z) <= radius / math.sqrt(2))
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / n)


def test_rows_follow_the_lemma_distributions():
    rows = _rows(np.random.default_rng(12), 100_000)
    alpha, p, y, zeta = rows.T
    n = rows.shape[0]
    _assert_uniform_alpha_and_disks(alpha, (y, zeta), 1.0)
    # p = 2 U
    assert np.all(p.imag == 0)
    assert abs(p.real.mean() - 1.0) <= 5 * math.sqrt(4 / 12 / n)


def test_triple_rows_follow_their_distributions():
    alpha, *moments = _triple_rows(np.random.default_rng(11), 100_000)
    assert alpha.size == 100_000 and all(m.shape == (100_000,) for m in moments)
    _assert_uniform_alpha_and_disks(alpha, moments, 2.0)


def test_atom_rows_follow_their_distributions():
    weights, angles = _atom_rows(np.random.default_rng(13), 100_000)
    n = weights.shape[0]
    k = np.count_nonzero(weights, axis=1)
    live = np.arange(5) < k[:, None]
    # k uniform on 1..5
    for j in range(1, 6):
        assert abs(np.mean(k == j) - 0.2) <= 5 * math.sqrt(0.2 * 0.8 / n)
    # Dirichlet(1, ..., 1) on k atoms: each weight is Beta(1, k - 1), whose
    # m-th moment is m! (k - 1)! / (m + k - 1)!: mean 1/k, then 2 / (k (k + 1))
    for j in range(1, 6):
        rows = weights[k == j, :j]
        moment = [math.factorial(m) * math.factorial(j - 1) / math.factorial(m + j - 1)
                  for m in range(5)]
        for m in (1, 2):
            sd = math.sqrt((moment[2 * m] - moment[m] ** 2) / rows.shape[0])
            assert np.all(np.abs((rows**m).mean(axis=0) - moment[m]) <= 5 * sd + 1e-15)
    # angles uniform on [0, 2 pi): mean pi, variance pi^2 / 3
    t = angles[live]
    assert abs(t.mean() - math.pi) <= 5 * math.sqrt(math.pi**2 / 3 / t.size)


def test_zero_rows():
    assert list(_lemma_row_blocks(np.random.default_rng(0), 0)) == []


class _Draws:
    """Stands in for a Generator: hands out ``head``, then 0.5s, as its doubles."""

    def __init__(self, head):
        self.head = list(head)

    def random(self, size):
        n = int(np.prod(size))
        out, self.head = (self.head + [0.5] * n)[:n], self.head[n:]
        return np.reshape(out, size)

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)


@pytest.mark.parametrize("block", [1, 7])
def test_rows_longer_than_the_buffer(block, monkeypatch):
    # After the first block's alphas and ps, the first two rounds of its y
    # sampler draw 1.0s, the corner (1, 1) of the square, outside the disk:
    # its rows need more draws than one round reads, and the shortfall is
    # redrawn twice before the 0.5s put every y and zeta at 0.
    monkeypatch.setattr(caratheodory, "LEMMA_BLOCK_ROWS", block)
    head = [0.5] * (2 * block) + [1.0] * (8 * block)
    rows = _rows(_Draws(head), 10)
    assert np.array_equal(rows[:, 2:], np.zeros((10, 2)))


@pytest.mark.parametrize(
    "head, error, match",
    [
        ([1.0], DomainError, "alpha"),
        ([float("nan")], DomainError, "alpha"),
        ([0.5] * 10 + [1.5], InvalidLemmaPoint, "p must"),
        ([0.5] * 10 + [float("nan")], InvalidLemmaPoint, "p must"),
    ],
)
def test_blocks_validate_their_domain(head, error, match):
    # a double of 0.5 maps to 0 on [-1, 1], so every disk attempt succeeds
    with pytest.raises(error, match=match):
        list(_lemma_row_blocks(_Draws(head), 10))


@pytest.mark.parametrize("seed", [11, 12])
def test_blocked_quantities_match_the_scalar_loop(seed):
    # The scalar functions the two checks called one point at a time, fed
    # the sampler's own rows.
    got, ref = [], []
    for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(seed), 5000):
        p1, p2, p3 = _lemma_forward_raw(p, y, zeta)
        psi = _param_form_raw(alpha, p, y, zeta)
        form = _moment_form_raw(alpha, p1, p2, p3)
        major = _phi_raw(alpha, p, np.abs(y))
        got.append(np.column_stack(
            (p1, p2, p3, psi, form, np.abs(psi - form), major, np.abs(psi) - major)
        ))
        for row in zip(alpha, p, y, zeta):
            a = Alpha(row[0])
            pt = LemmaPoint(*row[1:])
            m = lemma_forward(pt)
            psi = functional_param_form(a, pt)
            form = functional_moment_form(a, m)
            major = phi(a, pt.p, abs(pt.y))
            ref.append((m.p1, m.p2, m.p3, psi, form, abs(psi - form), major,
                        abs(psi) - major))
    got = np.concatenate(got)
    ref = np.array(ref)
    assert got.shape == ref.shape == (5000, 8)
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    names = ("p1", "p2", "p3", "psi", "moment form", "difference", "phi", "slack")
    worst = dict(zip(names, err.max(axis=0)))
    assert all(e <= 1e-15 for e in worst.values()), worst


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


def test_atom_rows_match_the_scalar_loop():
    # caratheodory-admissibility as it ran, one atom set at a time.
    weights, angles = _atom_rows(np.random.default_rng(13), 1000)
    moments = _atom_moment_rows(weights, angles, 3)
    min_eig = _toeplitz_min_eig_rows(moments)
    errors = checks._round_trip_errors(moments)
    ref_eig, ref_errors = [], []
    for i in range(1000):
        k = np.count_nonzero(weights[i])
        assert not weights[i, k:].any() and not angles[i, k:].any()
        atoms = HerglotzAtoms(tuple(weights[i, :k]), tuple(angles[i, :k]))
        p = moments_from_atoms(atoms, 3)
        assert _bits(moments[i]) == _bits(p) == _bits(_reference_moments(atoms, 3))
        if i % 10 == 0:
            assert _bits(moments_from_atoms(atoms, 9)) == _bits(_reference_moments(atoms, 9))
        ref_eig.append(toeplitz_psd(p)[0])
        assert ref_eig[-1] == _reference_min_eig(p)
        rotated, _ = normalize_rotation(p)
        m = MomentTriple(*rotated)
        if m.p1.real >= 2.0 - 1e-3:
            continue
        y, zeta = lemma_inverse(m)
        if zeta is None or abs(y) >= 1.0 - 1e-6:
            continue
        if abs(zeta) > 1.0:
            zeta = zeta / abs(zeta)
        back = lemma_forward(LemmaPoint(m.p1.real, y, zeta))
        ref_errors.append(max(abs(back.p1 - m.p1), abs(back.p2 - m.p2), abs(back.p3 - m.p3)))
    assert _bits(min_eig) == _bits(ref_eig)
    assert float(min_eig.min()) == pytest.approx(-2.749e-15, rel=1e-3)
    assert errors.size == len(ref_errors) == 591
    assert np.max(np.abs(errors - ref_errors)) <= 1e-15


@pytest.mark.parametrize("seed", range(40))
def test_triple_rows_match_the_scalar_loop(seed):
    # algebra-reconciliation's 1,000 closed-form draws (its seed is 11),
    # each row through the scalar functions it called one at a time.  The
    # gap is a rounding error of both sides' own arithmetic, so it is checked
    # as the assembly of the kernel values, and those against the scalar ones.
    alpha, p1, p2, p3 = _triple_rows(np.random.default_rng(seed), 1000)
    a2, a3, a4 = _closed_form_rows(alpha, p1, p2, p3)
    form = _moment_form_raw(alpha, p1, p2, p3)
    ref = []
    for row in zip(alpha, p1, p2, p3):
        a = float(row[0])
        m = MomentTriple(*row[1:])
        ref.append((*closed_form_a234(a, m), functional_moment_form(a, m)))
    ref = np.array(ref)
    err = np.abs(np.column_stack((a2, a3, a4, form)) - ref) / np.maximum(1.0, np.abs(ref))
    worst = dict(zip(("a2", "a3", "a4", "moment form"), err.max(axis=0)))
    assert all(e <= 1e-15 for e in worst.values()), worst
    direct = a2 * a4 - a3 * a3
    want = np.abs(form - direct) / np.maximum(1.0, np.abs(direct))
    assert _bits(checks._closed_form_gaps(alpha, p1, p2, p3)) == _bits(want)


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("name", ["algebra-reconciliation", "caratheodory-admissibility"])
def test_sampled_checks_give_a_verdict_at_every_seed(monkeypatch, name, seed):
    # In caratheodory-admissibility, three-atom moments whose recovered |zeta|
    # rounds past 1 are accepted and scaled back onto the circle, so no seed
    # ends the check with an error.
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda _: default_rng(seed))
    passed, detail = checks.CHECKS_BY_NAME[name].__wrapped__()
    assert passed, detail


def test_inadmissible_atoms_end_the_check_at_the_first_such_row(monkeypatch):
    moments = _atom_moment_rows(*_atom_rows(np.random.default_rng(13), 6), 3)
    moments[2] = (2.5, 0.0, 0.0)
    moments[4] = (0.0, 3.0, 0.0)
    monkeypatch.setattr(checks, "_atom_moment_rows", lambda *args: moments)
    passed, detail = checks.check_caratheodory_admissibility.__wrapped__()
    assert not passed
    first = toeplitz_psd(moments[2])[0]
    assert first < -1e-9
    assert detail == f"inadmissible atom measure found, min eig = {first:.3e}"


def _error(call):
    """(class, text) of the H2StarError that call raises."""
    with pytest.raises(H2StarError) as info:
        call()
    return type(info.value), str(info.value)


_GOOD_ATOMS = ((1.0, 0.0, 0.0), (0.3, 0.0, 0.0))
_GOOD_MOMENTS = (1.0, 0.5, 0.25)


@pytest.mark.parametrize(
    "weights, angles, error",
    [
        ((math.nan, 1.0, 0.0), (0.0, 0.0, 0.0), "finite"),
        ((1.0, 0.0, 0.0), (0.0, math.inf, 0.0), "finite"),
        ((1.5, -0.5, 0.0), (0.0, 1.0, 0.0), "nonnegative"),
        ((0.5, 0.4, 0.0), (0.0, 1.0, 0.0), "sum to 1"),
    ],
)
def test_atom_rows_raise_the_error_of_their_first_bad_row(weights, angles, error):
    # Row 3 breaks an earlier rule than row 2 may; row 2 is reported.
    w = np.array([_GOOD_ATOMS[0], _GOOD_ATOMS[0], weights, (math.nan, 0.0, 0.0), _GOOD_ATOMS[0]])
    t = np.array([_GOOD_ATOMS[1]] * 5)
    t[2] = angles
    got = _error(lambda: _atom_moment_rows(w, t, 3))
    assert got == _error(lambda: HerglotzAtoms(weights, angles)) and got[0] is InvalidAtoms
    assert error in got[1]


def _moment_batch(bad):
    rows = np.array([_GOOD_MOMENTS] * 5, dtype=complex)
    rows[2] = bad
    rows[3] = (math.nan, 0.0, 0.0)
    return rows


@pytest.mark.parametrize(
    "bad",
    [(math.nan, 2.0, 0.0), (1e308 + 1e308j, -1e308, 1.7e308)],
    ids=["non-finite", "eigenvalue-overflow"],
)
def test_toeplitz_rows_raise_the_error_of_their_first_bad_row(bad):
    got = _error(lambda: _toeplitz_min_eig_rows(_moment_batch(bad)))
    assert got == _error(lambda: toeplitz_psd(bad))


@pytest.mark.parametrize(
    "bad",
    [(0.5, complex(0.0, math.inf), 0.0), (1.7e308 + 1.7e308j, 1.7e308, 0.0)],
    ids=["non-finite", "rotation-overflow"],
)
def test_rotation_rows_raise_the_error_of_their_first_bad_row(bad):
    got = _error(lambda: _rotation_rows(_moment_batch(bad)))
    assert got == _error(lambda: normalize_rotation(bad))


@pytest.mark.parametrize(
    "bad, error",
    [
        ((1.0j, 0.0, 0.0), DomainError),
        ((-0.5, 0.0, 0.0), DomainError),
        ((2.0, 2.0, 2.0), DegenerateP1),
        ((1.0, 1.5e308 + 1.5e308j, 0.0), DomainError),
        ((0.0, 2.5, 0.0), InadmissibleMoments),
        ((1.0, 0.5, 1e308), DomainError),
        ((1.0, 0.5, 3.0), InadmissibleMoments),
    ],
    ids=["unrotated", "negative", "degenerate", "y-overflow", "y-outside", "zeta-overflow",
         "zeta-outside"],
)
def test_inverse_rows_raise_the_error_of_their_first_bad_row(bad, error):
    # Row 3 has p1 = NaN, which fails at the recovered y.
    got = _error(lambda: _lemma_inverse_rows(*_moment_batch(bad).T))
    assert got == _error(lambda: lemma_inverse(MomentTriple(*bad))) and got[0] is error


@pytest.mark.parametrize(
    "bad",
    [(1e308, 0.0, 0.0), (1.0, 1.0, 1e308), (1e200, 1e200, 0.0)],
    ids=["a3-overflow", "a4-overflow", "power-overflow"],
)
def test_closed_form_rows_raise_the_error_of_their_first_bad_row(bad):
    rows = _moment_batch(bad)
    rows[3] = (1e308, 1e308, 1e308)
    got = _error(lambda: _closed_form_rows(0.1, *rows.T))
    assert got == _error(lambda: closed_form_a234(0.1, MomentTriple(*bad)))


@pytest.mark.parametrize(
    "bad", [(2.5, 0.0, 0.0), (1.0, 2.0, 0.0), (1.0, 0.0, math.nan)], ids=["p", "y", "zeta"]
)
def test_lemma_box_rows_raise_the_error_of_their_first_bad_row(bad):
    p, y, zeta = (np.array([good, good, b, math.nan, good], dtype=type(good))
                  for good, b in zip((1.0, 0.5j, 0.5), bad))
    got = _error(lambda: _check_lemma_box(p, y, zeta))
    assert got == _error(lambda: LemmaPoint(*bad))


# The scalar formulas as they stood before the array kernels existed.
def _reference_disk_point(rng, radius=1.0):
    while True:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            return z


def _reference_lemma_forward(p, y, zeta):
    q = 4.0 - p * p
    p2 = 0.5 * (p * p + y * q)
    p3 = 0.25 * (p**3 + 2.0 * q * p * y - p * q * y * y
                 + 2.0 * q * (1.0 - abs(y) ** 2) * zeta)
    return complex(p), complex(p2), complex(p3)


def _reference_moments(atoms, m):
    w = np.asarray(atoms.weights)
    t = np.asarray(atoms.angles)
    n = np.arange(1, m + 1)
    return 2.0 * (w[None, :] * np.exp(1j * np.outer(n, t))).sum(axis=1)


def _reference_min_eig(p):
    m = p.size
    full = np.concatenate((np.conj(p[::-1]), [2.0 + 0.0j], p))
    idx = np.subtract.outer(np.arange(m + 1), np.arange(m + 1))
    return float(np.linalg.eigvalsh(full[m + idx])[0])


def _reference_moment_form(a, m):
    s2 = (1.0 - a) ** 2
    return complex(s2 * (-s2 * m.p1**4 / 12.0 - m.p2 * m.p2 / 4.0 + m.p1 * m.p3 / 3.0))


def _reference_phi(a, p, t):
    p_arr = np.asarray(p, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    s2 = (1.0 - a) ** 2
    c = abs(3.0 - 8.0 * a + 4.0 * a**2)
    q = 4.0 - p_arr * p_arr
    val = s2 * (
        c * p_arr**4 / 48.0
        + p_arr**2 * q * t_arr / 24.0
        + p_arr**2 * q * t_arr**2 / 12.0
        + q * q * t_arr**2 / 16.0
        + p_arr * q * (1.0 - t_arr**2) / 6.0
    )
    return float(val) if val.ndim == 0 else val


def test_scalar_functions_unchanged():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = rng.random()
        pt = random_lemma_point(rng)
        m = lemma_forward(pt)
        assert repr((m.p1, m.p2, m.p3)) == repr(_reference_lemma_forward(pt.p, pt.y, pt.zeta))
        triple = MomentTriple(*(random_disk_point(rng, 2.0) for _ in range(3)))
        for moments in (m, triple):
            assert repr(functional_moment_form(Alpha(a), moments)) == repr(
                _reference_moment_form(a, moments)
            )
        t = abs(pt.y)
        assert repr(phi(Alpha(a), pt.p, t)) == repr(_reference_phi(a, pt.p, t))
    ps = np.linspace(0.0, 2.0, 37)[:, None]
    ts = np.linspace(0.0, 1.0, 29)[None, :]
    for a in (0.0, 0.3, 0.5, 0.95):
        got = phi(Alpha(a), ps, ts)
        assert np.array_equal(got.view(np.uint64), _reference_phi(a, ps, ts).view(np.uint64))


@pytest.mark.parametrize("radius", [1.0, 2.0, 0.3])
def test_disk_points_are_the_uniform_draws(radius):
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [random_disk_point(rng, radius) for _ in range(25)]
        assert _bits(got) == _bits([_reference_disk_point(ref_rng, radius) for _ in range(25)])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_lemma_point_box_message_unchanged():
    with pytest.raises(InvalidLemmaPoint, match=r"^p must lie in \[0, 2\], got 2.5$"):
        LemmaPoint(2.5, 0.0, 0.0)
    with pytest.raises(InvalidLemmaPoint, match=r"^\|zeta\| must be <= 1, got 2.0$"):
        LemmaPoint(1.0, 0.0, 2.0)
