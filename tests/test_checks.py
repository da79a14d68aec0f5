"""The blocked and row-kernel acceptance checks against their one-point loops.

``_lemma_row_blocks`` must draw its rows from the distributions of
``alpha = rng.random(); pt = random_lemma_point(rng)``, bit for bit the rows
of the scalar rejection rule in blocks of its block size, and the atom sets and
moment triples of ``caratheodory-admissibility`` and ``algebra-reconciliation``
from theirs, and the array kernels the checks evaluate must agree, row by
row, with the scalar functions the checks called one point at a time.  The
samplers and scalar formulas of ``reference`` are the reference.
"""
import functools
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
    _parts,
    _rotation_rows,
    _toeplitz_min_eig_rows,
    _triple_rows,
    lemma_forward,
    random_disk_point,
    random_lemma_point,
)
from h2star.hankel import (
    _moment_form_raw,
    _param_form,
    _phi_raw,
    functional_moment_form,
    functional_param_form,
    phi,
)
from h2star.search import DEFAULT_GRID_P, DEFAULT_GRID_T
from h2star.starlike import _closed_form_rows
import reference
from reference import bits, join


def _flat(block):
    """A block (alpha, p, y, zeta) of _lemma_row_blocks as its six columns."""
    alpha, p, y, zeta = block
    return alpha, p, *y, *zeta


def _rows(rng, count):
    """The blocks of _lemma_row_blocks, checked for size, as one (count, 6)
    array of alpha, p and the parts of y and zeta."""
    return _stack(_blocks(rng, count))


def _blocks(rng, count):
    """The blocks of _lemma_row_blocks, checked for size."""
    block = caratheodory.LEMMA_BLOCK_ROWS
    blocks = list(_lemma_row_blocks(rng, count))
    assert [b[0].size for b in blocks] == [min(block, count - s) for s in range(0, count, block)]
    assert all(col.shape == b[0].shape for b in blocks for col in _flat(b))
    return blocks


def _stack(blocks):
    return np.column_stack([np.concatenate(col) for col in zip(*map(_flat, blocks))])


def _same_draws(seed, draw, reference_draw):
    """draw(rng), asserted bit for bit reference_draw(rng) from a second
    generator at ``seed``, to the generator state after them."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw(rng)
    assert bits(got) == bits(reference_draw(ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


def _scalar_rule_rows(seed, count, block):
    """_rows at ``seed``, asserted to be the scalar rule's rows in blocks of ``block`` rows."""
    return _same_draws(seed, lambda rng: _rows(rng, count),
                       lambda rng: reference.lemma_rows(rng, count, block))


@pytest.fixture(scope="module")
def drawn():
    """The checked blocks of _lemma_row_blocks from a fresh generator at
    (seed, count), and the generator state after them, drawn once per module:
    several tests read the 100,000 rows of seeds 11 and 12."""
    @functools.cache
    def draw(seed, count):
        rng = np.random.default_rng(seed)
        return _blocks(rng, count), rng.bit_generator.state
    return draw


@pytest.mark.parametrize("seed, block", [(1, 1), (1, 7), (7, 7), (7, 21), (1024, 4096)])
def test_rows_are_seeded_and_sized(seed, block, monkeypatch):
    # _rows checks the block sizes; the scalar rule in blocks of ``block``
    # rows checks the rows and the generator state.
    monkeypatch.setattr(caratheodory, "LEMMA_BLOCK_ROWS", block)
    assert _scalar_rule_rows(seed, 2000, block).shape == (2000, 6)


@pytest.mark.parametrize("seed, count", [*((s, 5000) for s in range(40)), (11, 100_000),
                                         (12, 100_000)])
def test_rows_are_the_per_call_draws(drawn, seed, count):
    # The generator calls of each block, each disk candidate tested in turn.
    blocks, state = drawn(seed, count)
    ref_rng = np.random.default_rng(seed)
    assert bits(_stack(blocks)) == bits(reference.lemma_rows(ref_rng, count))
    assert state == ref_rng.bit_generator.state


@pytest.mark.parametrize("block", [1, 2, 3])
def test_rows_with_retried_rounds_are_the_per_call_draws(block, monkeypatch):
    # At a few rows per block disk rounds often fall short (about one in
    # 22 at one row, whose round holds 2 candidates for 1 point), so the
    # sampler draws the shortfall in a further round.
    monkeypatch.setattr(caratheodory, "LEMMA_BLOCK_ROWS", block)
    _scalar_rule_rows(block, 3000, block)


class _Rounds:
    """Stands in for a Generator whose uniform(-1, 1, (2, m)) calls hand out
    ``rounds`` in turn, as (2, m) arrays of x and y."""

    def __init__(self, rounds):
        self.rounds = [np.array(r, dtype=float) for r in rounds]
        self.sizes = []

    def uniform(self, low, high, size):
        assert (low, high) == (-1.0, 1.0) and size == self.rounds[0].shape
        self.sizes.append(size)
        return self.rounds.pop(0)


def test_a_short_round_draws_the_shortfall():
    # 3 points take 6 candidates; the corners (1, +-1) lie outside the disk,
    # so the first round keeps 2 and a second round of 2 candidates draws
    # the last point.  The points are the rule's, in order.
    first = [[1.0, 0.5, 1.0, -0.25, 1.0, 0.75], [1.0, 0.5, -1.0, 0.0, 1.0, 0.75]]
    second = [[-1.0, 0.125], [-1.0, -0.5]]
    draws = _Rounds([first, second])
    x, y = caratheodory._disk_parts(draws, 3)
    assert draws.sizes == [(2, 6), (2, 2)] and draws.rounds == []
    assert bits(np.column_stack((x, y))) == bits([[0.5, 0.5], [-0.25, 0.0], [0.125, -0.5]])
    ref = reference.disk_parts(_Rounds([first, second]), 3)
    assert bits(np.column_stack((x, y))) == bits(np.column_stack(ref))


@pytest.mark.parametrize("seed", range(40))
def test_triple_rows_are_the_per_call_draws(seed):
    def columns(triple):
        alpha, *moments = triple
        return np.column_stack((alpha, *(part for m in moments for part in m)))

    _same_draws(seed, lambda rng: columns(_triple_rows(rng, 1000)),
                lambda rng: columns(reference.triple_rows(rng, 1000)))


# Each statistic below is a mean of n independent draws; at 5 standard
# errors a seed fails by chance about once in 1.7 million.
def _assert_uniform_alpha_and_disks(alpha, disks, radius):
    """alpha uniform on [0, 1) and each of ``disks``, (real, imaginary)
    pairs, uniform on the closed disk of ``radius``, at 5 standard errors."""
    n = alpha.size
    assert np.all((alpha >= 0.0) & (alpha < 1.0))
    # alpha uniform on [0, 1): mean 1/2, variance 1/12
    assert abs(alpha.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / n)
    # uniform on the disk: P(|z| <= r) = (r / radius)^2, so 1/2 at r = radius/sqrt(2)
    for z in disks:
        modulus = np.hypot(*z)
        assert np.all(modulus <= radius)
        share = np.mean(modulus <= radius / math.sqrt(2))
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / n)


def test_rows_follow_the_lemma_distributions(drawn):
    rows = _stack(drawn(12, 100_000)[0])
    alpha, p, yr, yi, zr, zi = rows.T
    n = rows.shape[0]
    _assert_uniform_alpha_and_disks(alpha, ((yr, yi), (zr, zi)), 1.0)
    # p = 2 U
    assert np.all((p >= 0.0) & (p <= 2.0))
    assert abs(p.mean() - 1.0) <= 5 * math.sqrt(4 / 12 / n)


def test_triple_rows_follow_their_distributions():
    alpha, *moments = _triple_rows(np.random.default_rng(11), 100_000)
    assert alpha.size == 100_000
    assert all(part.shape == (100_000,) for m in moments for part in m)
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


@pytest.mark.parametrize("seed", [11, 12])
def test_blocked_quantities_match_the_scalar_loop(seed):
    # The scalar functions the two checks called one point at a time, fed
    # the sampler's own rows.
    got, ref = [], []
    for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(seed), 5000):
        p1, p2, p3 = (join(*m) for m in _lemma_forward_raw(p, y, zeta))
        psi = join(*_param_form(alpha, p, y, zeta))
        form = join(*_moment_form_raw(alpha, *(_parts(m) for m in (p1, p2, p3))))
        major = _phi_raw(alpha, p, np.hypot(*y))
        got.append(np.column_stack(
            (p1, p2, p3, psi, form, np.abs(psi - form), major, np.abs(psi) - major)
        ))
        for row in zip(alpha, p, join(*y), join(*zeta)):
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
        assert bits(moments[i]) == bits(p) == bits(reference.atom_moments(atoms, 3))
        if i % 10 == 0:
            assert bits(moments_from_atoms(atoms, 9)) == bits(reference.atom_moments(atoms, 9))
        ref_eig.append(toeplitz_psd(p)[0])
        assert ref_eig[-1] == reference.toeplitz_min_eig(p)
        trip = reference.round_trip(p)
        if trip is not None:
            m, back = trip
            ref_errors.append(max(abs(back.p1 - m.p1), abs(back.p2 - m.p2),
                                  abs(back.p3 - m.p3)))
    assert bits(min_eig) == bits(ref_eig)
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
    for row in zip(alpha, *(join(*m) for m in (p1, p2, p3))):
        a = float(row[0])
        m = MomentTriple(*row[1:])
        ref.append((*closed_form_a234(a, m), functional_moment_form(a, m)))
    ref = np.array(ref)
    got = np.column_stack([join(*x) for x in (a2, a3, a4, form)])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    worst = dict(zip(("a2", "a3", "a4", "moment form"), err.max(axis=0)))
    assert all(e <= 1e-15 for e in worst.values()), worst
    # a2 a4 - a3^2 as (a2r a4r - a2i a4i) - (a3r a3r - a3i a3i), and so on
    direct = join((a2[0] * a4[0] - a2[1] * a4[1]) - (a3[0] * a3[0] - a3[1] * a3[1]),
                  (a2[0] * a4[1] + a2[1] * a4[0]) - (a3[0] * a3[1] + a3[1] * a3[0]))
    gap = join(form[0] - direct.real, form[1] - direct.imag)
    want = np.hypot(gap.real, gap.imag) / np.maximum(1.0, np.hypot(direct.real, direct.imag))
    assert bits(checks._closed_form_gaps(alpha, p1, p2, p3)) == bits(want)


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
    # HerglotzAtoms takes its rules in order; a NaN weight also
    # breaks the sum, and the finite rule is reported.
    text = {
        "finite": f"weights and angles must be finite, got {weights} and {angles}",
        "nonnegative": "weights must be nonnegative, got (1.5, -0.5, 0.0)",
        "sum to 1": "weights must sum to 1, got 0.9",
    }[error]
    assert _error(lambda: HerglotzAtoms(weights, angles)) == (InvalidAtoms, text)


# Each batch holds bad in row 2 and a NaN in row 3.  A row kernel takes its
# export's rules in order, so it raises the export's error for the row that
# fails the earlier rule, row 2 when both fail the same one.
def _moment_batch(bad):
    rows = np.array([_GOOD_MOMENTS] * 5, dtype=complex)
    rows[2] = bad
    rows[3] = (math.nan, 0.0, 0.0)
    return rows


@pytest.mark.parametrize(
    "bad, row",
    [((math.nan, 2.0, 0.0), 2), ((1e308 + 1e308j, -1e308, 1.7e308), 3)],
    ids=["non-finite", "eigenvalue-overflow"],
)
def test_toeplitz_rows_raise_the_error_of_their_first_failing_rule(bad, row):
    rows = _moment_batch(bad)
    got = _error(lambda: _toeplitz_min_eig_rows(rows))
    assert got == _error(lambda: toeplitz_psd(rows[row]))


@pytest.mark.parametrize(
    "bad, row",
    [((0.5, complex(0.0, math.inf), 0.0), 2), ((1.7e308 + 1.7e308j, 1.7e308, 0.0), 3)],
    ids=["non-finite", "rotation-overflow"],
)
def test_rotation_rows_raise_the_error_of_their_first_failing_rule(bad, row):
    rows = _moment_batch(bad)
    got = _error(lambda: _rotation_rows(rows))
    assert got == _error(lambda: normalize_rotation(rows[row]))


_Y_OVERFLOW = (1.0, 1.5e308 + 1.5e308j, 0.0)


@pytest.mark.parametrize(
    "bad, error, row",
    [
        ((1.0j, 0.0, 0.0), DomainError, 2),
        ((-0.5, 0.0, 0.0), DomainError, 2),
        ((2.0, 2.0, 2.0), DegenerateP1, 2),
        (_Y_OVERFLOW, DomainError, 2),
        ((0.0, 2.5, 0.0), InadmissibleMoments, 3),
        ((1.0, 0.5, 1e308), DomainError, 3),
        ((1.0, 0.5, 3.0), InadmissibleMoments, 3),
    ],
    ids=["unrotated", "negative", "degenerate", "y-overflow", "y-outside", "zeta-overflow",
         "zeta-outside"],
)
def test_inverse_rows_raise_the_error_of_their_first_failing_rule(bad, error, row):
    # Row 3 has p1 = NaN, which fails at the recovered y.  MomentTriple
    # refuses NaN, so the export is given a row that fails there too.
    rows = _moment_batch(bad)
    got = _error(lambda: _lemma_inverse_rows(*rows.T))
    want = rows[2] if row == 2 else _Y_OVERFLOW
    assert got == _error(lambda: lemma_inverse(MomentTriple(*want)))
    assert _error(lambda: lemma_inverse(MomentTriple(*bad)))[0] is error


@pytest.mark.parametrize(
    "bad, row",
    [((1e308, 0.0, 0.0), 2), ((1.0, 1.0, 1e308), 3), ((1e200, 1e200, 0.0), 2)],
    ids=["a3-overflow", "a4-overflow", "power-overflow"],
)
def test_closed_form_rows_raise_the_error_of_their_first_failing_rule(bad, row):
    # Row 3's a3 overflows.
    rows = _moment_batch(bad)
    rows[3] = (1e308, 1e308, 1e308)
    got = _error(lambda: _closed_form_rows(0.1, *(_parts(m) for m in rows.T)))
    assert got == _error(lambda: closed_form_a234(0.1, MomentTriple(*rows[row])))


@pytest.mark.parametrize(
    "bad, row",
    [((2.5, 0.0, 0.0), 2), ((1.0, 2.0, 0.0), 3), ((1.0, 0.0, math.nan), 3)],
    ids=["p", "y", "zeta"],
)
def test_lemma_box_rows_raise_the_error_of_their_first_failing_rule(bad, row):
    # Row 3's p is NaN.
    p, y, zeta = (np.array([good, good, b, math.nan, good], dtype=type(good))
                  for good, b in zip((1.0, 0.5j, 0.5), bad))
    got = _error(lambda: _check_lemma_box(p, y, zeta))
    assert got == _error(lambda: LemmaPoint(p[row], y[row], zeta[row]))


def test_scalar_functions_unchanged():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = rng.random()
        pt = random_lemma_point(rng)
        m = lemma_forward(pt)
        assert repr((m.p1, m.p2, m.p3)) == repr(reference.lemma_forward(pt.p, pt.y, pt.zeta))
        triple = MomentTriple(*(random_disk_point(rng, 2.0) for _ in range(3)))
        for moments in (m, triple):
            assert repr(functional_moment_form(Alpha(a), moments)) == repr(
                reference.moment_form(a, moments)
            )
        t = abs(pt.y)
        assert repr(phi(Alpha(a), pt.p, t)) == repr(reference.phi(a, pt.p, t))
    ps = np.linspace(0.0, 2.0, 37)[:, None]
    ts = np.linspace(0.0, 1.0, 29)[None, :]
    for a in (0.0, 0.3, 0.5, 0.95):
        got = phi(Alpha(a), ps, ts)
        assert np.array_equal(got.view(np.uint64), reference.phi(a, ps, ts).view(np.uint64))


def test_array_kernels_unchanged(drawn):
    # The kernels the checks and searches evaluate, bit for bit the formulas
    # of the reference on arrays: the sampled checks' rows and the default
    # grid.
    for seed in (11, 12):
        for _, p, y, zeta in drawn(seed, 100_000)[0]:
            got = [join(*m) for m in _lemma_forward_raw(p, y, zeta)]
            want = reference.lemma_forward(p, join(*y), join(*zeta))
            assert [bits(x) for x in got] == [bits(x) for x in want]
    ps = np.linspace(0.0, 2.0, DEFAULT_GRID_P)[:, None]
    ts = np.linspace(0.0, 1.0, DEFAULT_GRID_T)[None, :]
    for a in checks.ALPHA_GRID:
        assert _phi_raw(a, ps, ts).tobytes() == reference.phi(a, ps, ts).tobytes()


@pytest.mark.parametrize("radius", [1.0, 2.0, 0.3])
def test_disk_points_are_the_uniform_draws(radius):
    for seed in range(40):
        _same_draws(seed, lambda rng: [random_disk_point(rng, radius) for _ in range(25)],
                    lambda rng: [reference.disk_point(rng, radius) for _ in range(25)])


def test_lemma_point_box_message_unchanged():
    with pytest.raises(InvalidLemmaPoint, match=r"^p must lie in \[0, 2\], got 2.5$"):
        LemmaPoint(2.5, 0.0, 0.0)
    with pytest.raises(InvalidLemmaPoint, match=r"^\|zeta\| must be <= 1, got 2.0$"):
        LemmaPoint(1.0, 0.0, 2.0)
