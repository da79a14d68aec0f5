"""The blocked and row-kernel acceptance checks against their one-point loops.

``_lemma_row_blocks`` must draw its rows from the distributions of
``alpha = rng.random(); pt = random_lemma_point(rng)``, bit for bit the rows
of the per-call samplers below whatever its block size, and the atom sets and
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
from h2star.search import DEFAULT_GRID_P, DEFAULT_GRID_T
from h2star.starlike import _closed_form_rows


def _rows(rng, count):
    """The blocks of _lemma_row_blocks, checked for size, as one (count, 4) array."""
    block = caratheodory.LEMMA_BLOCK_ROWS
    blocks = list(_lemma_row_blocks(rng, count))
    assert [b[0].size for b in blocks] == [min(block, count - s) for s in range(0, count, block)]
    assert all(col.size == b[0].size for b in blocks for col in b)
    return np.column_stack([np.concatenate(col) for col in zip(*blocks)]).astype(complex)


def _reference_disk_points(rng, n):
    z = np.empty(0, dtype=complex)
    while z.size < n:
        x, y = rng.uniform(-1.0, 1.0, (2, 2 * (n - z.size)))
        w = x + 1j * y
        z = np.concatenate((z, w[np.abs(w) <= 1.0]))
    return z[:n]


def _reference_lemma_row_blocks(rng, count, draw=1024):
    """The lemma rows as drawn one generator call at a time, in groups of ``draw`` rows."""
    for done in range(0, count, draw):
        n = min(draw, count - done)
        yield (rng.random(n), rng.uniform(0.0, 2.0, n),
               _reference_disk_points(rng, n), _reference_disk_points(rng, n))


def _reference_triple_rows(rng, count):
    alpha = rng.random(count)
    p1, p2, p3 = 2.0 * _reference_disk_points(rng, 3 * count).reshape(3, count)
    return alpha, p1, p2, p3


def _reference_rows(rng, count, draw=1024):
    blocks = _reference_lemma_row_blocks(rng, count, draw)
    return np.column_stack([np.concatenate(col) for col in zip(*blocks)]).astype(complex)


def _draw_sizes(draw, block, monkeypatch):
    assert block % draw == 0
    monkeypatch.setattr(caratheodory, "_LEMMA_DRAW_ROWS", draw)
    monkeypatch.setattr(caratheodory, "LEMMA_BLOCK_ROWS", block)


def test_blocks_are_whole_draw_groups():
    assert caratheodory._LEMMA_DRAW_ROWS == 1024
    assert caratheodory.LEMMA_BLOCK_ROWS % caratheodory._LEMMA_DRAW_ROWS == 0


@pytest.mark.parametrize("draw, block", [(1, 1), (1, 7), (7, 7), (7, 21), (1024, 4096)])
def test_rows_are_seeded_and_sized(draw, block, monkeypatch):
    # _rows checks the block sizes; the per-call reference in groups of
    # ``draw`` rows checks the draw groups.
    _draw_sizes(draw, block, monkeypatch)
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    rows = _rows(rng, 2000)
    assert rows.shape == (2000, 4)
    assert _bits(rows) == _bits(_reference_rows(ref_rng, 2000, draw))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed, count", [*((s, 5000) for s in range(40)), (11, 100_000),
                                         (12, 100_000)])
def test_rows_are_the_per_call_draws(seed, count):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _bits(_rows(rng, count)) == _bits(_reference_rows(ref_rng, count))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("draw", [1, 2, 3])
def test_rows_with_retried_rounds_are_the_per_call_draws(draw, monkeypatch):
    # At a few rows per group disk rounds often fall short (about one in
    # twenty at one row), so the y sampler reads on into the zeta sampler's
    # doubles and the zeta sampler draws the shortfall from the generator.
    _draw_sizes(draw, 2 * draw, monkeypatch)
    rng, ref_rng = np.random.default_rng(draw), np.random.default_rng(draw)
    assert _bits(_rows(rng, 3000)) == _bits(_reference_rows(ref_rng, 3000, draw))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(40))
def test_triple_rows_are_the_per_call_draws(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _triple_rows(rng, 1000), _reference_triple_rows(ref_rng, 1000)
    assert all(_bits(a) == _bits(b) for a, b in zip(got, want))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _kernel_values(alpha, p, y, zeta):
    """The per-row values the two 100,000-row checks take their worst of."""
    return np.column_stack((_param_form_raw(alpha, p, y, zeta),
                            _moment_form_raw(alpha, *_lemma_forward_raw(p, y, zeta)),
                            _phi_raw(alpha, p, np.abs(y))))


def test_rows_and_values_do_not_depend_on_the_block(monkeypatch):
    # 20,000 rows are 4 blocks of 4,096 and 3,616 rows, or 2 of 8,192 and
    # 3,616: each size ends on a short block, and a short last draw group.
    found = []
    for block in (1024, 4096, 8192):
        _draw_sizes(1024, block, monkeypatch)
        blocks = list(_lemma_row_blocks(np.random.default_rng(12), 20_000))
        assert blocks[0][0].size == block
        found.append((_bits(np.concatenate([np.column_stack(b) for b in blocks])),
                      _bits(np.concatenate([_kernel_values(*b) for b in blocks]))))
    assert found[1:] == found[:1] * 2


# Each statistic below is a mean of n independent draws; at 5 standard
# errors a seed fails by chance about once in 1.7 million.
def _assert_uniform_alpha_and_disks(alpha, disks, radius):
    """alpha uniform on [0, 1) and each of ``disks`` uniform on the closed
    disk of ``radius``, at 5 standard errors."""
    n = alpha.size
    assert np.all(alpha.imag == 0)
    assert np.all((alpha.real >= 0.0) & (alpha.real < 1.0))
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
    assert np.all((p.real >= 0.0) & (p.real <= 2.0))
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
    """Stands in for a Generator: hands out ``head``, then 0.5s, as its
    doubles, and counts them in ``taken``."""

    def __init__(self, head):
        self.head = list(head)
        self.taken = 0

    def random(self, size):
        out, self.head = (self.head + [0.5] * size)[:size], self.head[size:]
        self.taken += size
        return np.array(out)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("sampler", ["y", "zeta"])
def test_rows_longer_than_the_buffer(block, sampler, monkeypatch):
    # The first group's one call holds its alphas and ps, then 4 block
    # doubles for each disk sampler.  1.0s, the corner (1, 1) of the square,
    # lie outside the disk.  For y, its first round reads 1.0s and its second
    # reads on into zeta's 1.0s; for zeta, its first round reads 1.0s and its
    # second draws 1.0s from the generator.  Either way the shortfall is drawn
    # twice more than one round reads, 8 block doubles in all, before the
    # 0.5s put every y and zeta at 0.
    _draw_sizes(block, block, monkeypatch)
    corner = [1.0] * (8 * block) if sampler == "y" else [0.5] * (4 * block) + [1.0] * (8 * block)
    draws = _Draws([0.5] * (2 * block) + corner)
    rows = _rows(draws, 10)
    assert np.array_equal(rows[:, 2:], np.zeros((10, 2)))
    assert draws.taken == 10 * 10 + 8 * block and draws.head == []


def _round_by_round_draws(rng, n):
    """One draw group by the round-by-round rule: n alphas, n ps, then the y
    and zeta samplers, each round reading 4 k doubles for a shortfall of k
    from one stream, rng.random(10 n) and then the generator."""
    stream = rng.random(10 * n)

    def take(size):
        nonlocal stream
        if stream.size < size:
            stream = np.concatenate((stream, rng.random(size - stream.size)))
        out, stream = stream[:size], stream[size:]
        return out

    alpha, p = take(n), 2.0 * take(n)
    disks = []
    for _ in range(2):
        z = np.empty(0, dtype=complex)
        while z.size < n:
            k = n - z.size
            x, y = -1.0 + 2.0 * take(4 * k).reshape(2, 2 * k)
            w = x + 1j * y
            z = np.concatenate((z, w[np.abs(w) <= 1.0][:k]))
        disks.append(z)
    return alpha, p, *disks


def _round_doubles(n, inside):
    """The 4 n doubles of one disk round of 2 n candidates: candidate i,
    x from double i and y from double 2 n + i, is a point of the disk of its
    own where ``inside[i]``, else the corner (1, 1)."""
    i = np.arange(2 * n)
    return [*np.where(inside, 0.5 + i / (8.0 * n), 1.0),
            *np.where(inside, 0.5 - i / (8.0 * n), 1.0)]


def test_round_by_round_reference_is_the_per_call_draws():
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = np.column_stack(_round_by_round_draws(rng, 1024)).astype(complex)
        assert _bits(got) == _bits(_reference_rows(ref_rng, 1024))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [8, 1024])
@pytest.mark.parametrize("short", ["y", "zeta", "both", "neither"])
def test_one_pass_boundary_is_the_round_by_round_rule(n, short, monkeypatch):
    # _lemma_draws tests the first 3 n / 2 candidates of both first rounds in
    # one pass.  Here each such prefix holds exactly n disk points, or n - 1
    # for the ``short`` samplers, whose next point lies among the last n / 2
    # candidates; the rows and the doubles drawn must be those of the
    # round-by-round rule.
    _draw_sizes(n, n, monkeypatch)
    m = 3 * n // 2
    head = [0.5] * (2 * n)
    for sampler in ("y", "zeta"):
        inside = np.ones(2 * n, dtype=bool)
        inside[:m] = np.arange(m) % 3 != 0
        if short in (sampler, "both"):
            inside[m - 1] = False
        assert np.count_nonzero(inside[:m]) == (n - 1 if short in (sampler, "both") else n)
        head += _round_doubles(n, inside)
    draws, ref_draws = _Draws(head), _Draws(head)
    rows = _rows(draws, n)
    ref = np.column_stack(_round_by_round_draws(ref_draws, n)).astype(complex)
    assert _bits(rows) == _bits(ref)
    assert (draws.taken, draws.head) == (ref_draws.taken, ref_draws.head) == (10 * n, [])


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
    got = _error(lambda: _closed_form_rows(0.1, *rows.T))
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
    if np.ndim(p):
        return p, p2, p3
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


def test_array_kernels_unchanged():
    # The kernels the checks and searches evaluate, bit for bit the inline
    # formulas above on arrays: the sampled checks' rows and the default grid.
    for seed in (11, 12):
        for _, p, y, zeta in _lemma_row_blocks(np.random.default_rng(seed), 100_000):
            got = _lemma_forward_raw(p, y, zeta)
            assert [x.tobytes() for x in got] == [
                x.tobytes() for x in _reference_lemma_forward(p, y, zeta)]
    ps = np.linspace(0.0, 2.0, DEFAULT_GRID_P)[:, None]
    ts = np.linspace(0.0, 1.0, DEFAULT_GRID_T)[None, :]
    for a in checks.ALPHA_GRID:
        assert _phi_raw(a, ps, ts).tobytes() == _reference_phi(a, ps, ts).tobytes()


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
