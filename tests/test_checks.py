"""The blocked 100,000-sample acceptance checks against their one-point loops.

``_lemma_row_blocks`` must draw its rows from the distributions of
``alpha = rng.random(); pt = random_lemma_point(rng)``, and the array kernels
the checks evaluate must agree with the scalar functions the checks called
one point at a time.  The scalar functions below are the reference.
"""

import math

import numpy as np
import pytest

from h2star import Alpha, DomainError, InvalidLemmaPoint, LemmaPoint, MomentTriple
from h2star.caratheodory import (
    _lemma_forward_raw,
    _lemma_row_blocks,
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


def _rows(rng, count, block=1024):
    """The blocks of _lemma_row_blocks, checked for size, as one (count, 4) array."""
    blocks = list(_lemma_row_blocks(rng, count, block))
    assert [b[0].size for b in blocks] == [min(block, count - s) for s in range(0, count, block)]
    assert all(col.size == b[0].size for b in blocks for col in b)
    return np.column_stack([np.concatenate(col) for col in zip(*blocks)]).astype(complex)


@pytest.mark.parametrize("block", [1, 7, 1024])
def test_rows_are_seeded_and_sized(block):
    rows = _rows(np.random.default_rng(12), 2000, block)
    assert rows.shape == (2000, 4)
    again = _rows(np.random.default_rng(12), 2000, block)
    assert np.array_equal(rows.view(np.uint64), again.view(np.uint64))


def test_rows_follow_the_lemma_distributions():
    # Each statistic is a mean of 100,000 independent draws; at 5 standard
    # errors a seed fails by chance about once in 1.7 million.
    rows = _rows(np.random.default_rng(12), 100_000)
    alpha, p, y, zeta = rows.T
    n = rows.shape[0]
    assert np.all(alpha.imag == 0) and np.all(p.imag == 0)
    # alpha uniform on [0, 1): mean 1/2, variance 1/12; p = 2 U
    assert abs(alpha.real.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / n)
    assert abs(p.real.mean() - 1.0) <= 5 * math.sqrt(4 / 12 / n)
    # uniform on the disk: P(|z| <= r) = r^2, so 1/2 at r = 1/sqrt(2)
    for z in (y, zeta):
        share = np.mean(np.abs(z) <= 1 / math.sqrt(2))
        assert abs(share - 0.5) <= 5 * math.sqrt(0.25 / n)


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
def test_rows_longer_than_the_buffer(block):
    # After the first block's alphas and ps, the first two rounds of its y
    # sampler draw 1.0s, the corner (1, 1) of the square, outside the disk:
    # its rows need more draws than one round reads, and the shortfall is
    # redrawn twice before the 0.5s put every y and zeta at 0.
    head = [0.5] * (2 * block) + [1.0] * (8 * block)
    rows = _rows(_Draws(head), 10, block)
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


# The scalar formulas as they stood before the array kernels existed.
def _reference_lemma_forward(p, y, zeta):
    q = 4.0 - p * p
    p2 = 0.5 * (p * p + y * q)
    p3 = 0.25 * (p**3 + 2.0 * q * p * y - p * q * y * y
                 + 2.0 * q * (1.0 - abs(y) ** 2) * zeta)
    return complex(p), complex(p2), complex(p3)


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


def test_lemma_point_box_message_unchanged():
    with pytest.raises(InvalidLemmaPoint, match=r"^p must lie in \[0, 2\], got 2.5$"):
        LemmaPoint(2.5, 0.0, 0.0)
    with pytest.raises(InvalidLemmaPoint, match=r"^\|zeta\| must be <= 1, got 2.0$"):
        LemmaPoint(1.0, 0.0, 2.0)
