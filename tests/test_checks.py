"""The blocked 100,000-sample acceptance checks against their one-point loops.

``_lemma_row_blocks`` must replay the scalar draws bit for bit, and the array
kernels the checks evaluate must agree with the scalar functions the checks
called one point at a time.  The scalar loops below are the reference.
"""

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

# The checks draw 100,000 rows; the first 20,000 span 20 blocks of 999 rows
# and a partial one, which is enough to exercise the tail carry.
ROWS = 20_000


def _check_rng(seed):
    """The generator of a check as it reaches its 100,000-row loop."""
    rng = np.random.default_rng(seed)
    if seed == 11:
        # algebra-reconciliation first draws 1,000 alphas and moment triples
        for _ in range(1000):
            rng.random()
            for _ in range(3):
                random_disk_point(rng, 2.0)
    return rng


def _scalar_rows(rng, count):
    """Rows (alpha, p, y, zeta) of the scalar loop, as a (count, 4) complex array."""
    rows = np.empty((count, 4), dtype=complex)
    for i in range(count):
        alpha = rng.random()
        pt = random_lemma_point(rng)
        rows[i] = alpha, pt.p, pt.y, pt.zeta
    return rows


def _blocked_rows(rng, count, block):
    blocks = list(_lemma_row_blocks(rng, count, block))
    assert all(1 <= b[0].size <= block for b in blocks)
    return np.column_stack([np.concatenate(col) for col in zip(*blocks)]).astype(complex)


@pytest.fixture(scope="module", params=[12, 11], ids=["seed12", "seed11-after-moments"])
def stream(request):
    return request.param, _scalar_rows(_check_rng(request.param), ROWS)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("block, count", [(1, 2000), (7, 2000), (1024, ROWS), (999, ROWS)])
def test_blocks_replay_the_scalar_draws(stream, block, count):
    seed, ref = stream
    assert _same_bits(_blocked_rows(_check_rng(seed), count, block), ref[:count])


def test_zero_rows():
    assert list(_lemma_row_blocks(np.random.default_rng(0), 0)) == []


class _Doubles:
    """Stands in for a Generator: hands out ``head``, then 0.5s, as its doubles."""

    def __init__(self, head):
        self.head = list(head)

    def random(self, k=None):
        n = 1 if k is None else k
        out, self.head = (self.head + [0.5] * n)[:n], self.head[n:]
        return out[0] if k is None else np.array(out)

    def uniform(self, low, high):
        return low + (high - low) * self.random()


@pytest.mark.parametrize("block", [1, 7])
def test_rows_longer_than_the_buffer(block):
    # 1.0 maps to the corner (1, 1) of the square, which the disk test
    # rejects, so these rows need far more doubles than a block reads.
    head = [0.25, 0.5] + [1.0] * 60 + [0.3, 0.4] + [1.0] * 200 + [0.5] * 6 + [0.9, 0.8]
    count = 6
    assert _same_bits(_blocked_rows(_Doubles(head), count, block),
                      _scalar_rows(_Doubles(head), count))


@pytest.mark.parametrize(
    "head, error, match",
    [
        ([1.0], DomainError, "alpha"),
        ([float("nan")], DomainError, "alpha"),
        ([0.5, 1.5], InvalidLemmaPoint, "p must"),
        ([0.5, float("nan")], InvalidLemmaPoint, "p must"),
    ],
)
def test_blocks_validate_their_domain(head, error, match):
    # a double of 0.5 maps to 0 on [-1, 1], so every disk attempt succeeds
    with pytest.raises(error, match=match):
        list(_lemma_row_blocks(_Doubles(head), 10))


def _scalar_quantities(rng, count):
    """Per row, what the two checks computed one point at a time."""
    out = []
    for _ in range(count):
        alpha = Alpha(rng.random())
        pt = random_lemma_point(rng)
        m = lemma_forward(pt)
        psi = functional_param_form(alpha, pt)
        form = functional_moment_form(alpha, m)
        major = phi(alpha, pt.p, abs(pt.y))
        out.append((m.p1, m.p2, m.p3, psi, form, abs(psi - form), major, abs(psi) - major))
    return np.array(out)


@pytest.mark.parametrize("seed", [11, 12])
def test_blocked_quantities_match_the_scalar_loop(seed):
    count = 5000
    ref = _scalar_quantities(np.random.default_rng(seed), count)
    got = []
    for alpha, p, y, zeta in _lemma_row_blocks(np.random.default_rng(seed), count):
        p1, p2, p3 = _lemma_forward_raw(p, y, zeta)
        psi = _param_form_raw(alpha, p, y, zeta)
        form = _moment_form_raw(alpha, p1, p2, p3)
        major = _phi_raw(alpha, p, np.abs(y))
        got.append(np.column_stack(
            (p1, p2, p3, psi, form, np.abs(psi - form), major, np.abs(psi) - major)
        ))
    got = np.concatenate(got)
    assert got.shape == ref.shape
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
