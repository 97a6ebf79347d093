import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbmm.stream import (
    MarkovSource,
    StreamError,
    make_iid,
    mixing_rate,
    next_sample,
    stationary_distribution,
    tv_decay,
)


def two_state(p=0.1, q=0.2, **kw):
    P = np.array([[1 - p, p], [q, 1 - q]])
    return MarkovSource(P=P, emissions=[np.array([0.0]), np.array([1.0])], **kw)


# ---------------------------------------------------------------------------
# validation


def test_rejects_bad_rows():
    with pytest.raises(StreamError):
        MarkovSource(P=np.array([[0.5, 0.4], [0.2, 0.8]]),
                     emissions=[np.zeros(1), np.zeros(1)])
    with pytest.raises(StreamError):
        MarkovSource(P=np.array([[1.5, -0.5], [0.2, 0.8]]),
                     emissions=[np.zeros(1), np.zeros(1)])
    # NaN passes every sign and row-sum comparison
    with pytest.raises(StreamError, match="finite"):
        MarkovSource(P=np.array([[np.nan, 1.0], [0.2, 0.8]]),
                     emissions=[np.zeros(1), np.zeros(1)])


def test_rejects_shape_mismatches():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(StreamError):
        MarkovSource(P=P, emissions=[np.zeros(1)])
    with pytest.raises(StreamError):
        MarkovSource(P=P, emissions=[np.zeros(1), np.zeros(2)])
    with pytest.raises(StreamError):
        MarkovSource(P=P, emissions=[np.zeros(1), np.zeros(1)], state=5)


def test_rejects_periodic_chain():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(StreamError):
        MarkovSource(P=flip, emissions=[np.zeros(1), np.ones(1)])
    # the test-only override admits it
    src = MarkovSource(P=flip, emissions=[np.zeros(1), np.ones(1)],
                       allow_periodic=True)
    assert src.S == 2


def test_rejects_reducible_chain():
    P = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(StreamError):
        MarkovSource(P=P, emissions=[np.zeros(1), np.ones(1)])


# ---------------------------------------------------------------------------
# stationary distribution


def test_stationary_two_state_hand_value():
    # P = [[0.9, 0.1], [0.2, 0.8]] has pi = (q, p)/(p+q) = (2/3, 1/3)
    src = two_state(p=0.1, q=0.2)
    np.testing.assert_allclose(stationary_distribution(src),
                               [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)


def test_stationary_doubly_stochastic_is_uniform():
    P = np.array([[0.5, 0.3, 0.2],
                  [0.2, 0.5, 0.3],
                  [0.3, 0.2, 0.5]])
    src = MarkovSource(P=P, emissions=[np.zeros(1)] * 3)
    np.testing.assert_allclose(stationary_distribution(src), np.full(3, 1 / 3),
                               atol=1e-10)


def test_stationary_fixed_point_residual():
    rng = np.random.default_rng(0)
    M = rng.random(size=(4, 4)) + 0.05
    P = M / M.sum(axis=1, keepdims=True)
    src = MarkovSource(P=P, emissions=[np.zeros(2)] * 4)
    pi = stationary_distribution(src)
    np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
    assert pi.sum() == pytest.approx(1.0)
    assert np.all(pi > 0)


# ---------------------------------------------------------------------------
# mixing rate


def test_mixing_rate_two_state():
    # second eigenvalue is 1 - p - q = 0.7; the TV-based rate computed from
    # exact matrix powers converges to it from below over the horizon
    src = two_state(p=0.1, q=0.2)
    lam = mixing_rate(src)
    assert 0.69 <= lam <= 0.7 + 1e-12


def test_mixing_rate_lazy_uniform():
    # P = 0.5 I + 0.5 * uniform: TV(m) = 0.75 * 0.5^m exactly, so the
    # per-horizon rate is 0.5 * 0.75^(1/m), approaching 0.5 from below
    S = 4
    P = 0.5 * np.eye(S) + 0.5 * np.full((S, S), 1.0 / S)
    src = MarkovSource(P=P, emissions=[np.zeros(1)] * S)
    lam = mixing_rate(src)
    assert 0.49 <= lam < 0.5
    # and the exact TV sequence matches the closed form where it is above
    # the numerical noise floor
    tv = tv_decay(src, horizon=30)
    for m in range(1, 31):
        assert tv[m - 1] == pytest.approx(0.75 * 0.5 ** m, rel=1e-10)


def test_mixing_rate_iid_is_zero():
    src = make_iid(np.array([0.3, 0.7]), [np.zeros(1), np.ones(1)])
    assert mixing_rate(src) == 0.0


def test_tv_decay_monotone_envelope():
    src = two_state(p=0.3, q=0.4)
    tv = tv_decay(src, horizon=50)
    lam = mixing_rate(src, horizon=50)
    for m in range(1, 51):
        assert tv[m - 1] <= lam ** m + 1e-12


def test_tv_decay_first_step_hand_value():
    # worst-start TV after one step of the two-state chain is |1 - p - q| *
    # TV between the two starting rows' limit gaps; direct evaluation:
    src = two_state(p=0.1, q=0.2)
    pi = np.array([2 / 3, 1 / 3])
    expect = 0.5 * max(abs(0.9 - pi[0]) + abs(0.1 - pi[1]),
                       abs(0.2 - pi[0]) + abs(0.8 - pi[1]))
    assert tv_decay(src, horizon=1)[0] == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_next_sample_deterministic_replay():
    a = two_state(seed=42)
    b = two_state(seed=42)
    seq_a = [next_sample(a)[1] for _ in range(200)]
    seq_b = [next_sample(b)[1] for _ in range(200)]
    assert seq_a == seq_b


def test_next_sample_emission_matches_state():
    src = two_state(seed=1)
    for _ in range(50):
        x, s = next_sample(src)
        assert x[0] == float(s)
        assert src.state == s


def test_clone_independent_rng():
    src = two_state(seed=0)
    c = src.clone(seed=99)
    assert c.state == src.state
    next_sample(src)
    # advancing the original does not move the clone
    assert c.state in (0, 1)
    s0 = c.state
    np.testing.assert_array_equal(c.P, src.P)
    assert c.state == s0


def test_external_rng_overrides_owned():
    # an rng set in place of the owned one decides the draws, not the seed
    a, b = two_state(seed=0, state=0), two_state(seed=123, state=0)
    a.rng, b.rng = np.random.default_rng(5), np.random.default_rng(5)
    assert [next_sample(a)[1] for _ in range(20)] == [next_sample(b)[1] for _ in range(20)]


def _choice_states(P, state, rng, n):
    """The states rng.choice draws along the chain, as next_sample did with it."""
    out = []
    for _ in range(n):
        state = int(rng.choice(P.shape[0], p=P[state]))
        out.append(state)
    return out


class _FixedDraws(np.random.Generator):
    """A Generator whose random() returns the given values in turn."""

    def __init__(self, values):
        super().__init__(np.random.PCG64(0))
        self.values = list(values)

    def random(self, *args, **kwargs):
        return self.values.pop(0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), S=st.integers(2, 16),
       zero_frac=st.sampled_from([0.0, 0.3, 0.7]), iid=st.booleans())
def test_next_sample_matches_rng_choice(seed, S, zero_frac, iid):
    # next_sample's CDF draw gives the states rng.choice(S, p=P[state]) gives
    # on an rng with the same seed, for the owned rng and for one set in its
    # place; a numpy whose choice draws differently fails here
    gen = np.random.default_rng(seed)
    emissions = [np.full(1, float(s)) for s in range(S)]

    def row(size):
        w = gen.dirichlet(np.ones(size))
        w[gen.random(size) < zero_frac] = 0.0
        w[gen.integers(size)] += 0.5  # every row keeps a positive entry
        return w / w.sum()

    state = int(gen.integers(S))
    if iid:
        src = make_iid(row(S), emissions, seed=seed, state=state)
    else:
        src = MarkovSource(P=np.stack([row(S) for _ in range(S)]), emissions=emissions,
                           seed=seed, state=state, allow_periodic=True)
    P = src.P.copy()
    want = _choice_states(P, state, np.random.default_rng(seed), 300)
    assert [next_sample(src)[1] for _ in range(300)] == want
    other = seed + 1
    want = _choice_states(P, src.state, np.random.default_rng(other), 300)
    src.rng = np.random.default_rng(other)
    assert [next_sample(src)[1] for _ in range(300)] == want
    # draws at each CDF point and one ulp below it: there, a CDF one ulp
    # away from the one choice builds picks another state
    for s in range(S):
        us = [u for c in src.cdf[s] for u in (np.nextafter(c, 0.0), c) if u < 1.0]
        got = []
        for u in us:
            src.state, src.rng = s, _FixedDraws([u])
            got.append(next_sample(src)[1])
        assert got == [int(_FixedDraws([u]).choice(S, p=P[s])) for u in us]


def test_next_sample_bisect_matches_the_array_searchsorted():
    # next_sample's bisect_right on the per-state CDF lists gives the state
    # searchsorted(u, side="right") gives on the CDF array the lists came
    # from: on random chains of 2 to 16 states (some rows with zero
    # entries), for random draws, draws at each CDF point and one ulp on
    # either side of it, and along 2000 draws of the chain itself
    gen = np.random.default_rng(71)
    for trial in range(40):
        S = int(gen.integers(2, 17))
        P = gen.dirichlet(np.ones(S), size=S)
        P[gen.random((S, S)) < 0.3] = 0.0
        P[np.arange(S), gen.integers(S, size=S)] += 0.5
        P /= P.sum(axis=1, keepdims=True)
        src = MarkovSource(P=P, emissions=[np.full(1, float(s)) for s in range(S)],
                           seed=trial, allow_periodic=True)
        cdf = P.cumsum(axis=1)
        cdf = cdf / cdf[:, -1:]
        assert np.array(src.cdf).tobytes() == cdf.tobytes()
        for s in range(S):
            edges = [u for c in cdf[s] for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
            for u in list(gen.random(50)) + [u for u in edges if 0.0 <= u < 1.0]:
                src.state, src.rng = s, _FixedDraws([float(u)])
                assert next_sample(src)[1] == int(cdf[s].searchsorted(u, side="right"))
        src.state, src.rng = 0, np.random.default_rng(trial)
        rng, state, want = np.random.default_rng(trial), 0, []
        for _ in range(2000):
            state = int(cdf[state].searchsorted(rng.random(), side="right"))
            want.append(state)
        assert [next_sample(src)[1] for _ in range(2000)] == want


def test_iid_frequencies_three_sigma():
    w = np.array([0.2, 0.5, 0.3])
    src = make_iid(w, [np.zeros(1), np.ones(1), np.full(1, 2.0)], seed=3)
    n = 20_000
    counts = np.zeros(3)
    for _ in range(n):
        _, s = next_sample(src)
        counts[s] += 1
    freq = counts / n
    sigma = np.sqrt(w * (1 - w) / n)
    assert np.all(np.abs(freq - w) <= 3.0 * sigma)


def test_iid_point_mass_constant_stream():
    src = make_iid(np.array([0.0, 1.0]), [np.zeros(1), np.ones(1)])
    for _ in range(10):
        x, s = next_sample(src)
        assert s == 1 and x[0] == 1.0


def test_periodic_override_cycles():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    src = MarkovSource(P=flip, emissions=[np.zeros(1), np.ones(1)],
                       allow_periodic=True, state=0)
    states = [next_sample(src)[1] for _ in range(6)]
    assert states == [1, 0, 1, 0, 1, 0]


def test_make_iid_rejects_bad_weights():
    with pytest.raises(StreamError):
        make_iid(np.array([0.5, 0.6]), [np.zeros(1), np.zeros(1)])
    with pytest.raises(StreamError):
        make_iid(np.array([-0.1, 1.1]), [np.zeros(1), np.zeros(1)])
    with pytest.raises(StreamError):
        make_iid(np.array([np.nan, 1.0]), [np.zeros(1), np.zeros(1)])
