import math

import numpy as np
import pytest

from halflearn.core import LabeledDataset, RngSeed, UnitVector, angle_between, project_to_sphere
from halflearn.datagen import MarginalSpec, NoiseSpec, apply_noise, sample_marginal
from halflearn.errors import EmptyDatasetError, NonPositiveStepError
from halflearn.optimizer import (
    _STREAM_BATCH,
    PsgdConfig,
    full_gradient_norm,
    initial_direction,
    psgd_candidates,
)
from halflearn.surrogate import SurrogateParams, empirical_surrogate_gradient, ramp_derivative, tangent_gradient


def _cfg(**kw):
    base = dict(step_size=0.01, batch_size=8, max_iters=100, grad_target=1e-6, record_every=10, seed=RngSeed(3))
    base.update(kw)
    return PsgdConfig(**base)


def test_zero_gradient_fixed_point():
    # every point is parallel to the initial direction, far outside the band
    seed = RngSeed(99)
    w0 = initial_direction(2, seed)
    X = np.vstack([3.0 * w0.coords, -3.0 * w0.coords, 5.0 * w0.coords])
    S = LabeledDataset(X, np.array([1.0, -1.0, -1.0]))
    out = psgd_candidates(S, SurrogateParams(1.0), _cfg(batch_size=2, grad_target=1e-9, seed=seed))
    assert out.candidates[0] == w0
    assert out.grad_norms[0] == 0.0
    assert all(c == w0 for c in out.candidates)


def test_single_iteration_bookkeeping():
    seed = RngSeed(5)
    w0 = initial_direction(2, seed)
    # one sample on the tangent direction: nonzero gradient at w0
    u = np.array([-w0.coords[1], w0.coords[0]])
    S = LabeledDataset(u[None, :] * 0.1, np.array([1.0]))
    out = psgd_candidates(
        S, SurrogateParams(1.0), _cfg(batch_size=1, max_iters=1, record_every=1, grad_target=1e-12, seed=seed)
    )
    assert len(out.candidates) == 2
    assert out.candidates[0] == w0
    assert out.candidates[1] != w0


def test_psgd_step_is_the_surrogate_gradient_of_its_minibatch():
    # the minibatch step and empirical_surrogate_gradient share one formula, so
    # one step equals the projected full-gradient step on the drawn rows, bit for bit
    seed = RngSeed(8)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((500, 4))
    y = np.where(X[:, 0] + 0.3 * rng.standard_normal(500) >= 0.0, 1.0, -1.0)
    p = SurrogateParams(0.5)
    cfg = _cfg(step_size=0.3, batch_size=64, max_iters=1, record_every=1, grad_target=1e-300, seed=seed)
    out = psgd_candidates(LabeledDataset(X, y), p, cfg)
    w0 = initial_direction(4, seed)
    idx = seed.generator(_STREAM_BATCH).integers(0, 500, size=64)
    g = empirical_surrogate_gradient(LabeledDataset(X[idx], y[idx]), w0, p)
    assert np.linalg.norm(g) > 0.01
    w1 = w0.coords - 0.3 * g
    assert np.array_equal(out.candidates[1].coords, w1 / np.linalg.norm(w1))


def _per_step_psgd(S, p, cfg):
    """PSGD as one draw, one gather and one gradient per step: the stream and
    arithmetic psgd_candidates must reproduce.  Returns the recorded iterates,
    their norms and how many steps had an in-band row."""
    X, y = S.points, S.labels
    w = initial_direction(S.d, cfg.seed).coords.copy()
    rng = cfg.seed.generator(_STREAM_BATCH)
    cands, norms, stepped = [w.copy()], [full_gradient_norm(S, initial_direction(S.d, cfg.seed), p)], 0
    for t in range(1, cfg.max_iters + 1):
        idx = rng.integers(0, S.n, size=cfg.batch_size)
        Xb = X[idx]
        margins = Xb @ w
        stepped += bool(np.any(np.abs(margins) <= p.sigma / 2.0))
        w = w - cfg.step_size * tangent_gradient(Xb, y[idx], w, margins, ramp_derivative(np.abs(margins), p))
        w /= np.linalg.norm(w)
        if t % cfg.record_every == 0:
            cands.append(w.copy())
            norms.append(full_gradient_norm(S, UnitVector(w), p))
    if not np.array_equal(cands[-1], w):
        cands.append(w.copy())
        norms.append(full_gradient_norm(S, UnitVector(w), p))
    return cands, norms, stepped


@pytest.mark.parametrize("d, batch, max_iters, record_every", [
    (4, 256, 1100, 137),  # the learners' batch; blocks of 256, 256, 256, 256 and 76 steps
    (3, 37, 600, 90),     # an odd batch and an odd dimension
    (5, 1, 257, 256),     # one row per step, one step past a block
])
def test_psgd_matches_the_per_step_loop(d, batch, max_iters, record_every):
    # psgd_candidates draws up to 256 minibatches at once and skips the
    # gradient of a minibatch with no row in the band; neither changes a bit
    rng = np.random.default_rng(d)
    X = rng.standard_normal((3000, d))
    y = np.where(X[:, 0] + 0.2 * rng.standard_normal(3000) >= 0.0, 1.0, -1.0)
    S, p = LabeledDataset(X, y), SurrogateParams(0.02)
    cfg = _cfg(step_size=0.05, batch_size=batch, max_iters=max_iters, record_every=record_every,
               grad_target=1e-300, seed=RngSeed(100 + d))
    cands, norms, stepped = _per_step_psgd(S, p, cfg)
    assert 0 < stepped < max_iters  # both kinds of step occur
    out = psgd_candidates(S, p, cfg)
    assert len(out.candidates) == len(cands)
    for got, want in zip(out.candidates, cands):
        assert np.array_equal(got.coords.view(np.uint64), want.view(np.uint64))
    assert list(out.grad_norms) == norms


def test_full_gradient_norm_examples():
    p = SurrogateParams(1.0)
    w = project_to_sphere([1.0, 0.0])
    outside = LabeledDataset(np.array([[3.0, 1.0], [-2.0, 4.0]]), np.array([1.0, -1.0]))
    assert full_gradient_norm(outside, w, p) == 0.0
    single = LabeledDataset(np.array([[0.0, 1.0]]), np.array([1.0]))
    assert full_gradient_norm(single, w, p) == 1.0
    # relabel y -> -y with x -> -x leaves the norm unchanged
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 3))
    y = np.where(rng.random(50) < 0.5, 1.0, -1.0)
    a = full_gradient_norm(LabeledDataset(X, y), project_to_sphere([1, 1, 1]), p)
    b = full_gradient_norm(LabeledDataset(-X, -y), project_to_sphere([1, 1, 1]), p)
    assert abs(a - b) < 1e-15


@pytest.mark.slow
def test_noiseless_separable_convergence():
    sigma = 0.2
    p = SurrogateParams(sigma)
    angle_ok = grad_ok = 0
    for s in range(10):
        root = RngSeed(1000 + s)
        w_star = project_to_sphere(root.generator(50).standard_normal(2))
        X = sample_marginal(MarginalSpec("standard_gaussian", 2), 20000, root.child(0))
        S = apply_noise(X, NoiseSpec("massart_constant", w_star, eta=0.0), root.child(1))
        cfg = PsgdConfig(
            step_size=0.01, batch_size=64, max_iters=30000,
            grad_target=0.1 * sigma, record_every=1500, seed=root.child(2),
        )
        out = psgd_candidates(S, p, cfg)
        best_angle = min(
            min(angle_between(c, w_star), angle_between(c.negated(), w_star)) for c in out.candidates
        )
        angle_ok += best_angle <= 0.15
        grad_ok += min(out.grad_norms) < 0.1 * sigma
        assert all(abs(np.linalg.norm(c.coords) - 1.0) <= 1e-10 for c in out.candidates)
        assert len(out.candidates) <= math.ceil(cfg.max_iters / cfg.record_every) + 2
    assert angle_ok >= 9
    assert grad_ok >= 9


def test_determinism():
    S, _ = _toy_problem()
    cfg = _cfg(seed=RngSeed(77), max_iters=50)
    a = psgd_candidates(S, SurrogateParams(0.5), cfg)
    b = psgd_candidates(S, SurrogateParams(0.5), cfg)
    assert a.candidates == b.candidates
    assert a.grad_norms == b.grad_norms


def _toy_problem():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((64, 3))
    w_star = project_to_sphere([1.0, 0, 0])
    y = np.where(X @ w_star.coords >= 0, 1.0, -1.0)
    return LabeledDataset(X, y), w_star


def test_error_conditions():
    S, _ = _toy_problem()
    with pytest.raises(NonPositiveStepError):
        psgd_candidates(S, SurrogateParams(0.5), _cfg(step_size=0.0))
    with pytest.raises(EmptyDatasetError):
        psgd_candidates(S, SurrogateParams(0.5), _cfg(batch_size=1000))
    with pytest.raises(ValueError):
        _cfg(max_iters=5, record_every=10)
