"""Numerical verification of the guidance identity and the safety bound."""

from __future__ import annotations

import numpy as np
import pytest

from astro import theoryx


# --- optimal guided velocity ---


def test_guidance_coefficient_specials():
    # beta -> 0 recovers plain preference movement
    assert theoryx.guidance_coefficient(0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)
    # hand value: alpha=1/4, beta=1: (1 - 1/2) / (2 * 3/4) = 1/3
    assert theoryx.guidance_coefficient(0.25, 1.0) == pytest.approx(1.0 / 3.0)
    # alpha(1+beta)=1 freezes the update at the behavior prediction
    assert theoryx.guidance_coefficient(0.5, 1.0) == pytest.approx(0.0)


def test_closed_form_matches_numeric_minimizer():
    rng = np.random.default_rng(0)
    worst = 0.0
    for beta in (0.1, 0.5, 1.0, 2.0):
        for _ in range(10):
            inst = theoryx.make_guidance_instance(rng, beta)
            closed = theoryx.optimal_velocity_closed_form(inst)
            numeric = theoryx.optimal_velocity_numeric(inst)
            worst = max(worst, float(np.max(np.abs(closed - numeric))))
    assert worst <= 1e-6


def test_closed_form_is_a_true_minimum():
    # the objective takes the shift u = v - v_old, not the velocity itself
    rng = np.random.default_rng(1)
    inst = theoryx.make_guidance_instance(rng, 0.7)
    u_star = theoryx.optimal_velocity_closed_form(inst) - inst.v_old
    f_star = theoryx.guidance_objective(u_star, inst)
    for _ in range(50):
        probe = u_star + rng.standard_normal(u_star.shape) * 0.1
        assert theoryx.guidance_objective(probe, inst) >= f_star - 1e-12


def test_mixture_identity_holds_by_construction():
    rng = np.random.default_rng(2)
    for beta in (0.1, 1.0, 2.0):
        inst = theoryx.make_guidance_instance(rng, beta)
        resid = theoryx.mixture_identity_check(
            inst.v_old, inst.alpha, inst.v_plus, inst.v_minus)
        assert resid <= 1e-12


def test_sign_predicate():
    # movement direction flips exactly where alpha(1+beta) crosses 1
    rng = np.random.default_rng(8)
    low = theoryx.make_guidance_instance(rng, 1.0, alpha_range=(0.25, 0.35))
    high = theoryx.make_guidance_instance(rng, 1.0, alpha_range=(0.75, 0.85))
    assert theoryx.shift_sign_agrees(low)
    assert theoryx.shift_sign_agrees(high)
    assert theoryx.guidance_coefficient(low.alpha, low.beta) > 0
    assert theoryx.guidance_coefficient(high.alpha, high.beta) < 0


def test_guidance_instance_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        theoryx.GuidanceInstance(alpha=0.0, beta=1.0, v_old=np.zeros(2),
                                 v_plus=np.zeros(2), v_minus=np.zeros(2))
    with pytest.raises(ValueError):
        theoryx.GuidanceInstance(alpha=0.5, beta=0.0, v_old=np.zeros(2),
                                 v_plus=np.zeros(2), v_minus=np.zeros(2))
    inst = theoryx.make_guidance_instance(rng, 1.0, alpha_range=(0.2, 0.3))
    assert 0.2 < inst.alpha < 0.3


# --- discrete distribution tools ---


def test_validate_dist():
    theoryx.validate_dist(np.array([0.25, 0.75]))
    with pytest.raises(ValueError):
        theoryx.validate_dist(np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        theoryx.validate_dist(np.array([1.2, -0.2]))


def test_bernoulli_hand_values():
    p = np.array([0.5, 0.5])
    q = np.array([0.1, 0.9])
    assert theoryx.total_variation(p, q) == pytest.approx(0.4)
    kl = theoryx.kl_divergence(p, q)
    # 0.5*ln(0.5/0.1) + 0.5*ln(0.5/0.9) = 0.5*ln(25/9) = ln(5/3)
    assert kl == pytest.approx(np.log(5.0 / 3.0), abs=1e-12)
    tv, kl2, ok = theoryx.kl_tv_pinsker(p, q)
    assert ok and tv == pytest.approx(0.4) and kl2 == pytest.approx(kl)
    assert np.sqrt(kl / 2.0) >= tv


def test_kl_infinite_off_support():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    assert theoryx.kl_divergence(p, q) == np.inf
    # still satisfies the inequality trivially
    _, _, ok = theoryx.kl_tv_pinsker(p, q)
    assert ok


def test_pinsker_random_sweep():
    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(2, 17))
        p = theoryx.random_dist(rng, n)
        q = theoryx.random_dist(rng, n)
        tv, kl, ok = theoryx.kl_tv_pinsker(p, q)
        assert ok
        assert 0.0 <= tv <= 1.0


def test_identical_dists_zero_everything():
    p = np.array([0.2, 0.3, 0.5])
    tv, kl, ok = theoryx.kl_tv_pinsker(p, p.copy())
    assert tv == 0.0 and kl == pytest.approx(0.0, abs=1e-15) and ok


# --- reward lower bound ---


def test_bound_instance_construction():
    rng = np.random.default_rng(5)
    inst = theoryx.make_bound_instance(rng, 12)
    theoryx.validate_dist(inst.pi_theta)
    theoryx.validate_dist(inst.pi_ref)
    assert inst.risky.dtype == bool
    assert np.all(np.abs(inst.r_hat) <= inst.r_max + 1e-12)
    # hat-reward error off the risky set stays within eps_safe
    safe = ~inst.risky
    if safe.any():
        assert np.max(np.abs(inst.r_hat[safe] - inst.r_true[safe])) <= inst.eps_safe + 1e-12


def test_reward_lower_bound_holds():
    rng = np.random.default_rng(6)
    min_margin = np.inf
    for _ in range(300):
        inst = theoryx.make_bound_instance(rng, int(rng.integers(4, 17)))
        lhs, rhs, ok = theoryx.reward_lower_bound_check(inst)
        assert ok
        min_margin = min(min_margin, lhs - rhs)
    assert min_margin >= -1e-12


def test_reward_lower_bound_no_risky_states():
    rng = np.random.default_rng(7)
    inst = theoryx.make_bound_instance(rng, 8)
    no_risk = theoryx.BoundInstance(
        pi_theta=inst.pi_theta, pi_ref=inst.pi_ref,
        risky=np.zeros(8, dtype=bool), r_true=inst.r_true,
        r_hat=np.clip(inst.r_true + 0.01, -1.0, 1.0), r_max=inst.r_max,
        eps_safe=inst.eps_safe, eps_risk=inst.eps_risk)
    lhs, rhs, ok = theoryx.reward_lower_bound_check(no_risk)
    assert ok
    # with no risky mass the bound reduces to the safe miscalibration term
    expected_rhs = float(no_risk.pi_theta @ no_risk.r_hat) - no_risk.eps_safe
    assert rhs == pytest.approx(expected_rhs)


def test_restricted_kl_conditional():
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.25, 0.25, 0.5])
    subset = np.array([True, True, False])
    # conditionals on the subset: p -> (0.4, 0.6), q -> (0.5, 0.5)
    expect = 0.4 * np.log(0.4 / 0.5) + 0.6 * np.log(0.6 / 0.5)
    assert theoryx.restricted_kl(p, q, subset) == pytest.approx(expect, abs=1e-12)
    assert theoryx.restricted_kl(p, q, np.zeros(3, dtype=bool)) == 0.0


# --- the bundled verifier ---


def test_verify_theory_passes():
    report = theoryx.verify_theory(trials=20, seed=0)
    assert report["all_passed"]
    assert report["optimal_velocity"]["passed"]
    assert report["optimal_velocity"]["max_closed_vs_numeric"] <= 1e-6
    assert report["optimal_velocity"]["max_mixture_residual"] <= 1e-12
    assert report["pinsker"]["passed"]
    assert report["reward_lower_bound"]["passed"]


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_theory_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"got {trials}$"):
        theoryx.verify_theory(trials=trials)


def test_verify_theory_deterministic():
    a = theoryx.verify_theory(trials=5, seed=3)
    b = theoryx.verify_theory(trials=5, seed=3)
    assert a == b
