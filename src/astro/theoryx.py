"""Numerical verification of the framework's two guarantees.

First: the optimal velocity of the soft-label regression objective is a
closed-form shift of the behavior velocity along the positive-branch
direction. The check pits the closed form against an independent numeric
minimizer of the quadratic objective, on instances built from random soft
labelings so the mixture identity holds by construction.

Second: a reward lower bound for policies trained against an imperfect
reward model that is accurate off a risky set and bounded-error on it,
with the risky set's influence controlled through a Pinsker-style total
variation bound. Verified exactly on small discrete spaces, where every
expectation, KL, and total variation is a finite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# --- optimal-velocity guarantee ---


@dataclass(frozen=True, eq=False)
class GuidanceInstance:
    """Velocities tied together by a soft labeling: v_old = alpha*v_plus + (1-alpha)*v_minus."""

    alpha: float
    beta: float
    v_old: np.ndarray
    v_plus: np.ndarray
    v_minus: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")


def make_guidance_instance(rng: np.random.Generator, beta: float,
                           alpha_range: tuple[float, float] = (0.05, 0.9)) -> GuidanceInstance:
    """Random soft labeling of 32 random samples in 6 dimensions; the mixture
    identity is then an algebraic consequence, not an imposed constraint."""
    n_samples, dim = 32, 6
    lo, hi = alpha_range
    target = rng.uniform(lo + 1e-3, hi - 1e-3)
    centered = rng.uniform(0.0, 1.0, size=n_samples)
    centered -= centered.mean()
    # Shrink the spread so target + spread stays inside [0, 1]; the mean (and
    # therefore alpha) stays at target without any clipping.
    room = min((1.0 - target) / max(float(centered.max()), 1e-12),
               target / max(float(-centered.min()), 1e-12), 1.0)
    labels = target + 0.9 * room * centered
    alpha = float(labels.mean())
    samples = rng.standard_normal((n_samples, dim))
    v_plus = labels @ samples / labels.sum()
    v_minus = (1.0 - labels) @ samples / (1.0 - labels).sum()
    v_old = samples.mean(axis=0)
    return GuidanceInstance(alpha=alpha, beta=beta, v_old=v_old,
                            v_plus=v_plus, v_minus=v_minus)


def guidance_coefficient(alpha: float, beta: float) -> float:
    """Shift factor along (v_plus - v_old): (1 - alpha*(1+beta)) / ((1+beta)*(1-alpha))."""
    return (1.0 - alpha * (1.0 + beta)) / ((1.0 + beta) * (1.0 - alpha))


def optimal_velocity_closed_form(inst: GuidanceInstance) -> np.ndarray:
    return inst.v_old + guidance_coefficient(inst.alpha, inst.beta) * (inst.v_plus - inst.v_old)


def guidance_objective(u: np.ndarray, inst: GuidanceInstance) -> float:
    """Quadratic in the shifted variable u = v - v_old: the positive branch
    pulled toward delta_plus, the negative branch (expressed through the
    mixture identity) weighted by beta."""
    delta_plus = inst.v_plus - inst.v_old
    pull = u - delta_plus
    push = u + (inst.alpha / (1.0 - inst.alpha)) * delta_plus
    return float(np.dot(pull, pull) + inst.beta * np.dot(push, push))


def optimal_velocity_numeric(inst: GuidanceInstance) -> np.ndarray:
    """Independent minimizer: bounded scalar search, over [-50, 50], along the shift direction.

    The objective is a quadratic whose minimizer lies on the line
    v_old + c*(v_plus - v_old); the search recovers c without using the
    closed form.
    """
    # Imported here, its only use, so training processes never load scipy.
    from scipy import optimize

    delta_plus = inst.v_plus - inst.v_old

    def along(c: float) -> float:
        return guidance_objective(c * delta_plus, inst)

    res = optimize.minimize_scalar(along, bounds=(-50.0, 50.0), method="bounded",
                                   options={"xatol": 1e-12})
    return inst.v_old + float(res.x) * delta_plus


def mixture_identity_check(v_old: np.ndarray, alpha: float, v_plus: np.ndarray,
                           v_minus: np.ndarray) -> float:
    """Residual norm of v_old against the alpha-mixture of the two branches."""
    return float(np.linalg.norm(v_old - (alpha * v_plus + (1.0 - alpha) * v_minus)))


def shift_sign_agrees(inst: GuidanceInstance) -> bool:
    """The shift is positive exactly when alpha*(1+beta) < 1."""
    coef = guidance_coefficient(inst.alpha, inst.beta)
    predicate = inst.alpha * (1.0 + inst.beta) < 1.0
    return (coef > 0.0) == predicate


# --- discrete distributions, Pinsker, and the reward lower bound ---

MAX_SUPPORT = 64


def validate_dist(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or not 1 <= p.size <= MAX_SUPPORT:
        raise ValueError(f"need a 1-D distribution with support <= {MAX_SUPPORT}")
    if np.any(p < 0.0) or abs(float(p.sum()) - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return p


def random_dist(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dirichlet draw with a mass floor of 1e-4 so supports fully overlap."""
    p = rng.dirichlet(np.ones(n)) + 1e-4
    return p / p.sum()


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    p, q = validate_dist(p), validate_dist(q)
    return float(0.5 * np.abs(p - q).sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none."""
    p, q = validate_dist(p), validate_dist(q)
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_tv_pinsker(p: np.ndarray, q: np.ndarray) -> tuple[float, float, bool]:
    """(tv, kl, holds) where holds checks tv <= sqrt(kl / 2) with float slack."""
    tv = total_variation(p, q)
    kl = kl_divergence(p, q)
    return tv, kl, tv <= math.sqrt(kl / 2.0) + 1e-12


@dataclass(frozen=True, eq=False)
class BoundInstance:
    """Discrete world for the reward lower bound.

    r_true and r_hat are bounded by r_max. Off the risky set, the reward
    model is pointwise within eps_safe of the truth; on it, its error is
    bounded in expectation under the reference conditional by eps_risk.
    """

    pi_theta: np.ndarray
    pi_ref: np.ndarray
    risky: np.ndarray
    r_true: np.ndarray
    r_hat: np.ndarray
    r_max: float
    eps_safe: float
    eps_risk: float


def make_bound_instance(rng: np.random.Generator, n: int) -> BoundInstance:
    """A random instance on n outcomes with r_max 1, eps_safe 0.05 and eps_risk 0.5."""
    r_max, eps_safe, eps_risk = 1.0, 0.05, 0.5
    pi_theta = random_dist(rng, n)
    pi_ref = random_dist(rng, n)
    risky = np.zeros(n, dtype=bool)
    risky[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
    r_true = rng.uniform(-0.5 * r_max, 0.5 * r_max, size=n)
    noise = np.where(risky,
                     rng.uniform(-2.0 * eps_risk, 2.0 * eps_risk, size=n),
                     rng.uniform(-eps_safe, eps_safe, size=n))
    # Enforce the risky-set assumption: expected |error| under the reference
    # conditional must not exceed eps_risk.
    ref_risky = pi_ref[risky]
    cond_err = float(ref_risky @ np.abs(noise[risky]) / ref_risky.sum())
    if cond_err > eps_risk:
        noise[risky] *= 0.999 * eps_risk / cond_err
    r_hat = np.clip(r_true + noise, -r_max, r_max)
    return BoundInstance(pi_theta=pi_theta, pi_ref=pi_ref, risky=risky,
                         r_true=r_true, r_hat=r_hat, r_max=r_max,
                         eps_safe=eps_safe, eps_risk=eps_risk)


def restricted_kl(pi_a: np.ndarray, pi_b: np.ndarray, subset: np.ndarray) -> float:
    """KL between the two conditionals on the subset."""
    a, b = pi_a[subset], pi_b[subset]
    if a.sum() == 0.0:
        return 0.0
    pa = a / a.sum()
    pb = b / b.sum() if b.sum() > 0.0 else np.zeros_like(a)
    mask = pa > 0.0
    if np.any(pb[mask] == 0.0):
        return math.inf
    return float(np.sum(pa[mask] * np.log(pa[mask] / pb[mask])))


def reward_lower_bound_check(inst: BoundInstance) -> tuple[float, float, bool]:
    """Assemble both sides of the guarantee on a discrete instance.

    The regularizer value is twice the subset-restricted KL (the relation the
    proof uses), so the penalty term is 2*r_max*sqrt(L_KL). Returns
    (lhs, rhs, lhs >= rhs - slack); an empty risky set reduces the right side
    to the safe-error bound alone.
    """
    lhs = float(inst.pi_theta @ inst.r_true)
    expected_hat = float(inst.pi_theta @ inst.r_hat)
    mass = float(inst.pi_theta[inst.risky].sum())
    if mass == 0.0:
        rhs = expected_hat - inst.eps_safe
    else:
        l_kl = 2.0 * restricted_kl(inst.pi_theta, inst.pi_ref, inst.risky)
        rhs = expected_hat - inst.eps_safe - mass * (
            inst.eps_risk + 2.0 * inst.r_max * math.sqrt(l_kl))
    return lhs, rhs, lhs >= rhs - 1e-12


# --- suite driver: each check family maps (rng, trials) to its report ---


def check_optimal_velocity(rng: np.random.Generator, trials: int) -> dict:
    """Closed form vs numeric minimizer, mixture identity and shift sign, cycling beta."""
    betas = (0.1, 0.5, 1.0, 2.0)
    max_gap, max_residual, signs_ok = 0.0, 0.0, True
    for k in range(trials):
        inst = make_guidance_instance(rng, beta=betas[k % len(betas)])
        gap = np.max(np.abs(optimal_velocity_closed_form(inst) - optimal_velocity_numeric(inst)))
        max_gap = max(max_gap, float(gap))
        max_residual = max(max_residual, mixture_identity_check(
            inst.v_old, inst.alpha, inst.v_plus, inst.v_minus))
        signs_ok = signs_ok and shift_sign_agrees(inst)
    return {"passed": max_gap <= 1e-6 and max_residual <= 1e-12 and signs_ok,
            "trials": trials, "max_closed_vs_numeric": max_gap,
            "max_mixture_residual": max_residual, "sign_predicate": signs_ok}


def check_pinsker(rng: np.random.Generator, trials: int) -> dict:
    """Pinsker's inequality on max(10 * trials, 1000) random pairs of distributions."""
    pairs, ok = max(trials * 10, 1000), True
    for _ in range(pairs):
        n = int(rng.integers(2, 17))
        ok = kl_tv_pinsker(random_dist(rng, n), random_dist(rng, n))[2] and ok
    return {"passed": ok, "trials": pairs}


def check_reward_lower_bound(rng: np.random.Generator, trials: int) -> dict:
    """The reward lower bound on max(5 * trials, 500) random discrete instances."""
    instances, ok, min_margin = max(trials * 5, 500), True, math.inf
    for _ in range(instances):
        inst = make_bound_instance(rng, int(rng.integers(2, 17)))
        lhs, rhs, holds = reward_lower_bound_check(inst)
        ok, min_margin = ok and holds, min(min_margin, lhs - rhs)
    return {"passed": ok, "trials": instances, "min_margin": min_margin}


# Every check family by its report key, in the order verify_theory runs them.
FAMILIES = {"optimal_velocity": check_optimal_velocity, "pinsker": check_pinsker,
            "reward_lower_bound": check_reward_lower_bound}


def verify_theory(trials: int = 100, seed: int = 0) -> dict:
    """Each FAMILIES report, run in order on one random stream, and all_passed.
    Fewer than one trial would check no guidance instance, so it is refused."""
    if trials < 1:
        raise ValueError(f"verify_theory needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = {name: check(rng, trials) for name, check in FAMILIES.items()}
    return {**report, "all_passed": all(r["passed"] for r in report.values())}
