"""Closed-form mean-delay analysis for the scheduling disciplines.

Provides the light-traffic limit of the mean delay, the heavy-traffic
delay constants for the exhaustive and gated disciplines, and the
interpolation approximation that matches both limits:

    approx(rho) = (K1 * rho + K2 * rho^2) / (1 - rho),

with K1 the hatted light-traffic slope and K2 = omega - K1, where the
hatted load split (rho_hat, lam_hat) is held fixed as rho varies.

Every function reads a SimParams. Its per-lane headway B_i and clearance
S_i are the polling model's service time and switchover time, both
deterministic: E[B_i^2] = B_i^2 and E[S_i^2] = S_i^2.

check_analytic is the one refusal of a discipline outside DISCIPLINES:
ht_omega, and so every form, and the CLI's approx call it.
approx_mean_delay refuses rho >= 1 through core.validate_params.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .core import ConfigError, SimParams, validate_params

__all__ = [
    "DISCIPLINES",
    "UnsupportedDiscipline",
    "check_analytic",
    "ApproxCoefficients",
    "light_traffic_delay",
    "ht_omega",
    "approx_coefficients",
    "approx_mean_delay",
]

DISCIPLINES = ("exhaustive", "gated")


class UnsupportedDiscipline(ConfigError):
    """No analytic delay form exists for this discipline (e.g. batch)."""


def check_analytic(discipline: str) -> None:
    """Refuse a discipline without an analytic delay form."""
    if discipline not in DISCIPLINES:
        raise UnsupportedDiscipline(f"no analytic delay form for {discipline!r};"
                                    f" choose from {DISCIPLINES}")


def residual_mean(ex: float, ex2: float) -> float:
    """Mean residual (overshoot) of a random variable: E[X^2] / (2 E[X])."""
    return ex2 / (2.0 * ex)


def _check_lane(params: SimParams, lane: int) -> int:
    if not 1 <= lane <= params.n:
        raise ValueError(f"lane must be in 1..{params.n}, got {lane}")
    return lane - 1


def _hatted(params: SimParams) -> Tuple[List[float], List[float]]:
    """The load split rho_hat_i = rho_i / rho and its rates lam_hat_i = rho_hat_i / B_i."""
    rho = params.rho
    rho_hat = [l * b / rho for l, b in zip(params.lam, params.B)]
    return rho_hat, [rh / b for rh, b in zip(rho_hat, params.B)]


def _light_sum(params: SimParams, i: int, loads: Sequence[float], rates: Sequence[float]) -> float:
    """rho_i B_i^res + sum_{j != i} [rho_j (B_j^res + S_i) + lam_j S_i^res S_i]."""
    B, S = params.B, params.S
    s_res = residual_mean(S[i], S[i] * S[i])
    total = loads[i] * residual_mean(B[i], B[i] * B[i])
    for j in range(params.n):
        if j != i:
            total += loads[j] * (residual_mean(B[j], B[j] * B[j]) + S[i])
            total += rates[j] * s_res * S[i]
    return total


def light_traffic_delay(params: SimParams, lane: int) -> float:
    """First-order (in load) expansion of the mean delay at a lane (s)."""
    i = _check_lane(params, lane)
    loads = [l * b for l, b in zip(params.lam, params.B)]
    return _light_sum(params, i, loads, params.lam)


def ht_omega(params: SimParams, discipline: str, lane: int) -> float:
    """Heavy-traffic constant omega_i: the limit of (1 - rho) * mean delay.

    sigma2 = sum_i lam_hat_i E[B_i^2] is E[B^2]/E[B] of the service time of
    a randomly arriving vehicle. A single lane never switches, so it pays
    no clearance and is the M/G/1 queue: omega = sigma2 / 2 for either
    discipline, which makes the interpolation Pollaczek-Khinchine's
    rho * sigma2 / (2 (1 - rho)).
    """
    i = _check_lane(params, lane)
    check_analytic(discipline)
    rh, lh = _hatted(params)
    sigma2 = sum(l * (b * b) for l, b in zip(lh, params.B))
    if params.n == 1:
        return sigma2 / 2.0
    s_sum = sum(params.S)
    if discipline == "exhaustive":
        denom = sum(r * (1.0 - r) for r in rh)
        return (1.0 - rh[i]) / 2.0 * (sigma2 / denom + s_sum)
    denom = sum(r * (1.0 + r) for r in rh)
    return (1.0 + rh[i]) / 2.0 * (sigma2 / denom + s_sum)


@dataclass
class ApproxCoefficients:
    k1: float   # light-traffic slope under the hatted split (s)
    k2: float   # omega - k1 (s)
    omega: float  # heavy-traffic constant (s)


def approx_coefficients(params: SimParams, discipline: str, lane: int) -> ApproxCoefficients:
    """Interpolation constants for one lane and discipline.

    K1 is the light-traffic sum taken with the hatted loads and rates.
    """
    omega = ht_omega(params, discipline, lane)  # checks the lane and the discipline
    rh, lh = _hatted(params)
    k1 = _light_sum(params, lane - 1, rh, lh)
    return ApproxCoefficients(k1=k1, k2=omega - k1, omega=omega)


def approx_mean_delay(params: SimParams, discipline: str, lane: int) -> float:
    """Interpolated mean delay (s) at the parameters' own load rho."""
    validate_params(params)
    rho = params.rho
    coef = approx_coefficients(params, discipline, lane)
    return (coef.k1 * rho + coef.k2 * rho * rho) / (1.0 - rho)
