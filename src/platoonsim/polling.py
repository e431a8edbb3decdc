"""Closed-form mean-delay analysis for the scheduling disciplines.

Provides the light-traffic limit of the mean delay, the heavy-traffic
delay constants for the exhaustive and gated disciplines, and the
interpolation approximation that matches both limits:

    approx(rho) = (K1 * rho + K2 * rho^2) / (1 - rho),

with K1 the hatted light-traffic slope and K2 = omega - K1, where the
hatted load split (rho_hat, lam_hat) is held fixed as rho varies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .core import PlatoonError, SimParams, UnstableLoad

__all__ = [
    "UnsupportedDiscipline",
    "PollingInput",
    "ApproxCoefficients",
    "light_traffic_delay",
    "ht_omega",
    "approx_coefficients",
    "approx_mean_delay",
    "mean_queue_length",
]

DISCIPLINES = ("exhaustive", "gated")


class UnsupportedDiscipline(PlatoonError):
    """No analytic delay form exists for this discipline (e.g. batch)."""


def residual_mean(ex: float, ex2: float) -> float:
    """Mean residual (overshoot) of a random variable: E[X^2] / (2 E[X])."""
    return ex2 / (2.0 * ex)


@dataclass
class PollingInput:
    """First and second moments of the service structure, per lane.

    B_i is the crossing occupation time of lane i (same-lane headway) and
    S_i the clearance incurred before lane i receives a crossing from a
    switch. Deterministic values have E[X^2] = E[X]^2.
    """

    n: int
    lam: Tuple[float, ...]      # arrival rate per lane (veh/s)
    eb: Tuple[float, ...]       # E[B_i] (s)
    eb2: Tuple[float, ...]      # E[B_i^2] (s^2)
    es: Tuple[float, ...]       # E[S_i] (s)
    es2: Tuple[float, ...]      # E[S_i^2] (s^2)

    def __post_init__(self) -> None:
        for name in ("lam", "eb", "eb2", "es", "es2"):
            vals = getattr(self, name)
            if len(vals) != self.n:
                raise ValueError(f"{name} must have {self.n} entries, got {len(vals)}")
            setattr(self, name, tuple(float(v) for v in vals))
        for lam in self.lam:
            if lam < 0.0:
                raise ValueError(f"arrival rate must be >= 0, got {lam}")
        for name in ("eb", "eb2", "es", "es2"):
            for v in getattr(self, name):
                if v <= 0.0:
                    raise ValueError(f"{name} entries must be > 0, got {v}")
        for ex, ex2, what in ((self.eb, self.eb2, "B"), (self.es, self.es2, "S")):
            for m1, m2 in zip(ex, ex2):
                if m2 < m1 * m1 - 1e-12:
                    raise ValueError(f"E[{what}^2]={m2} below E[{what}]^2={m1 * m1}")

    @classmethod
    def from_sim_params(cls, params: SimParams) -> "PollingInput":
        """Deterministic B and S: second moments are the squared means."""
        return cls(
            n=params.n,
            lam=params.lam,
            eb=params.B,
            eb2=tuple(b * b for b in params.B),
            es=params.S,
            es2=tuple(s * s for s in params.S),
        )

    @property
    def rho_i(self) -> Tuple[float, ...]:
        return tuple(l * b for l, b in zip(self.lam, self.eb))

    @property
    def rho(self) -> float:
        return sum(self.rho_i)

    @property
    def rho_hat(self) -> Tuple[float, ...]:
        rho = self.rho
        if rho <= 0.0:
            raise ValueError("hatted load split undefined at zero total load")
        return tuple(r / rho for r in self.rho_i)

    @property
    def lam_hat(self) -> Tuple[float, ...]:
        return tuple(rh / b for rh, b in zip(self.rho_hat, self.eb))

    @property
    def sigma2(self) -> float:
        """E[B^2]/E[B] of the service time of a randomly arriving vehicle."""
        return sum(lh * b2 for lh, b2 in zip(self.lam_hat, self.eb2))


def _check_lane(inp: PollingInput, lane: int) -> int:
    if not 1 <= lane <= inp.n:
        raise ValueError(f"lane must be in 1..{inp.n}, got {lane}")
    return lane - 1


def light_traffic_delay(inp: PollingInput, lane: int) -> float:
    """First-order (in load) expansion of the mean delay at a lane (s).

    rho_i E[B_i^res] + sum_{j != i} rho_j (E[B_j^res] + E[S_i])
                     + sum_{j != i} lam_j E[S_i] E[S_i^res]
    """
    i = _check_lane(inp, lane)
    rho_i = inp.rho_i
    b_res = [residual_mean(b, b2) for b, b2 in zip(inp.eb, inp.eb2)]
    s_res_i = residual_mean(inp.es[i], inp.es2[i])
    total = rho_i[i] * b_res[i]
    for j in range(inp.n):
        if j == i:
            continue
        total += rho_i[j] * (b_res[j] + inp.es[i])
        total += inp.lam[j] * inp.es[i] * s_res_i
    return total


def ht_omega(inp: PollingInput, discipline: str, lane: int) -> float:
    """Heavy-traffic constant omega_i: the limit of (1 - rho) * mean delay.

    A single lane never switches, so it pays no clearance and is the M/G/1
    queue: omega = sigma2 / 2 for either discipline, which makes the
    interpolation Pollaczek-Khinchine's rho * sigma2 / (2 (1 - rho)).
    """
    i = _check_lane(inp, lane)
    if discipline not in DISCIPLINES:
        raise UnsupportedDiscipline(f"no heavy-traffic form for {discipline!r}")
    if inp.n == 1:
        return inp.sigma2 / 2.0
    rh = inp.rho_hat
    s_sum = sum(inp.es)
    if discipline == "exhaustive":
        denom = sum(r * (1.0 - r) for r in rh)
        return (1.0 - rh[i]) / 2.0 * (inp.sigma2 / denom + s_sum)
    denom = sum(r * (1.0 + r) for r in rh)
    return (1.0 + rh[i]) / 2.0 * (inp.sigma2 / denom + s_sum)


@dataclass
class ApproxCoefficients:
    k1: float   # light-traffic slope under the hatted split (s)
    k2: float   # omega - k1 (s)
    omega: float  # heavy-traffic constant (s)


def approx_coefficients(inp: PollingInput, discipline: str, lane: int) -> ApproxCoefficients:
    """Interpolation constants for one lane and discipline."""
    i = _check_lane(inp, lane)
    if discipline not in DISCIPLINES:
        raise UnsupportedDiscipline(f"no approximation for {discipline!r}")
    rh = inp.rho_hat
    lh = inp.lam_hat
    b_res = [residual_mean(b, b2) for b, b2 in zip(inp.eb, inp.eb2)]
    s_res_i = residual_mean(inp.es[i], inp.es2[i])
    k1 = rh[i] * b_res[i]
    for j in range(inp.n):
        if j == i:
            continue
        k1 += rh[j] * (b_res[j] + inp.es[i])
        k1 += lh[j] * s_res_i * inp.es[i]
    omega = ht_omega(inp, discipline, lane)
    return ApproxCoefficients(k1=k1, k2=omega - k1, omega=omega)


def approx_mean_delay(inp: PollingInput, discipline: str, lane: int) -> float:
    """Interpolated mean delay (s) at the input's own load rho."""
    rho = inp.rho
    if rho >= 1.0:
        raise UnstableLoad(f"rho={rho:.4f} >= 1")
    if rho == 0.0:
        return 0.0
    coef = approx_coefficients(inp, discipline, lane)
    return (coef.k1 * rho + coef.k2 * rho * rho) / (1.0 - rho)


def mean_queue_length(inp: PollingInput, discipline: str, lane: int) -> float:
    """Mean number of delayed vehicles at a lane, by Little's law."""
    i = _check_lane(inp, lane)
    return inp.lam[i] * approx_mean_delay(inp, discipline, lane)
