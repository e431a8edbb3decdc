"""Mean-delay analysis: frozen constants, limit constraints, orderings.

The frozen numbers below are for the symmetric two-lane case with
deterministic B=1 and S=2.375. They were computed by hand from the
light-traffic expansion and the heavy-traffic constants:

    K1      = rho_hat*B/2 + rho_hat*(B/2 + S) + lam_hat*S*(S/2)
            = 0.25 + 1.4375 + 1.41015625            = 3.09765625
    omega_e = (1 - 1/2)/2 * (1/(1/2) + 2S)          = 1.6875
    omega_g = (1 + 1/2)/2 * (1/(3/2) + 2S)          = 4.0625
    approx(rho) = (K1*rho + (omega - K1)*rho^2) / (1 - rho)
"""
import pytest

from platoonsim.core import NonPositiveParameter, SimParams, UnstableLoad
from platoonsim.polling import (
    DISCIPLINES,
    UnsupportedDiscipline,
    approx_coefficients,
    approx_mean_delay,
    ht_omega,
    light_traffic_delay,
    residual_mean,
)

K1_SYM = 3.09765625
OMEGA_EXH = 1.6875
OMEGA_GAT = 4.0625


def sym_params(rho: float) -> SimParams:
    return SimParams().with_rho(rho)


def test_residual_mean_deterministic():
    assert residual_mean(2.375, 2.375**2) == pytest.approx(1.1875)
    assert residual_mean(1.0, 1.0) == pytest.approx(0.5)


def test_k1_frozen_symmetric():
    for rho in (0.1, 0.5, 0.9):
        params = sym_params(rho)
        for disc in DISCIPLINES:
            coef = approx_coefficients(params, disc, lane=1)
            assert coef.k1 == pytest.approx(K1_SYM, rel=1e-12)


def test_omega_frozen_symmetric():
    params = sym_params(0.5)
    assert ht_omega(params, "exhaustive", 1) == pytest.approx(OMEGA_EXH, rel=1e-12)
    assert ht_omega(params, "gated", 1) == pytest.approx(OMEGA_GAT, rel=1e-12)


def test_k2_is_omega_minus_k1():
    params = sym_params(0.3)
    for disc, omega in (("exhaustive", OMEGA_EXH), ("gated", OMEGA_GAT)):
        coef = approx_coefficients(params, disc, lane=2)
        assert coef.k2 == pytest.approx(omega - K1_SYM, rel=1e-12)
        assert coef.omega == pytest.approx(omega, rel=1e-12)


def test_approx_frozen_values():
    assert approx_mean_delay(sym_params(0.5), "exhaustive", 1) == pytest.approx(
        2.392578125, rel=1e-12
    )
    assert approx_mean_delay(sym_params(0.5), "gated", 1) == pytest.approx(
        3.580078125, rel=1e-12
    )
    assert approx_mean_delay(sym_params(0.2), "exhaustive", 1) == pytest.approx(
        0.70390625, rel=1e-12
    )


def test_light_traffic_frozen_values():
    assert light_traffic_delay(sym_params(0.05), 1) == pytest.approx(0.1548828125, rel=1e-12)
    assert light_traffic_delay(sym_params(0.2), 2) == pytest.approx(0.61953125, rel=1e-12)


def test_light_traffic_is_linear_in_load():
    base = light_traffic_delay(sym_params(0.1), 1)
    assert light_traffic_delay(sym_params(0.4), 1) == pytest.approx(4.0 * base, rel=1e-10)


def test_approx_value_and_slope_match_light_traffic():
    # Value at zero load is zero; the slope at zero equals the light-traffic
    # slope, checked by finite differences on both curves.
    h = 1e-7
    for disc in DISCIPLINES:
        slope_approx = approx_mean_delay(sym_params(h), disc, 1) / h
        slope_lt = light_traffic_delay(sym_params(h), 1) / h
        assert slope_approx == pytest.approx(slope_lt, rel=1e-6)
        assert slope_lt == pytest.approx(K1_SYM, rel=1e-6)


def test_approx_heavy_traffic_limit():
    rho = 1.0 - 1e-9
    for disc, omega in (("exhaustive", OMEGA_EXH), ("gated", OMEGA_GAT)):
        scaled = (1.0 - rho) * approx_mean_delay(sym_params(rho), disc, 1)
        assert scaled == pytest.approx(omega, rel=1e-6)


def test_approx_zero_and_unstable():
    with pytest.raises(NonPositiveParameter, match=r"lambda\[1\] must be > 0"):
        SimParams(lam=(0.0, 0.0))
    assert approx_mean_delay(sym_params(1e-12), "exhaustive", 1) < 1e-10
    with pytest.raises(UnstableLoad):
        approx_mean_delay(sym_params(1.0), "exhaustive", 1)


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
def test_single_lane_is_pollaczek_khinchine(rho):
    # One lane pays no clearance: the M/D/1 mean wait rho B / (2 (1 - rho)).
    for b in (1.0, 1.2):
        params = SimParams(n=1, lam=(rho / b,), B=b, S=2.375)
        for disc in DISCIPLINES:
            assert approx_coefficients(params, disc, 1).k2 == pytest.approx(0.0, abs=1e-12)
            pk = rho * b / (2.0 * (1.0 - rho))
            assert approx_mean_delay(params, disc, 1) == pytest.approx(pk, rel=1e-12)


def test_symmetric_lanes_identical():
    params = sym_params(0.6)
    for disc in DISCIPLINES:
        assert approx_mean_delay(params, disc, 1) == approx_mean_delay(params, disc, 2)


def test_exhaustive_below_gated_pointwise():
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = sym_params(rho)
        assert approx_mean_delay(params, "exhaustive", 1) < approx_mean_delay(params, "gated", 1)


def test_approx_monotone_in_load():
    prev = {d: 0.0 for d in DISCIPLINES}
    for rho in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
        params = sym_params(rho)
        for disc in DISCIPLINES:
            val = approx_mean_delay(params, disc, 1)
            assert val > prev[disc]
            prev[disc] = val


def test_asymmetric_heavy_traffic_ordering():
    # Exhaustive favors the busy lane in heavy traffic; gated penalizes it.
    params = SimParams(lam=(0.375, 0.125)).with_rho(0.9)
    assert ht_omega(params, "exhaustive", 1) < ht_omega(params, "exhaustive", 2)
    assert ht_omega(params, "gated", 1) > ht_omega(params, "gated", 2)


def test_unsupported_discipline():
    params = sym_params(0.5)
    with pytest.raises(UnsupportedDiscipline):
        ht_omega(params, "batch", 1)
    with pytest.raises(UnsupportedDiscipline):
        approx_coefficients(params, "batch", 1)


def test_lane_bounds_checked():
    params = sym_params(0.5)
    with pytest.raises(ValueError, match="lane"):
        light_traffic_delay(params, 0)
    with pytest.raises(ValueError, match="lane"):
        approx_mean_delay(params, "exhaustive", 3)


def test_hatted_split_constant_across_loads():
    # The interpolation holds the load split fixed; coefficients must not
    # depend on the magnitude of rho, only on the split.
    lo = approx_coefficients(sym_params(0.05), "exhaustive", 1)
    hi = approx_coefficients(sym_params(0.95), "exhaustive", 1)
    assert lo.k1 == pytest.approx(hi.k1, rel=1e-12)
    assert lo.omega == pytest.approx(hi.omega, rel=1e-12)

