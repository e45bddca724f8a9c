"""Latency/security/cost closed forms against hand-derived and brute-force oracles."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcconf import (
    BlockchainConfig,
    ConstraintError,
    QosWeights,
    SimConfig,
    ValidationError,
    cost,
    latency,
    latency_terms,
    load_scenario,
    normalization,
    run_simulation,
    security,
    select_verifiers,
    utility,
)
from helpers import (
    TABLE2_PATH,
    make_scenario,
    normalization_scenarios,
    random_feasible_config,
    random_scenario,
    random_weights,
)


# ---------------------------------------------------------------------------
# Independent oracle: a from-scratch reimplementation used only by the tests.
# Normalization maxima come from exhaustive enumeration, not corner formulas.
# ---------------------------------------------------------------------------

def oracle_rank(scenario):
    return sorted(
        scenario.verifiers,
        key=lambda p: (scenario.verification_workload / p.compute_capacity, p.id),
    )


def oracle_latency(scenario, m, theta):
    chosen = oracle_rank(scenario)[:m]
    slowest = max(scenario.verification_workload / p.compute_capacity for p in chosen)
    return (
        theta * scenario.transaction_size_bits / scenario.downlink_rate_bps
        + slowest
        + scenario.broadcast_coeff * theta * scenario.transaction_size_bits * m
        + scenario.feedback_size_bits / scenario.uplink_rate_bps
    )


def oracle_security(scenario, m):
    return scenario.security_coeff * m ** scenario.network_scale_exponent


def oracle_cost(scenario, m, theta):
    # Plain left-to-right addition from 0, which is what sum() did on floats up
    # to Python 3.11; sum() compensates rounding from 3.12 on.
    total = 0
    for p in oracle_rank(scenario)[:m]:
        total += p.unit_price * p.compute_capacity
    return total / theta


def oracle_grid(scenario):
    for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
        for theta in range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1):
            yield m, theta


def oracle_utility(scenario, weights, m, theta):
    max_l = max(oracle_latency(scenario, mm, tt) for mm, tt in oracle_grid(scenario))
    max_s = max(oracle_security(scenario, mm) for mm, _ in oracle_grid(scenario))
    max_c = max(oracle_cost(scenario, mm, tt) for mm, tt in oracle_grid(scenario))
    return (
        weights.latency_weight * oracle_latency(scenario, m, theta) / max_l
        + weights.security_weight * max_s / oracle_security(scenario, m)
        + weights.cost_weight * oracle_cost(scenario, m, theta) / max_c
    )


# ---------------------------------------------------------------------------
# Verifier selection
# ---------------------------------------------------------------------------

def test_select_fastest_two_of_four():
    # K/x by hand: id0 -> 10s, id1 -> 5s, id2 -> 4s, id3 -> 2s.
    scenario = make_scenario(capacities=(2.0, 4.0, 5.0, 10.0), verification_workload=20.0)
    chosen = select_verifiers(scenario, 2)
    assert [p.id for p in chosen] == [3, 2]


def test_select_everything_returns_all_sorted():
    scenario = make_scenario(capacities=(2.0, 4.0, 5.0, 10.0), verification_workload=20.0)
    assert [p.id for p in select_verifiers(scenario, 4)] == [3, 2, 1, 0]


def test_selection_tie_broken_by_id():
    scenario = make_scenario(capacities=(5.0, 5.0), verification_workload=20.0)
    assert [p.id for p in select_verifiers(scenario, 1)] == [0]


def test_selection_out_of_bounds_raises():
    scenario = make_scenario(capacities=(5.0, 5.0), min_verifiers=2)
    with pytest.raises(ConstraintError):
        select_verifiers(scenario, 1)
    with pytest.raises(ConstraintError):
        select_verifiers(scenario, 3)


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def test_latency_term_by_term_example():
    # theta=2, B=1e6 b, r_d=1e6 b/s, selected K/x = {2s, 4s}, psi=1e-7,
    # m=2, O=1e6 b, r_u=1e6 b/s  ->  2 + 4 + 0.4 + 1 = 7.4 s.
    scenario = make_scenario(capacities=(10.0, 5.0), verification_workload=20.0)
    terms = latency_terms(scenario, BlockchainConfig(2, 2))
    assert terms.downlink_s == pytest.approx(2.0, abs=1e-12)
    assert terms.verify_s == pytest.approx(4.0, abs=1e-12)
    assert terms.broadcast_s == pytest.approx(0.4, abs=1e-12)
    assert terms.feedback_s == pytest.approx(1.0, abs=1e-12)
    assert latency(scenario, BlockchainConfig(2, 2)) == pytest.approx(7.4, abs=1e-12)


def test_latency_without_broadcast_term():
    scenario = make_scenario(capacities=(10.0, 5.0), broadcast_coeff=0.0)
    assert latency(scenario, BlockchainConfig(1, 1)) == pytest.approx(4.0, abs=1e-12)


def test_table2_transmission_terms():
    scenario = load_scenario(TABLE2_PATH)
    terms = latency_terms(scenario, BlockchainConfig(scenario.max_verifiers, 20))
    assert terms.downlink_s == pytest.approx(0.016667, abs=1e-6)
    assert terms.feedback_s == pytest.approx(0.384615, abs=1e-6)


def test_latency_rejects_infeasible_config():
    scenario = make_scenario(capacities=(10.0, 5.0))
    with pytest.raises(ConstraintError):
        latency(scenario, BlockchainConfig(3, 1))
    with pytest.raises(ConstraintError):
        latency(scenario, BlockchainConfig(1, 99))


@pytest.mark.parametrize(
    "theta,named",
    [
        (2, ["downlink_s", "broadcast_s"]),  # theta * B overflows inside these two stages
        (1, ["downlink_s", "verify_s", "broadcast_s", "feedback_s"]),  # finite stages, infinite sum
    ],
    ids=["stage", "sum"],
)
def test_overflowing_round_latency_is_a_validation_error(theta, named):
    scenario = make_scenario(
        capacities=(10.0,), transaction_size_bits=1e308, downlink_rate_bps=1.0, broadcast_coeff=1.0
    )
    stages = ["downlink_s", "verify_s", "broadcast_s", "feedback_s"]
    for evaluate in (latency_terms, latency):
        with pytest.raises(ValidationError, match=f"m=1, theta={theta}") as excinfo:
            evaluate(scenario, BlockchainConfig(1, theta))
        message = str(excinfo.value)
        assert "transaction_size_bits" in message
        assert [stage for stage in stages if f"{stage} = " in message] == named


def test_latency_decomposition_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        scenario = random_scenario(rng)
        config = random_feasible_config(rng, scenario)
        terms = latency_terms(scenario, config)
        assert latency(scenario, config) == terms.total_s


# ---------------------------------------------------------------------------
# Security and cost
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kappa,q,m,expected", [(1.0, 2.0, 1, 1.0), (1.0, 2.0, 4, 16.0), (0.5, 3.0, 2, 4.0)]
)
def test_security_values(kappa, q, m, expected):
    scenario = make_scenario(
        capacities=(1.0,) * 4, security_coeff=kappa, network_scale_exponent=q
    )
    assert security(scenario, m) == pytest.approx(expected, rel=1e-15)


def test_security_rejects_nonpositive_count():
    scenario = make_scenario()
    with pytest.raises(ConstraintError):
        security(scenario, 0)


def test_cost_hand_example():
    # Selected (price, capacity) = {(3, 10), (2, 5)}; theta=4 -> (30 + 10) / 4 = 10.
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(3.0, 2.0))
    assert cost(scenario, BlockchainConfig(2, 4)) == pytest.approx(10.0, rel=1e-15)


def test_cost_zero_when_all_prices_zero():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(0.0, 0.0))
    assert cost(scenario, BlockchainConfig(2, 3)) == 0.0


def test_cost_halves_exactly_when_theta_doubles():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(0.3, 0.7, 1.1), max_txn_per_block=16)
    for m in (1, 2, 3):
        for theta in (1, 2, 3, 5, 8):
            assert cost(scenario, BlockchainConfig(m, 2 * theta)) == cost(
                scenario, BlockchainConfig(m, theta)
            ) / 2


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda s, c: utility(s, QosWeights(1 / 3, 1 / 3, 1 / 3), c),
        cost,
        latency_terms,
        lambda s, c: run_simulation(SimConfig(scenario=s, config=c)),
    ],
    ids=["utility", "cost", "latency_terms", "run_simulation"],
)
@pytest.mark.parametrize("m,theta", [(1, 2), (4, 2), (2, 1), (2, 5)])
def test_every_entry_point_rejects_configs_just_outside_the_box(evaluate, m, theta):
    # v=2, M=3, t=2, N=4 over five verifiers: just past M the ranking and the
    # payment sums still have entries, so only the feasibility check can refuse.
    scenario = make_scenario(
        capacities=(10.0, 8.0, 6.0, 4.0, 2.0), min_verifiers=2, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=4,
    )
    with pytest.raises(ConstraintError, match=f"m={m}, theta={theta}"):
        evaluate(scenario, BlockchainConfig(m, theta))


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalization_security_corner():
    scenario = make_scenario(capacities=(1.0,) * 10, max_verifiers=10)
    assert normalization(scenario).max_security == pytest.approx(100.0, rel=1e-15)


def test_normalization_matches_bruteforce_on_random_scenarios():
    for scenario in normalization_scenarios():
        constants = normalization(scenario)
        # Exact agreement with a scan through the library's own metric functions.
        assert constants.max_latency == max(
            latency(scenario, BlockchainConfig(m, t)) for m, t in oracle_grid(scenario)
        )
        assert constants.max_security == max(
            security(scenario, m) for m, _ in oracle_grid(scenario)
        )
        assert constants.max_cost == max(
            cost(scenario, BlockchainConfig(m, t)) for m, t in oracle_grid(scenario)
        )
        # Independent re-derivation agrees up to floating-point association.
        assert constants.max_latency == pytest.approx(
            max(oracle_latency(scenario, m, t) for m, t in oracle_grid(scenario)), rel=1e-14
        )
        assert constants.max_security == pytest.approx(
            max(oracle_security(scenario, m) for m, _ in oracle_grid(scenario)), rel=1e-14
        )
        assert constants.max_cost == pytest.approx(
            max(oracle_cost(scenario, m, t) for m, t in oracle_grid(scenario)), rel=1e-14
        )


def test_normalization_rejects_all_free_verifiers():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(0.0, 0.0))
    with pytest.raises(ValidationError, match="max_cost"):
        normalization(scenario)


@pytest.mark.parametrize(
    "kappa,q",
    [(1.0, 400.0), (1e10, 300.0)],  # 10**400 raises OverflowError; 1e10 * 10**300 is inf
)
def test_overflowing_security_level_is_a_validation_error(kappa, q):
    scenario = make_scenario(capacities=(1.0,) * 10, security_coeff=kappa, network_scale_exponent=q)
    with pytest.raises(ValidationError, match="network_scale_exponent"):
        normalization(scenario)
    # The largest m would overflow in its own security term first.
    with pytest.raises(ValidationError, match="network_scale_exponent"):
        utility(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(10, 1))


def test_degenerate_box_has_unit_ratios():
    scenario = make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=1, max_txn_per_block=1,
    )
    breakdown = utility(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(1, 1))
    assert breakdown.normalized.latency_ratio == 1.0
    assert breakdown.normalized.security_ratio == 1.0
    assert breakdown.normalized.cost_ratio == 1.0


# ---------------------------------------------------------------------------
# Utility
# ---------------------------------------------------------------------------

def test_utility_weighted_sum_arithmetic():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(3.0, 2.0))
    weights = QosWeights(1 / 3, 1 / 3, 1 / 3)
    breakdown = utility(scenario, weights, BlockchainConfig(1, 2))
    norm = breakdown.normalized
    expected = (norm.latency_ratio + norm.security_ratio + norm.cost_ratio) / 3
    assert breakdown.utility == pytest.approx(expected, rel=1e-15)


def test_utility_collapses_to_latency_ratio():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(3.0, 2.0))
    breakdown = utility(scenario, QosWeights(1.0, 0.0, 0.0), BlockchainConfig(1, 2))
    assert breakdown.utility == breakdown.normalized.latency_ratio
    assert 0.0 < breakdown.utility <= 1.0


def test_table2_upper_corner_ratios_are_exactly_one():
    scenario = load_scenario(TABLE2_PATH)
    corner = BlockchainConfig(scenario.max_verifiers, scenario.max_txn_per_block)
    breakdown = utility(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), corner)
    assert breakdown.normalized.latency_ratio == 1.0
    assert breakdown.normalized.security_ratio == 1.0


def test_utility_agrees_with_independent_oracle():
    rng = random.Random(42)
    for _ in range(150):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        config = random_feasible_config(rng, scenario)
        expected = oracle_utility(scenario, weights, config.num_verifiers, config.txns_per_block)
        got = utility(scenario, weights, config).utility
        assert got == pytest.approx(expected, rel=1e-12)
        # The prefix-sum and ranked-index paths are bit-identical to the oracle.
        m, theta = config.num_verifiers, config.txns_per_block
        assert cost(scenario, config) == oracle_cost(scenario, m, theta)
        assert latency_terms(scenario, config).verify_s == max(
            scenario.verification_workload / p.compute_capacity for p in oracle_rank(scenario)[:m]
        )


# ---------------------------------------------------------------------------
# Monotonicity and bound properties
# ---------------------------------------------------------------------------

def test_security_strictly_increasing_in_m():
    rng = random.Random(11)
    for _ in range(300):
        scenario = random_scenario(rng)
        values = [security(scenario, m) for m in range(1, scenario.max_verifiers + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_cost_strictly_decreasing_in_theta_and_nondecreasing_in_m():
    rng = random.Random(12)
    for _ in range(300):
        scenario = random_scenario(rng)
        for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
            row = [
                cost(scenario, BlockchainConfig(m, t))
                for t in range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
            ]
            assert all(a > b for a, b in zip(row, row[1:]))
        for t in (scenario.min_txn_per_block, scenario.max_txn_per_block):
            col = [
                cost(scenario, BlockchainConfig(m, t))
                for m in range(scenario.min_verifiers, scenario.max_verifiers + 1)
            ]
            assert all(a <= b for a, b in zip(col, col[1:]))


def test_latency_nondecreasing_in_both_coordinates():
    rng = random.Random(13)
    for _ in range(300):
        scenario = random_scenario(rng)
        for m in range(scenario.min_verifiers, scenario.max_verifiers + 1):
            row = [
                latency(scenario, BlockchainConfig(m, t))
                for t in range(scenario.min_txn_per_block, scenario.max_txn_per_block + 1)
            ]
            assert all(a <= b for a, b in zip(row, row[1:]))
        for t in (scenario.min_txn_per_block, scenario.max_txn_per_block):
            col = [
                latency(scenario, BlockchainConfig(m, t))
                for m in range(scenario.min_verifiers, scenario.max_verifiers + 1)
            ]
            assert all(a <= b for a, b in zip(col, col[1:]))


def test_normalized_ratios_stay_in_bounds():
    rng = random.Random(14)
    for _ in range(400):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        config = random_feasible_config(rng, scenario)
        breakdown = utility(scenario, weights, config)
        assert 0.0 < breakdown.normalized.latency_ratio <= 1.0
        assert 0.0 < breakdown.normalized.cost_ratio <= 1.0
        assert breakdown.normalized.security_ratio >= 1.0
        assert breakdown.utility >= weights.security_weight


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), scale=st.floats(min_value=1e-3, max_value=1e3))
def test_utility_invariant_under_security_coeff_rescaling(seed, scale):
    from dataclasses import replace

    rng = random.Random(seed)
    scenario = random_scenario(rng)
    weights = random_weights(rng)
    config = random_feasible_config(rng, scenario)
    rescaled = replace(scenario, security_coeff=scenario.security_coeff * scale)
    original = utility(scenario, weights, config).utility
    shifted = utility(rescaled, weights, config).utility
    assert shifted == pytest.approx(original, rel=1e-12)

