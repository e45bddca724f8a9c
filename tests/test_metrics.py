"""Latency/security/cost closed forms against hand-derived and brute-force oracles."""
import math
import random
import re
from dataclasses import replace

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
    load_scenario,
    normalization,
    run_simulation,
    security,
)
from bcconf.metrics import COLUMNS, M_ONLY_COLUMNS, _cells, evaluate, evaluate_row, latency_row
from bcconf.model import feasible_rows, require_feasible
from helpers import (
    TABLE2_PATH,
    bit_identity_inputs,
    by_column,
    make_scenario,
    normalization_scenarios,
    random_feasible_config,
    random_scenario,
    random_weights,
    zero_latency_scenario,
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
    chosen = scenario.ranked_verifiers[:2]
    assert [p.id for p in chosen] == [3, 2]


def test_select_everything_returns_all_sorted():
    scenario = make_scenario(capacities=(2.0, 4.0, 5.0, 10.0), verification_workload=20.0)
    assert [p.id for p in scenario.ranked_verifiers[:4]] == [3, 2, 1, 0]


def test_selection_tie_broken_by_id():
    scenario = make_scenario(capacities=(5.0, 5.0), verification_workload=20.0)
    assert [p.id for p in scenario.ranked_verifiers[:1]] == [0]


def test_selection_out_of_bounds_raises():
    scenario = make_scenario(capacities=(5.0, 5.0), min_verifiers=2)
    theta = scenario.min_txn_per_block
    require_feasible(scenario, 2, theta)
    for m in (1, 3):
        with pytest.raises(ConstraintError, match=rf"\(m={m}, theta={theta}\) outside feasible box m in \[2, 2\]"):
            require_feasible(scenario, m, theta)


# ---------------------------------------------------------------------------
# Latency
# ---------------------------------------------------------------------------

def test_latency_term_by_term_example():
    # theta=2, B=1e6 b, r_d=1e6 b/s, selected K/x = {2s, 4s}, psi=1e-7,
    # m=2, O=1e6 b, r_u=1e6 b/s  ->  2 + 4 + 0.4 + 1 = 7.4 s.
    scenario = make_scenario(capacities=(10.0, 5.0), verification_workload=20.0)
    terms = by_column(_cells(scenario, 2, 2))
    assert terms["downlink_s"] == pytest.approx(2.0, abs=1e-12)
    assert terms["verify_s"] == pytest.approx(4.0, abs=1e-12)
    assert terms["broadcast_s"] == pytest.approx(0.4, abs=1e-12)
    assert terms["feedback_s"] == pytest.approx(1.0, abs=1e-12)
    assert latency(scenario, BlockchainConfig(2, 2)) == pytest.approx(7.4, abs=1e-12)


def test_latency_without_broadcast_term():
    scenario = make_scenario(capacities=(10.0, 5.0), broadcast_coeff=0.0)
    assert latency(scenario, BlockchainConfig(1, 1)) == pytest.approx(4.0, abs=1e-12)


def test_table2_transmission_terms():
    scenario = load_scenario(TABLE2_PATH)
    terms = by_column(_cells(scenario, scenario.max_verifiers, 20))
    assert terms["downlink_s"] == pytest.approx(0.016667, abs=1e-6)
    assert terms["feedback_s"] == pytest.approx(0.384615, abs=1e-6)


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
    for entry in (latency, lambda s, c: evaluate(s, QosWeights(1 / 3, 1 / 3, 1 / 3), c)):
        with pytest.raises(ValidationError, match=f"m=1, theta={theta}") as excinfo:
            entry(scenario, BlockchainConfig(1, theta))
        message = str(excinfo.value)
        assert "transaction_size_bits" in message
        assert [stage for stage in stages if f"{stage} = " in message] == named


def test_latency_decomposition_is_exact():
    rng = random.Random(7)
    for _ in range(200):
        scenario = random_scenario(rng)
        config = random_feasible_config(rng, scenario)
        m, theta = config.num_verifiers, config.txns_per_block
        _, downlink_s, verify_s, broadcast_s, feedback_s = _cells(scenario, m, theta)
        assert latency(scenario, config) == downlink_s + verify_s + broadcast_s + feedback_s


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


def test_partly_free_population_evaluates_cost_and_utility_exactly_zero():
    # The fastest verifier is free, so m=1 costs exactly 0; with cost-only weights the utility is 0 too.
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(0.0, 1.0))
    cost_only = QosWeights(0.0, 0.0, 1.0)
    for weights in (QosWeights(1 / 3, 1 / 3, 1 / 3), cost_only):
        cells = by_column(evaluate(scenario, weights, BlockchainConfig(1, 1)))
        assert cells["cost"] == cells["cost_ratio"] == 0.0
        assert [by_column(row)["cost"] for row in evaluate_row(scenario, weights, 1, range(1, 5))] == [0.0] * 4
    assert by_column(evaluate(scenario, cost_only, BlockchainConfig(1, 1)))["utility"] == 0.0
    # A negative utility beside that zero cost is named as the utility, not the cost.
    negated = replace(scenario.normalization, max_latency=-scenario.normalization.max_latency)
    object.__setattr__(scenario, "_normalization", negated)
    with pytest.raises(ValidationError, match="^utility must be non-negative$"):
        evaluate(scenario, QosWeights(1.0, 0.0, 0.0), BlockchainConfig(1, 1))


def test_valid_scenario_evaluates_latency_exactly_zero():
    # The fastest verifier's time and every other stage underflow to 0 at m=1; m=2 keeps the slow verifier's 1e-30 s.
    scenario = make_scenario(
        capacities=(1e300, 1.0), prices=(1.0, 1.0), transaction_size_bits=1e-300, downlink_rate_bps=1e300,
        feedback_size_bits=1e-300, uplink_rate_bps=1e300, verification_workload=1e-30, broadcast_coeff=0.0,
    )
    assert scenario.normalization.max_latency == 1e-30
    cells = by_column(evaluate(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(1, 1)))
    assert cells["latency_s"] == cells["latency_ratio"] == 0.0
    assert list(latency_row(scenario, 1, range(1, 5))) == [0.0] * 4
    # A negative cost beside that zero latency is named as the cost, not the latency.
    prefix = list(scenario.payment_prefix)
    prefix[1] = -1.0
    object.__setattr__(scenario, "payment_prefix", tuple(prefix))
    with pytest.raises(ValidationError, match="^cost must be non-negative$"):
        evaluate(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(1, 1))


def test_cost_halves_exactly_when_theta_doubles():
    scenario = make_scenario(capacities=(10.0, 5.0, 2.0), prices=(0.3, 0.7, 1.1), max_txn_per_block=16)
    for m in (1, 2, 3):
        for theta in (1, 2, 3, 5, 8):
            assert cost(scenario, BlockchainConfig(m, 2 * theta)) == cost(
                scenario, BlockchainConfig(m, theta)
            ) / 2


def _one_point(config):
    """The one-point row of ``config``."""
    return range(config.txns_per_block, config.txns_per_block + 1)


@pytest.mark.parametrize(
    "entry",
    [
        lambda s, c: evaluate(s, QosWeights(1 / 3, 1 / 3, 1 / 3), c),
        cost,
        latency,
        lambda s, c: run_simulation(SimConfig(scenario=s, config=c)),
        lambda s, c: list(evaluate_row(s, QosWeights(1 / 3, 1 / 3, 1 / 3), c.num_verifiers, _one_point(c))),
        lambda s, c: list(latency_row(s, c.num_verifiers, _one_point(c))),
    ],
    # "utility" is the point evaluation, whose last cell is the utility.
    ids=["utility", "cost", "latency", "run_simulation", "evaluate_row", "latency_row"],
)
@pytest.mark.parametrize("m,theta", [(1, 2), (4, 2), (2, 1), (2, 5)])
def test_every_entry_point_rejects_configs_just_outside_the_box(entry, m, theta):
    # v=2, M=3, t=2, N=4 over five verifiers: just past M the ranking and the
    # payment sums still have entries, so only the feasibility check can refuse.
    scenario = make_scenario(
        capacities=(10.0, 8.0, 6.0, 4.0, 2.0), min_verifiers=2, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=4,
    )
    with pytest.raises(ConstraintError, match=f"m={m}, theta={theta}"):
        entry(scenario, BlockchainConfig(m, theta))


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


def test_normalization_rejects_zero_latency_naming_the_corner_and_fields():
    # The latency maximum, at (M, N) = (2, 3), is 0 like every other.
    scenario = zero_latency_scenario()
    message = r"^the round latency at \(m=2, theta=3\) underflows to 0\.0: transaction_size_bits"
    with pytest.raises(ValidationError, match=message):
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
        evaluate(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(10, 1))


def test_degenerate_box_has_unit_ratios():
    scenario = make_scenario(
        capacities=(4.0,), min_verifiers=1, max_verifiers=1,
        min_txn_per_block=1, max_txn_per_block=1,
    )
    cells = by_column(evaluate(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), BlockchainConfig(1, 1)))
    assert cells["latency_ratio"] == 1.0
    assert cells["security_ratio"] == 1.0
    assert cells["cost_ratio"] == 1.0


# ---------------------------------------------------------------------------
# Utility
# ---------------------------------------------------------------------------

def test_utility_weighted_sum_arithmetic():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(3.0, 2.0))
    weights = QosWeights(1 / 3, 1 / 3, 1 / 3)
    cells = by_column(evaluate(scenario, weights, BlockchainConfig(1, 2)))
    expected = (cells["latency_ratio"] + cells["security_ratio"] + cells["cost_ratio"]) / 3
    assert cells["utility"] == pytest.approx(expected, rel=1e-15)


def test_utility_collapses_to_latency_ratio():
    scenario = make_scenario(capacities=(10.0, 5.0), prices=(3.0, 2.0))
    cells = by_column(evaluate(scenario, QosWeights(1.0, 0.0, 0.0), BlockchainConfig(1, 2)))
    assert cells["utility"] == cells["latency_ratio"]
    assert 0.0 < cells["utility"] <= 1.0


def test_table2_upper_corner_ratios_are_exactly_one():
    scenario = load_scenario(TABLE2_PATH)
    corner = BlockchainConfig(scenario.max_verifiers, scenario.max_txn_per_block)
    cells = by_column(evaluate(scenario, QosWeights(1 / 3, 1 / 3, 1 / 3), corner))
    assert cells["latency_ratio"] == 1.0
    assert cells["security_ratio"] == 1.0


def test_utility_agrees_with_independent_oracle():
    rng = random.Random(42)
    for _ in range(150):
        scenario = random_scenario(rng)
        weights = random_weights(rng)
        config = random_feasible_config(rng, scenario)
        expected = oracle_utility(scenario, weights, config.num_verifiers, config.txns_per_block)
        cells = by_column(evaluate(scenario, weights, config))
        assert cells["utility"] == pytest.approx(expected, rel=1e-12)
        # The prefix-sum and ranked-index paths are bit-identical to the oracle.
        m, theta = config.num_verifiers, config.txns_per_block
        assert cost(scenario, config) == oracle_cost(scenario, m, theta)
        assert cells["verify_s"] == max(
            scenario.verification_workload / p.compute_capacity for p in oracle_rank(scenario)[:m]
        )


def test_evaluate_matches_utility_and_the_metric_functions_bit_for_bit():
    for scenario, weight_sets in bit_identity_inputs():
        constants = normalization(scenario)
        for m, theta in oracle_grid(scenario):
            config = BlockchainConfig(m, theta)
            # Each cell, recomputed from each metric's own function and the maxima; the stages from the point loop.
            total, sec, per_txn_cost = latency(scenario, config), security(scenario, m), cost(scenario, config)
            ratios = (total / constants.max_latency, constants.max_security / sec, per_txn_cost / constants.max_cost)
            expected = (total, *_cells(scenario, m, theta)[1:], sec, per_txn_cost, *ratios)
            for weights in weight_sets:
                cells = evaluate(scenario, weights, config)
                (a, b, c), (x, y, z) = weights.as_tuple(), ratios
                assert cells == (*expected, a * x + b * y + c * z)


# ---------------------------------------------------------------------------
# The row kernel against the point kernel
# ---------------------------------------------------------------------------

def test_evaluate_row_matches_evaluate_bit_for_bit():
    for scenario, weight_sets in bit_identity_inputs():
        for weights in weight_sets:
            for m, thetas in feasible_rows(scenario):
                row = list(evaluate_row(scenario, weights, m, thetas))
                assert len(row) == len(thetas)
                for theta, cells in zip(thetas, row):
                    expected = evaluate(scenario, weights, BlockchainConfig(m, theta))
                    assert [repr(cell) for cell in cells] == [repr(cell) for cell in expected]


def test_m_only_cells_are_one_object_across_a_row():
    # sweep formats these cells once per row and writes that text at every theta of it.
    assert set(M_ONLY_COLUMNS) <= set(COLUMNS) and len(set(M_ONLY_COLUMNS)) == len(M_ONLY_COLUMNS)
    positions = [COLUMNS.index(name) for name in M_ONLY_COLUMNS]
    rng = random.Random(3001)
    scenarios = [random_scenario(rng, max_m=6, max_n=9) for _ in range(60)]
    scenarios += [
        make_scenario(capacities=(7.0,) * 4, max_txn_per_block=6),  # equal capacities
        make_scenario(capacities=(7.0, 7.0, 3.0), prices=(0.0, 1.0, 1.0)),
        make_scenario(min_verifiers=2, min_txn_per_block=3, max_txn_per_block=3),  # a singleton grid
    ]
    assert scenarios[-1].grid_size == 1
    rows = 0
    for scenario in scenarios:
        weights = random_weights(rng)
        for m, thetas in feasible_rows(scenario):
            first, *rest = evaluate_row(scenario, weights, m, thetas)
            assert all(cells[k] is first[k] for cells in rest for k in positions)
            rows += 1
    assert rows > 150


def _broken(field, index, value):
    """table2 with one entry of a derived table replaced."""
    scenario = load_scenario(TABLE2_PATH)
    entries = list(getattr(scenario, field))
    entries[index] = value
    object.__setattr__(scenario, field, tuple(entries))
    return scenario


def _walk(scenario, by_rows):
    """Every cell of the grid in row-major order, by rows or point by point, then how the walk ended."""
    weights = QosWeights(1 / 3, 1 / 3, 1 / 3)
    cells = []
    try:
        if by_rows:
            for m, thetas in feasible_rows(scenario):
                cells.extend(evaluate_row(scenario, weights, m, thetas))
        else:
            cells.extend(
                evaluate(scenario, weights, BlockchainConfig(m, theta))
                for m, thetas in feasible_rows(scenario)
                for theta in thetas
            )
    except Exception as exc:  # noqa: BLE001 - the walks must fail alike, whatever the failure
        return repr(cells), type(exc), str(exc)
    return repr(cells), None, None


# Each breakage with the message its walk must end with. table2 has v=2,
# M=10, t=2, N=20; each table entry breaks the row of m=2 or the interior row m=5.
ROW_WALK_BREAKAGES = {
    "negative_payment": (lambda: _broken("payment_prefix", 2, -1.0), "cost must be non-negative"),
    "infinite_verify": (
        lambda: _broken("ranked_verify_s", 1, math.inf),
        r"\(m=2, theta=2\): round latency is not finite: verify_s = ",
    ),
    "nan_verify": (
        lambda: _broken("ranked_verify_s", 1, math.nan),
        r"\(m=2, theta=2\): round latency is not finite: verify_s = ",
    ),
    "interior_infinite_verify": (
        lambda: _broken("ranked_verify_s", 4, math.inf),
        r"\(m=5, theta=2\): round latency is not finite: verify_s = ",
    ),
    "interior_negative_payment": (lambda: _broken("payment_prefix", 5, -1.0), "cost must be non-negative"),
    # The maxima do not exist, and the first point's latency is already infinite:
    # that point's own check comes before the normalization read.
    "overflowing_latency": (
        lambda: replace(load_scenario(TABLE2_PATH), transaction_size_bits=1e308),
        r"\(m=2, theta=2\): round latency is not finite: downlink_s = ",
    ),
    "free_verifiers": (lambda: make_scenario(capacities=(10.0, 5.0), prices=(0.0, 0.0)), "max_cost is zero"),
}


@pytest.mark.parametrize("breakage", list(ROW_WALK_BREAKAGES))
def test_row_walk_fails_exactly_as_the_point_walk(breakage):
    make, message = ROW_WALK_BREAKAGES[breakage]
    by_rows, by_points = _walk(make(), by_rows=True), _walk(make(), by_rows=False)
    assert by_rows == by_points
    assert by_rows[1] is ValidationError
    assert re.search(message, by_rows[2])


# Rows of the box v=2, M=3, t=2, N=4 that reach outside it, each with the point named.
ROWS_OUTSIDE_THE_BOX = [
    (1, range(2, 5), "m=1, theta=2"),
    (4, range(2, 5), "m=4, theta=2"),
    (2, range(1, 5), "m=2, theta=1"),
    (2, range(2, 6), "m=2, theta=5"),
    (3, range(5, 6), "m=3, theta=5"),
]


def _five_verifier_box():
    # Five verifiers, so the ranking and payment sums have entries past M.
    return make_scenario(
        capacities=(10.0, 8.0, 6.0, 4.0, 2.0), min_verifiers=2, max_verifiers=3,
        min_txn_per_block=2, max_txn_per_block=4,
    )


@pytest.mark.parametrize("m,thetas,named", ROWS_OUTSIDE_THE_BOX)
def test_row_reaching_outside_the_box_raises_before_any_cell(m, thetas, named):
    scenario = _five_verifier_box()
    weights = QosWeights(1 / 3, 1 / 3, 1 / 3)
    yielded = []
    with pytest.raises(ConstraintError, match=named):
        yielded.extend(evaluate_row(scenario, weights, m, thetas))
    assert yielded == []
    assert list(evaluate_row(scenario, weights, m, range(thetas.start, thetas.start))) == []


@pytest.mark.parametrize("m,thetas,named", ROWS_OUTSIDE_THE_BOX)
def test_latency_row_refuses_a_row_outside_the_box_before_any_value(m, thetas, named):
    scenario = _five_verifier_box()
    yielded = []
    with pytest.raises(ConstraintError, match=named):
        yielded.extend(latency_row(scenario, m, thetas))
    assert yielded == []
    assert list(latency_row(scenario, m, range(thetas.start, thetas.start))) == []


# ---------------------------------------------------------------------------
# The row loop: the point path and the row path give the same bits and errors
# ---------------------------------------------------------------------------

# Every point overflows its round latency; the first in the sum, the rest in a stage.
ALL_OVERFLOW = dict(capacities=(10.0,), transaction_size_bits=1e308, downlink_rate_bps=1.0, broadcast_coeff=1.0)
# Row m=1 overflows from theta=18 on, where the downlink stage passes the largest float.
INTERIOR_OVERFLOW = dict(transaction_size_bits=1e307, downlink_rate_bps=1.0, broadcast_coeff=0.0, max_txn_per_block=20)


def row_loop_inputs():
    """Seeded random scenarios, then two whose latency overflows, each with its weight triples.

    Each scenario has a random triple and the three zero-weight corners.
    """
    rng = random.Random(1414)
    corners = (QosWeights(1.0, 0.0, 0.0), QosWeights(0.0, 1.0, 0.0), QosWeights(0.0, 0.0, 1.0))
    scenarios = [random_scenario(rng, max_m=6, max_n=10) for _ in range(150)]
    for scenario in [*scenarios, make_scenario(**ALL_OVERFLOW), make_scenario(**INTERIOR_OVERFLOW)]:
        yield scenario, (random_weights(rng), *corners)


def _outcome(walk):
    """The reprs of what ``walk()`` yields until it ends, then the message that ended it, or None."""
    seen = []
    try:
        for value in walk():
            seen.append(repr(value))
    except ValidationError as exc:
        return seen, str(exc)
    return seen, None


def test_latency_row_gives_latency_bit_for_bit():
    overflows = 0
    for scenario, _ in row_loop_inputs():
        for m, thetas in feasible_rows(scenario):
            by_row = _outcome(lambda: latency_row(scenario, m, thetas))
            assert by_row == _outcome(lambda: (latency(scenario, BlockchainConfig(m, theta)) for theta in thetas))
            overflows += by_row[1] is not None
    assert overflows == 3  # the one row of ALL_OVERFLOW and both rows of INTERIOR_OVERFLOW


def test_evaluate_row_and_stages_match_the_point_path_on_random_scenarios():
    failed_rows = 0
    for scenario, weight_sets in row_loop_inputs():
        for m, thetas in feasible_rows(scenario):
            configs = [BlockchainConfig(m, theta) for theta in thetas]
            terms = _outcome(lambda: (_cells(scenario, m, theta)[1:] for theta in thetas))
            for weights in weight_sets:
                by_row = _outcome(lambda: evaluate_row(scenario, weights, m, thetas))
                assert by_row == _outcome(lambda: (evaluate(scenario, weights, config) for config in configs))
                if by_row[1] is None:
                    stages = _outcome(lambda: (cells[1:5] for cells in evaluate_row(scenario, weights, m, thetas)))
                    assert stages == terms
                else:
                    failed_rows += 1
    # The overflowing rows under each of four weight triples: their maxima do not exist.
    assert failed_rows == 3 * 4


@pytest.mark.parametrize(
    "theta,named",
    [(2, ["downlink_s", "broadcast_s"]), (1, ["downlink_s", "verify_s", "broadcast_s", "feedback_s"])],
    ids=["stage", "sum"],
)
def test_non_finite_latency_raises_one_message_on_the_point_and_row_paths(theta, named):
    scenario = make_scenario(**ALL_OVERFLOW)
    config, thetas = BlockchainConfig(1, theta), range(theta, scenario.max_txn_per_block + 1)
    weights = QosWeights(1 / 3, 1 / 3, 1 / 3)
    paths = {
        "latency": lambda: latency(scenario, config),
        "evaluate": lambda: evaluate(scenario, weights, config),
        "latency_row": lambda: list(latency_row(scenario, 1, thetas)),
        "evaluate_row": lambda: list(evaluate_row(scenario, weights, 1, thetas)),
    }
    messages = {}
    for name, path in paths.items():
        with pytest.raises(ValidationError) as excinfo:
            path()
        messages[name] = str(excinfo.value)
    assert set(messages.values()) == {messages["latency"]}, messages
    message = messages["latency"]
    assert message.startswith(f"configuration (m=1, theta={theta}): round latency is not finite: ")
    stages = ["downlink_s", "verify_s", "broadcast_s", "feedback_s"]
    assert [stage for stage in stages if f"{stage} = " in message] == named


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
        cells = by_column(evaluate(scenario, weights, config))
        assert 0.0 < cells["latency_ratio"] <= 1.0
        assert 0.0 < cells["cost_ratio"] <= 1.0
        assert cells["security_ratio"] >= 1.0
        assert cells["utility"] >= weights.security_weight


def _grid_utilities(scenario, weights):
    """Every utility of the feasible grid in row-major order, as exact hex strings."""
    rows = feasible_rows(scenario)
    return [cells[-1].hex() for m, thetas in rows for cells in evaluate_row(scenario, weights, m, thetas)]


@pytest.mark.parametrize("factor", (0.25, 2.0, 8.0))
def test_scaling_all_prices_or_security_coeff_leaves_every_utility_bit_identical(factor):
    rng = random.Random(43)
    table2 = load_scenario(TABLE2_PATH)
    cases = [(table2, QosWeights(1 / 3, 1 / 3, 1 / 3)), (table2, random_weights(rng))]
    cases += [(random_scenario(rng), random_weights(rng)) for _ in range(100)]
    for scenario, weights in cases:
        expected = _grid_utilities(scenario, weights)
        prices = tuple(replace(p, unit_price=p.unit_price * factor) for p in scenario.verifiers)
        assert _grid_utilities(replace(scenario, verifiers=prices), weights) == expected
        kappa = scenario.security_coeff * factor
        assert _grid_utilities(replace(scenario, security_coeff=kappa), weights) == expected


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), scale=st.floats(min_value=1e-3, max_value=1e3))
def test_utility_invariant_under_security_coeff_rescaling(seed, scale):
    from dataclasses import replace

    rng = random.Random(seed)
    scenario = random_scenario(rng)
    weights = random_weights(rng)
    config = random_feasible_config(rng, scenario)
    rescaled = replace(scenario, security_coeff=scenario.security_coeff * scale)
    original = evaluate(scenario, weights, config)[-1]
    shifted = evaluate(rescaled, weights, config)[-1]
    assert shifted == pytest.approx(original, rel=1e-12)

