"""Every command on extreme but valid scenarios exits 0 or 2, never with a traceback, and leaves nothing behind."""
import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bcconf import QosWeights, ScenarioParams, VerifierProfile, cli, dump_scenario

# A float is drawn from the full positive range, the smallest subnormal to near the largest float,
# one time in RARE, so that stage times, sums and ratios underflow to 0 or overflow to inf in some
# runs; else it is moderate, so that others succeed. A price is 0, a free verifier, one time in RARE.
FULL_RANGE = st.floats(min_value=5e-324, max_value=1.7e308)
MODERATE = st.floats(min_value=1e-3, max_value=1e3)
RARE = 6

# Each command with the artifacts a successful run publishes; simulate runs with and without jitter.
COMMANDS = (
    (("optimize",), {"result.csv", "trace.csv"}),
    (("sweep",), {"surface.csv"}),
    (("compare",), {"compare.csv", "summary.csv"}),
    (("simulate", "--rounds", "3"), {"events.csv", "events.ndjson", "sim_report.csv"}),
    (("simulate", "--rounds", "3", "--jitter", "uniform:0.3"), {"events.csv", "events.ndjson", "sim_report.csv"}),
)


@st.composite
def weights(draw):
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    total = sum(raw)
    return QosWeights(*(x / total for x in raw)) if total > 0 else QosWeights(1.0, 0.0, 0.0)


@st.composite
def extreme_runs(draw):
    """A scenario with a grid of at most 16 points, and a configuration of it for simulate."""
    population = draw(st.integers(min_value=1, max_value=4))
    max_m = draw(st.integers(min_value=1, max_value=population))
    min_m = draw(st.integers(min_value=1, max_value=max_m))
    min_theta = draw(st.integers(min_value=1, max_value=10**12))
    max_theta = min_theta + draw(st.integers(min_value=0, max_value=3))

    def rarely() -> bool:
        return draw(st.integers(min_value=1, max_value=RARE)) == 1

    def value(*, zero_allowed: bool = False) -> float:
        if zero_allowed and rarely():
            return 0.0
        return draw(FULL_RANGE if rarely() else MODERATE)

    scenario = ScenarioParams(
        transaction_size_bits=value(),
        verification_workload=value(),
        feedback_size_bits=value(),
        downlink_rate_bps=value(),
        uplink_rate_bps=value(),
        broadcast_coeff=value(zero_allowed=True),
        security_coeff=value(),
        network_scale_exponent=draw(st.floats(min_value=2.0, max_value=300.0)),
        min_verifiers=min_m,
        max_verifiers=max_m,
        min_txn_per_block=min_theta,
        max_txn_per_block=max_theta,
        verifiers=tuple(
            VerifierProfile(id=i, compute_capacity=value(), unit_price=value(zero_allowed=True))
            for i in range(population)
        ),
        weights=draw(st.none() | weights()),
    )
    config = (draw(st.integers(min_m, max_m)), draw(st.integers(min_theta, max_theta)))
    return scenario, config


# About 3 s: every example runs five commands on a grid of at most 16 points. Only the first
# failure is shrunk: shrinking every distinct one can take minutes and hundreds of MB.
@settings(max_examples=150, deadline=None, derandomize=True, report_multiple_bugs=False)
@given(extreme_runs())
def test_every_command_exits_0_or_2_and_leaves_nothing_behind(run):
    scenario, (m, theta) = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extreme.scenario"
        path.write_text(dump_scenario(scenario), encoding="utf-8")
        for k, (command, published) in enumerate(COMMANDS):
            out = Path(tmp) / f"out{k}"
            argv = [*command, "--scenario", str(path), "--out", str(out)]
            if command[0] == "simulate":
                argv += ["--m", str(m), "--theta", str(theta)]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            assert code in (0, 2), (argv, stderr.getvalue())
            if code == 0:
                assert {p.name for p in out.iterdir()} == published | {"manifest.json"}
            else:
                (line,) = stderr.getvalue().splitlines()
                assert line.startswith("error: ")
                assert not out.exists()  # no temp file, no partial artifact set, not even the directory
