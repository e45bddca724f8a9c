"""Command-line interface: optimize, sweep, compare, simulate.

Each command loads a scenario file and writes its CSV artifacts and a
``manifest.json`` under temp names in the output directory; only after the
last one is written (for ``simulate``, after the closed-form check) are they
renamed onto their final names, one after another. A rejected run removes
its temp files and any directory it created, so it leaves nothing behind and
leaves an earlier run's artifacts as they were. The renames are not one
atomic step: if one fails (exit 3), the files renamed before it already
hold the new versions. Re-runs with identical inputs and
seed overwrite the CSV files byte for byte; the manifest records wall time
and is the one file excluded from that guarantee.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 internal
consistency failure (simulated latency disagreeing with the closed form).

``--qos-class`` and ``--weights`` choose each run's verifier box and
weights through :func:`bcconf.qos.resolve`, which states the precedence;
``simulate`` takes no weights and rejects ``--weights``.

Every CSV table goes through :func:`_write_lines`, which writes it in chunks
of :data:`_CHUNK_ROWS` lines, so no table is held in memory whole; every
table but ``surface.csv`` makes its lines with :func:`_write_table`'s one
``%s`` line. ``sweep`` gives each grid row one ``%`` template that already
holds m and the texts of the cells that depend on m only
(:data:`bcconf.metrics.M_ONLY_COLUMNS`), so a point fills in only theta, its
theta-only texts (:data:`bcconf.metrics.THETA_ONLY_COLUMNS`) and its own
cells. The theta-only texts come from a dict keyed by theta that lives for
one call and is emptied whenever it holds :data:`_CHUNK_ROWS` thetas: every
row computes those cells with the same expression, so a text made in one row
is exact in all of them, each row up to that width reuses the first row's
texts, and the dict stays bounded. Each best-so-far column
(``compare.csv``'s two series, ``trace.csv``'s ``best_so_far``) reads the
running minimum lazily and formats it only when it is a new object, holding
just the last one: ``trace.csv`` reuses the text of the utility it came
from. ``sim_report.csv`` formats each run of equal values once: a value
equal to the one before it with the same sign bit has the same bits and
reuses its text, and NaN, equal to nothing, never does.

:func:`main` builds its argument parser once per process and reuses it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
from operator import itemgetter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Optional, Sequence, TextIO

from . import __version__, dpos_sim, metrics, optimizer, qos
from .model import (
    DEFAULT_GRID_CAP,
    BlockchainConfig,
    ConstraintError,
    DataClass,
    ParseError,
    QosWeights,
    ScenarioParams,
    ValidationError,
    feasible_rows,
    load_scenario,
)
from .dpos_sim import ModelMismatchError, SimConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_CONSISTENCY = 4

OUT_DIR_ENV = "BCCONF_OUT"


def _parse_weights_flag(text: str) -> QosWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated weights, e.g. 0.3,0.3,0.4")
    try:
        return QosWeights(*(float(p) for p in parts))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"weights must be numbers, got {text!r}") from None


def _parse_qos_class_flag(text: str) -> DataClass:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected priority,security_need, e.g. high,low")
    try:
        return DataClass(*parts)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_jitter_flag(text: str) -> float:
    if text == "none":
        return 0.0
    if not text.startswith("uniform:"):
        raise argparse.ArgumentTypeError("expected uniform:SPREAD, e.g. uniform:0.1, or 'none'")
    try:
        return float(text.removeprefix("uniform:"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"jitter spread must be a number, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcconf",
        description="Verifier-count and block-size tuning plus a round simulator for permissioned ledgers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--scenario", required=True, help="path to a scenario file")
        sub.add_argument(
            "--out",
            default=None,
            help=f"output directory (default: ${OUT_DIR_ENV} or the working directory)",
        )
        sub.add_argument("--seed", type=int, default=0, help="seed recorded in the manifest and used by simulate")
        sub.add_argument(
            "--qos-class",
            type=_parse_qos_class_flag,
            default=None,
            metavar="P,S",
            help="priority,security_need pair mapped to an operating mode (overrides the file's qos_class)",
        )

    def add_weights(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--weights",
            type=_parse_weights_flag,
            default=None,
            metavar="L,S,C",
            help="latency,security,cost weights; overrides the scenario file and mode defaults",
        )

    def add_grid_cap(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--grid-cap",
            type=int,
            default=DEFAULT_GRID_CAP,
            help="refuse grids larger than this many configurations",
        )

    sub_optimize = subparsers.add_parser("optimize", help="greedy search; writes result.csv and trace.csv")
    add_common(sub_optimize)
    add_weights(sub_optimize)

    sub_sweep = subparsers.add_parser("sweep", help="evaluate the whole grid; writes surface.csv")
    add_common(sub_sweep)
    add_weights(sub_sweep)
    add_grid_cap(sub_sweep)

    sub_compare = subparsers.add_parser(
        "compare", help="greedy vs exhaustive; writes compare.csv and summary.csv"
    )
    add_common(sub_compare)
    add_weights(sub_compare)
    add_grid_cap(sub_compare)

    sub_simulate = subparsers.add_parser(
        "simulate", help="discrete-event round simulation; writes events.csv, events.ndjson, sim_report.csv"
    )
    add_common(sub_simulate)
    sub_simulate.add_argument("--m", type=int, default=None, help="verifier count (default: prior result.csv)")
    sub_simulate.add_argument(
        "--theta", type=int, default=None, help="transactions per block (default: prior result.csv)"
    )
    sub_simulate.add_argument("--rounds", type=int, default=1, help="number of verification rounds")
    sub_simulate.add_argument(
        "--jitter",
        type=_parse_jitter_flag,
        default=0.0,
        metavar="uniform:SPREAD",
        help="service-time jitter, uniform on [1 - SPREAD, 1 + SPREAD] (default: none)",
    )
    sub_simulate.add_argument(
        "--rotate-bm",
        action="store_true",
        help="rotate the block-manager role round-robin through the selected verifiers",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: argparse keeps each call's state in a new Namespace, never on the parser."""
    return build_parser()


def _resolve_out_dir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    return Path(out)


class _ArtifactSet:
    """A run's artifacts, written under temp names and published together.

    :meth:`create` opens a temp file in the output directory and creates the
    directory on first use. On a clean exit from the ``with`` block every
    file is closed and only then renamed onto its final name, in creation
    order; on an exception every temp file, and every directory this set
    created, is removed. A rename that fails part-way removes the temp
    files not yet renamed but cannot undo the renames already made.
    """

    def __init__(self, out_dir: Path):
        self.dir = out_dir
        self._files: dict[Path, TextIO] = {}  # final path -> open temp file
        self._made_dirs: list[Path] = []  # deepest first

    def create(self, name: str) -> TextIO:
        if not self._files and not self.dir.is_dir():
            self._made_dirs = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
            self.dir.mkdir(parents=True, exist_ok=True)
        handle = open(self.dir / f".{name}.{os.getpid()}.tmp", "w", encoding="utf-8", newline="")
        self._files[self.dir / name] = handle
        return handle

    def __enter__(self) -> "_ArtifactSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._discard()
            return
        try:
            for handle in self._files.values():
                handle.close()
            for path, handle in self._files.items():
                os.replace(handle.name, path)
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        for handle in self._files.values():
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
        for directory in self._made_dirs:
            with contextlib.suppress(OSError):  # left in place if anything else is in it
                directory.rmdir()


# Rows per ``write`` of a table: what a table holds in memory at once.
_CHUNK_ROWS = 1024


def _write_lines(handle: TextIO, header: Collection[str], lines: Iterable[str]) -> None:
    """Write a CSV table in chunks of :data:`_CHUNK_ROWS` lines: the header, then each line as it is.

    Each line is one row's text, its newline included. The header goes out
    with the first chunk, so a table of up to ``_CHUNK_ROWS`` rows is one
    ``write``, and no table is held in memory whole.
    """
    lines = iter(lines)
    chunk = [",".join(header) + "\n", *itertools.islice(lines, _CHUNK_ROWS)]
    while chunk:
        handle.write("".join(chunk))
        chunk = list(itertools.islice(lines, _CHUNK_ROWS))


def _write_table(handle: TextIO, header: Collection[str], rows: Iterable[tuple]) -> None:
    """Write a CSV table through :func:`_write_lines`, each row's cells by ``str`` through one ``%s`` line.

    Each row is a tuple with one cell per header name; a row of any other
    length raises ``TypeError``. The bytes are those the ``csv`` module's
    writer gives: ``str`` of a float is its ``repr``, a ``str`` cell is
    written as it is, and no header or cell of these tables needs quoting.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    _write_lines(handle, header, map(line.__mod__, rows))


def _write_manifest(
    artifacts: _ArtifactSet, args: argparse.Namespace, started: float, scenario_sha256: str
) -> None:
    payload = {
        "command": args.command,
        "scenario_path": str(args.scenario),
        "scenario_sha256": scenario_sha256,
        "output_dir": str(artifacts.dir),
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    handle = artifacts.create("manifest.json")
    json.dump(payload, handle, indent=2)
    handle.write("\n")


def _cmd_optimize(args: argparse.Namespace, scenario: ScenarioParams, artifacts: _ArtifactSet) -> None:
    effective, weights = qos.resolve(scenario, args.qos_class, args.weights)
    result = optimizer.solve_greedy(effective, weights)
    *breakdown, _ = metrics.evaluate(effective, weights, result.best_config)
    record = {
        "m": result.best_config.num_verifiers,
        "theta": result.best_config.txns_per_block,
        "utility": result.best_utility,
        **dict(zip(metrics.COLUMNS[:-1], breakdown)),
        "solver": "greedy",
        "evaluations": result.evaluations,
    }
    _write_table(artifacts.create("result.csv"), record, [tuple(record.values())])
    _write_table(
        artifacts.create("trace.csv"), ["iteration", "m", "theta", "utility", "best_so_far"], _trace_rows(result)
    )


def _trace_rows(result: optimizer.SolverResult) -> Iterator[tuple]:
    """Lazily, each ``trace.csv`` row: its utility is formatted once, and ``best_so_far`` reuses that text.

    The running minimum is always one of the utilities, the object of the row
    it came from, so when it is this row's utility it takes this row's text,
    and otherwise keeps the text it had.
    """
    points = ((m, theta) for m, thetas in result.rows for theta in thetas)
    best_text = ""
    running_min = itertools.accumulate(result.utilities, min)
    for k, (m, theta), value, best in zip(itertools.count(1), points, result.utilities, running_min):
        text = repr(value)
        if best is value:
            best_text = text
        yield k, m, theta, text, best_text


def _best_so_far_texts(result: optimizer.SolverResult) -> Iterator[str]:
    """Lazily, the text of each value of ``result.best_so_far()``, formatted only when it is a new object.

    The running minimum is read lazily, as ``best_so_far`` computes it, so no
    tuple as long as the walk is built. It repeats its object until a smaller
    utility replaces it, so holding the last object and its text is enough.
    The test is identity, not equality, so each text is the ``repr`` of its
    own value.
    """
    last: Optional[float] = None
    text = ""
    for best in itertools.accumulate(result.utilities, min):
        if best is not last:
            last, text = best, repr(best)
        yield text


def _surface_lines(
    scenario: ScenarioParams, weights: QosWeights, rows: Iterable[tuple[int, range]]
) -> Iterator[str]:
    """Lazily, each ``surface.csv`` line of the region ``rows``, through one ``%`` template per grid row.

    A row's template holds m and the texts of its m-only cells, so a point
    fills in only theta, the texts of its theta-only cells and its own
    cells, each by ``str``. The theta-only texts are kept per theta, in a
    dict emptied whenever it holds :data:`_CHUNK_ROWS` thetas; exact in every
    row, a text made in one row serves the rest. Every position is derived
    from :data:`bcconf.metrics.COLUMNS` and the two column sets.
    """
    width = len(metrics.COLUMNS)
    m_only = [k for k, name in enumerate(metrics.COLUMNS) if name in metrics.M_ONLY_COLUMNS]
    theta_only = [k for k, name in enumerate(metrics.COLUMNS) if name in metrics.THETA_ONLY_COLUMNS]
    # Row m's template is this % (m, *its m-only cells): each of a point's slots is an escaped "%s".
    row_template = ",".join(["%s", "%%s", *("%s" if k in m_only else "%%s" for k in range(width))]) + "\n"
    # A point's slot values, picked from its cells followed by its theta's (theta, *theta-only texts).
    fill = itemgetter(width, *(
        width + 1 + theta_only.index(k) if k in theta_only else k for k in range(width) if k not in m_only
    ))
    theta_texts: dict[int, tuple] = {}
    for m, thetas in rows:
        row = metrics.evaluate_row(scenario, weights, m, thetas)
        first = next(row)  # a feasible row is never empty; a float's text holds no "%"
        template = row_template % (m, *(first[k] for k in m_only))
        for theta, cells in zip(thetas, itertools.chain((first,), row)):
            texts = theta_texts.get(theta)
            if texts is None:
                if len(theta_texts) == _CHUNK_ROWS:
                    theta_texts.clear()
                texts = theta_texts[theta] = (theta, *(str(cells[k]) for k in theta_only))
            yield template % fill(cells + texts)


def _cmd_sweep(args: argparse.Namespace, scenario: ScenarioParams, artifacts: _ArtifactSet) -> None:
    effective, weights = qos.resolve(scenario, args.qos_class, args.weights)
    rows = feasible_rows(effective, args.grid_cap)  # an over-cap grid raises here, before any file exists
    _write_lines(
        artifacts.create("surface.csv"), ["m", "theta", *metrics.COLUMNS], _surface_lines(effective, weights, rows)
    )


def _cmd_compare(args: argparse.Namespace, scenario: ScenarioParams, artifacts: _ArtifactSet) -> None:
    effective, weights = qos.resolve(scenario, args.qos_class, args.weights)
    # The oracle runs first, so an over-cap grid is refused before anything is evaluated.
    exhaustive = optimizer.solve_exhaustive(effective, weights, grid_cap=args.grid_cap)
    greedy = optimizer.greedy_of(exhaustive)  # evaluates nothing
    utility_gap = greedy.best_utility - exhaustive.best_utility
    # Greedy's walk reads a subset of the oracle's, so its series never outruns the oracle's.
    _write_table(
        artifacts.create("compare.csv"),
        ["iteration", "greedy_best_so_far", "exhaustive_best_so_far"],
        zip(
            itertools.count(1),
            itertools.chain(_best_so_far_texts(greedy), itertools.repeat("")),
            _best_so_far_texts(exhaustive),
        ),
    )
    summary = {
        "greedy_m": greedy.best_config.num_verifiers,
        "greedy_theta": greedy.best_config.txns_per_block,
        "greedy_best_utility": greedy.best_utility,
        "greedy_evaluations": greedy.evaluations,
        "exhaustive_m": exhaustive.best_config.num_verifiers,
        "exhaustive_theta": exhaustive.best_config.txns_per_block,
        "exhaustive_best_utility": exhaustive.best_utility,
        "exhaustive_evaluations": exhaustive.evaluations,
        "utility_gap": utility_gap,
        "greedy_suboptimal": "true" if utility_gap > 0 else "false",
    }
    _write_table(artifacts.create("summary.csv"), summary, [tuple(summary.values())])


def _prior_result_config(out_dir: Path) -> BlockchainConfig:
    result_path = out_dir / "result.csv"
    if not result_path.is_file():
        raise ConstraintError(
            "no --m/--theta given and no prior result.csv in the output directory; "
            "run 'optimize' first or pass the configuration explicitly"
        )
    try:
        with open(result_path, "r", encoding="utf-8", newline="") as handle:
            row = next(csv.DictReader(handle), None)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{result_path}: not a readable CSV file: {exc}") from None
    if row is None or "m" not in row or "theta" not in row:
        raise ParseError(f"{result_path} does not look like an optimize result")
    values = []
    for column in ("m", "theta"):
        try:
            values.append(int(row[column]))
        except (TypeError, ValueError):  # TypeError: a short row leaves the cell None
            raise ParseError(
                f"{result_path}: column '{column}' must be an integer, got {row[column]!r}"
            ) from None
    return BlockchainConfig(*values)


def _cmd_simulate(args: argparse.Namespace, scenario: ScenarioParams, artifacts: _ArtifactSet) -> None:
    effective, _ = qos.resolve(scenario, args.qos_class)
    if args.m is not None and args.theta is not None:
        config = BlockchainConfig(args.m, args.theta)
    elif args.m is None and args.theta is None:
        config = _prior_result_config(artifacts.dir)
    else:
        raise ConstraintError("--m and --theta must be given together")
    sim = SimConfig(
        scenario=effective,
        config=config,
        rounds=args.rounds,
        jitter=args.jitter,
        rng_seed=args.seed,
        rotate_bm=args.rotate_bm,
    )
    log = dpos_sim.event_writer(artifacts.create("events.csv"), artifacts.create("events.ndjson"))
    report = dpos_sim.run(sim, log)  # raises on a closed-form mismatch, before anything is published
    analytic = repr(report.analytic_latency_s)  # formatted once
    _write_table(
        artifacts.create("sim_report.csv"),
        ["round", "latency_s", "analytic_latency_s", "abs_rel_deviation"],
        zip(
            itertools.count(),
            _equal_run_texts(report.per_round_latency_s),
            itertools.repeat(analytic),
            _equal_run_texts(report.abs_rel_deviation),
        ),
    )


def _equal_run_texts(values: Iterable[float]) -> Iterator[str]:
    """Lazily, the ``repr`` of each value, made once per run of equal values.

    A value equal to the one before it with the same sign bit has the same
    bits, so it reuses that value's text. Only a zero can equal a value of
    the other sign, so only a zero compares sign bits; NaN, equal to
    nothing, is always formatted anew.
    """
    copysign = math.copysign
    last = math.nan
    text = ""
    for value in values:
        if value != last or (not value and copysign(1.0, value) != copysign(1.0, last)):
            last, text = value, repr(value)
        yield text


_COMMANDS = {
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        # One read gives both the bytes to hash and, decoded as open() would, the text to parse.
        scenario_bytes = Path(args.scenario).read_bytes()
        try:
            scenario = load_scenario(io.TextIOWrapper(io.BytesIO(scenario_bytes), encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{args.scenario}: not UTF-8 text: {exc.reason} at byte offset {exc.start}"
            ) from None
        with _ArtifactSet(_resolve_out_dir(args)) as artifacts:
            _COMMANDS[args.command](args, scenario, artifacts)
            _write_manifest(artifacts, args, started, hashlib.sha256(scenario_bytes).hexdigest())
    except ModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except ValueError as exc:
        # ParseError, ValidationError, ConstraintError, GridCapError and
        # malformed numeric content all count as validation failures.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
