"""Command-line front end.

Subcommands: ``analyze`` (bound sweep for one matrix), ``sweep-run``
(per-generation best bounds for a run directory), ``simulate`` (Monte Carlo
runtime estimation, optionally checked against the bound), ``genpop``
(fixture generation), and ``verify`` (built-in self checks).

Exit codes: 0 success, 1 property/bound violation, 2 input error, 3 clique
budget exhausted under --require-exact, 141 standard output closed early
(a reader such as ``head`` stopped reading). This module is the only layer that
turns results into text (``render``) or exit codes; an input error anywhere
below a command reaches ``main`` as an exception and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds, checks, engine, popgen, simulate
from .core import (
    DedupProfile,
    ErrorMatrix,
    ExponentError,
    LossKind,
    MatrixError,
    RngStream,
    deduplicate,
    identity_profile,
    read_matrix_csv,
    write_matrix_csv,
)
from .diversity import DEFAULT_NODE_BUDGET, _resolve_delta, far_distance_threshold
from .diversity import similarity_bruteforce  # noqa: F401  (a name the benchmark tracer wraps)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE

DEFAULT_TRIALS = 10_000

_GEN_FILE = re.compile(r"^gen_(\d+)\.csv$")


def _fail(message: str) -> None:
    print(f"lexibound: error: {message}", file=sys.stderr)


def _check_seed(seed: int) -> int:
    """A --seed value; RngStream reads seeds modulo 2**64, so one outside
    [0, 2**64) would alias a seed inside it."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {seed}")
    return seed


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(rows, fmt: str) -> str:
    """Records as CSV or JSON text.

    CSV takes a non-empty list of dicts sharing their keys: a header of the
    keys, then one line per record (bools as true/false, floats by repr, so
    every float round-trips exactly). JSON takes any JSON value, indented 2.
    """
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(rows[0])]
    lines += [",".join(_cell(value) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_profile(path: str, delta) -> tuple[ErrorMatrix, DedupProfile, float]:
    """Read a matrix and build its analysis profile.

    Discrete matrices are deduplicated (delta omitted or 0); real ones keep
    every row and require an explicit --delta.
    """
    matrix = read_matrix_csv(path)
    try:
        delta = _resolve_delta(matrix.kind, delta)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from exc
    discrete = matrix.kind is LossKind.DISCRETE
    return matrix, deduplicate(matrix) if discrete else identity_profile(matrix), delta


def _epsilon_grid(args) -> tuple[Fraction, ...]:
    """The epsilons of --epsilon or --epsilon-grid. Every flag that
    ``_add_grid_flags`` adds is checked here, before any work; a bad value is
    an input error that names its flag."""
    if args.budget < 1:
        raise ValueError(f"--budget must be >= 1, got {args.budget}")
    if args.epsilon is None:
        try:
            return bounds.parse_epsilon_grid(args.epsilon_grid)
        except ValueError as exc:
            raise ValueError(f"--epsilon-grid: {exc}") from None
    try:
        epsilon = bounds.exact_fraction(args.epsilon)
        far_distance_threshold(epsilon, 1)  # raises outside (0, 1]
    except ExponentError as exc:
        raise ValueError(f"--epsilon: {exc}") from None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--epsilon must be a number in (0, 1], got {args.epsilon!r}") from None
    return (epsilon,)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    grid = _epsilon_grid(args)
    matrix, profile, delta = _load_profile(args.matrix, args.delta)
    reports = bounds.sweep(profile, grid, delta, args.budget)
    print(
        f"# {args.matrix}: kind={matrix.kind.value} n_original={matrix.n_individuals} "
        f"n_unique={profile.n_unique} cases={matrix.n_cases}",
        file=sys.stderr,
    )
    inexact = [r.epsilon for r in reports if not r.exact_k]
    if inexact and args.require_exact:
        _fail(f"clique budget exhausted at epsilon {inexact} (re-run with a larger --budget)")
        return EXIT_BUDGET
    _emit(render([asdict(r) for r in reports], args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep-run
# ---------------------------------------------------------------------------


def _scan_run_directory(path: Path) -> list[tuple[int, Path]]:
    if not path.is_dir():
        raise ValueError(f"not a directory: {path}")
    found = []
    for entry in path.iterdir():
        match = _GEN_FILE.match(entry.name)
        if match:
            found.append((int(match.group(1)), entry))
    if not found:
        raise ValueError(f"no gen_<index>.csv files in {path}")
    found.sort()
    return found


def cmd_sweep_run(args) -> int:
    generations = _scan_run_directory(Path(args.run_directory))
    grid = _epsilon_grid(args)
    rows = []
    n_cases = None
    any_inexact = False
    for index, file_path in generations:
        matrix, profile, delta = _load_profile(str(file_path), args.delta)
        if n_cases is None:
            n_cases = matrix.n_cases
        elif matrix.n_cases != n_cases:
            raise ValueError(f"{file_path}: {matrix.n_cases} cases, earlier generations had {n_cases}")
        reports = bounds.sweep(profile, grid, delta, args.budget)
        any_inexact = any_inexact or any(not r.exact_k for r in reports)
        best = bounds.best_epsilon(reports)
        rows.append(
            {
                "generation": index,
                "epsilon": best.epsilon,
                "k": best.k,
                "total": best.total,
                "worst_case": best.worst_case,
                "ratio": best.ratio,
            }
        )
    if any_inexact and args.require_exact:
        _fail("clique budget exhausted in at least one generation")
        return EXIT_BUDGET
    _emit(render(rows, args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    seed = _check_seed(args.seed)
    grid = _epsilon_grid(args)
    matrix = read_matrix_csv(args.matrix)
    if matrix.kind is LossKind.REAL:
        if not args.binarize_mad:
            raise ValueError(
                "selection needs discrete losses; pass --binarize-mad to apply "
                "the static-epsilon transform with per-case MAD thresholds"
            )
        matrix = engine.static_epsilon_binarize(matrix, engine.mad_thresholds(matrix))
    profile = deduplicate(matrix)
    # The sweep runs first, so an epsilon that overflows 4N/eps fails before the trials.
    reports = bounds.sweep(profile, grid, 0.0, args.budget) if args.check_bound else None
    stats = simulate.estimate_runtime(profile, args.trials, RngStream(seed))
    payload = {
        "matrix": args.matrix,
        "seed": seed,
        "n_original": matrix.n_individuals,
        "n_unique": profile.n_unique,
        "cases": matrix.n_cases,
        **asdict(stats),
    }

    code = EXIT_OK
    if reports is not None:
        rows = payload["bound_checks"] = checks.bound_rows(stats, reports)
        violations = [row["epsilon"] for row in rows if row["satisfied"] is False]
        if violations:
            _fail(f"bound violated at epsilon {violations}: mean + 3*SE = {rows[0]['mean_plus_3se']}")
            code = EXIT_VIOLATION
    _emit(render(payload, "json"), args.out)
    return code


# ---------------------------------------------------------------------------
# genpop
# ---------------------------------------------------------------------------


def cmd_genpop(args) -> int:
    if args.spec is not None:
        names = ("kind", "n", "c", "levels", "clusters", "spread", "seed")
        given = [name for name in names if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--{given[0]} cannot be combined with --spec, which sets every generator field")
        # Not probed with exists(), which raises on an over-long name.
        text = args.spec if args.spec.lstrip().startswith("{") else Path(args.spec).read_text(encoding="utf-8")
        spec = popgen.GenSpec.from_json(text)
    else:
        if args.kind is None or args.n is None or args.c is None:
            raise ValueError("either --spec or all of --kind/--n/--c are required")
        params = {}
        if args.levels is not None:
            params["levels"] = args.levels
        if args.clusters is not None:
            params["clusters"] = args.clusters
        if args.spread is not None:
            params["spread"] = args.spread
        spec = popgen.GenSpec(
            kind=popgen.GenKind(args.kind),
            n=args.n,
            c=args.c,
            seed=_check_seed(args.seed or 0),
            params=params,
        )
    matrix = popgen.generate(spec)
    write_matrix_csv(matrix, args.out)
    print(
        f"# wrote {matrix.n_individuals}x{matrix.n_cases} {spec.kind.value} matrix to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _oracle_fixtures(seed: int, fault: bool):
    profiles = [
        ("dominated-triple", deduplicate(ErrorMatrix([[0, 1], [1, 0], [0, 0]]))),
        ("symmetric-pair", deduplicate(ErrorMatrix([[0, 1], [1, 0]]))),
        ("clone-pair", deduplicate(ErrorMatrix([[0, 1], [0, 1], [1, 0]]))),
        ("adversarial-4x5", deduplicate(popgen.gen_adversarial_single_case(4, 5))),
        ("log-binary-4x3", deduplicate(popgen.gen_log_binary(4, 3))),
        ("random-5x4", deduplicate(popgen.gen_random_uniform(5, 4, 3, RngStream(seed, 90)))),
        ("random-6x6", deduplicate(popgen.gen_random_uniform(6, 6, 2, RngStream(seed, 91)))),
    ]
    for i, (name, profile) in enumerate(profiles):
        # The elite-filter fault samples from floor-halved losses, where
        # losses one apart can tie; the oracle keeps the true profile.
        sampled = deduplicate(ErrorMatrix(np.floor(profile.expand_rows() / 2))) if fault else profile
        yield name, profile, sampled, RngStream(seed).substream(i)


def _definition_fixtures(seed: int):
    for i in range(20):
        n = 4 + (i % 7)
        c = 5 + (i % 4)  # keeps levels^c comfortably above n
        levels = 2 + (i % 2)
        profile = deduplicate(popgen.gen_random_uniform(n, c, levels, RngStream(seed, 300 + i)))
        yield f"random {n}x{c} profile {i}", profile


def _monotonicity_fixtures(seed: int):
    yield "two-cluster-6x10", bounds.sweep(deduplicate(popgen.gen_two_cluster(6, 10)))
    yield "adversarial-6x10", bounds.sweep(deduplicate(popgen.gen_adversarial_single_case(6, 10)))
    yield "random-8x8", bounds.sweep(deduplicate(popgen.gen_random_uniform(8, 8, 2, RngStream(seed, 700))))


def _drift_fixtures(seed: int):
    clustered = deduplicate(popgen.gen_clustered(24, 40, 3, 0.05, RngStream(seed, 800)))
    yield "clustered-24x40", clustered, bounds.sweep(clustered, ["0.2"])[0]
    # _bound_runs's random-30x30 profile: k is small, so many pools are >= 2k
    uniform = deduplicate(popgen.gen_random_uniform(30, 30, 3, RngStream(seed, 900)))
    yield "random-30x30", uniform, bounds.sweep(uniform, ["0.05"])[0]


def _bound_runs(seed: int, trials: int):
    fixtures = [
        ("adversarial-30x30", deduplicate(popgen.gen_adversarial_single_case(30, 30))),
        ("two-cluster-12x20", deduplicate(popgen.gen_two_cluster(12, 20))),
        ("log-binary-16x24", deduplicate(popgen.gen_log_binary(16, 24))),
        ("random-30x30", deduplicate(popgen.gen_random_uniform(30, 30, 3, RngStream(seed, 900)))),
        ("clustered-24x40", deduplicate(popgen.gen_clustered(24, 40, 3, 0.05, RngStream(seed, 901)))),
    ]
    for i, (name, profile) in enumerate(fixtures):
        yield name, simulate.estimate_runtime(profile, trials, RngStream(seed, 910 + i)), bounds.sweep(profile)


def cmd_verify(args) -> int:
    seed = _check_seed(args.seed)
    fault = args.inject_fault == "elite-filter"
    if fault:
        print("verify: injected elite-filter fault (expect failures)", file=sys.stderr)
    trials, tolerance = (100_000, 0.02) if args.level == "full" else (20_000, 0.03)
    runs = {
        "oracle-equivalence": lambda: checks.oracle_equivalence(_oracle_fixtures(seed, fault), trials, tolerance),
        "definition-equivalence": lambda: checks.definition_equivalence(_definition_fixtures(seed)),
        "bound-monotonicity": lambda: checks.bound_monotonicity(_monotonicity_fixtures(seed)),
    }
    if args.level == "full":
        runs["drift-inequality"] = lambda: checks.drift_inequality(_drift_fixtures(seed))
        runs["bound-validity"] = lambda: checks.bound_validity(_bound_runs(seed, 10_000))

    failed = []
    for name, run in runs.items():
        ok, detail = run()
        print(f"verify {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed.append(name)
    if failed:
        _fail(f"failing properties: {', '.join(failed)}")
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_grid_flags(parser: argparse.ArgumentParser, analysis: bool = True) -> None:
    """Epsilon grid and clique budget; ``analysis`` adds --delta and
    --require-exact, which only the bound-sweep commands read."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--epsilon", help="single epsilon value (exact decimal, e.g. 0.25)")
    group.add_argument(
        "--epsilon-grid",
        default=bounds.DEFAULT_GRID,
        help=f"inclusive grid start:stop:step (default {bounds.DEFAULT_GRID})",
    )
    if analysis:
        parser.add_argument("--delta", type=float, help="loss tolerance (required for real matrices)")
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help=f"clique search node budget (default {DEFAULT_NODE_BUDGET})",
    )
    if analysis:
        parser.add_argument(
            "--require-exact",
            action="store_true",
            help="exit 3 instead of reporting bracketed k when the budget is exhausted",
        )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", help="output file (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexibound",
        description="Lexicase selection runtime bounds from population diversity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="bound sweep for one error matrix")
    p.add_argument("matrix", help="CSV error matrix")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep-run", help="per-generation best bounds for a run directory")
    p.add_argument("run_directory", help="directory of gen_<index>.csv files")
    _add_grid_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep_run)

    p = sub.add_parser("simulate", help="Monte Carlo runtime estimation")
    p.add_argument("matrix", help="CSV error matrix")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument(
        "--binarize-mad",
        action="store_true",
        help="binarize real losses with per-case MAD thresholds before selection",
    )
    p.add_argument("--check-bound", action="store_true", help="verify mean + 3*SE <= 4N/eps + 2kC")
    _add_grid_flags(p, analysis=False)
    p.add_argument("--out", help="output file (default: standard output)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("genpop", help="generate a fixture population")
    p.add_argument("--spec", help="GenSpec JSON: inline if it starts with '{', else a file path")
    p.add_argument("--kind", choices=[k.value for k in popgen.GenKind])
    p.add_argument("--n", type=int, help="population size")
    p.add_argument("--c", type=int, help="number of cases")
    p.add_argument("--levels", type=int, help="loss levels (random_uniform)")
    p.add_argument("--clusters", type=int, help="cluster count (clustered)")
    p.add_argument("--spread", type=float, help="within-cluster spread fraction (clustered)")
    p.add_argument("--seed", type=int, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_genpop)

    p = sub.add_parser("verify", help="run the built-in self checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2**64) (default 0)")
    p.add_argument(
        "--inject-fault",
        choices=("elite-filter",),
        help="deliberately corrupt the elite comparison (negative control for the checks)",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # A reader that stopped early (`| head`) is not an input error. Exit as
        # SIGPIPE would; devnull takes the output Python would flush at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (OSError, MatrixError, ValueError, popgen.GenerationError) as exc:
        # Unreadable or unwritable files, malformed matrices, flags and specs.
        _fail(str(exc))
        return EXIT_INPUT
