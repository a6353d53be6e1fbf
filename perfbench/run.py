"""lexibound benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep_converged --seed 1 --seconds 42 --trace 0

The program is imported from ``src/`` of the checkout and driven in-process
through ``lexibound.cli.main``. Each pass over the workload's calls follows
a fresh set-up (import plus inputs generated from the seed); passes repeat
for about ``--seconds``, and each call is timed by its fastest repeat.
``--trace 0`` reports the end-to-end metrics with no instrumentation;
``--trace 1`` alternates plain and traced passes and reports per-layer
metrics. Every output is checked (see checks.py); the last stdout line is
the result object. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One worker thread: pin the native thread pools before numpy is imported.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import numpy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUTPUT = ROOT / ".perfbench"
MIN_PASSES = 3
GRID_POINTS = 12  # the CLI's default epsilon grid, 0.05:0.60:0.05


def call_cli(argv: list[str]) -> dict:
    """Run ``lexibound.cli.main(argv)`` in-process, capturing its output."""
    from lexibound import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation, not a crash
            traceback.print_exc()
            code = "exception"
    return {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": time.perf_counter() - start,
    }


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lexibound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "src_sha256": src_digest(),
    }


class Bench:
    """A workload's inputs for one seed, and the CLI calls that make a pass."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.populations: list[workloads.Population] = []
        self.items: list[tuple[str, list[str]]] = []
        self.input_paths: dict[str, str] = {}
        self.input_digests: dict[str, str] = {}

    def set_up(self) -> float:
        """Import lexibound afresh (numpy stays loaded), then generate and
        write the inputs; returns the seconds it took."""
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == "lexibound" or m.startswith("lexibound.")]:
            del sys.modules[name]
        importlib.import_module("lexibound.cli")
        w = self.workload
        self.populations, self.items, self.input_paths, self.input_digests = [], [], {}, {}
        self.workdir.mkdir(parents=True, exist_ok=True)
        for g in range(w.generations):
            population = workloads.generate(w, self.seed, g)
            data = workloads.csv_bytes(population.rows)
            path = self.workdir / f"gen_{g}.csv"
            path.write_bytes(data)
            name = f"gen{g}"
            self.populations.append(population)
            self.input_paths[name] = str(path)
            self.input_digests[name] = hashlib.sha256(data).hexdigest()
            if w.command == "analyze":
                self.items.append((name, ["analyze", str(path), "--format", "csv", *w.extra_argv]))
            else:
                self.items.append((name, ["simulate", str(path), "--seed", str(self.seed), *w.extra_argv]))
        if w.command == "verify":
            self.items.append(("verify", ["verify", "--seed", str(self.seed), *w.extra_argv]))
        return time.perf_counter() - start

    def portable(self, name: str, stdout: str) -> str:
        """Output with the input's path (which names the process) replaced,
        so it can be compared with a reference made elsewhere."""
        return stdout.replace(self.input_paths[name], "<input>") if name in self.input_paths else stdout

    def run_pass(self) -> dict:
        start = time.perf_counter()
        cpu = time.process_time()
        results = {name: call_cli(argv) for name, argv in self.items}
        return {
            "seconds": time.perf_counter() - start,
            "cpu_s": time.process_time() - cpu,
            "items": results,
        }


def item_seconds(passes: list[dict]) -> dict[str, float]:
    """Seconds of each CLI call: the fastest of its passes.

    The machine's speed drifts in phases of seconds to minutes; the fastest
    repeat is the call's cost when nothing else slowed it (see README.md).
    """
    names = passes[0]["items"]
    return {name: min(p["items"][name]["seconds"] for p in passes) for name in names}


def check_outputs(bench: Bench, passes: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """Check every operation of every pass; returns (attempted, failed, problems).

    An operation is one grid point, one simulate call or one verify check.
    A problem with a whole output (exit code, header, determinism) fails
    every operation of that output.
    """
    w = bench.workload
    per_output = {"analyze": GRID_POINTS, "simulate": 1, "verify": len(checks.VERIFY_CHECKS)}[w.command]
    graphs = {}
    attempted = failed = 0
    problems: list[str] = []
    first = passes[0]["items"]
    for index, p in enumerate(passes):
        for g, (name, result) in enumerate(p["items"].items()):
            attempted += per_output
            found: list[tuple[str, str]] = []
            if result["code"] != 0:
                found.append(("exit", f"exit code {result['code']!r}: {result['stderr'][-2000:]}"))
            elif w.command == "verify":
                found += checks.check_verify(result["stdout"])
            else:
                population = bench.populations[g]
                if name not in graphs:
                    graphs[name] = checks.Graphs(population)
                if w.command == "analyze":
                    found += checks.check_analyze(result["stdout"], result["stderr"], population, graphs[name])
                else:
                    trials = int(w.extra_argv[w.extra_argv.index("--trials") + 1])
                    found += checks.check_simulate(result["stdout"], population, graphs[name], trials)
            if result["stdout"] != first[name]["stdout"]:
                found.append(("determinism", "stdout differs from the first pass"))
            if reference is not None and index == 0:
                expected = reference["outputs"].get(name)
                if expected is None:
                    found.append(("reference", "the reference has no output for this call"))
                elif w.command == "analyze":
                    found += checks.compare_report(result["stdout"], expected)
                elif bench.portable(name, result["stdout"]) != expected:
                    found.append(("reference", f"stdout differs from the reference:\n{result['stdout']}\n!=\n{expected}"))
            ops = {op for op, _ in found}
            if ops:
                single = all(op.startswith("eps=") or op in checks.VERIFY_CHECKS for op in ops)
                failed += min(len(ops), per_output) if single else per_output
                problems += [f"pass {index} {name} {op}: {message}" for op, message in found]
    return attempted, failed, problems


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    layers = tracer.summary()

    def get(name):
        return layers.get(name, tracing.LayerStats())

    def ratio(part, whole):
        return part / whole if whole > 0 else 0.0

    read, dedup = get("core.read_matrix_csv"), get("core.deduplicate")
    dist, graph = get("diversity.pairwise_distance_matrix"), get("diversity.graph_from_distances")
    clique, select = get("diversity.clique_number"), get("engine.lexicase_select")
    m = {
        "core.read_matrix_csv.self_s": read.self_s,
        "core.read_matrix_csv.cells_per_s": ratio(read.counters["cells"], read.self_s),
        "core.deduplicate.self_s": dedup.self_s,
        "core.deduplicate.unique_frac": ratio(dedup.counters["unique"], dedup.counters["original"]),
        "diversity.pairwise_distance_matrix.self_s": dist.self_s,
        "diversity.pairwise_distance_matrix.compares_per_s": ratio(dist.counters["compares"], dist.self_s),
        "diversity.graph_from_distances.self_s": graph.self_s,
        "diversity.graph_from_distances.edge_density": ratio(graph.counters["edges"], graph.counters["pairs"]),
        "diversity.clique_number.self_s": clique.self_s,
        "diversity.clique_number.calls": clique.calls,
        "diversity.clique_number.search_nodes": clique.counters["search_nodes"],
        "diversity.clique_number.nodes_per_s": ratio(clique.counters["search_nodes"], clique.self_s),
        "diversity.clique_number.exact_frac": ratio(clique.counters["exact"], clique.calls),
        "diversity.clique_number.bracket_width": clique.counters["bracket"],
        "diversity.clique_number.max_call_s": clique.max_call_s,
        "diversity.similarity_bruteforce.self_s": get("diversity.similarity_bruteforce").self_s,
        "bounds.sweep.self_s": get("bounds.sweep").self_s,
        "engine.lexicase_select.self_s": select.self_s,
        "engine.lexicase_select.calls": select.calls,
        "engine.lexicase_select.calls_per_s": ratio(select.calls, select.self_s),
        "engine.lexicase_select.evaluations": select.counters["evaluations"],
        "engine.lexicase_select.evaluations_per_s": ratio(select.counters["evaluations"], select.self_s),
        "inexact_frac": ratio(clique.counters["sweep_inexact"], clique.counters["sweep_points"]),
    }
    for name in ("estimate_runtime", "selection_distribution", "oracle_distribution"):
        m[f"simulate.{name}.self_s"] = get(f"simulate.{name}").self_s
    m["cli.main.self_s"] = get("cli.main").self_s
    return m


def exact_counts(tracer) -> dict:
    layers = tracer.summary()
    select = layers.get("engine.lexicase_select")
    return {
        "clique_search_nodes": [[c.parent, c.vertices, c.search_nodes, c.exact] for c in tracer.clique_calls],
        "lexicase_calls": select.calls if select else 0,
        "lexicase_evaluations": int(select.counters["evaluations"]) if select else 0,
    }


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    """Set up, warm up, then repeat (set-up, pass) cycles for ``seconds``.

    The warm-up call is neither timed nor checked. A cycle is started only
    while another one of the last cycle's length still fits in ``seconds``,
    but at least ``MIN_PASSES`` passes run (twice as many when traced, where
    plain and traced passes alternate, so both see the same machine).
    """
    start = time.perf_counter()
    setups = [bench.set_up()]
    call_cli(bench.items[0][1])
    plain, traced_passes, tracers = [], [], []
    least = MIN_PASSES * (2 if traced else 1)
    cycle = 0.0
    while len(plain) + len(traced_passes) < least or time.perf_counter() - start + cycle <= seconds:
        cycle_start = time.perf_counter()
        setups.append(bench.set_up())
        if traced and len(traced_passes) < len(plain):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes.append(bench.run_pass())
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            plain.append(bench.run_pass())
        cycle = time.perf_counter() - cycle_start
    return {"setups": setups, "plain": plain, "traced": traced_passes, "tracers": tracers}


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"seed_{seed}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="store this run's outputs and exact counts as the seed's reference (needs --trace 1)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_reference and not args.trace:
        parser.error("--write-reference needs --trace 1")
    if not (SRC / "lexibound" / "__init__.py").is_file():
        print(f"perfbench: no lexibound sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import lexibound.cli

    if Path(lexibound.cli.__file__).resolve().parent != SRC / "lexibound":
        print(f"perfbench: imported lexibound from {lexibound.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUTPUT / f"work-{workload.name}-{os.getpid()}"
    bench = Bench(workload, args.seed, workdir)
    try:
        run = measure(bench, args.seconds, bool(args.trace))
        plain, traced, tracers = run["plain"], run["traced"], run["tracers"]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ref_file = reference_path(workload.name, args.seed)
    # A run that writes the reference is checked for structure only.
    reference = json.loads(ref_file.read_text()) if ref_file.is_file() and not args.write_reference else None
    attempted, failed, problems = check_outputs(bench, plain + traced, reference)
    digest = src_digest()
    counts = [exact_counts(t) for t in tracers]
    run_problems = []
    if reference is not None and reference["inputs"] != bench.input_digests:
        run_problems.append("inputs differ from this seed's reference inputs: a workload-generation bug")
    if any(c != counts[0] for c in counts[1:]):
        run_problems.append("exact counts differ between traced passes: a workload-generation bug")
    if counts and reference is not None and reference["src_sha256"] == digest and reference["counts"] != counts[0]:
        run_problems.append("exact counts differ from the reference made from the same sources")
    if run_problems:
        failed = attempted
    for problem in problems + run_problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)

    items = item_seconds(plain)
    plain_wall = sum(items.values())
    if args.trace:
        per_pass = [layer_metrics(t) for t in tracers]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_wall = sum(item_seconds(traced).values())
        calls = metrics["engine.lexicase_select.calls"]
        metrics.update(
            {
                "trials_per_s": calls / plain_wall,
                "process.cpu_s": statistics.median(p["cpu_s"] for p in plain),
                "process.cpu_per_wall": statistics.median(p["cpu_s"] / p["seconds"] for p in plain),
                "trace.overhead_frac": traced_wall / plain_wall - 1.0,
            }
        )
        units = {}
    else:
        metrics = {
            "setup_s": statistics.median(run["setups"]),
            "wall_s": plain_wall,
            "matrix_s_p50": statistics.median(items.values()),
            "matrix_s_max": max(items.values()),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "matrix_s_p50": "s", "matrix_s_max": "s", "peak_rss_mb": "MB"}

    if args.write_reference:
        if failed:
            print("perfbench: not writing a reference from a failing run", file=sys.stderr)
            return 1
        ref_file.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "src_sha256": digest,
            "inputs": bench.input_digests,
            "outputs": {name: bench.portable(name, r["stdout"]) for name, r in plain[0]["items"].items()},
            "counts": counts[0],
        }
        ref_file.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": ref_file.relative_to(ROOT).as_posix() if reference is not None else None,
        "environment": environment(),
        "setups": run["setups"],
        "passes": {"plain": [p["seconds"] for p in plain], "traced": [p["seconds"] for p in traced]},
        "items_s": items,
        "counts": counts[0] if counts else None,
        "metrics": metrics,
    }
    OUTPUT.mkdir(exist_ok=True)
    (OUTPUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("environment", "setups", "passes", "items_s")}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, _unit(name))} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".cpu_per_wall", ".edge_density")):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
