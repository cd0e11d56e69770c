"""End-to-end benchmark of the svdsep CLI pipelines, with a traced per-module run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/svdsep`` is imported from
there.  One process generates seeded inputs into a scratch directory under
``.perfbench/`` and calls ``svdsep.cli.main(argv)`` in-process: an untimed
warm-up, then a closed loop with a single caller for ``--seconds`` (at
least ``MIN_SAMPLES`` invocations).  Every invocation's outputs are checked.

``--trace 0`` prints the end-to-end metrics of untraced invocations, and
``peak_mib`` from one more untimed invocation in the middle of the loop,
with ``tracemalloc`` on around ``cli.main`` alone.  ``--trace 1``
alternates untraced and traced invocations and prints per-layer self times
and counters; the spans go to ``.perfbench/spans_<workload>_seed<N>.json``.
Metric names and units are read from ``BENCHMARK.json``.
The last stdout line is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import importlib
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 31
MIN_SAMPLES = 4
MIB = 2.0 ** 20

EXACT = ("lapack.svd_calls", "lapack.qr_calls", "image.windows", "io.bytes_read",
         "io.bytes_written", "linalg.basis_mib")


def metric_units(section: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def import_svdsep():
    """Import svdsep afresh from the checkout, so that the import is timed each time."""
    for name in [m for m in sys.modules if m == "svdsep" or m.startswith("svdsep.")]:
        del sys.modules[name]
    svdsep = importlib.import_module("svdsep")
    importlib.import_module("svdsep.cli")
    return svdsep


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "seed": seed,
    }


def describe(name: str, values: list[float], unit: str) -> float:
    """Print the median with its quartiles, minimum and sample count; return the median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"{name} median={med:.6f} q1={q1:.6f} q3={q3:.6f} min={min(values):.6f} "
          f"n={len(values)} unit={unit}")
    return med


class Bench:
    """One workload in one scratch directory: set-up, invocations and their checks."""

    def __init__(self, name: str, seed: int, scale: workloads.Scale, workdir: Path):
        self.name, self.seed, self.scale, self.workdir = name, seed, scale, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference = None
        self.setup_s: list[float] = []
        self.gen_s: list[float] = []
        self.cli = None
        self.argv = workloads.command(name, workdir)

    def setup(self) -> None:
        """Import svdsep afresh, generate and write the inputs, and time it."""
        t0 = time.perf_counter()
        svdsep = import_svdsep()
        t1 = time.perf_counter()
        inputs = workloads.generate(svdsep, self.name, self.seed, self.scale)
        t2 = time.perf_counter()
        workloads.write_inputs(svdsep, inputs, self.workdir)
        t3 = time.perf_counter()
        self.setup_s.append(t3 - t0)
        self.gen_s.append(t2 - t1)
        self.cli = svdsep.cli

    def invoke(self, call=None) -> tuple[float, float] | None:
        """Run the CLI once and check its outputs; (wall s, cpu s), or None on failure."""
        gc.collect()
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = call(self.cli, self.argv) if call else self.cli.main(self.argv)
        except Exception as exc:  # a raising invocation is a counted failure, not a crash
            rc = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = [f"exit status {rc}"] if rc != 0 else self._check()
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return wall, cpu

    def _check(self) -> list[str]:
        """Outputs must be byte-identical to the first checked invocation's."""
        try:
            got = workloads.digest(self.name, self.workdir)
            if self._reference is None:
                problems = workloads.check(self.name, self.workdir, self.scale)
                if not problems:
                    self._reference = got
                return problems
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        if got != self._reference:
            return [f"outputs differ from the first run: {sorted(k for k in got if got[k] != self._reference[k])}"]
        return []

    def timed_loop(self, seconds: float, step) -> None:
        """Call ``step`` back to back for ``seconds``, at least MIN_SAMPLES times.

        The set-up repeats are spread over the loop, between steps, so
        that they sample the same stretch of machine time as the steps.
        """
        start = time.perf_counter()
        count = 0
        while count < MIN_SAMPLES or time.perf_counter() - start < seconds:
            step()
            count += 1
            while (len(self.setup_s) < SETUP_REPS and time.perf_counter() - start
                   >= seconds * len(self.setup_s) / SETUP_REPS):
                self.setup()
        while len(self.setup_s) < SETUP_REPS:
            self.setup()

    def peak_mib(self) -> float:
        """``tracemalloc`` peak of one untimed ``cli.main``; its output check runs untraced."""
        peak = []

        def traced(cli, argv):
            tracemalloc.start()
            try:
                return cli.main(argv)
            finally:
                peak.append(tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()

        self.invoke(traced)
        return peak[0]


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    walls, cpus, peak = [], [], []
    start = time.perf_counter()

    def step():
        # The tracemalloc run sits mid-loop, so that the timed invocations
        # around it span a longer stretch of the machine's varying speed.
        if not peak and time.perf_counter() - start >= seconds / 2:
            peak.append(bench.peak_mib())
        sample = bench.invoke()
        if sample:
            walls.append(sample[0])
            cpus.append(sample[1])

    bench.timed_loop(seconds, step)
    if not peak:
        peak.append(bench.peak_mib())
    if not walls:
        return {}
    print(f"peak_mib {peak[0]:.6f} unit=MiB")
    return {"run_s": describe("run_s", walls, "s"), "cpu_s": describe("cpu_s", cpus, "s"),
            "peak_mib": peak[0]}


def measure_per_layer(bench: Bench, seconds: float, spans_path: Path, env: dict) -> dict:
    tracer = Tracer()
    runs = itertools.count()
    untraced, traced, layers = [], [], []

    def step():
        sample = bench.invoke()
        if sample:
            untraced.append(sample[0])
        run = next(runs)
        sample = bench.invoke(lambda cli, argv: tracer.call(run, cli, argv))
        if not sample:
            return
        times, root, problems = tracer.layer_times(run)
        # The root span may miss only the wrappers' installation, not the program.
        if not 0 <= sample[0] - root <= 0.05 * sample[0] + 0.02:
            problems.append(f"root span {root:.6f} s, measured {sample[0]:.6f} s")
        bench.problems.extend(problems)
        counters = tracer.counters[run]
        windows = counters["image.windows"]
        traced.append(sample[0])
        layers.append({**times, **{k: counters[k] for k in EXACT},
                       "image.window_us": times["image.scan_s"] / windows * 1e6 if windows else 0.0})
        print(f"trace run {run}: span self times {sum(times.values()):.6f} s "
              f"(cli.self_s {times['cli.self_s']:.6f} s) account for traced run_s "
              f"{sample[0]:.6f} s")

    bench.timed_loop(seconds, step)
    spans_path.write_text(json.dumps({"env": env, "spans": tracer.dump()}) + "\n")
    if not layers or not untraced:
        return {}
    for key in EXACT:
        if len({v[key] for v in layers}) != 1:
            bench.problems.append(f"{key} differs between traced runs: {[v[key] for v in layers]}")
    metrics = {k: layers[0][k] if k in EXACT else statistics.median(v[k] for v in layers)
               for k in layers[0]}
    metrics["synth.gen_s"] = statistics.median(bench.gen_s)
    metrics["trace.overhead_s"] = (describe("traced run_s", traced, "s")
                                   - describe("untraced run_s", untraced, "s"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "svdsep" / "cli.py").is_file():
        print(f"perfbench: no svdsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    env = environment(args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(env))
    with tempfile.TemporaryDirectory(prefix="work-", dir=out_dir) as tmp:
        bench = Bench(args.workload, args.seed, scale, Path(tmp))
        bench.setup()
        bench.invoke()  # warm-up
        if args.trace:
            spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.json"
            metrics = measure_per_layer(bench, args.seconds, spans_path, env)
            units = metric_units("per_layer")
        else:
            metrics = measure_end_to_end(bench, args.seconds)
            units = metric_units("end_to_end")
    metrics["setup_s"] = describe("setup_s", bench.setup_s, "s")
    print(f"fail_ratio {bench.failed / bench.attempted:.6g} ({bench.failed}/{bench.attempted}) unit=ratio")
    for problem in dict.fromkeys(bench.problems):
        print(f"problem: {problem}")
    correct = not bench.problems and set(metrics) >= set(units)
    result = {
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
