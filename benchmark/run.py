"""Run one riemvisc benchmark workload and print its metrics.

    python3 benchmark/run.py --workload solve_ladder --seed 1 --seconds 20 --trace 0

Run it from the repository root: it imports riemvisc from ``src/`` there
and refuses to run without it.  The process runs repeated passes of the
workload (each pass sets up, works, and checks its outputs against their
oracles) until another pass would overrun ``--seconds``, with at least two
passes so that every count can be compared between passes of one seed.
Passes take turns on the usable CPUs, each pinned to one.  A speed sampler
times a fixed calibration kernel throughout each pass, and the times
reported are the median pass read at reference speed: see README.md for
why.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` passes alternate untraced and traced, the run
ends with one probe call into every layer, the per-layer metrics are
printed, and the spans are written to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
from tracing import Tracer, layer_self_times, name_self_times

# fewest calibration samples a pass's speed is read from
MIN_SAMPLES = 5
LAYERS = ("manifolds", "jacobi", "jets", "operators", "grids", "solver", "cli", "bench")
WORKLOADS = ("solve_ladder", "nonlinear", "oracle_sweeps", "cli_report")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> int:
    """Cap the BLAS and OpenMP pools at one thread, as a pass runs on one
    CPU; children inherit the cap."""
    cap = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def machine_record(cap: int) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pass_cpus": sorted(os.sched_getaffinity(0)),
        "thread_cap": cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def pass_wall(p) -> float:
    return p.tracer.totals["bench.pass"]


def pass_setup(p, workload: str, setup_spans: dict) -> float:
    return p.tracer.total(setup_spans[workload])


def at_reference_speed(seconds: float, p) -> float:
    """A time of pass ``p`` scaled to the reference machine speed."""
    return seconds * speed.REFERENCE_S / p.kernel_s


def one_pass(W, name: str, inp, traced: bool, run_id: str, root: Path, work: Path,
             reference: dict):
    """Set up (outside the pass span when the workload's set-up is separate),
    then one pass of the workload inside the ``bench.pass`` span."""
    p = W.Pass(Tracer(enabled=traced, run_id=run_id, clock=speed.clock))
    setup = getattr(W, "SETUP_OUTSIDE", {}).get(name)
    try:
        if setup is not None:
            setup(p, root, work)
        with p.tracer.span("bench.pass"):
            if name == "cli_report":
                W.cli_report(inp, p, root, work, reference)
            else:
                getattr(W, name)(inp, p)
    except Exception as exc:  # the operation failed; keep measuring
        p.check(f"{name}.raised", False, f"{type(exc).__name__}: {exc}")
    return p


def run_passes(W, name: str, inp, deadline: float, trace: bool, root: Path, work: Path):
    """Passes until the next one would end after ``deadline`` (a
    ``perf_counter`` time), and at least two.  Pass i is pinned to the i-th
    usable CPU, round robin, so that a slow spell on one CPU does not set
    every pass of the run.  The speed sampler runs throughout; each pass
    keeps the median calibration-kernel time of its own samples."""
    reference: dict = {}
    passes = []
    cpus = sorted(os.sched_getaffinity(0))
    sampler = speed.SAMPLER
    sampler.start()
    try:
        while True:
            if passes:
                passes[-1].release()  # so that peak memory does not grow with the pass count
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            started, first_sample = time.perf_counter(), len(sampler.samples)
            p = one_pass(W, name, inp, trace and len(passes) % 2 == 1,
                         f"{name}:{len(passes)}", root, work, reference)
            p.took = time.perf_counter() - started
            if len(sampler.samples) - first_sample < MIN_SAMPLES:
                sampler.sample_now(MIN_SAMPLES)
            p.kernel_s = speed.kernel_time(sampler.samples[first_sample:])
            if passes:
                first = passes[0].counts
                diff = sorted(k for k in set(first) | set(p.counts)
                              if first.get(k) != p.counts.get(k))
                p.check("determinism", not diff, f"counts differ: {diff[:5]}")
            passes.append(p)
            typical = statistics.median(q.took for q in passes)
            if len(passes) >= 2 and time.perf_counter() + typical > deadline:
                return passes
    finally:
        sampler.stop()
        os.sched_setaffinity(0, cpus)


def per_layer_metrics(workload: str, passes, probe, probe_out: dict) -> tuple[dict, dict]:
    """The per-layer metrics and the trace summary of a traced run.

    Self times and counts come from the last traced pass alone; the probes
    give only their own metrics, and their spans are stored apart.
    """
    traced = [p for p in passes if p.tracer.enabled]
    untraced = [p for p in passes if not p.tracer.enabled]
    last = traced[-1]
    spans = last.tracer.spans
    layers = layer_self_times(spans)
    names = name_self_times(spans)
    counts = last.counts
    # grid size of the workload's largest grid, or of the probe's for cli_report
    sizes = counts if "grid.nodes" in counts else probe.counts
    star = counts if any(k.startswith("star.") for k in counts) else probe.counts
    requested = sum(v for k, v in star.items() if k.startswith("star.requested"))
    accepted = sum(v for k, v in star.items() if k.startswith("star.accepted"))
    metrics = {
        "grids.build_s": sum(v for k, v in names.items() if k.startswith("grids.build_grid")),
        "grids.nodes": sizes["grid.nodes"],
        "grids.stencil_nnz": sizes["grid.stencil_nnz"],
        "solver.iterations": sum(v for k, v in counts.items()
                                 if k.endswith((".sweeps", ".iterations"))
                                 or k.startswith("iterations.")),
        "jets.star_accept_ratio": accepted / requested,
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "trace.spans": len(spans),
        **probe_out,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    wall = lambda ps: statistics.median(at_reference_speed(pass_wall(q), q) for q in ps)
    summary = {
        "overhead_s": wall(traced) - wall(untraced),
        "wall_s_traced": wall(traced),
        "wall_s_untraced": wall(untraced),
        "pass_walls": [[pass_wall(q), q.tracer.enabled] for q in passes],
        "layer_self_s": layers,
        "name_self_s": names,
        "counts": counts,
        "spans": [vars(s) for s in spans],
        "probe_counts": probe.counts,
        "probe_self_s": name_self_times(probe.tracer.spans),
        "probe_spans": [vars(s) for s in probe.tracer.spans],
    }
    return metrics, summary


def declared_units(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    root = Path.cwd()
    package = root / "src" / "riemvisc"
    if not (package / "__init__.py").is_file():
        print(f"benchmark: no riemvisc sources under {package}; "
              "run from the repository root", file=sys.stderr)
        return 2
    cap = pin_threads()
    sys.path.insert(0, str(root / "src"))
    import riemvisc

    if Path(riemvisc.__file__).resolve().parent != package.resolve():
        print(f"benchmark: imported riemvisc from {riemvisc.__file__}, "
              f"not {package}", file=sys.stderr)
        return 2
    import probes
    import workloads as W

    machine = machine_record(cap)
    print("machine:", json.dumps(machine))
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    inp = W.make_inputs(args.seed)
    extra = []
    try:
        if args.workload in W.ONCE:  # inside the run's seconds, before the passes
            once = W.Pass(Tracer(enabled=bool(args.trace), run_id=f"{args.workload}:once"))
            try:
                W.ONCE[args.workload](inp, once)
            except Exception as exc:  # the operation failed; report it
                once.check(f"{args.workload}.once.raised", False, f"{type(exc).__name__}: {exc}")
            extra.append(once)
        passes = run_passes(W, args.workload, inp, deadline,
                            bool(args.trace), root, work)
        probe = None
        if args.trace:
            probe, probe_out = probes.probe_layers(args.workload, passes[-1], args.seed,
                                                   root, work)
            extra.append(probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = passes + extra
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    for i, p in enumerate(passes):
        wall, setup = pass_wall(p), pass_setup(p, args.workload, W.SETUP_SPANS)
        print(f"pass {i}: wall {wall:.3f} s, setup {setup:.3f} s, "
              f"kernel {1e3 * p.kernel_s:.3f} ms, at reference speed "
              f"wall {at_reference_speed(wall, p):.3f} s, "
              f"setup {at_reference_speed(setup, p):.3f} s; "
              f"{p.attempted} checks, {p.failed} failed, "
              f"{p.known_defects} known defects, traced={p.tracer.enabled}")
    for p in checked:
        for msg in p.failures:
            print("FAILED", msg)
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / max(attempted, 1):.4f}), "
          f"{sum(p.known_defects for p in checked)} known defects")
    for p in [passes[0]] + extra:
        for key, value in sorted(p.counts.items()):
            print(f"count {key} = {value!r}")

    if args.trace:
        metrics, summary = per_layer_metrics(args.workload, passes, probe, probe_out)
        traces = root / ".bench_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine,
            "per_layer": metrics, **summary,
        }, indent=1), encoding="utf-8")
        print(f"tracing overhead: {summary['overhead_s']:+.3f} s per pass "
              f"({summary['wall_s_traced']:.3f} traced vs "
              f"{summary['wall_s_untraced']:.3f} untraced); spans in {path}")
    else:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": statistics.median(
                at_reference_speed(pass_wall(p), p) for p in passes),
            "setup_s": statistics.median(
                at_reference_speed(pass_setup(p, args.workload, W.SETUP_SPANS), p)
                for p in passes),
            "peak_rss_mb": max(own, children) / 1024.0,
        }
    units = declared_units(root, bool(args.trace))
    if set(units) != set(metrics):
        print(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} are measured "
              "but not declared in BENCHMARK.json, or the reverse", file=sys.stderr)
        return 3
    for key, unit in units.items():
        print(f"metric {key} = {metrics[key]} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
