"""covsteer benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload certify-jump --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]

A run sets up its workload's inputs from the seed several times, and
imports covsteer as often in fresh interpreters; set-up time is the sum of
the two medians.  It then repeats rounds of the workload's operations: at
least one, and another only while it is expected (from the median round so
far) to end within --seconds.  Output checks run outside the timed
spans; a fixed reference computation, sampled throughout, gives the
host-independent round time wall_ref (see RefSampler).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  The
line before it is the full report: environment, every workload-specific
metric and the check results.  --all runs each workload untraced and then
traced, each in its own process, and prints a summary with the tracing
overhead.  Files go to .perfbench/ in the checkout.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PARAMS_PATH = os.path.join(HERE, "params.json")
SETUP_REPS = 3
REF_INTERVAL_S = 0.25  # CPU seconds between reference samples
clock = time.perf_counter


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit():
    """Commit id from .git in the checkout, read without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _import_covsteer():
    """Import covsteer from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "covsteer", "__init__.py")):
        raise SystemExit(f"benchmark: no covsteer sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import covsteer  # noqa: F401
    import workloads

    if not os.path.abspath(covsteer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: covsteer imported from {covsteer.__file__}")
    return workloads


def _fresh_import_times(reps):
    """Seconds to import covsteer in fresh interpreters, one per repetition."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import covsteer.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, check=True)
        times.append(float(proc.stdout))
    return times


def _quantile_tail(values, min_beyond=10):
    """Highest percentile with at least min_beyond samples above it."""
    n = len(values)
    if n <= min_beyond:
        return None
    pct = math.floor(100.0 * (n - min_beyond) / n)
    ordered = sorted(values)
    k = max(0, math.ceil(pct / 100.0 * n) - 1)
    return {"value": ordered[k], "percentile": pct, "samples": n}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _reference_dense():
    """A few ms of 3x3 linear algebra and interpreted float arithmetic:
    the mix of the ODE, quadrature and Newton code the solve and analysis
    workloads run."""
    a = np.eye(3) * 0.5 + 0.01
    b = a + np.eye(3)
    x = np.ones(3)
    s = 0.0
    for _ in range(300):
        x = a @ x + 1.0
        s += float(np.linalg.solve(b, x)[0])
    for i in range(10000):
        s += i * 0.5
    return s


_PATHS_RNG = np.random.default_rng(0)
_PATHS_DRIFT = np.array([[0.1, 0.2], [0.0, -0.3]])


def _reference_paths():
    """A few ms of Euler steps with Gaussian draws over a block of 4096
    two-dimensional paths: the inner loop of simulate_paths."""
    x = np.ones((4096, 2))
    for _ in range(24):
        w = _PATHS_RNG.standard_normal((4096, 1))
        x = x + (x @ _PATHS_DRIFT.T) * 1e-3 + w * 0.03 + x * w * 0.01
    return float(x.sum())


class RefSampler:
    """Times a fixed reference computation every REF_INTERVAL_S of CPU time,
    from a SIGPROF handler, while the workload runs.

    The shared host this benchmark was tuned on changes speed by up to 40%
    over tens of seconds, and the change slows a reference computation and
    covsteer alike when the two run the same kind of code.  So each
    workload has a reference shaped like its hot loop, and a round's time
    divided by the median reference time sampled during that round
    (wall_ref) keeps the program's speed and drops most of the host's.
    The samples cost about 2% of every timed figure.
    """

    def __init__(self, reference):
        self.reference = reference
        self.samples = []

    def measure(self, signum=None, frame=None):
        start = clock()
        self.reference()
        self.samples.append(clock() - start)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self.measure)
        signal.setitimer(signal.ITIMER_PROF, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def _run_rounds(workloads, wl, seconds, tracer, sampler):
    """Repeat rounds of the workload's operations until `seconds` have passed."""
    stats = {"step": {}, "op": {}, "round": [], "round_ref": [],
             "errors": collections.Counter(), "checks": collections.Counter(),
             "attempted": 0, "failed": 0}
    elapsed = []  # wall time of each round, checks included
    run_start = clock()
    while not elapsed or clock() - run_start + statistics.median(elapsed) <= seconds:
        round_start = clock()
        first_sample = len(sampler.samples)
        round_time = 0.0
        for op in wl.ops:
            times, error, bad = workloads.run_op(
                op, clock, tracer, op_id=f"r{len(stats['round'])}:{op.name}")
            stats["attempted"] += 1
            stats["failed"] += bool(error or bad)
            stats["op"].setdefault(op.name, []).append(sum(dt for _, dt in times))
            for kind, dt in times:
                stats["step"].setdefault(kind, []).append(dt)
                round_time += dt
            if error:
                stats["errors"][f"{op.name}: {error}"] += 1
            for check in bad:
                stats["checks"][f"{op.name}: {check}"] += 1
        stats["round"].append(round_time)
        refs = sampler.samples[first_sample:]
        if not refs:  # a round shorter than the sampling interval
            sampler.measure()
            refs = sampler.samples[-1:]
        stats["round_ref"].append(round_time / statistics.median(refs))
        elapsed.append(clock() - round_start)
    return stats


def run_workload(name, seed, seconds, trace, params, declared):
    start_import = clock()
    workloads = _import_covsteer()
    import_s = clock() - start_import
    if name not in workloads.NAMES:
        raise SystemExit(f"benchmark: unknown workload {name!r}")

    import tracer as tracer_mod

    tracer = None
    if trace:
        tracer = sim_timer = tracer_mod.Tracer(clock)
        tracer.install()
        tracer.op = "setup"
    else:
        # Times simulate_paths alone, for mc_paths_per_s.
        sim_timer = tracer_mod.Tracer(clock)
        sim_timer.install(only={"sde_sim.simulate"})

    out_root = os.path.join(OUT, "out", f"{name}-{seed}-{os.getpid()}")
    reps = 1 if trace else SETUP_REPS
    import_times = [import_s] if trace else _fresh_import_times(reps)
    setup_times = []
    for _ in range(reps):
        t0 = clock()
        wl = workloads.build(name, seed, params, out_root)
        setup_times.append(clock() - t0)
    if tracer is not None:
        tracer.op = None

    reference = _reference_paths if wl.primary == "certify" else _reference_dense
    with RefSampler(reference) as sampler:
        stats = _run_rounds(workloads, wl, seconds, tracer, sampler)
    shutil.rmtree(out_root, ignore_errors=True)

    median = statistics.median
    wall_s = median(stats["round"])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": environment(),
        "rounds": len(stats["round"]), "ops_per_round": len(wl.ops),
        "round_s": stats["round"],
        "ref_median_s": statistics.median(sampler.samples) if sampler.samples else None,
        "ref_samples": len(sampler.samples),
        "attempted": stats["attempted"], "failed": stats["failed"],
        "import_s": import_s, "fresh_import_s": import_times, "setup_reps_s": setup_times,
        "errors": dict(stats["errors"]), "check_failures": dict(stats["checks"]),
        "op_median_s": {k: median(v) for k, v in stats["op"].items()},
        "op_s": stats["op"],
        "workload_metrics": _workload_metrics(
            wl, stats, sim_timer.durations("sde_sim.simulate")),
    }
    if tracer is None:
        values = {
            "setup_s": median(import_times) + median(setup_times),
            "wall_ref": median(stats["round_ref"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values = tracer.per_layer(len(stats["round"]))
        values["bench.traced_wall_s"] = wall_s
        trace_path = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
        tracer.write(trace_path)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    units = declared["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    metrics = {key: _metric(values[key], unit) for key, unit in units.items()}
    report["metrics"] = metrics
    result = {"correct": not stats["checks"], "attempted": stats["attempted"],
              "failed": stats["failed"], "metrics": metrics}
    return report, result


def _workload_metrics(wl, stats, sim_times):
    """The workload-specific end-to-end metrics of the report line."""
    median = statistics.median
    steps = stats["step"]
    out = {"wall_s": _metric(median(stats["round"]), "s"),
           "fail_share": _metric(stats["failed"] / stats["attempted"], "fraction")}
    if wl.primary == "certify":
        out["certify_s"] = _metric(median(steps["certify"]), "s")
        if sim_times:
            out["mc_paths_per_s"] = _metric(wl.info["paths"] / median(sim_times), "1/s")
        if wl.info["verdicts"]:
            errors, passed = zip(*wl.info["verdicts"])
            out["covariance_rel_error"] = _metric(median(errors), "fraction")
            out["verdict_pass_share"] = _metric(sum(passed) / len(passed), "fraction")
    elif wl.primary == "solve":
        converged = stats["attempted"] - stats["failed"]
        out["solves_per_s"] = _metric(converged / sum(stats["round"]), "1/s")
        out["solve_p50_s"] = _metric(median(steps["solve"]), "s")
        tail = _quantile_tail(steps["solve"])
        if tail is not None:
            out["solve_tail_s"] = dict(_metric(tail["value"], "s"),
                                       percentile=tail["percentile"],
                                       samples=tail["samples"])
    else:
        out["maxint_p50_s"] = _metric(median(steps["maxint"]), "s")
        construct = steps["construct"]
        per_round = len(construct) // len(stats["round"])
        sums = [sum(construct[i:i + per_round]) for i in range(0, len(construct), per_round)]
        out["construct_s"] = _metric(median(sums), "s")
    return out


def run_all(names, seed, seconds):
    """Every named workload untraced and traced, each in its own process."""
    summary = []
    for name in names:
        pair = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                pair[trace] = None
                continue
            pair[trace] = json.loads(lines[-2])
        summary.append((name, pair))
        _print_workload(name, pair)
    return all(p[0] and p[1] and not p[0]["check_failures"] and not p[1]["check_failures"]
               for _, p in summary)


def _print_workload(name, pair):
    plain, traced = pair.get(0), pair.get(1)
    if plain is None:
        return
    print(f"== {name} (seed {plain['seed']}, {plain['rounds']} rounds of "
          f"{plain['ops_per_round']} operations)")
    for key, m in list(plain["metrics"].items()) + list(plain["workload_metrics"].items()):
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']} of {m['samples']} samples)"
        print(f"  {key:<28} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  attempted {plain['attempted']}, failed {plain['failed']}; "
          f"checks: {plain['check_failures'] or 'all passed'}; "
          f"errors: {plain['errors'] or 'none'}")
    if traced is not None:
        overhead = traced["metrics"]["bench.traced_wall_s"]["value"] - \
            plain["workload_metrics"]["wall_s"]["value"]
        print(f"  tracing overhead (traced - untraced wall_s): {overhead:.4g} s; "
              f"spans in {traced['trace_file']}")
        for key, m in traced["metrics"].items():
            print(f"    {key:<36} {m['value']:.6g} {m['unit']}")
    env = plain["environment"]
    print(f"  env: {env['cpu_model']}, nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}")


def main(argv=None):
    params = _load_json(PARAMS_PATH)
    bench = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=int(params["default_seed"]))
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2^64)")
    if args.all:
        gated = [w["name"] for w in bench["workloads"]]
        workloads = _import_covsteer()
        names = gated + [n for n in workloads.NAMES if n not in gated]
        return 0 if run_all(names, args.seed, args.seconds) else 1
    if not args.workload:
        parser.error("--workload or --all is required")
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, params, declared)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
