"""Benchmark of unitarize: deciding, connecting, Cesaro averaging and the CLI.

Run from the root of the repository:

    python3 bench/run.py --workload unitarize_n128 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one workload runs as a closed loop with one caller, for
the number of schedule cycles that take about ``--seconds`` on the machine
the benchmark was written on, and the end-to-end metrics are printed.  Their
times are scaled to a fixed host speed, which a small kernel timed between
requests follows (``HostSpeed``); the unscaled wall-clock figures are in the
details.  With ``--trace 1`` the library's public functions and numpy.linalg
are wrapped from here, one schedule cycle of every workload runs untraced
and then traced, and a dimension sweep follows; the per-layer metrics are
printed.  The last line
of standard output is the result object; the line before it holds the
details.  bench/NOTES.md describes the workloads, the metrics and what they
showed.
"""

import os

# One BLAS thread, set before numpy loads here or in a CLI child: on two
# cores, n=128 invariant_metric answered faster with one thread than two.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("unitarize_n128", "connect_n64", "oracle_horizon", "cli_oneshot")
# Roughly the wall seconds the requests of one schedule cycle took on the
# machine the benchmark was written on (2 cores, one BLAS thread), kernel
# times below excluded.  A run sends max(MIN_CYCLES, round(--seconds /
# cycle)) whole cycles, so every run of a workload sends the same requests
# and the median and the tail sit at the same ranks whatever the program's
# speed; a faster program finishes sooner.  (With a time limit instead, a
# faster CLI would fit a sixth cycle and move the cli_oneshot tail from an
# n=16 request to an n=128 one.)
CYCLE_S = {"unitarize_n128": 5.3, "connect_n64": 4.1, "oracle_horizon": 0.55, "cli_oneshot": 6.3}
MIN_CYCLES = 2
# The cores of the shared 2-core host this benchmark was written on ran up
# to 1.6 times slower in stretches of seconds to minutes, and eig, SVD,
# plain Python and interpreter start-up slowed together.  So a fixed kernel
# is timed before every request and after the last, and each request time
# is multiplied by the kernel's reference time over the mean of the kernel
# times just before and just after it.  The reference times are about the
# kernels' times in the host's fast stretches, so the scaled figures read as
# seconds there.  The library workloads use linalg_kernel, cli_oneshot uses
# import_kernel: in log terms the in-process kernel followed CLI children
# with a slope of only 0.66, a fresh interpreter importing numpy with 0.93.
LINALG_REF_S = 0.008
IMPORT_REF_S = 0.12
SETUP_REPEATS = 5
TAIL_BEYOND = 10
IMPORT_REPEATS = 5
SWEEP_DIMS = (8, 32, 128, 256, 512)
SWEEP_INTERTWINER_MAX = 256

# Per-layer metrics of the traced run: (metric, span, field).  Every span
# named for a workload must record a call in its traced cycle.
CORE_LAYERS = [
    ("core.eig.calls", "core.eig", "calls"),
    ("core.eig.self_s", "core.eig", "self_s"),
    ("core.psd_sqrt.self_s", "core.psd_sqrt", "self_s"),
    ("core.invert.calls", "core.invert", "calls"),
    ("linalg.eig.calls", "linalg.eig", "calls"),
    ("linalg.eig.s", "linalg.eig", "total_s"),
    ("linalg.svd.calls", "linalg.svd", "calls"),
    ("linalg.svd.s", "linalg.svd", "total_s"),
    ("linalg.eig.calls_per_answer", "linalg.eig", "per_answer"),
    ("linalg.svd.calls_per_answer", "linalg.svd", "per_answer"),
]
BOUNDEDNESS_LAYERS = [
    ("boundedness.check_uniformly_bounded.calls", "boundedness.check_uniformly_bounded", "calls"),
    ("boundedness.check_uniformly_bounded.self_s", "boundedness.check_uniformly_bounded", "self_s"),
    ("boundedness.sampled_power_norms.self_s", "boundedness.sampled_power_norms", "self_s"),
]
LAYERS = {
    "unitarize_n128": CORE_LAYERS + BOUNDEDNESS_LAYERS + [
        ("metrics.invariant_metric.calls", "metrics.invariant_metric", "calls"),
        ("metrics.invariant_metric.self_s", "metrics.invariant_metric", "self_s"),
        ("metrics.projected_gram.self_s", "metrics.projected_gram", "self_s"),
    ],
    "connect_n64": CORE_LAYERS + BOUNDEDNESS_LAYERS + [
        ("intertwine.intertwiner.self_s", "intertwine.intertwiner", "self_s"),
        ("families.commuting_pair_metric.self_s", "families.commuting_pair_metric", "self_s"),
        ("families.heisenberg_metric.self_s", "families.heisenberg_metric", "self_s"),
    ],
    "oracle_horizon": [
        ("metrics.mixed_pullback_mean.calls", "metrics.mixed_pullback_mean", "calls"),
        ("metrics.mixed_pullback_mean.self_s", "metrics.mixed_pullback_mean", "self_s"),
    ],
    "cli_oneshot": [
        ("serialization.canonical_json.self_s", "serialization.canonical_json", "self_s"),
        ("serialization.canonical_json.bytes", "serialization.canonical_json", "bytes"),
        ("serialization.parse_matrix.self_s", "serialization.parse_matrix", "self_s"),
        ("cli.main.self_s", "cli.main", "self_s"),
        ("boundedness.check_uniformly_bounded.self_s", "boundedness.check_uniformly_bounded", "self_s"),
        ("boundedness.sampled_power_norms.self_s", "boundedness.sampled_power_norms", "self_s"),
    ],
}
# Workloads whose answers carry residuals or errors worth a per-layer figure.
RESIDUAL_WORKLOADS = ("unitarize_n128", "connect_n64", "oracle_horizon")

SWEEP_LAYERS = {
    "invariant_metric": [
        ("metrics.invariant_metric.total_s", "metrics.invariant_metric", "total_s"),
        ("metrics.invariant_metric.self_s", "metrics.invariant_metric", "self_s"),
        ("boundedness.check_uniformly_bounded.total_s", "boundedness.check_uniformly_bounded", "total_s"),
        ("boundedness.check_uniformly_bounded.self_s", "boundedness.check_uniformly_bounded", "self_s"),
        ("boundedness.sampled_power_norms.total_s", "boundedness.sampled_power_norms", "total_s"),
        ("boundedness.sampled_power_norms.self_s", "boundedness.sampled_power_norms", "self_s"),
        ("core.eig.self_s", "core.eig", "self_s"),
        ("linalg.eig.calls", "linalg.eig", "calls"),
        ("linalg.svd.calls", "linalg.svd", "calls"),
    ],
    "canonical_json": [
        ("serialization.canonical_json.self_s", "serialization.canonical_json", "self_s"),
    ],
    "intertwiner": [
        ("intertwine.intertwiner.total_s", "intertwine.intertwiner", "total_s"),
        ("intertwine.intertwiner.eig_calls", "linalg.eig", "calls"),
    ],
}

UNITS = {"calls": "count", "per_answer": "count", "bytes": "B", "self_s": "s", "total_s": "s"}


@dataclass
class Sample:
    kind: str
    latency: float
    ok: bool
    worst: float
    mark: int = -1  # index of the kernel time taken before the request


def linalg_kernel(np):
    """eig and SVD of one fixed 64x64 complex matrix, and a Python loop."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))

    def kernel():
        np.linalg.eig(a)
        np.linalg.svd(a)
        sum(i * i for i in range(20000))

    return kernel


def import_kernel(env):
    """A fresh interpreter that imports numpy: the fixed part of a CLI request."""
    cmd = [sys.executable, "-c", "import numpy"]

    def kernel():
        subprocess.run(cmd, env=env, check=True, timeout=60)

    return kernel


class HostSpeed:
    """Follows the host's speed with a kernel timed between requests.

    The kernel is the kind of work a request does and runs no code of the
    program under test, so its time changes only with the host.
    """

    def __init__(self, kernel, ref_s):
        self._kernel = kernel
        self.ref_s = ref_s
        kernel()  # warm-up
        self.kernel_s = []

    def measure(self):
        """Time the kernel once; return the index of that time."""
        start = time.perf_counter()
        self._kernel()
        self.kernel_s.append(time.perf_counter() - start)
        return len(self.kernel_s) - 1

    def scale(self, mark):
        """Wall time to reference time, for work between kernel times
        ``mark`` and ``mark + 1``; call measure() after the last request."""
        return self.ref_s / ((self.kernel_s[mark] + self.kernel_s[mark + 1]) / 2.0)

    def summary(self):
        k = self.kernel_s
        return {"ref_kernel_s": self.ref_s, "kernels": len(k), "kernel_median_s": statistics.median(k),
                "kernel_min_s": min(k), "kernel_max_s": max(k)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_cycle(requests, tracer=None, speed=None):
    """Send each request after the previous one returned; judge every answer."""
    out = []
    for req in requests:
        mark = speed.measure() if speed is not None else -1
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        try:
            answer, exc = req.call(), None
        except Exception as err:  # an error the check did not expect is a wrong answer
            answer, exc = None, err
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        try:
            ok, worst = req.check(answer, exc)
        except Exception:  # an answer of the wrong shape is a wrong answer
            ok, worst = False, 0.0
        out.append(Sample(req.kind, latency, bool(ok), float(worst), mark))
    return out


def by_kind(samples):
    kinds = {}
    for s in samples:
        kinds.setdefault(s.kind, []).append(s)
    return {
        kind: {
            "count": len(group),
            "wrong": sum(not s.ok for s in group),
            "wall_latency_p50_s": statistics.median(s.latency for s in group),
        }
        for kind, group in kinds.items()
    }


def timing(latencies, correct):
    lat = sorted(latencies)
    k = len(lat) - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND samples above it
    return {
        "answers_per_s": (correct / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (lat[k - 1], "s"),
    }


def end_to_end(samples, speed):
    """Timing metrics at the reference host speed; the wall-clock ones in the detail."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} requests leave no tail percentile")
    correct = sum(s.ok for s in samples)
    metrics = timing([s.latency * speed.scale(s.mark) for s in samples], correct)
    metrics["correct_fraction"] = (correct / n, "fraction")
    wall = timing([s.latency for s in samples], correct)
    detail = {
        "requests": n,
        "failed_fraction": (n - correct) / n,
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "tail_samples_beyond": TAIL_BEYOND,
        "timed_wall_s": sum(s.latency for s in samples),
        "wall": {name: value for name, (value, _) in wall.items()},
        "kinds": by_kind(samples),
    }
    return metrics, detail


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["UNITARIZE_SEED"] = str(seed)
    return env


def build(wl, name, seed, workdir, in_process=False):
    """(requests of one schedule cycle, known-defect probe requests)."""
    if name == "unitarize_n128":
        return wl.unitarize_n128(seed), wl.unitarize_probe(seed)
    if name == "connect_n64":
        return wl.connect_n64(seed), []
    if name == "oracle_horizon":
        return wl.oracle_horizon(seed), wl.oracle_probe(seed)
    cases = wl.cli_cases(seed, workdir)
    if in_process:
        return wl.cli_main_requests(cases), []
    return wl.cli_requests(cases, child_env(seed)), []


def timed_run(args, wl, np, import_s, workdir):
    if args.workload == "cli_oneshot":
        speed = HostSpeed(import_kernel(child_env(args.seed)), IMPORT_REF_S)
    else:
        speed = HostSpeed(linalg_kernel(np), LINALG_REF_S)
    setups, setups_wall = [], []
    # Set-up is repeated and its median taken; the repeats build the same
    # inputs, and the last set is the one sent.
    for _ in range(SETUP_REPEATS):
        mark = speed.measure()
        start = time.perf_counter()
        requests, probe = build(wl, args.workload, args.seed, workdir)
        run_cycle(requests[:1])
        wall = time.perf_counter() - start
        speed.measure()
        setups.append(wall * speed.scale(mark))
        setups_wall.append(wall)
    # Import ran before the first kernel time, so that one time scales it.
    import_ref_s = import_s * speed.ref_s / speed.kernel_s[0]

    cycles = max(MIN_CYCLES, round(args.seconds / CYCLE_S[args.workload]))
    samples = []
    for _ in range(cycles):
        samples.extend(run_cycle(requests, speed=speed))
    speed.measure()
    metrics, detail = end_to_end(samples, speed)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (peak_rss_mb(who), "MB")
    metrics["setup_s"] = (import_ref_s + statistics.median(setups), "s")
    detail["cycles"] = cycles
    detail["host_speed"] = speed.summary()
    detail["setup"] = {"import_s": import_s, "import_ref_s": import_ref_s, "repeats_s": setups,
                       "repeats_wall_s": setups_wall}
    detail["known_defects"] = by_kind(run_cycle(probe))
    failed = sum(not s.ok for s in samples)
    return detail, len(samples), failed, metrics


def layer_values(tracer, table, answers):
    out = {}
    for metric, span, field in table:
        st = tracer.get(span)
        value = st.calls / answers if field == "per_answer" else getattr(st, field)
        out[metric] = (value, UNITS[field])
    return out


def cli_import_times(seed):
    code = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import unitarize.cli; print(t1 - t0, time.perf_counter() - t0)"
    )
    numpy_s, total_s = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(seed),
                              capture_output=True, text=True, timeout=60, check=True)
        a, b = proc.stdout.split()
        numpy_s.append(float(a))
        total_s.append(float(b))
    return statistics.median(numpy_s), statistics.median(total_s)


def traced_run(args, wl, unitarize, workdir):
    import unitarize.cli  # noqa: F401  (the in-process CLI requests call it)
    from tracer import Tracer

    tracer = Tracer(unitarize)
    os.environ["UNITARIZE_SEED"] = str(args.seed)
    per_layer, detail = {}, {"workloads": {}, "sweep": {}}
    samples_all = []
    for name in WORKLOADS:
        requests, _ = build(wl, name, args.seed, workdir, in_process=True)
        run_cycle(requests[:1])
        untraced = run_cycle(requests)
        tracer.install()
        try:
            traced = run_cycle(requests, tracer)
        finally:
            tracer.restore()
        table = LAYERS[name]
        tracer.require(sorted({span for _, span, _ in table}), f"traced {name}")
        values = layer_values(tracer, table, len(traced))
        overhead = (sum(s.latency for s in traced) - sum(s.latency for s in untraced)) / len(traced)
        values["trace.overhead_s"] = (overhead, "s")
        if name in RESIDUAL_WORKLOADS:
            values["metrics.worst_residual"] = (max(s.worst for s in traced), "ratio")
        if name == "cli_oneshot":
            numpy_s, import_s = cli_import_times(args.seed)
            values["cli.import_s"] = (import_s, "s")
            detail["cli_import"] = {"numpy_s": numpy_s, "total_s": import_s}
        per_layer.update({f"{name}.{k}": v for k, v in values.items()})
        detail["workloads"][name] = {
            "untraced_s": sum(s.latency for s in untraced),
            "traced_s": sum(s.latency for s in traced),
            "spans": tracer.table(),
        }
        samples_all += untraced + traced
        tracer.reset()

    tracer.install()
    try:
        for n in SWEEP_DIMS:
            for req in wl.sweep_requests(args.seed, n, n <= SWEEP_INTERTWINER_MAX):
                tracer.reset()
                samples = run_cycle([req], tracer)
                tracer.require(sorted({span for _, span, _ in SWEEP_LAYERS[req.kind]}),
                               f"sweep n={n} {req.kind}")
                values = layer_values(tracer, SWEEP_LAYERS[req.kind], 1)
                per_layer.update({f"sweep.n{n}.{k}": v for k, v in values.items()})
                detail["sweep"][f"n{n}.{req.kind}"] = tracer.table()
                samples_all += samples
    finally:
        tracer.restore()
    failed = sum(not s.ok for s in samples_all)
    detail["wrong"] = [s.kind for s in samples_all if not s.ok]
    return detail, len(samples_all), failed, per_layer


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "unitarize" / "__init__.py").is_file():
        print(f"error: no unitarize package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    import numpy as np

    sys.path.insert(0, str(SRC))
    import unitarize

    import_s = time.perf_counter() - start
    if Path(unitarize.__file__).resolve().parent != (SRC / "unitarize").resolve():
        print(f"error: imported unitarize from {unitarize.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as tmp:
        if args.trace:
            detail, attempted, failed, metrics = traced_run(args, wl, unitarize, Path(tmp))
        else:
            detail, attempted, failed, metrics = timed_run(args, wl, np, import_s, Path(tmp))
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(np))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
