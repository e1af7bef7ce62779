"""Benchmark of glycast's two-stage pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evaluate-5d --seed 1 --seconds 15 --trace 0

One process runs one workload: set-up three times, then one operation after
another (a closed loop, one client, no extra threads) until --seconds have
passed, checking every operation's outputs. The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line before it
records the machine, the thread environment and the raw timings. With
--trace 1 the layers are wrapped and the per-layer metrics are reported
instead of the end-to-end ones; spans go to
.perfbench_work/trace-<workload>-seed<seed>.jsonl.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("evaluate-5d", "stage1-cohort", "anchored-forecast-14d")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads() -> None:
    """One client in one thread: no Stage-1 thread pool and no BLAS threads.

    numpy and scipy each load their own OpenBLAS, and each would start a
    thread per core; one thread keeps the process within nproc threads.
    """
    os.environ.pop("GLYCAST_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _process_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "GLYCAST_THREADS": os.environ.get("GLYCAST_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def _probe() -> float:
    """Time a fixed ≈1.5 ms of the kind of work glycast does: interpreter
    loops, 8x8 matrix-vector steps and batched (200, 8, 8) products."""
    import numpy as np  # after _pin_threads, which must precede numpy's first import

    t0 = time.perf_counter()
    a = np.full((8, 8), 0.01) + np.eye(8)
    v = np.ones(8)
    total = 0.0
    for _ in range(150):
        v = a @ v
        v = v / v.sum()
        total += float(v[0])
    for i in range(3000):
        total += i * 0.5
    stack = np.broadcast_to(a, (200, 8, 8))
    w = np.ones((200, 8))
    for _ in range(10):
        w = np.einsum("kij,kj->ki", stack, w)
        w = w / w.sum(axis=1, keepdims=True)
        stack = stack @ a
    return time.perf_counter() - t0


class SpeedGauge:
    """Times set-ups and operations, scaled to a fixed machine speed.

    Machines shared with other tenants change speed by tens of percent over
    seconds to minutes. While an item runs, a SIGALRM handler in the same
    thread times the probe kernel every INTERVAL_S; the item's scaled time is
    its wall time less the probes' own time, times REFERENCE_S over the mean
    probe time. No thread is started. With sample=False (the traced run)
    only wall times are kept.
    """

    INTERVAL_S = 0.02
    REFERENCE_S = 0.0015

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.walls: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.probes: dict[str, int] = {}
        self._samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self._samples.append(_probe())

    @contextlib.contextmanager
    def timing(self, label: str):
        if not self.sample:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.walls[label] = time.perf_counter() - t0
            return
        self._samples = [_probe()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - t0
            samples = list(self._samples)
            signal.signal(signal.SIGALRM, previous)
            wall = elapsed - sum(samples[1:])
            self.walls[label] = wall
            self.probes[label] = len(samples)
            self.scaled[label] = wall * self.REFERENCE_S / statistics.mean(samples)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long to run operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "glycast" / "__init__.py").is_file():
        print(f"perfbench: no glycast sources under {src}", file=sys.stderr)
        return 2
    nproc = _nproc()
    _pin_threads()
    sys.path.insert(0, str(src))

    import glycast
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(glycast.__file__).resolve().parent != (src / "glycast").resolve():
        print(f"perfbench: imported glycast from {glycast.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - STARTED
    probe_at_start = statistics.mean(_probe() for _ in range(20))

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORKDIR))

    def step(label: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.op = label
        return tracer.span(f"bench.{label.split('-')[0]}", "bench")

    gauge = SpeedGauge(sample=tracer is None)
    passed, errors = [], []
    attempted = failed = 0
    try:
        with tracer.patched(layers.WRAP_POINTS) if tracer else contextlib.nullcontext():
            for k in range(SETUP_REPEATS):
                with gauge.timing(f"setup-{k}"), step(f"setup-{k}"):
                    state = workload.setup(args.seed, workdir)

            first = None
            loop_start = time.perf_counter()
            while True:
                label = f"op-{attempted}"
                try:
                    with gauge.timing(label), step(label):
                        output = workload.run(state, attempted)
                    problems = workload.check(state, output, first)
                except Exception:
                    problems = [traceback.format_exc()]
                attempted += 1
                if problems:
                    failed += 1
                    errors.append({label: problems})
                    print(f"perfbench: {label} failed: {problems}", file=sys.stderr)
                else:
                    passed.append(label)
                    first = first or output
                if time.perf_counter() - loop_start >= args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    threads = _process_threads()
    env = _environment(nproc)
    env["threads"] = threads
    correct = bool(passed) and (threads is None or threads <= nproc)
    ops = [label for label in gauge.walls if label.startswith("op-")]
    setups = [label for label in gauge.walls if label.startswith("setup-")]
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
        "import_s": import_s, "wall_s": gauge.walls, "scaled_s": gauge.scaled,
        "probes": gauge.probes, "errors": errors,
    }

    if tracer is None:
        import_scaled = import_s * SpeedGauge.REFERENCE_S / probe_at_start
        metrics = {
            "op_s": {"value": statistics.median(gauge.scaled[op] for op in passed or ops), "unit": "s"},
            "setup_s": {
                "value": import_scaled + statistics.median(gauge.scaled[k] for k in setups), "unit": "s"
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
            },
        }
    else:
        values = layers.layer_metrics(tracer.spans, passed, tracer.kept)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, (unit, _) in layers.PER_LAYER.items()
        }
        coverage = layers.trace_coverage(tracer.spans, {op: gauge.walls[op] for op in ops})
        detail["trace_coverage"] = coverage
        if workload.min_trace_coverage is not None and coverage:
            correct = correct and min(coverage.values()) >= workload.min_trace_coverage
        tracer.write_jsonl(WORKDIR / f"trace-{workload.name}-seed{args.seed}.jsonl")

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
