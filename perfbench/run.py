#!/usr/bin/env python3
"""dimino benchmark runner.

    python3 perfbench/run.py --workload train-adv1d --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all`` of them, each in its own process) from the
repository root, checks every output, and prints the metrics: one
``name = value unit`` line each, an ``# env`` line recording the machine,
and last a JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` spends half the time untraced and half with every dimino
layer wrapped (see ``tracer.py``), and reports the per-layer metrics, the
tracing overhead and a self-check of the predicted call structure.  Spans
and a full result record are written under ``.perfbench/`` at the root.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: dimino's --threads is a no-op.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tr  # noqa: E402
from reference import NOMINAL_S, reference_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train-adv1d", "sti-ns2d", "gen-data")
SETUP_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import dimino.cli; "
                "print(time.perf_counter() - t)")


def _import_program():
    """Import dimino from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import dimino
    except ImportError as exc:
        sys.exit(f"error: cannot import dimino from {SRC}: {exc}")
    if Path(dimino.__file__).resolve().parent != (SRC / "dimino").resolve():
        sys.exit(f"error: dimino was imported from {dimino.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of ``import dimino.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return float(proc.stdout.split()[-1])


# -- environment record ------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_blake2b": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "os": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- measuring ---------------------------------------------------------------

def run_rounds(wl, state, seconds: float, untraced, tracer=None):
    """Closed loop: one warm-up round, then rounds until ``seconds`` have
    passed (at least one).  Returns all rounds, the warm-up first, and their
    span windows; only ``rounds[1:]`` count for timing.

    Each round starts from a collected heap, as a fresh process would: tapes
    hold reference cycles, and leaving them to the cyclic collector would make
    peak memory depend on how many rounds ran.

    The workload's reference kernel runs before and after every round.  A
    round's ``scale`` is the kernel's nominal time over the median of its
    times within two rounds of it: multiplying a time by it gives the time
    the round would have taken at the machine's nominal speed.
    """
    rounds, windows = [], []
    refs = [reference_seconds(wl.name)]
    deadline = None
    while len(rounds) < 2 or time.perf_counter() < deadline:
        if len(rounds) == 1:
            deadline = time.perf_counter() + seconds
        gc.collect()
        lo = tracer.mark() if tracer else 0
        rounds.append(wl.round(state, untraced))
        windows.append((lo, tracer.mark() if tracer else 0))
        refs.append(reference_seconds(wl.name))
    for i, r in enumerate(rounds):
        r.scale = NOMINAL_S[wl.name] / statistics.median(refs[max(0, i - 2):i + 4])
    return rounds, windows


def check_digests(rounds, reference: str, why: str) -> None:
    """Every round of a seed must reproduce the reference digest exactly."""
    for r in rounds:
        if r.digest != reference:
            r.fail(r.attempted - r.failed, f"{why}: {r.digest} != {reference}")


def phase_metrics(rounds, scaled: bool = True) -> dict:
    """Median throughput of each phase over the rounds, plus batch latency;
    times are scaled to the machine's nominal speed unless ``scaled`` is off."""
    def scale(r):
        return r.scale if scaled else 1.0

    out = {}
    for name in dict.fromkeys(k for r in rounds for k in r.phases):
        rates = [n / (sec * scale(r)) for r in rounds if name in r.phases
                 for sec, n in [r.phases[name]] if sec > 0]
        out[name] = (statistics.median(rates), "1/s")
    latencies = [x * scale(r) for r in rounds for x in r.latencies_ms]
    if latencies:
        p90 = tr.percentile(latencies, 90)
        out["infer.batch_ms.p50"] = (tr.percentile(latencies, 50), "ms")
        out["infer.batch_ms.p90"] = (p90, "ms")
        out["infer.batch_ms.n"] = (len(latencies), "count")
        out["infer.batch_ms.n_above_p90"] = (sum(x > p90 for x in latencies), "count")
    out["round_s"] = (statistics.median(r.wall * scale(r) for r in rounds), "s")
    return out


def measure_untraced(wl, seed: int, seconds: float, work: Path) -> dict:
    setups = []
    refs = [reference_seconds(wl.name)]
    for _ in range(SETUP_REPS):
        state = None  # free the previous set-up before the next one is measured
        gc.collect()
        imported = import_seconds()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setups.append(imported + time.perf_counter() - t0)
        refs.append(reference_seconds(wl.name))
    setup_scale = NOMINAL_S[wl.name] / statistics.median(refs)
    rounds, _ = run_rounds(wl, state, seconds, contextlib.nullcontext)
    check_digests(rounds, rounds[0].digest, "round digest differs from the first round")
    named = phase_metrics(rounds[1:])
    named["setup_s"] = (statistics.median(setups) * setup_scale, "s")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    named["error_rate"] = (failed / attempted, "ratio")
    unscaled = phase_metrics(rounds[1:], scaled=False)
    unscaled["setup_s"] = (statistics.median(setups), "s")
    metrics = {
        "samples_per_s": named[wl.primary],
        "round_s": named["round_s"],
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "ok_rate": (1.0 - failed / attempted, "ratio"),
    }
    return {"rounds": rounds, "named": named, "unscaled": unscaled,
            "metrics": metrics, "checks": {}}


def measure_traced(wl, seed: int, seconds: float, work: Path) -> dict:
    state = wl.setup(seed, work)
    plain, _ = run_rounds(wl, state, seconds / 2, contextlib.nullcontext)
    reference = plain[0].digest
    check_digests(plain, reference, "round digest differs from the first round")

    t = tr.Tracer()

    @contextlib.contextmanager
    def paused():
        t.recording = False
        try:
            yield
        finally:
            t.recording = True

    with tr.patched(t):
        t.recording = True
        state = wl.setup(seed, work)
        setup_window = (0, t.mark())
        traced, windows = run_rounds(wl, state, seconds / 2, paused, t)
        t.recording = False
    check_digests(traced, reference, "traced digest differs from the untraced one")

    spans = t.spans
    setup = tr.summarize(spans, *setup_window)
    per_round = [tr.summarize(spans, lo, hi) for lo, hi in windows]
    layer = {k: setup[k] + statistics.median(pr[k] for pr in per_round[1:]) for k in setup}
    attempts = layer.pop("solvers.attempts")
    kept = layer.pop("solvers.kept")
    steps = [x for lo, hi in windows[1:] for x in tr.step_times_ms(spans, lo, hi)]
    layer["training.step_ms.p50"] = tr.percentile(steps, 50)
    layer["training.step_ms.p90"] = tr.percentile(steps, 90)
    layer["solvers.useful_ratio"] = kept / attempts if attempts else 0.0
    layer["trace.overhead"] = (statistics.median(r.wall * r.scale for r in traced[1:])
                               / statistics.median(r.wall * r.scale for r in plain[1:]))

    whole = {k: setup[k] + sum(pr[k] for pr in per_round) for k in setup}
    rounds_only = {k: sum(pr[k] for pr in per_round) for k in setup}
    problems = self_check(wl, layer, {"run": whole, "rounds": rounds_only})

    metrics = {name: (layer[name], unit) for _, name, unit, _ in tr.per_layer_metrics()}
    _write_spans(wl.name, seed, spans, setup_window, windows)
    return {
        "rounds": plain + traced,
        "named": phase_metrics(plain[1:]),
        "unscaled": phase_metrics(plain[1:], scaled=False),
        "metrics": metrics,
        "checks": {"self_check": problems or "ok",
                   "traced_rounds": len(traced) - 1, "untraced_rounds": len(plain) - 1},
        "problems": problems,
    }


def self_check(wl, layer: dict, scopes: dict) -> list:
    """Predicted nonzero layers and predicted zeros; returns the violations."""
    by_layer = {}
    for group, name, _, _ in tr.per_layer_metrics():
        by_layer.setdefault(group, []).append(name)
    problems = [f"{name} is 0 on {wl.name}, predicted nonzero"
                for group in wl.loads for name in by_layer[group] if not layer[name] > 0]
    problems += [f"{name} = {scopes[scope][name]} over the traced {scope} of {wl.name}, "
                 "predicted 0"
                 for name, scope in wl.zeros if scopes[scope][name] != 0]
    return problems


def _write_spans(workload, seed, spans, setup_window, windows) -> None:
    path = OUT / "spans" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        fh.write(json.dumps({"setup": setup_window, "rounds": windows,
                             "fields": ["name", "start_s", "end_s", "parent", "ok", "extra"]})
                 + "\n")
        for name, _, start, end, parent, ok, extra in spans:
            fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                 parent, ok, extra]) + "\n")


# -- entry points ------------------------------------------------------------

def run_one(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    try:
        measure = measure_traced if args.trace else measure_untraced
        res = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = res["rounds"]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    correct = failed == 0 and not res.get("problems")
    env = environment()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": len(rounds),
        "digests": sorted({r.digest for r in rounds}), "errors": errors[:20],
        "round_phases": [r.phases for r in rounds],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res["named"].items()},
        "unscaled": {k: {"value": v, "unit": u} for k, (v, u) in res["unscaled"].items()},
        "round_scales": [r.scale for r in rounds],
        **res["checks"], "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace} rounds_run={len(rounds)} "
          f"digest={rounds[0].digest}")
    for name, (value, unit) in res["named"].items():
        raw = res["unscaled"].get(name, (value,))[0]
        print(f"{name} = {value:.6g} {unit}" + (f" (unscaled {raw:.6g})" if raw != value else ""))
    for e in errors[:20]:
        print(f"# failed: {e}")
    for name, value in res["checks"].items():
        print(f"# {name}: {value}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so RSS stays its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
