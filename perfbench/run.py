"""fusionseg benchmark: one workload per process, result JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload seg-train --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
measures half the time untraced and half traced, and prints the per-layer
metrics. Times are scaled to a reference host speed (see
``workloads.HostClock``). Host information, the raw unscaled values and
sample counts go on the line before the result and, with the spans of a
traced run, into ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# one BLAS thread (never more than nproc) keeps timings independent of how
# busy the other cores of a shared host are
BLAS_THREADS = "1"
SETUP_REPEATS = 7
# glibc's M_MMAP_THRESHOLD and the top of its dynamic range on 64-bit hosts
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("seg-train", "gan-pretrain", "seg-infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def pin_malloc():
    """Pin glibc's mmap threshold where its dynamic adjustment ends up.

    Left dynamic, glibc raises the threshold as large blocks are freed, so
    peak RSS depends on the order of earlier frees: it moved by 3 MB between
    identical gan-pretrain runs, and by under 0.2 MB once pinned. Returns
    whether the allocator took the setting.
    """
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1


def host_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _percentile(values, q):
    if len(values) < 2:
        return float(values[0]) if values else math.nan
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _scaled(metrics, units, scale):
    """Times and rates at the reference host speed; other values as measured."""
    out = {}
    for name, value in metrics.items():
        unit = units[name]
        if unit == "s" or unit.startswith("ms"):
            value *= scale
        elif unit.endswith("/s"):
            value /= scale
        out[name] = value
    return out


def _end_to_end(m, setups, durations):
    """End-to-end metrics; ``durations`` turns (mid time, value) pairs into values."""
    steps = durations(m.steps)
    return {
        "imgs_per_s": m.imgs / sum(durations(m.pieces)),
        "step_ms_p50": _percentile(steps, 50),
        "step_ms_p90": _percentile(steps, 90),
        "val_fwiou": m.quality.get("val_fwiou", math.nan),
        "cycle_loss_end": m.quality.get("cycle_loss_end", math.nan),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - m.failed / m.attempted,
        "setup_s": statistics.median(durations(setups)),
    }


def run_untraced(workloads, clock, name, seed, seconds, work):
    setups = []
    for k in range(SETUP_REPEATS):
        clock.sample()
        t0 = time.perf_counter()
        env = workloads.setup(work / f"setup{k}", seed)
        end = time.perf_counter()
        setups.append((end, end - t0))
        # a second sample, so the samples nearest a set-up bracket it
        clock.sample()
    m = workloads.WORKLOADS[name](env, seconds, clock)
    raw = _end_to_end(m, setups, lambda pairs: [v for _, v in pairs])
    scaled = _end_to_end(m, setups,
                         lambda pairs: [v * clock.scale(t) for t, v in pairs])
    samples = {"step_ms": len(m.steps), "imgs": m.imgs,
               "setup_s": len(setups)}
    return m, raw, scaled, samples, None


def run_traced(workloads, clock, tracing, name, seed, seconds, work):
    clock.sample()
    setup_tracer = tracing.Tracer()
    with setup_tracer:
        env = workloads.setup(work / "setup0", seed)
    run = workloads.WORKLOADS[name]
    plain = run(env, seconds / 2, clock)
    tracer = tracing.Tracer()
    clock.restart()
    traced = run(env, seconds / 2, clock, tracer)
    metrics = tracing.summarise(tracer, traced.imgs)
    metrics.update(tracing.summarise_setup(setup_tracer))
    d_real, d_fake = workloads.equilibrium(traced.pair or env.pair,
                                           env.test_sar, env.test_opt)
    # the phases run at different host speeds, so the overhead compares
    # rates with each call scaled by the kernel samples nearest to it
    def local_rate(m):
        return m.imgs / sum(s * clock.scale(t) for t, s in m.pieces)

    metrics.update({
        "gan.d_real_mean": d_real, "gan.d_fake_mean": d_fake,
        "trace.untraced_imgs_per_s": plain.imgs / plain.wall_s,
        "trace.traced_imgs_per_s": traced.imgs / traced.wall_s,
        "trace.overhead_frac": local_rate(plain) / local_rate(traced) - 1.0,
    })
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    samples = {"imgs_untraced": plain.imgs, "imgs_traced": traced.imgs,
               "spans": len(tracer.spans)}
    # per-layer times are scaled by the run's host speed in main()
    return traced, metrics, None, samples, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fusionseg" / "__init__.py").is_file():
        print(f"error: no fusionseg sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    malloc_pinned = pin_malloc()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    out = ROOT / ".perfbench"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    clock = workloads.HostClock(*workloads.CLOCK_KERNEL[args.workload])
    try:
        if args.trace:
            m, raw, metrics, samples, tracer = run_traced(
                workloads, clock, tracing, args.workload, args.seed,
                args.seconds, work)
        else:
            m, raw, metrics, samples, tracer = run_untraced(
                workloads, clock, args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(raw) != set(units):
        print(f"error: metrics {sorted(set(raw) ^ set(units))} do not "
              f"match the {section} list of BENCHMARK.json", file=sys.stderr)
        return 3
    if metrics is None:
        metrics = _scaled(raw, units, clock.scale())
    finite = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": m.failed == 0 and finite,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": float(metrics[k]) if math.isfinite(metrics[k])
                        else None, "unit": units[k]} for k in units},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds,
            "host": {**host_info(), "malloc_pinned": malloc_pinned},
            "host_speed": {"reference_ms": statistics.median(
                               ms for _, ms in clock.samples),
                           "samples": len(clock.samples),
                           "scale": clock.scale()},
            "samples": samples, "raw": raw, "problems": m.problems}
    (results / f"{stem}.json").write_text(
        json.dumps({**info, "result": result}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}-spans.jsonl")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
