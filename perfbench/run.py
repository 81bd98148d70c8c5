"""Run one benchmark workload of ragnet and print its metrics.

    python3 perfbench/run.py --workload infer_desk256 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are
the per-layer ones, and a table of self time per span is printed above.
The line before it, ``perfbench-info {...}``, holds the environment, the tail
latency, the failure share and the checkpoint digest.  Spans and results are
also written under ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_desk64", "infer_desk256", "infer_paper224")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="width 1/16, 16-32 px, one step per phase or one image; for the smoke test")
    return p.parse_args(argv)


def tail_latency(latencies: list[float]) -> dict | None:
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for q in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1 - q / 100) >= 10:
            rank = max(1, min(n, int(-(-q * n // 100))))  # nearest rank
            return {"percentile": q, "ms": 1e3 * ordered[rank - 1], "samples": n}
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_now_mb() -> dict[str, float]:
    """Current resident memory by kind (anonymous, file-backed), from /proc/self/status."""
    with open("/proc/self/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return {k: int(fields[k].split()[0]) / 1024.0 for k in ("RssAnon", "RssFile", "VmHWM")}


def environment(cores: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"cores": cores, "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "numpy": np.__version__,
            "python": platform.python_version(), "commit": git_commit(), "src_sha256": source_digest()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ragnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def heldout_psnr(wl, timed) -> float:
    """The held-out PSNR; a failed output check there is counted against the run, not raised."""
    import workloads
    try:
        return wl.heldout_psnr()
    except Exception as e:  # counted like a failed image
        timed.errors.append(f"held-out check: {workloads.describe(e)}")
        return 0.0


def run(args, work: Path, out: Path, layer_units: dict[str, str]) -> tuple[dict, dict]:
    import spans  # imported once main has set the BLAS threads: workloads imports numpy
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke)
    info: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke}
    setup_s = []
    setup_tracer = spans.Tracer()
    for rep in range(wl.spec.setups):
        gc.collect()
        if args.trace and rep == wl.spec.setups - 1:  # the per-run layers are taken from one set-up
            setup_tracer.install()
        t = time.perf_counter()
        try:
            wl.setup(str(work / f"setup{rep}"))
        finally:
            setup_tracer.uninstall()
        setup_s.append(time.perf_counter() - t)
    info["setup_runs_s"] = setup_s

    if not args.trace:
        timed = wl.timed(str(work / "timed"), args.seconds)
        wl.check(timed)
        heldout = heldout_psnr(wl, timed)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "img_per_s": (timed.units / timed.wall_s, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(timed.latencies_s), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "heldout_psnr_db": (heldout, "dB"),
        }
        info.update(tail_latency=tail_latency(timed.latencies_s),
                    latencies_ms=[1e3 * t for t in timed.latencies_s])
    else:
        untraced = wl.timed(str(work / "untraced"), args.seconds)
        wl.check(untraced)
        tracer = spans.Tracer().install()
        t0 = time.perf_counter()
        try:
            timed = wl.timed(str(work / "traced"), args.seconds)
        finally:
            tracer.uninstall()
        wl.check(timed)
        heldout = heldout_psnr(wl, timed)
        units = max(1, timed.units // (workloads.TRAIN_BATCH if wl.spec.kind == "train" else 1))
        layer = spans.layer_metrics(setup_tracer, tracer, units)
        untraced_rate, traced_rate = untraced.units / untraced.wall_s, timed.units / timed.wall_s
        layer["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        units_name = "training step" if wl.spec.kind == "train" else "image"
        print(f"per-layer self time on {args.workload} (seed {args.seed}), per {units_name}, "
              f"{units} {units_name}s traced:")
        print(spans.table(tracer, units, timed.wall_s))
        print(f"tracing overhead: {untraced_rate:.4f} img/s untraced vs {traced_rate:.4f} img/s traced "
              f"({layer['trace.overhead_pct']:+.2f}%)")
        timed.errors += untraced.errors
        timed.failed += untraced.failed
        timed.attempted += untraced.attempted
        if wl.spec.kind == "train" and untraced.facts["final_sha256"] != timed.facts["final_sha256"]:
            timed.errors.append("final.bin differs between the untraced and the traced run of the same seed")
        metrics = {k: (v, layer_units[k]) for k, v in layer.items()}
        info["untraced_sha256"] = untraced.facts.get("final_sha256")
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json", t0)
    info.update(timed.facts, heldout_psnr_db=heldout, units=timed.units, wall_s=timed.wall_s,
                failed_ops_share=timed.failed / max(1, timed.attempted), errors=timed.errors[:5])
    result = {"correct": timed.failed == 0 and not timed.errors, "attempted": timed.attempted,
              "failed": timed.failed, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ragnet" / "__init__.py").is_file():
        print(f"perfbench: no ragnet sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(cores)
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json") as f:
        layer_units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}

    out = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    try:
        result, info = run(args, work, out, layer_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["env"] = environment(cores)
    info["peak_rss_mb"] = peak_rss_mb()
    info["rss_at_end_mb"] = rss_now_mb()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out / name, "w") as f:
        json.dump({"result": result, "info": info}, f, indent=1)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
