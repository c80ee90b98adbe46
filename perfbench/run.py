"""CTA-Net benchmark: one workload per process, outputs checked, metrics printed.

    python3 perfbench/run.py --workload {train_tiny,infer_paper,verify_f64} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; ctanet is imported from ./src. With --trace 0
the last stdout line is a JSON object with the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (see perfbench/README.md).
Run records and span files go to ./.perfbench_out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
TAIL_PCT = 75   # keeps ten samples beyond it down to 40 steps per run

# One BLAS thread, pinned before numpy loads, so a run does not depend on how
# many cores happen to be idle. Never more than nproc.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {
    "setup_s": "s", "step_ms_p50": "ms", f"step_ms_p{TAIL_PCT}": "ms", "img_per_s": "1/s",
    "pass_s": "s", "peak_rss_mb": "MB", "checks_passed_ratio": "ratio",
}
TENSOR_OPS = ("matmul", "permute", "reshape", "add", "concat", "softmax", "slice_", "expand")
NN_OPS = ("conv2d", "depthwise_conv2d", "pointwise_conv2d", "linear", "layer_norm", "gelu",
          "cross_entropy")
MODEL_PARTS = ("patch_embed", "fuse_tokens", "attention", "rrcv_forward", "mlp_forward")
PER_LAYER = {"tensor.backward.ms": "ms", "tensor.copy_bytes": "bytes"}
for _op in TENSOR_OPS:
    PER_LAYER.update({f"tensor.{_op}.self_ms": "ms", f"tensor.{_op}.calls": "count"})
for _op in NN_OPS:
    PER_LAYER.update({f"nn.{_op}.self_ms": "ms", f"nn.{_op}.calls": "count"})
for _part in MODEL_PARTS:
    PER_LAYER.update({f"model.{_part}.ms": "ms", f"model.{_part}.gmac_per_s": "GMAC/s"})
PER_LAYER.update({
    "costs.fwd_macs": "MAC",
    "data.batch_iter.wait_ms": "ms", "data.augment.ms": "ms", "data.resize_array.ms": "ms",
    "train.adamw_step.ms": "ms", "train.evaluate.ms": "ms", "train.save_checkpoint.ms": "ms",
    "train.load_checkpoint.ms": "ms", "train.checkpoint_bytes": "bytes",
    "gradcheck.op_checks.ms": "ms", "gradcheck.block_param_check.ms": "ms",
    "gradcheck.model_param_check.ms": "ms",
    "trace.coverage_pct": "%", "trace.overhead_pct": "%",
})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("train_tiny", "infer_paper", "verify_f64"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_ctanet():
    """Import the checkout's ctanet; None (with a message) when ./src lacks it."""
    sys.path.insert(0, SRC)
    try:
        import ctanet
    except ImportError as exc:
        print(f"perfbench: cannot import ctanet from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(ctanet.__file__).startswith(SRC + os.sep):
        print(f"perfbench: ctanet was imported from {ctanet.__file__}, not from {SRC}", file=sys.stderr)
        return None
    import ctanet.costs, ctanet.data, ctanet.gradcheck, ctanet.model, ctanet.nn, ctanet.tensor, ctanet.train  # noqa: E401,F401
    return ctanet


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads_in_use(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version()}


def blas_threads_in_use():
    """OpenBLAS's own thread count when it can be asked, else the pinned value."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return BLAS_THREADS


def percentile(values, pct):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def measure(wl, rec, seconds):
    """Run whole units within `seconds`; returns (unit durations, wall time).

    At least one unit runs; another starts only while it is expected, from
    the last unit's duration, to end within `seconds`.
    """
    from tracing import now
    durations, t0 = [], now()
    while True:
        t = now()
        more = wl.run_unit(rec)
        durations.append(now() - t)
        if not more or now() - t0 + durations[-1] > seconds:
            return durations, now() - t0


def end_to_end(wl, rec, setup_s, passes, wall, checks, peak_mb):
    lat = wl.latency_ms(rec)
    tail = percentile(lat, TAIL_PCT)
    return {
        "setup_s": setup_s,
        "step_ms_p50": statistics.median(lat),
        f"step_ms_p{TAIL_PCT}": tail,
        "img_per_s": wl.images / wall,
        "pass_s": statistics.median(passes),
        "peak_rss_mb": peak_mb,
        "checks_passed_ratio": (checks.attempted - len(checks.failures)) / checks.attempted,
    }, f"{len(lat)} step samples, {sum(x > tail for x in lat)} beyond p{TAIL_PCT}"


def per_layer(wl, rec, extra):
    from tracing import coverage, per_call_s, span_totals
    traced = [w for w in rec.windows if w[3]]
    ids = [w[0] for w in traced]
    n = len(ids)
    tot = span_totals(rec, ids)
    incl = lambda name: tot.get(name, (0.0, 0.0, 0))[0] * 1e3 / n
    own = lambda name: tot.get(name, (0.0, 0.0, 0))[1] * 1e3 / n
    calls = lambda name: tot.get(name, (0.0, 0.0, 0))[2] / n
    m = {"tensor.backward.ms": incl("tensor.backward"),
         "tensor.copy_bytes": sum(rec.copy_bytes.get(i, 0) for i in ids) / n}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.self_ms"], m[f"tensor.{op}.calls"] = own(f"tensor.{op}"), calls(f"tensor.{op}")
    for op in NN_OPS:
        m[f"nn.{op}.self_ms"], m[f"nn.{op}.calls"] = own(f"nn.{op}"), calls(f"nn.{op}")
    macs = {}
    if wl.cost_cfg is not None:
        from workloads import layer_macs
        import ctanet.costs as costs
        cfg, batch = wl.cost_cfg
        macs = layer_macs(cfg, batch)
        m["costs.fwd_macs"] = costs.count_costs(cfg, batch=batch).total_macs
    else:
        m["costs.fwd_macs"] = 0
    for part in MODEL_PARTS:
        ms = incl(f"model.{part}")
        m[f"model.{part}.ms"] = ms
        if part == "attention":
            ms -= incl("model.fuse_tokens")
        m[f"model.{part}.gmac_per_s"] = macs[part] / ms / 1e6 if macs and ms > 0 else 0.0
    m["data.batch_iter.wait_ms"] = incl("data.batch_iter")
    m["data.augment.ms"] = incl("data.augment")
    m["data.resize_array.ms"] = incl("data.resize_array")
    m["train.adamw_step.ms"] = incl("train.adamw_step")
    m["train.evaluate.ms"] = per_call_s(rec, "train.evaluate") * 1e3
    m["train.save_checkpoint.ms"] = per_call_s(rec, "train.save_checkpoint") * 1e3
    m["train.load_checkpoint.ms"] = 0.0
    m["train.checkpoint_bytes"] = 0
    m["gradcheck.op_checks.ms"] = incl("gradcheck.op_checks") + incl("tensor.grad_check")
    m["gradcheck.block_param_check.ms"] = incl("gradcheck.block_param_check")
    m["gradcheck.model_param_check.ms"] = incl("gradcheck.model_param_check")
    m["trace.coverage_pct"] = 100.0 * coverage(rec, [(s, e) for _, s, e, _ in traced])
    base = statistics.median(rec.step_ms(traced=False))
    m["trace.overhead_pct"] = 100.0 * (statistics.median(rec.step_ms(traced=True)) / base - 1.0)
    m.update(extra)
    return {k: (int(v) if float(v).is_integer() and PER_LAYER[k] in ("count", "bytes", "MAC") else v)
            for k, v in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    ct = import_ctanet()
    if ct is None:
        return 2
    import_s = time.perf_counter() - T0
    from tracing import Patches, Recorder, now, span_patches
    from workloads import WORKLOADS, Checks, layer_macs

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = now()
            wl.setup()
            setups.append(now() - t)
        if wl.cost_cfg is not None:
            layer_macs(*wl.cost_cfg)          # fail before timing if a cost row went missing
        rec = Recorder()
        with wl.probes(rec):
            if args.trace:
                measure(wl, rec, args.seconds / 2)
                rec.tracing = True
                with span_patches(rec, ct):
                    passes, wall = measure(wl, rec, args.seconds / 2)
                rec.tracing = False
            else:
                passes, wall = measure(wl, rec, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = Checks()
        extra = wl.check(checks)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment()
    if args.trace:
        metrics, units = per_layer(wl, rec, extra), PER_LAYER
        rec.save(os.path.join(OUT, f"spans-{args.workload}.npz"), T0)
        note = f"{len(rec.names)} spans over {sum(w[3] for w in rec.windows)} traced {wl.per}(s)"
    else:
        metrics, note = end_to_end(wl, rec, import_s + statistics.median(setups), passes, wall,
                                   checks, peak_mb)
        units = END_TO_END
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, failures=checks.failures[:20], samples=note,
                  step_ms=wl.latency_ms(rec), pass_s=passes)
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload}: {note}")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
