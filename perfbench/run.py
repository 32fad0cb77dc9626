"""genalign benchmark: one workload in this process, metrics as a JSON line.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  BLAS is pinned to one thread before numpy loads, and
glibc's allocator keeps the memory the process frees (``keep_freed_memory``).

``setup_s`` is the median time to ready of several fresh processes
(``ready.py``).  After one untimed warm-up, the workload's repetitions cycle
through its slices of the cohort until ``--seconds`` would be exceeded, and
the reference kernel (``reference.py``) runs after each of them.  Run
times are per pass over the cohort (each slice's mean repetition, summed)
and are reported in units of the reference kernel's mean time in the same
run, which cancels most of the drift of a shared machine's speed.  Every
repetition's outputs are checked and must repeat those of the slice's first
repetition exactly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every public genalign function wrapped by
``tracing.Tracer``, and reports the per-layer metrics, including the tracing
overhead against the untraced half.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A result file with provenance, quality numbers and (traced) the
per-function table is written to ``perfbench/out/``.  The exit code is 0
when every check passed, 1 when one failed and 2 when the source tree is
missing.
"""
import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# after each repetition the reference kernel runs for this share of the
# repetition's wall time, so that it samples the machine's speed as long
# as a tenth of the run
REF_SHARE = 0.1

END_TO_END = {
    "setup_s": "s",
    "run_ref": "ref",
    "bags_per_ref": "1/ref",
    "cells_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ndiff.calls": "count",
    "ndiff.taped_calls_per_step": "count",
    "ndiff.fwd_self_s": "s",
    "ndiff.matmul_s": "s",
    "ndiff.layer_norm_s": "s",
    "ndiff.gelu_s": "s",
    "ndiff.multi_head_attention_s": "s",
    "aggregator.forward_calls_tape": "count",
    "aggregator.forward_calls_notape": "count",
    "aggregator.forward_s": "s",
    "aggregator.rows_per_call": "count",
    "pretrain.head_forward_calls": "count",
    "optim.step_calls": "count",
    "align.embed_cohort_calls": "count",
    "evalkit.retrieve_calls": "count",
    "evalkit.bootstrap_calls": "count",
    "synthcohort.generate_s": "s",
    "gbio.write_gbm_s": "s",
    "gbio.read_gbm_s": "s",
    "karyogram.parse_iscn_calls": "count",
    "process.cpu_frac": "frac",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


def import_package():
    """Import genalign from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "genalign" / "__init__.py").is_file():
        raise FileNotFoundError(f"no genalign sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import genalign

    if Path(genalign.__file__).resolve().parent != (src / "genalign").resolve():
        raise ImportError(f"genalign imported from {genalign.__file__}, not {src}")


def keep_freed_memory() -> bool:
    """Serve every allocation from the heap and never give it back (glibc).

    By default glibc maps large blocks fresh and returns freed memory to
    the kernel under a threshold it moves as the process runs, so each
    repetition faults in pages again, how many depending on the process's
    history: 9,000-17,000 per four-bag ``embed_large`` call on a 2-vCPU VM,
    about a fifth of its time.  Kept, there are none after warm-up.
    Returns False where ``mallopt`` is missing (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def time_to_ready(workload_name: str, seed: int, size_name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "ready.py"), workload_name, str(seed), size_name, str(OUT)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def repeat(workload, checks, digests, min_reps, budget_s=None):
    """Run repetitions over the workload's slices, first to last, each
    followed by calls of the reference kernel for ``REF_SHARE`` of its time.

    After ``min_reps`` it goes on while the next repetition is expected to
    end within ``budget_s``.  ``digests`` maps each slice to the digest of
    its first repetition, which every later repetition of that slice must
    repeat.  Returns the repetitions, their wall times, the reference
    kernel's mean wall time after each, and the process CPU seconds over
    the wall seconds.
    """
    from reference import reference
    from workloads import Checks

    walls, refs, reps = [], [], []
    cpu0, start = os.times(), time.perf_counter()
    while len(reps) < min_reps or (
        budget_s is not None
        and time.perf_counter() - start + statistics.median(walls) * (1.0 + REF_SHARE) <= budget_s
    ):
        rep_checks = Checks()
        t = time.perf_counter()
        try:
            rep = workload.run(rep_checks, len(reps))
        except Exception as exc:  # a failed repetition ends the run
            checks.merge(rep_checks)
            checks.add(f"repetition raised {type(exc).__name__}: {exc}", 1, False)
            break
        walls.append(time.perf_counter() - t)
        t, calls = time.perf_counter(), 0
        while calls == 0 or time.perf_counter() - t < REF_SHARE * walls[-1]:
            reference()
            calls += 1
        refs.append((time.perf_counter() - t) / calls)
        reps.append(rep)
        same = digests.setdefault(rep.slice, rep.digest) == rep.digest
        checks.merge(rep_checks, fail_all=None if same else
                     f"slice {rep.slice}: outputs differ from its first repetition")
    cpu1 = os.times()
    cpu_s = (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system)
    return reps, walls, refs, cpu_s / (time.perf_counter() - start)


def per_pass(reps, values) -> float:
    """One pass over the cohort: each slice's mean over its repetitions, summed."""
    by_slice: dict[int, list[float]] = {}
    for r, v in zip(reps, values):
        by_slice.setdefault(r.slice, []).append(v)
    return sum(statistics.fmean(v) for v in by_slice.values())


def timings(reps, walls, refs) -> dict:
    """Raw seconds of one pass and of the reference kernel, and the pass's
    work.  ``run_s`` covers the whole repetition, ``main_s`` the main call
    (``train_pretrain``, ``train_align``, ``project_slides``)."""
    return {
        "run_s": per_pass(reps, walls),
        "main_s": per_pass(reps, [r.main_s for r in reps]),
        "ref_s": statistics.fmean(refs),
        "bags": per_pass(reps, [r.bags for r in reps]),
        "cells": per_pass(reps, [r.cells for r in reps]),
    }


def end_to_end(setup_times, t) -> dict:
    """Set-up is the median over fresh processes, in seconds.  Run times are
    in reference-kernel units: in two sets of ten seeds on a shared 2-vCPU
    VM, the raw seconds of one pass spread 0.09-0.20 (quartile distance
    over median), their ratio to the reference 0.04-0.12."""
    return {
        "setup_s": statistics.median(setup_times),
        "run_ref": t["run_s"] / t["ref_s"],
        "bags_per_ref": t["bags"] * t["ref_s"] / t["main_s"],
        "cells_per_ref": t["cells"] * t["ref_s"] / t["main_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run_table, setup_table, cpu_frac, coverage, overhead) -> dict:
    def get(table, name, key):
        return table.get(name, {}).get(key, 0.0)

    primitives = [n for n in run_table if n.startswith("ndiff.") and n.count(".") == 1]
    steps = get(run_table, "optim.AdamW.step", "calls")
    taped = sum(run_table[n]["taped_calls"] for n in primitives)
    fwd_calls = get(run_table, "aggregator.forward", "calls")
    fwd_taped = get(run_table, "aggregator.forward", "taped_calls")
    return {
        "ndiff.calls": sum(run_table[n]["calls"] for n in primitives),
        "ndiff.taped_calls_per_step": taped / steps if steps else 0.0,
        "ndiff.fwd_self_s": sum(run_table[n]["self_s"] for n in primitives),
        "ndiff.matmul_s": get(run_table, "ndiff.matmul", "self_s"),
        "ndiff.layer_norm_s": get(run_table, "ndiff.layer_norm", "self_s"),
        "ndiff.gelu_s": get(run_table, "ndiff.gelu", "self_s"),
        "ndiff.multi_head_attention_s": get(run_table, "ndiff.multi_head_attention", "self_s"),
        "aggregator.forward_calls_tape": fwd_taped,
        "aggregator.forward_calls_notape": fwd_calls - fwd_taped,
        "aggregator.forward_s": get(run_table, "aggregator.forward", "total_s"),
        "aggregator.rows_per_call": get(run_table, "aggregator.forward", "rows") / fwd_calls if fwd_calls else 0.0,
        "pretrain.head_forward_calls": get(run_table, "pretrain.head_forward", "calls"),
        "optim.step_calls": steps,
        "align.embed_cohort_calls": get(run_table, "align.embed_cohort", "calls"),
        "evalkit.retrieve_calls": get(run_table, "evalkit.retrieve", "calls"),
        "evalkit.bootstrap_calls": get(run_table, "evalkit.bootstrap", "calls"),
        "synthcohort.generate_s": get(setup_table, "synthcohort.generate", "total_s"),
        "gbio.write_gbm_s": get(setup_table, "gbio.write_gbm", "total_s"),
        "gbio.read_gbm_s": get(setup_table, "gbio.read_gbm", "total_s"),
        "karyogram.parse_iscn_calls": get(setup_table, "karyogram.parse_iscn", "calls"),
        "process.cpu_frac": cpu_frac,
        "trace.coverage": coverage,
        "trace.overhead_frac": overhead,
    }


def layer_self_s(table) -> dict:
    """Self seconds per genalign module."""
    out: dict = {}
    for name, row in table.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + row["self_s"]
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size_name: str = "FULL", keeps_freed_memory: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (the result line, the full result record)."""
    import_package()
    import workloads
    from tracing import Tracer

    size = getattr(workloads, size_name)
    factory = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    setup_times = [time_to_ready(workload_name, seed, size_name) for _ in range(SETUP_REPEATS)]
    workload = factory(seed, size, OUT)

    checks = workloads.Checks()
    digests: dict[int, str] = {}
    record = {
        "workload": workload_name,
        "trace": int(trace),
        "provenance": provenance.record(
            ROOT, seed, {v: os.environ.get(v) for v in provenance.BLAS_THREAD_VARS}),
        "keeps_freed_memory": keeps_freed_memory,
        "setup_times_s": setup_times,
    }
    metrics: dict = {}
    n_slices = len(workload.slices)
    # untimed: the first call in a process pays for allocations later calls reuse
    repeat(workload, checks, digests, 1)
    if not trace:
        reps, walls, refs, cpu_frac = repeat(workload, checks, digests, n_slices, seconds)
    else:
        setup_tracer = Tracer()
        with setup_tracer:
            factory(seed, size, OUT)
        reps, walls, refs, cpu_frac = repeat(workload, checks, digests, n_slices, seconds / 2)
        run_tracer = Tracer()
        with run_tracer:
            traced_reps, traced_walls, traced_refs, _ = repeat(workload, checks, digests, n_slices)
        complete = len(traced_reps) == n_slices
        if reps and complete:
            # per-layer numbers are per pass over the cohort: one traced cycle
            run_table = run_tracer.table()
            untraced, traced = timings(reps, walls, refs), timings(traced_reps, traced_walls, traced_refs)
            metrics = per_layer(
                run_table, setup_tracer.table(), cpu_frac,
                coverage=run_tracer.top_level_s() / sum(traced_walls),
                overhead=(traced["run_s"] / traced["ref_s"]) / (untraced["run_s"] / untraced["ref_s"]) - 1.0,
            )
            record.update(
                traced_walls_s=traced_walls,
                traced_refs_s=traced_refs,
                functions=run_table,
                layers_self_s=layer_self_s(run_table),
                setup_functions=setup_tracer.table(),
            )
            run_tracer.save_spans(OUT / f"{workload_name}-seed{seed}.spans.npz")
    if reps and len({r.slice for r in reps}) == n_slices:
        quality = workload.finish(checks)
        t = timings(reps, walls, refs)
        record.update(
            quality=quality, timings=t, walls_s=walls, refs_s=refs, cpu_frac=cpu_frac,
            slices=[r.slice for r in reps], main_s=[r.main_s for r in reps],
        )
        if not trace:
            metrics = end_to_end(setup_times, t)
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record.update(failures=checks.failures, result=line)
    out_file = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "align_eval", "embed_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in provenance.BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    kept = keep_freed_memory()
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                           keeps_freed_memory=kept)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
