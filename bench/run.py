"""Benchmark of compgen-toolkit: one workload per process.

    python3 bench/run.py --workload scan_suite --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports compgen from its
``src`` directory.  The set-up is made three times and its median reported;
then operations run one after another, each followed by its output checks:
at least two, and more while the next one, judged by the last, ends within
``--seconds``.  With ``--trace 0`` the last line of standard
output is the result with the end-to-end metrics; with ``--trace 1`` every
operation runs once untraced and once traced, and the result carries the
per-layer metrics and the tracing overhead instead.  The line before the
result records the environment.  Scratch files go to ``.bench_work`` and
are removed at exit.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
MIN_OPS = 2

END_TO_END = {"setup_s": "s", "prepare_s": "s", "score_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "scan.enumerate_s": "s", "scan.interpret_cmds_per_s": "1/s",
    "data.load_dataset_s": "s", "data.load_dataset_calls": "count",
    "data.load_mb_per_s": "MB/s", "data.save_dataset_s": "s", "data.cgps_prefix_s": "s",
    "data.load_predictions_s": "s",
    "splits.build_s.random": "s", "splits.build_s.primitive": "s",
    "splits.build_s.template": "s", "splits.build_s.length": "s",
    "dbca.profile_s": "s", "dbca.measure_s": "s", "dbca.build_mcd_split_s": "s",
    "dbca.final_compound_divergence": "ratio", "dbca.final_atom_divergence": "ratio",
    "sparql.parse_s": "s", "sparql.encode_s.f1": "s", "sparql.encode_s.f2": "s",
    "sparql.encode_s.f3": "s", "sparql.decode_s.f1": "s", "sparql.decode_s.f2": "s",
    "sparql.decode_s.f3": "s", "sparql.decode_reject_frac": "ratio",
    "evaluation.score_exact_s": "s", "evaluation.length_breakdown_s": "s",
    "evaluation.score_clause_set_s": "s",
    "cli.stage_s.scan_generate": "s", "cli.stage_s.scan_interpret": "s",
    "cli.stage_s.split_random": "s", "cli.stage_s.split_primitive": "s",
    "cli.stage_s.split_template": "s", "cli.stage_s.split_length": "s",
    "cli.stage_s.dbca_analyze": "s", "cli.stage_s.prep_cgps_prefix": "s",
    "cli.stage_s.eval_score": "s", "cli.stage_s.eval_length_breakdown": "s",
    "cli.self_s": "s", "failed_frac": "ratio", "trace.overhead_s": "s",
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repository."""
    git = root / ".git"
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


def op_seconds(out: dict) -> float:
    return sum(out["prepare"].values()) + sum(sum(s.values()) for s in out["score"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run(workload_cls, modules, work: Path, seed: int, seconds: float, trace: bool):
    from tracing import Tracer, summarize

    tracer = Tracer()
    wl = workload_cls(work, seed, tracer)
    setup_times, setup_summary = [], None
    for k in range(SETUP_REPS):
        traced = trace and k == SETUP_REPS - 1
        if traced:
            tracer.install(modules)
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if traced:
            setup_summary = summarize(tracer.take())
            tracer.uninstall()

    attempted, failed, problems = 0, 0, []

    def check(i, out):
        nonlocal attempted, failed
        for _, found in wl.check(i, out):
            attempted += 1
            failed += bool(found)
            problems.extend(found)

    prepares, scores, op_times, traced_ops, overheads = [], [], [], [], []
    start = time.perf_counter()
    i, last = 0, 0.0
    # A traced run scores once per operation, so that per-layer times are
    # those of one pass.
    repeats = 1 if trace else wl.SCORE_REPEATS
    while i < MIN_OPS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        out = wl.op(i, repeats)
        check(i, out)
        prepares.append(out["prepare"])
        scores.extend(out["score"])
        op_times.append(op_seconds(out))
        if trace:
            tracer.install(modules)
            out_t = wl.op(i, repeats)
            spans = tracer.take()
            tracer.uninstall()
            check(i, out_t)
            traced_ops.append((summarize(spans), spans.counters, out_t))
            overheads.append(op_seconds(out_t) - op_seconds(out))
        out = None  # so that the next operation's peak memory does not include it
        last = time.perf_counter() - began
        i += 1

    if trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(wl.layers(traced_ops, setup_summary))
        values["failed_frac"] = failed / attempted
        values["trace.overhead_s"] = statistics.median(overheads)
        units = PER_LAYER
    else:
        prepare_s, score_s = wl.aggregate(prepares, scores)
        values = {"setup_s": statistics.median(setup_times), "prepare_s": prepare_s,
                  "score_s": score_s, "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
    detail = {"operations": i, "setup_s": setup_times, "op_s": op_times,
              "problems": problems[:20]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_suite", "mcd_target", "cfq_ir"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import compgen
        from compgen import cli, data, dbca, evaluation, scan, sparql, splits
    except ImportError as exc:
        print(f"bench: cannot import compgen from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(compgen.__file__).resolve().parent != ROOT / "src" / "compgen":
        print(f"bench: compgen imported from {compgen.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    modules = [scan, data, splits, dbca, sparql, evaluation, cli]
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        detail, result = run(WORKLOADS[args.workload], modules, work, args.seed,
                             args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "cores": os.cpu_count(),
           "python": platform.python_version(), "commit": git_commit(ROOT),
           "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset")}
    for problem in detail["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
