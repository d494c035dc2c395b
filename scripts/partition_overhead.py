"""Per-partition and per-job Ray fixed cost of the checkpointed extract job.

For one benchmark workload (``perfbench/corpus.py``) and seed, runs each
partition of the job, and then the whole job over all files, twice:
through ``run_extraction_job`` on a local 1-CPU Ray session, and through
``perfbench/layers.replay``, the in-process twin of the same job without
Ray.  Both run on the same shards, pinned to one CPU, after one untimed
warm-up partition.  The difference is what Ray adds on top of the work
itself: planning, task launch, object transfer and the write/commit
round trip.  ``run_extraction_job`` is one Ray Data execution per call,
so the per-partition lines pay that fixed cost once per partition and
the whole-job line pays it once.

Usage (from the repository root)::

    python scripts/partition_overhead.py --workload small_pages_resume --seed 1

Prints one line per partition and one for the whole job (medians over
``--repeats``), then one JSON summary line.  Inputs and outputs live in
a temporary directory that is removed at exit; nothing under
``perfbench/`` is written.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ behind in perfbench/


def _ray_job(files, out_dir, fpp) -> float:
    from pdf_extractor_ray.pipelines.extraction import run_extraction_job

    t = time.perf_counter()
    run_extraction_job(files, out_dir, files_per_partition=fpp)
    return time.perf_counter() - t


def _replay_job(files, out_dir, fpp) -> float:
    import layers

    return layers.replay(files, out_dir, fpp)["wall_s"]


def main(argv=None) -> int:
    import corpus

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="small_pages_resume",
                    choices=sorted(corpus.SHAPES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    import ray

    from pdf_extractor_ray.state.manifest import partition_plan

    # one CPU for the driver, the replay and every Ray worker alike;
    # workers import the program from the repository root
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)

    shape = corpus.SHAPES[args.workload]
    with tempfile.TemporaryDirectory(prefix="partition_overhead-") as work:
        files = corpus.write_shards(corpus.pages(args.workload, args.seed),
                                    os.path.join(work, "in"), shape.rows_per_shard)
        plan = partition_plan(files, shape.files_per_partition)
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 log_to_driver=False, object_store_memory=512 * 1024 * 1024)
        try:
            runs = {"ray": _ray_job, "replay": _replay_job}
            walls = {k: [[] for _ in plan] for k in runs}
            job_walls = {k: [] for k in runs}
            outs = (os.path.join(work, f"out-{i}") for i in itertools.count())
            for run in runs.values():  # warm-up: imports, codecs, workers
                run(plan[0], next(outs), shape.files_per_partition)
            for r in range(args.repeats):
                # alternate which side goes first, so drift cancels
                order = list(runs) if r % 2 == 0 else list(runs)[::-1]
                for pid, pfiles in enumerate(plan):
                    for k in order:
                        walls[k][pid].append(
                            runs[k](pfiles, next(outs), shape.files_per_partition))
                for k in order:
                    job_walls[k].append(
                        runs[k](files, next(outs), shape.files_per_partition))
        finally:
            ray.shutdown()

    print(f"{'partition':>9} {'files':>5} {'ray_s':>8} {'replay_s':>8} {'ray_fixed_s':>11}")
    diffs = []
    for pid, pfiles in enumerate(plan):
        ray_s = statistics.median(walls["ray"][pid])
        replay_s = statistics.median(walls["replay"][pid])
        diffs.append(ray_s - replay_s)
        print(f"{pid:>9} {len(pfiles):>5} {ray_s:>8.3f} {replay_s:>8.3f} {diffs[-1]:>11.3f}")
    job_ray_s = statistics.median(job_walls["ray"])
    job_replay_s = statistics.median(job_walls["replay"])
    print(f"{'job':>9} {len(files):>5} {job_ray_s:>8.3f} {job_replay_s:>8.3f} "
          f"{job_ray_s - job_replay_s:>11.3f}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "repeats": args.repeats,
        "partitions": len(plan), "loadavg": os.getloadavg(),
        "ray_fixed_s_median": statistics.median(diffs),
        "ray_fixed_s_total": sum(diffs),
        "job_ray_fixed_s": job_ray_s - job_replay_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
