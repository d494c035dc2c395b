"""Extraction benchmark: the checkpointed extract job on three corpus shapes.

Run from the repository root::

    python3 perfbench/run.py --workload crawl_html --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Each workload is one batch job, ``pipelines.extraction.run_extraction_job``,
run on a local Ray session with ``num_cpus = nproc``: a closed loop with
one client that starts the next job when the last one has committed.
Jobs repeat until ``--seconds`` have passed; every job's committed
output is joined to the generator's goldens by url, and any missing url,
byte difference or status difference fails the run.

``--trace 0`` reports the end-to-end metrics (medians over the jobs of
the run).  ``--trace 1`` reports the per-layer metrics: it times the
untraced Ray job, then replays the same shards in this process, without
Ray, through each layer's public entry point (see ``layers.py``).

Every metric is printed as ``name value unit``; per-run detail, the
input record and the host record go to a side file under
``.bench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# this run's inputs, outputs and Ray session files; removed at exit
WORK = os.path.join(ROOT, ".bench_work", str(os.getpid()))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 2
MB = 1e6
# AF_UNIX socket paths are capped at 107 bytes and Ray puts its sockets
# about 70 bytes below its temp dir; past this length it keeps its default
RAY_TEMP_MAX = 37

END_TO_END = {
    "docs_per_s": "docs/s", "mb_per_s": "MB/s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
# the layer each workload is built to stress: it should take the largest
# share of the job's CPU time (see shares_verdict)
EXPECTED_LARGEST = {
    "crawl_html": "codecs.html_codec",
    "pdf_heavy": "codecs.pdf_codec",
    "small_pages_resume": "engine",
}
ENGINE = ("stages.extract", "pipelines.extraction", "state.manifest")


def _units(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    for suffix, unit in (("_per_s", "MB/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), (".mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


# ------------------------------------------------------------------ host
def nproc() -> int:
    """What ``nproc`` prints: usable CPUs, capped by OMP_NUM_THREADS."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True, timeout=10).stdout
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def host_record() -> dict:
    import pyarrow
    import ray

    return {"nproc": nproc(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__}


def _children() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
        kids.setdefault(ppid, []).append(int(name))
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def peak_rss_mb() -> float:
    """Highest VmHWM of this driver and the Ray workers it started."""
    kids, todo, peak = _children(), [os.getpid()], _hwm_kb(os.getpid())
    while todo:
        for pid in kids.get(todo.pop(), []):
            todo.append(pid)
            if _is_ray_worker(pid):
                peak = max(peak, _hwm_kb(pid))
    return peak * 1024 / MB


# ------------------------------------------------------------------- Ray
def ray_start() -> None:
    import ray

    kw = {}
    if len(WORK) <= RAY_TEMP_MAX:
        kw["_temp_dir"] = WORK
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             log_to_driver=False, object_store_memory=512 * 1024 * 1024, **kw)


def setup(wl: "Workload", tag: str) -> float:
    """Seconds for ray.init plus one warm-up job on the first shard."""
    t = time.perf_counter()
    ray_start()
    ray_job(wl.files[:1], os.path.join(wl.work, f"warm-{tag}"), wl.fpp)
    return time.perf_counter() - t


def ray_job(files: List[str], out_dir: str, fpp: int) -> dict:
    from pdf_extractor_ray.pipelines.extraction import run_extraction_job

    t = time.perf_counter()
    m = run_extraction_job(files, out_dir, files_per_partition=fpp)
    m["wall_s"] = time.perf_counter() - t
    return m


# -------------------------------------------------------------- workload
class Workload:
    """One workload's generated inputs, goldens and job plan."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        import corpus
        from pdf_extractor_ray.state.manifest import partition_plan

        self.work = work
        self.shape = corpus.SHAPES[name]
        pages = corpus.pages(name, seed)
        self.record = corpus.describe(pages)
        self.goldens = pages.select(["url", "text", "expected_status"])
        self.files = corpus.write_shards(pages, os.path.join(work, "in"),
                                         self.shape.rows_per_shard)
        rps = self.shape.rows_per_shard
        html = pages.column("html")
        self.file_mb = {
            f: sum(len(v.as_py() or b"") for v in html[k * rps:(k + 1) * rps]) / MB
            for k, f in enumerate(self.files)}
        self.fpp = self.shape.files_per_partition
        plan = partition_plan(self.files, self.fpp)
        # small_pages_resume: the first half of the partitions is committed
        # in setup, the timed job resumes and commits the rest
        self.resume = name == "small_pages_resume"
        self.half = len(plan) // 2 if self.resume else 0
        self.first_half = [f for p in plan[:self.half] for f in p]
        self.timed_mb = sum(self.file_mb[f] for p in plan[self.half:] for f in p)
        self.pristine = os.path.join(work, "pristine")
        self.n_jobs = 0

    def new_out(self) -> str:
        """A fresh output dir; for the resume workload, a copy of the
        half-committed one."""
        self.n_jobs += 1
        out = os.path.join(self.work, f"out-{self.n_jobs}")
        if self.resume:
            shutil.copytree(self.pristine, out)
        return out

    def commit_first_half(self, job) -> List[int]:
        """Commit the first half of the partitions; return the committed ids."""
        from pdf_extractor_ray.state.manifest import Manifest

        job(self.first_half, self.pristine, self.fpp)
        return Manifest(self.pristine).committed_ids()


def check_output(wl: Workload, out_dir: str, detail: dict,
                 ref_sha: str = "") -> dict:
    """Golden-check one job's committed output; then drop it."""
    import gate

    output = gate.read_committed(out_dir)
    res = gate.check(wl.goldens, output)
    if ref_sha:
        res["resume_sha_match"] = gate.output_sha256(output) == ref_sha
    shutil.rmtree(out_dir, ignore_errors=True)
    detail.setdefault("gates", []).append(res)
    return res


def _gate_totals(detail: dict) -> dict:
    gates = detail.get("gates", [])
    attempted = sum(g["attempted"] for g in gates)
    failed = sum(g["failed"] for g in gates)
    sha_ok = all(g.get("resume_sha_match", True) for g in gates)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and sha_ok and attempted > 0}


def prepare_resume(wl: Workload, detail: dict) -> str:
    """For the resume workload: run a fresh, unkilled full job, then commit
    the first half of the partitions.  Returns the fresh output's hash,
    which every resumed output must match ("" for other workloads)."""
    import gate

    if not wl.resume:
        return ""
    out = os.path.join(wl.work, "fresh")
    detail["fresh_job"] = ray_job(wl.files, out, wl.fpp)
    sha = gate.output_sha256(gate.read_committed(out))
    check_output(wl, out, detail)
    committed = wl.commit_first_half(ray_job)
    detail["first_half_committed"] = committed
    if committed != list(range(wl.half)):
        detail.setdefault("gates", []).append(
            {"attempted": 1, "failed": 1, "resume_setup": committed})
    return sha


# ----------------------------------------------------------- trace 0 run
def run_end_to_end(wl: Workload, seconds: float, detail: dict) -> Dict[str, float]:
    """SETUP_REPEATS Ray sessions, each set up from scratch, then timed for
    an equal share of ``seconds``: the jobs sample the host at points spread
    over the whole run, so a drift in host speed averages out."""
    import ray

    setups, jobs, rss = [], [], 0.0
    for k in range(SETUP_REPEATS):
        setups.append(setup(wl, str(k)))
        if k == 0:
            ref_sha = prepare_resume(wl, detail)
        t0 = time.perf_counter()
        n = len(jobs)
        while len(jobs) == n or time.perf_counter() - t0 < seconds / SETUP_REPEATS:
            out = wl.new_out()
            m = ray_job(wl.files, out, wl.fpp)
            m["gate"] = check_output(wl, out, detail, ref_sha)
            m["session"] = k
            jobs.append(m)
        rss = max(rss, peak_rss_mb())
        ray.shutdown()
    detail["setup_s"] = setups
    detail["jobs"] = jobs
    return {
        "docs_per_s": statistics.median(j["docs_in"] / j["wall_s"] for j in jobs),
        "mb_per_s": statistics.median(wl.timed_mb / j["wall_s"] for j in jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }


# ----------------------------------------------------------- trace 1 run
def run_traced(wl: Workload, seconds: float, detail: dict) -> Dict[str, float]:
    import ray
    import layers

    # the untraced Ray job, for the Ray overhead left over
    setup(wl, "traced")
    ref_sha = prepare_resume(wl, detail)
    ray_walls = []
    for _ in range(2):
        out = wl.new_out()
        ray_walls.append(ray_job(wl.files, out, wl.fpp)["wall_s"])
        check_output(wl, out, detail, ref_sha)
    ray.shutdown()

    # in-process replays, untraced and traced in turn, after one untimed
    # warm-up replay (imports, codec set-up); ratios are taken per adjacent
    # pair, whose order alternates, so host drift and order effects cancel
    layers.replay(wl.files[:1], os.path.join(wl.work, "warm-replay"), wl.fpp)
    pairs = []
    t0 = time.perf_counter()
    while len(pairs) < 2 or time.perf_counter() - t0 < seconds:
        pair = {}
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        for traced in order:
            tracer = layers.Tracer() if traced else None
            out = wl.new_out()
            run = layers.replay(wl.files, out, wl.fpp, tracer)
            check_output(wl, out, detail, ref_sha)
            if traced:
                run["layers"] = layers.layer_metrics(tracer, run)
                run["layer_sum_s"] = sum(run["layers"][k] for k in layers.LAYER_BUSY)
            pair[traced] = run
        pairs.append((pair[False], pair[True]))
    detail["ray_walls"] = ray_walls
    detail["replay_pairs"] = [(p["wall_s"], t["wall_s"]) for p, t in pairs]

    best = layers.median_pass([t for _, t in pairs])
    m = dict(best["layers"])
    job_cpu_s = statistics.median(ray_walls) * nproc()
    overhead = job_cpu_s - best["layer_sum_s"]
    m["pipelines.extraction.ray_overhead_s"] = overhead
    m["pipelines.extraction.ray_overhead_share"] = overhead / job_cpu_s
    m["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in pairs)
    m["trace.layers_sum_ratio"] = statistics.median(
        t["layer_sum_s"] / p["wall_s"] for p, t in pairs)
    detail["layer_shares"] = layer_shares(m, job_cpu_s)
    return m


def layer_shares(m: Dict[str, float], job_cpu_s: float) -> Dict[str, float]:
    """Each module's share of the Ray job's CPU time (Ray overhead counts
    to ``pipelines.extraction``, which launches the tasks)."""
    import layers

    shares: Dict[str, float] = {}
    for k in layers.LAYER_BUSY:
        module = k.rsplit(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + m[k]
    shares["pipelines.extraction"] += m["pipelines.extraction.ray_overhead_s"]
    return {k: v / job_cpu_s for k, v in shares.items()}


def shares_verdict(workload: str, shares: Dict[str, float]) -> dict:
    """Is the layer the workload was built to stress the largest?  For
    small_pages_resume that is the per-row and engine modules together."""
    want = EXPECTED_LARGEST[workload]
    grouped = shares
    if want == "engine":
        grouped = {k: v for k, v in shares.items() if k not in ENGINE}
        grouped["engine"] = sum(shares.get(k, 0.0) for k in ENGINE)
    largest = max(grouped, key=grouped.get)
    return {"largest": largest, "expected": want, "ok": largest == want}


# ------------------------------------------------------------------ main
def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    work = os.path.join(WORK, name)
    detail: dict = {"workload": name, "seed": seed, "trace": int(traced),
                    "host": host_record()}
    try:
        wl = Workload(name, seed, work)
        detail["input"] = wl.record
        metrics = (run_traced if traced else run_end_to_end)(wl, seconds, detail)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    detail["host"]["loadavg_end"] = os.getloadavg()
    totals = _gate_totals(detail)
    # the gate's outcome as a ratio: docs failed over docs checked
    if traced:
        metrics["failed_docs_ratio"] = totals["failed"] / max(1, totals["attempted"])
        detail["layer_check"] = shares_verdict(name, detail["layer_shares"])
    detail["metrics"] = metrics
    return {"detail": detail, "metrics": metrics, **totals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="crawl_html | pdf_heavy | small_pages_resume | all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import pdf_extractor_ray  # noqa: F401
        import ray  # noqa: F401
        import corpus
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    names = list(corpus.SHAPES) if args.workload == "all" else [args.workload]
    if any(n not in corpus.SHAPES for n in names):
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    # confine the driver and every process Ray starts to nproc CPUs, so the
    # job runs on the host it reports: num_cpus and the CPUs in use agree
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:nproc()])
    # Ray workers import the program from the repository root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)

    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    os.makedirs(OUT, exist_ok=True)
    side = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(side, "w") as f:
        json.dump({n: r["detail"] for n, r in results.items()}, f, indent=1)

    metrics = {}
    for n, r in results.items():
        prefix = "" if len(names) == 1 else n + "."
        rec = r["detail"]["input"]
        print(f"# {n}: {rec['docs']} docs, {rec['stored_bytes'] / MB:.2f} MB, "
              f"pdf {rec['pdf_share']:.3f}, gzip {rec['gzip_share']:.3f}, "
              f"inputs {rec['content_sha256'][:16]}")
        host = r["detail"]["host"]
        print(f"# {n}: nproc {host['nproc']}, load "
              f"{host['loadavg_start'][0]:.2f} -> {host['loadavg_end'][0]:.2f}, "
              f"python {host['python']}, ray {host['ray']}, "
              f"pyarrow {host['pyarrow']}")
        if "layer_check" in r["detail"]:
            lc = r["detail"]["layer_check"]
            print(f"# {n}: largest layer {lc['largest']} "
                  f"(expected {lc['expected']}): {'ok' if lc['ok'] else 'MISS'}")
        for k, v in r["metrics"].items():
            unit = END_TO_END.get(k) or _units(k)
            print(f"{prefix}{k} {v} {unit}")
            metrics[prefix + k] = {"value": v, "unit": unit}
    print(f"# detail: {os.path.relpath(side, ROOT)}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
