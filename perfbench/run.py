"""Seeded benchmark of sdgsolve: query throughput, latency, memory and set-up.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

One process, one thread, closed loop: each query starts when the previous one
returns.  A run measures whole rounds of its workload until the timed
queries add up to about ``--seconds``, then checks every answer outside the
timed region.

The host's speed swings by half within seconds (other tenants share its
cores), so every time is corrected for it: a fixed pure-Python task, the
probe (breadth-first searches over a fixed graph), is timed between
queries, and a query's wall time is scaled by PROBE_REF_S over the mean of
the probes on either side of it.  A reported time is thus the time at the
speed at which the probe takes PROBE_REF_S; see README.md.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object; the exit code is 0 only when every answer passed its checks.
Result files and traces go to perfbench/out/.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up is timed once before the queries and this many times after them,
# so that its median does not hang on the host's speed at one moment
SETUP_REPEATS_AFTER = 8
PROBE_REF_S = 0.001  # about the median probe on the 2-vCPU host of README.md when it is quiet
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = [sys.argv[1]]; "
    "import sdgsolve, sdgsolve.cli, sdgsolve.generators; print(time.perf_counter() - t)"
)
NAMES = ("sweep-small", "auto-mid", "cli-tree")


def import_program():
    """Import sdgsolve from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import sdgsolve

    if not Path(sdgsolve.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sdgsolve imported from {sdgsolve.__file__}, not from {src}")


def probe_graph(n=300, seed=5):
    """A fixed random graph, each vertex joined to two earlier ones."""
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        for u in rng.sample(range(v), min(v, 2)):
            adj[u].append(v)
            adj[v].append(u)
    return adj


PROBE_GRAPH = probe_graph()


def probe():
    """Wall time of a fixed task like the program's own (dicts, lists,
    graph traversal): how fast the host runs this process now."""
    t = time.perf_counter()
    for source in range(0, len(PROBE_GRAPH), 30):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in PROBE_GRAPH[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
    return time.perf_counter() - t


def setup_seconds(workloads, name, seed):
    """Time to import the program in a fresh interpreter plus time to build
    the workload's inputs; returns (seconds, the mean probe around it, the
    built workload, its first round)."""
    before = probe()
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          stdout=subprocess.PIPE, text=True, check=True)
    workload = workloads[name](seed, ROOT)
    t = time.perf_counter()
    queries = workload.setup()
    seconds = float(proc.stdout) + time.perf_counter() - t
    return seconds, (before + probe()) / 2, workload, queries


def run_workload(name, seed, seconds, trace):
    import_program()
    import selftest
    import layers as tracing
    from workloads import WORKLOADS, QueryFailed

    setup = [setup_seconds(WORKLOADS, name, seed)]
    workload, queries = setup[0][2:]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    done, times = [], []  # times[r][i]: (wall time, mean probe around it) of query i in round r, None if it failed
    probes = [probe()]
    speed = {}  # query id -> host-speed correction of its time, for the traced run
    attempted = failed = 0

    def attempt(r, q, traced):
        """Run one query; keep its answer for the checks; its wall time, or None if it failed."""
        nonlocal attempted, failed
        attempted += 1
        if traced:
            tracer.begin_query(attempted)
        t = time.perf_counter()
        try:
            raw = q.call()
        except Exception:
            raw = None
            error = traceback.format_exc()
        else:
            error = None
        finally:
            dt = time.perf_counter() - t
            if traced:
                tracer.end_query()
        if error is None:
            try:
                done.append((r, q, q.decode(raw)))
            except QueryFailed:
                error = traceback.format_exc()
        if error is None:
            return dt
        failed += 1
        if failed <= 3:
            print(f"query failed: {workload.label(r, q)}\n{error}", file=sys.stderr)
        return None

    timed = 0.0
    r = 0
    while True:
        times.append([])
        for q in queries:
            dt = attempt(r, q, tracer is not None)
            probes.append(probe())
            p = (probes[-2] + probes[-1]) / 2
            speed[attempted] = PROBE_REF_S / p
            timed += dt or 0.0
            times[r].append(None if dt is None else (dt, p))
        r += 1
        if timed + timed / r / 2 >= seconds:  # stop at the round end nearest to --seconds
            break
        queries = workload.round(r)
    for k in range(workload.memory_passes):
        for q in workload.memory_queries(r + k):
            attempt(r + k, q, False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [setup_seconds(WORKLOADS, name, seed) for _ in range(SETUP_REPEATS_AFTER)]

    check_start = time.perf_counter()
    errors = [f"checker self-test: {p}" for p in selftest.failures()] + workload.check(done)
    check_s = time.perf_counter() - check_start
    for e in errors[:20]:
        print("CHECK FAILED:", e, file=sys.stderr)

    completed = [dt * PROBE_REF_S / p for ts in times for dt, p in filter(None, ts)]
    queries_per_s = {"value": len(completed) / sum(completed), "unit": "1/s"}
    if trace:
        metrics = tracing.layer_metrics(tracer, len(completed), speed)
        metrics["trace.queries_per_s"] = queries_per_s
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(tracer, OUT / f"trace-{name}-s{seed}.tsv")
    else:
        metrics = {
            "queries_per_s": queries_per_s,
            "query_ms_p50": {"value": 1000 * statistics.median(completed), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(s * PROBE_REF_S / p for s, p, *_ in setup), "unit": "s"},
        }
    rounds_s = " ".join(f"{sum(t[0] for t in ts if t):.2f}" for ts in times)
    print(f"{name}: seed {seed}, {r} round(s) ({rounds_s} s), {attempted} queries attempted, {failed} failed, "
          f"{timed:.2f} s timed, {sum(completed):.2f} s at reference speed, "
          f"probe {1000 * min(probes):.3f} ms fastest, {1000 * statistics.median(probes):.3f} ms median, checks {check_s:.2f} s, {len(errors)} check failures")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']:12.4f} {m['unit']}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process; exit 1 if any answer failed a check."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
