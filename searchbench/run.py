#!/usr/bin/env python3
"""Search-throughput benchmark for swtnas (see README.md here).

    python3 searchbench/run.py --workload nt3-lcs-durable --seed 1 --seconds 50 --trace 0

Builds the libraries and the driver from the enclosing checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
run context, every metric with its unit, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of untraced run_nas() calls; --trace 1 reports the
per-layer metrics of a replay of those runs under spans.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchstats as bs  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("cifar-lcs", "nt3-lcs-durable", "uno-baseline")
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Span name -> per-layer metric prefix, in the evaluator's call order.
LAYERS = ("nas.build", "ckpt.get", "core.transfer", "data.batch", "nn.forward",
          "nn.backward", "nn.optimizer", "nn.validate", "ckpt.put",
          "exp.journal_append")


def die(msg, code=1):
    print("searchbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "searchbench"


def build(out):
    """Configure once, then (incrementally) build the driver."""
    log = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step %s failed: %s" % (cmd[:2], e))
            if r.returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                die("build failed (%s):\n%s" % (log, "\n".join(tail)))
    return out / "searchbench"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown (not a git checkout)"


def check_digest(out, binary, facts):
    """The trace digest of a (workload, seed) must not change between runs
    of one build; remember it per build in the build directory."""
    h = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = out / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = "%s:%s:%d" % (h, facts["workload"], facts["seed"])
    if seen.get(key, facts["trace_digest"]) != facts["trace_digest"]:
        print("# trace digest %s differs from an earlier run's %s"
              % (facts["trace_digest"], seen[key]), file=sys.stderr)
        return False
    seen[key] = facts["trace_digest"]
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return True


def evals_per_s(facts):
    """Evaluations per wall-second of the run_nas() calls.  Every round runs
    the same searches, so each search's time is taken as its median over the
    rounds; the rate is all evaluations over the sum of those medians."""
    walls = facts["search_wall_s"]
    per_search = [bs.median([r[k] for r in walls]) for k in range(len(walls[0]))]
    return facts["evals"] / sum(per_search)


def end_to_end(facts):
    return {
        "evals_per_s": (evals_per_s(facts), "evals/s"),
        "setup_s": (bs.median(facts["setup_s"]), "s"),
        "peak_rss_mb": (facts["peak_rss_mib"], "MiB"),
        "virtual_makespan_s": (facts["virtual_makespan_s"], "virtual_s"),
        "top10_mean_score": (facts["top10_mean_score"], "objective"),
        "clean_eval_share": (1.0 - facts["failed"] / facts["attempts"], "ratio"),
    }


def read_spans(path):
    passes = {}
    with open(path) as f:
        next(f)
        for line in f:
            p, sid, parent, name, _eval, start, end = line.rstrip("\n").split(",")
            passes.setdefault(int(p), []).append(
                (int(sid), int(parent), name, int(start) * 1e-9, int(end) * 1e-9))
    return passes


def per_layer(facts, spans_path, header):
    """Per-layer metrics of the traced pass whose replay wall is the median."""
    walls = facts["replay_wall_s"]
    order = sorted(range(len(walls)), key=lambda i: walls[i])
    p = order[(len(order) - 1) // 2]
    spans = read_spans(spans_path)[p]
    wall = walls[p]
    table = bs.shares(bs.self_times(spans), wall, LAYERS)
    m = {}
    for layer in LAYERS + ("other",):
        s, pct = table[layer]
        m[layer + "_s"] = (s, "s")
        m[layer + "_pct"] = (pct, "%")
    evals = [end - start for _, _, name, start, end in spans if name == "eval"]
    transfers = facts["transfers"][p]
    round_wall = sum(facts["search_wall_s"][p])
    m.update({
        "replay.wall_s": (wall, "s"),
        "nn.batches": (facts["batches"][p], "count"),
        "core.hit_rate": (facts["transfer_hits"][p] / transfers if transfers else 0.0, "ratio"),
        "ckpt.bytes_written": (facts["bytes_written"][p], "bytes"),
        "ckpt.overhead_share": (facts["ckpt_overhead_share"], "ratio"),
        "cluster.eval_concurrency": (sum(evals) / round_wall, "ratio"),
        "cluster.wavefront_width_mean": (facts["wavefront_width_mean"], "evals"),
        "cluster.worker_idle_share": (facts["worker_idle_share"], "ratio"),
    })
    pct_sum = sum(v for k, (v, _) in m.items() if k.endswith("_pct"))

    hp = bs.highest_percentile(len(evals))
    line = "# replay per-eval wall: n=%d median %.3f ms" % (len(evals), 1e3 * bs.median(evals))
    if hp is not None:
        line += ", p%g %.3f ms" % (hp, 1e3 * bs.percentile(evals, hp))
    header.append(line)
    traced = sum(evals) / facts["evals"]
    untraced = round_wall / facts["evals"]
    note = "" if facts["eval_parallelism"] == 1 else \
        " (not comparable: the untraced run trains %d evaluations at once)" % facts["eval_parallelism"]
    header.append("# tracing overhead: traced %.3f ms/eval vs untraced %.3f ms/eval = %+.1f%%%s"
                  % (1e3 * traced, 1e3 * untraced, 100.0 * (traced / untraced - 1.0), note))
    header.append("# replay pass %d of %d, layer shares sum to %.9f%%" % (p + 1, len(walls), pct_sum))
    return m, abs(pct_sum - 100.0) < 1e-6


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no swtnas sources beside %s; run from a full checkout" % HERE, 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    binary = build(out)

    work = out / ("work-" + args.workload)
    spans_path = out / ("spans-%s.csv" % args.workload)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--spans-out", str(spans_path)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        die("driver failed (exit %d):\n%s" % (r.returncode, r.stderr.strip()))
    facts = json.loads(r.stdout.strip().splitlines()[-1])

    rounds = len(facts["search_wall_s"])
    header = [
        "# workload %s  seed %d  trace %d" % (facts["workload"], facts["seed"], args.trace),
        "# context: nproc %d, compute threads %d, eval parallelism %d, build %s, "
        "native kernels %s, git %s" % (facts["nproc"], facts["compute_threads"],
                                       facts["eval_parallelism"], facts["build_type"],
                                       facts["native_kernels"], git_describe()),
        "# work: %s %s, %d searches x %d evals, %d workers, %s store, %d round(s)"
        % (facts["app"], facts["mode"], facts["searches"], facts["evals"] // facts["searches"],
           facts["num_workers"], "durable disk" if facts["durable"] else "in-memory", rounds),
        "# trace_digest %s %s" % (facts["workload"], facts["trace_digest"]),
    ]
    correct = check_digest(out, binary, facts)
    if args.trace:
        metrics, sums_ok = per_layer(facts, spans_path, header)
        correct = correct and sums_ok
    else:
        metrics = end_to_end(facts)
        totals = [sum(r) for r in facts["search_wall_s"]]
        header.append("# round walls (s): %s" % ", ".join("%.3f" % t for t in totals))
        correct = correct and all(v > 0 for v, _ in metrics.values())

    attempted = facts["attempts"] * rounds
    failed = facts["failed"] * rounds
    for line in header:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-32s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
