#!/usr/bin/env python3
"""End-to-end benchmark of glouvain: build, prepare, measure, check, compare.

One measurement (the form an automated runner uses; prints one JSON line):

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Human-facing subcommands:

    python3 bench/e2e/run.py run     [--seed 1[,2..]] [--sets K] [--workloads a,b] [--label L] [--smoke]
    python3 bench/e2e/run.py trace   [--seed 1] [--workloads a,b] [--label L] [--smoke]
    python3 bench/e2e/run.py compare A B
    python3 bench/e2e/run.py ledger  A B

Everything is built and written under build-e2e/ at the repository root:
the benchmark binary, the seeded inputs (build-e2e/inputs/W-sN), run results
(build-e2e/results/L) and traces (build-e2e/traces/L). Metric names,
units, directions and bounds come from BENCHMARK.json. See README.md here.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "glouvain_e2e"
SPEC_PATH = ROOT / "BENCHMARK.json"
# A benchmark process is stopped after this long, so one run always ends
# within three minutes.
PROCESS_TIMEOUT_S = 170
# --smoke: toy inputs, two reps, every check; for CI.
SMOKE_REPS = 2
# Seeds whose inputs stay cached per workload: the default and the
# holdout of a series, and two more.
CACHED_SEEDS = 4


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def nproc():
    return os.cpu_count() or 1


# ------------------------------------------------------------------ build


def build():
    """Configure (once) and build glouvain_e2e; logs go to build-e2e/build.log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    configured = BUILD / ".configured"
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "glouvain_e2e",
                  "-j", str(nproc())])
    with open(logfile, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logfile.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
            if step[1] == "-S":
                configured.touch()


def run_binary(args, timeout=PROCESS_TIMEOUT_S):
    """Run glouvain_e2e; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([str(BINARY)] + [str(a) for a in args], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def prepare(workload, seed, smoke):
    """Seeded inputs of one workload, cached under build-e2e/inputs/."""
    d = BUILD / "inputs" / (f"{workload}-s{seed}" + ("-smoke" if smoke else ""))
    # Inputs made by an older build of glouvain_e2e are made again.
    stamp = f"{BINARY.stat().st_mtime_ns} {BINARY.stat().st_size}"
    stamp_file = d / "binary.stamp"
    if not stamp_file.exists() or stamp_file.read_text() != stamp:
        code, _ = run_binary(["prepare", "--workload", workload, "--seed", seed,
                              "--dir", d, "--smoke", int(smoke)])
        if code != 0:
            raise BenchError(f"prepare {workload} seed {seed} failed")
    stamp_file.write_text(stamp)  # also marks the inputs as recently used
    # Keep the inputs of the CACHED_SEEDS most recently used seeds.
    cached = sorted((p for p in (BUILD / "inputs").glob(f"{workload}-s*")
                     if p.name.endswith("-smoke") == smoke),
                    key=lambda p: (p / "binary.stamp").stat().st_mtime_ns
                    if (p / "binary.stamp").exists() else 0)
    for old in cached[:-CACHED_SEEDS]:
        shutil.rmtree(old)
    with open(d / "input.json") as f:
        return d, json.load(f)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


# ------------------------------------------------------------------ metrics


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * p // 100) - 1))
    return s[int(k)]


def end_to_end(line):
    """The end-to-end metrics of one `run` result line."""
    op_ms = [1e3 * s for s in line["op_s"]]
    return {
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p95": percentile(op_ms, 95),
        "modularity": line["modularity"],
        "setup_s": statistics.median(line["setup_s"]),
        "peak_rss_mib": line["peak_rss_mib"],
    }


def measure(workload, seed, seconds, smoke):
    """One untraced measurement process; returns the stored result."""
    d, inp = prepare(workload, seed, smoke)
    args = ["run", "--workload", workload, "--dir", d, "--seconds", seconds,
            "--smoke", int(smoke)]
    if smoke:
        args += ["--reps", SMOKE_REPS]
    code, line = run_binary(args)
    if line is None or not line["op_s"]:
        raise BenchError(f"{workload}: glouvain_e2e printed no timed result (exit {code})")
    env = dict(line["env"], commit=git_commit())
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "input": inp, "env": env, "exit_code": code,
        "correct": code == 0 and line["failed"] == 0,
        "attempted": line["attempted"], "failed": line["failed"],
        "error_rate": line["failed"] / max(1, line["attempted"]),
        "op_samples": len(line["op_s"]),
        "metrics": end_to_end(line), "checks": line["checks"],
        "raw": {"op_s": line["op_s"], "setup_s": line["setup_s"]},
    }


def trace(workload, seed, out_prefix, smoke):
    """One traced process; returns its result line with the layer file
    (OUT.layers.json) under "layers" and its metric values under "metrics"."""
    d, _ = prepare(workload, seed, smoke)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    code, line = run_binary(["trace", "--workload", workload, "--dir", d,
                         "--out", out_prefix, "--smoke", int(smoke)])
    if line is None:
        raise BenchError(f"{workload}: trace printed no result (exit {code})")
    line["correct"] = code == 0 and line["valid"]
    line["layers"] = json.loads(Path(f"{out_prefix}.layers.json").read_text())
    line["metrics"] = {n: m["value"] for n, m in line["layers"]["metrics"].items()}
    return line


# ------------------------------------------------------------------ modes


def single_run(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    spec = load_spec()
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {a.workload}")
    build()
    if a.trace:
        line = trace(a.workload, a.seed,
                     BUILD / "traces" / "single" / f"{a.workload}-s{a.seed}", False)
        names = spec["per_layer"]
        values = line["metrics"]
        result = {"correct": line["correct"], "attempted": line["attempted"],
                  "failed": line["failed"]}
    else:
        r = measure(a.workload, a.seed, a.seconds, False)
        names = spec["end_to_end"]
        values = r["metrics"]
        result = {"correct": r["correct"], "attempted": r["attempted"],
                  "failed": r["failed"]}
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics missing from the result: {missing}")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in names}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def workloads_arg(spec, text):
    names = [w["name"] for w in spec["workloads"]]
    chosen = text.split(",") if text else names
    unknown = [w for w in chosen if w not in names]
    if unknown:
        raise BenchError(f"unknown workloads: {unknown}")
    return chosen


def run_mode(a):
    spec = load_spec()
    build()
    label = a.label or time.strftime("%Y%m%d-%H%M%S")
    out = BUILD / "results" / label
    out.mkdir(parents=True, exist_ok=True)
    seconds = 0 if a.smoke else spec["run_seconds"]
    units = {"op_ms_p95": "ms", "error_rate": "fraction"}
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
    ok = True
    for s in range(a.sets):
        for seed in a.seed.split(","):
            for w in workloads_arg(spec, a.workloads):
                r = measure(w, int(seed), seconds, a.smoke)
                r["set"] = s
                ok &= r["correct"]
                (out / f"{w}-s{seed}-set{s}.json").write_text(json.dumps(r, indent=1))
                row = dict(r["metrics"], error_rate=r["error_rate"])
                print(f"set {s} seed {seed} {w:<11} "
                      + "  ".join(f"{k}={v:.6g} {units[k]}" for k, v in row.items())
                      + f"  ({r['op_samples']} ops)"
                      + ("" if r["correct"] else "  FAILED " + json.dumps(r["checks"])),
                      flush=True)
    summary = summarize(spec, load_results(out))
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(f"results and summary.json in {out}")
    if a.smoke:
        # The zg and trace checks run in the trace process; smoke covers them.
        traced = argparse.Namespace(seed=int(a.seed.split(",")[0]), label=label,
                                    workloads=a.workloads, smoke=True)
        ok &= trace_mode(traced) == 0
    return 0 if ok else 1


def groups(spec, results):
    """Results per (workload, seed), in BENCHMARK.json's workload order,
    each group sorted by set. Seeds are never pooled: each seed is its
    own input, so pooling would count input differences as noise."""
    order = [w["name"] for w in spec["workloads"]]
    out = {}
    for r in sorted(results, key=lambda r: (order.index(r["workload"]),
                                            r["seed"], r.get("set", 0))):
        out.setdefault((r["workload"], r["seed"]), []).append(r)
    return out


def summarize(spec, results):
    """Per workload, seed and metric: median, quartiles and spread
    (interquartile range over median) across sets, next to the bound."""
    summary = {"env": results[0]["env"],
               "runs": sorted({(r["seed"], r.get("set", 0)) for r in results}),
               "workloads": {}}
    print(f"{'workload':<11} {'seed':>4} {'metric':<13} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for (w, seed), rows in groups(spec, results).items():
        per_seed = summary["workloads"].setdefault(w, {}).setdefault(str(seed), {})
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([r["metrics"][m["name"]] for r in rows])
            spread = (q3 - q1) / abs(med) if med else 0.0
            per_seed[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "bound": m["bound"],
                                   "unit": m["unit"]}
            print(f"{w:<11} {seed:>4} {m['name']:<13} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {100 * spread:>6.2f}% {100 * m['bound']:>5.1f}%")
    return summary


def trace_mode(a):
    spec = load_spec()
    build()
    label = a.label or time.strftime("%Y%m%d-%H%M%S")
    out = BUILD / "traces" / label
    ok = True
    for w in workloads_arg(spec, a.workloads):
        line = trace(w, a.seed, out / w, a.smoke)
        layers = line["layers"]
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in line["metrics"]]
        ok &= line["correct"] and not missing
        print(f"{w}: {'valid' if layers['valid'] else 'INVALID'}"
              + (f", missing {missing}" if missing else ""))
        for name, m in layers["metrics"].items():
            print(f"  {name:<24} {m['value']:<14.6g} {m['unit']}"
                  + ("  (exact)" if m["exact"] else ""))
        if not line["correct"]:
            print("  failed checks: "
                  + ", ".join(k for k, v in layers["checks"].items() if not v))
    print(f"layer files and chrome traces in {out}")
    return 0 if ok else 1


# ------------------------------------------------------------------ compare


# Results that differ in any of these are not compared. seconds and reps
# set the run length, which also fixes the sbm-churn epochs replayed.
ENV_KEYS = ("nproc", "cpu_model", "simt_backend", "compiler", "flags", "traced",
            "seconds", "reps")


def load_results(path):
    p = Path(path)
    files = sorted(p.glob("*-s*-set*.json")) if p.is_dir() else [p]
    results = [json.loads(f.read_text()) for f in files]
    if not results:
        raise BenchError(f"no results in {path}")
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a_vals, b_vals, better, bound):
    """improved / worse / unchanged / unresolved for one metric."""
    sign = 1 if better == "lower" else -1
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_q1, b_med, b_q3 = quartiles(b_vals)
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    all_better = max(sign * v for v in b_vals) < min(sign * v for v in a_vals)
    pairs = list(zip(a_vals, b_vals))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    gained = (sign * (a_med - b_med) > (a_q3 - a_q1)
              and wins >= 0.9 * len(pairs))
    if spread > bound and not all_better:
        return "unresolved", worse_by, spread
    if worse_by > bound:
        return "worse", worse_by, spread
    if gained or all_better:
        return "improved", worse_by, spread
    return "unchanged", worse_by, spread


def compare_mode(a):
    spec = load_spec()
    side_a, side_b = load_results(a.a), load_results(a.b)
    for key in ENV_KEYS:
        va = {r["env"].get(key) for r in side_a}
        vb = {r["env"].get(key) for r in side_b}
        if len(va | vb) != 1:
            raise BenchError(f"environments differ in {key}: {sorted(map(str, va | vb))}")
    inputs_a = {(r["workload"], r["seed"], json.dumps(r["input"], sort_keys=True))
                for r in side_a}
    inputs_b = {(r["workload"], r["seed"], json.dumps(r["input"], sort_keys=True))
                for r in side_b}
    if inputs_a != inputs_b:
        raise BenchError("the two sides did not measure the same inputs")
    metrics = spec["end_to_end"] + [{"name": "error_rate", "unit": "fraction",
                                     "better": "lower", "bound": 0.0}]
    counts = {}
    print(f"{'workload':<11} {'seed':>4} {'metric':<13} {'A q1/med/q3':<30} "
          f"{'B q1/med/q3':<30} {'B vs A':>8} {'spread':>7} {'bound':>6}  verdict")
    groups_b = groups(spec, side_b)
    for (w, seed), ra in groups(spec, side_a).items():
        rb = groups_b[(w, seed)]
        for m in metrics:
            get = (lambda r: r["error_rate"]) if m["name"] == "error_rate" \
                else (lambda r, n=m["name"]: r["metrics"][n])
            va, vb = [get(r) for r in ra], [get(r) for r in rb]
            if m["name"] == "error_rate":
                v = "worse" if sum(vb) > sum(va) else "unchanged"
                worse_by, spread = sum(vb) - sum(va), 0.0
            else:
                v, worse_by, spread = verdict(va, vb, m["better"], m["bound"])
            counts[v] = counts.get(v, 0) + 1
            qa = "/".join(f"{x:.4g}" for x in quartiles(va))
            qb = "/".join(f"{x:.4g}" for x in quartiles(vb))
            print(f"{w:<11} {seed:>4} {m['name']:<13} {qa:<30} {qb:<30} "
                  f"{100 * worse_by:>+7.2f}% {100 * spread:>6.2f}% "
                  f"{100 * m['bound']:>5.1f}%  {v}")
    print("summary: " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0


def load_layers(path):
    p = Path(path)
    files = sorted(p.glob("*.layers.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        layers = json.loads(f.read_text())
        out[layers["workload"]] = layers
    if not out:
        raise BenchError(f"no layer files in {path}")
    return out


def ledger_mode(a):
    side_a, side_b = load_layers(a.a), load_layers(a.b)
    changed_exact = 0
    for w in sorted(set(side_a) & set(side_b)):
        la, lb = side_a[w], side_b[w]
        print(f"{w}  (A {'valid' if la['valid'] else 'INVALID'}, "
              f"B {'valid' if lb['valid'] else 'INVALID'})")
        for name in sorted(set(la["metrics"]) & set(lb["metrics"])):
            ma, mb = la["metrics"][name], lb["metrics"][name]
            x, y = ma["value"], mb["value"]
            rel = (y - x) / abs(x) if x else 0.0
            flag = ""
            if ma["exact"] and x != y:
                flag = "  EXACT COUNT CHANGED"
                changed_exact += 1
            print(f"  {name:<24} {x:<14.6g} {y:<14.6g} {100 * rel:>+8.2f}% "
                  f"{ma['unit']}{flag}")
        deltas = sorted(((lb["self_s"].get(n, 0.0) - la["self_s"].get(n, 0.0), n)
                         for n in set(la["self_s"]) | set(lb["self_s"])),
                        key=lambda t: -abs(t[0]))
        print("  self time by span (B - A):")
        for d, n in deltas[:6]:
            print(f"    {n:<20} {1e3 * d:>+10.3f} ms")
        if deltas:
            d, n = deltas[0]
            print(f"  layer that moved most: {n.split('.')[0]} ({n}, "
                  f"{1e3 * d:+.3f} ms self time per traced operation)")
    return 1 if changed_exact else 0


def main(argv):
    commands = {"run", "trace", "compare", "ledger"}
    try:
        if not argv or argv[0] not in commands:
            return single_run(argv)
        p = argparse.ArgumentParser(description=__doc__,
                                    formatter_class=argparse.RawDescriptionHelpFormatter)
        sub = p.add_subparsers(dest="command", required=True)
        r = sub.add_parser("run", help="measure the end-to-end metrics")
        r.add_argument("--seed", default="1", help="seed or comma-separated seeds")
        r.add_argument("--sets", type=int, default=1, help="back-to-back sets")
        r.add_argument("--workloads", default="", help="comma-separated subset")
        r.add_argument("--label", default="", help="results directory name")
        r.add_argument("--smoke", action="store_true",
                       help="toy inputs, 2 reps, then a trace of each workload")
        t = sub.add_parser("trace", help="per-layer metrics, one process per workload")
        t.add_argument("--seed", type=int, default=1)
        t.add_argument("--workloads", default="")
        t.add_argument("--label", default="")
        t.add_argument("--smoke", action="store_true")
        for name in ("compare", "ledger"):
            c = sub.add_parser(name)
            c.add_argument("a")
            c.add_argument("b")
        a = p.parse_args(argv)
        if a.command == "run":
            return run_mode(a)
        if a.command == "trace":
            return trace_mode(a)
        if a.command == "compare":
            return compare_mode(a)
        return ledger_mode(a)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2
    except subprocess.TimeoutExpired as e:
        log(f"run.py: glouvain_e2e timed out: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
