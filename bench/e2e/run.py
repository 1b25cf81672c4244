#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (bench/e2e) and reports it.

Every command builds bench/e2e in Release first (an incremental no-op
once built) and runs each workload as one pasta_e2e process with
OMP_NUM_THREADS from workloads.json and no PASTA_* variables inherited.

  run.py bench --workload W --seed N --seconds S --trace 0|1
        One run in the BENCHMARK.json contract: the last stdout line is
        {"correct", "attempted", "failed", "metrics"}, with the end-to-end
        metrics (--trace 0) or the per-layer metrics (--trace 1).
  run.py run [--workload W] [--seed N] [--runs K] [--seconds S]
        K runs per workload on one seed; prints "workload metric value
        unit" lines (medians) and writes out/results.json.
  run.py trace W [--seed N]
        One traced run: every per-layer metric, self seconds per layer,
        and the Chrome trace copied to out/W.trace.json.
  run.py repeat K [--workload W] [--seed N] [--same-seed]
        K runs per workload on seeds N..N+K-1; reports each end-to-end
        metric's median and quartiles and fails when a spread
        (q3 - q1) / median exceeds its bound (setup_s is reported only).
  run.py compare PARENT CHANGE [--workload W] [--pairs P] [--claim M@W]
        Alternating runs of two checkouts and the verdict rules: a claim
        needs wins in 9 of 10 pairs and medians further apart than the
        parent's quartile spread; no other metric may worsen by more than
        its bound.
  run.py baseline [--seed N]
        Two sets of 10 runs per workload plus one traced run each,
        written to baseline/seed<N>.json with a host header.
  run.py --smoke
        Every workload at tiny sizes, untraced and traced, checking the
        contract output; about 20 s.
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
BUILD = HERE / "build"
OUT = HERE / "out"
DRIVER = BUILD / "pasta_e2e"
DRIVER_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


BENCH = load_json(ROOT / "BENCHMARK.json")
CONFIG = load_json(HERE / "workloads.json")
E2E = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCH["per_layer"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Headline numbers `run` prints for the one workload each exists on
# (per-layer metrics in BENCHMARK.json, which only allows end-to-end
# metrics every workload has).
HEADLINE = {
    "suite_fig4": {f"gflops_{k}": (f"kernels.gflops.{k}", "GFLOP/s")
                   for k in ("tew", "ts", "ttv", "ttm", "mttkrp")},
    "serve_zipf": {"jobs_per_s": ("serve.jobs_per_s", "1/s"),
                   "p50_ms": ("serve.latency_ms.p50", "ms"),
                   "p99_ms": ("serve.latency_ms.p99", "ms")},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """Environment of every child: no PASTA_* knobs, the benchmark's
    thread count, and temporary files kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PASTA_")}
    env["OMP_NUM_THREADS"] = str(CONFIG["threads"])
    env["TMPDIR"] = str(OUT / "tmp")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return env


def build():
    """Configures (once) and builds pasta_e2e in Release; exits 2 on failure."""
    env = child_env()
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(OUT / "build.log", "w") as log_file:
        for step in steps:
            if subprocess.run(step, stdout=log_file, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log(f"build failed: {' '.join(step)} (see {OUT / 'build.log'})")
                sys.exit(2)


def params_for(workload, smoke):
    spec = CONFIG["workloads"][workload]
    params = dict(CONFIG["defaults"])
    params.update(spec["params"])
    if smoke:
        params.update({k: v for k, v in CONFIG["smoke"].items() if k != "seconds"})
        params.update(spec["smoke"])
    return params


def run_driver(workload, seed, seconds, trace, smoke=False):
    """One pasta_e2e process; returns its JSON result, or None if it died."""
    scratch = OUT / "scratch" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--dir", str(scratch)]
    for key, value in params_for(workload, smoke).items():
        cmd += ["--set", f"{key}={value}"]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result is None:
            log(f"{workload}: driver exited {proc.returncode} without a result\n"
                + proc.stderr[-2000:])
        elif trace and (scratch / f"{workload}.trace.json").exists():
            shutil.copy(scratch / f"{workload}.trace.json",
                        OUT / f"{workload}.trace.json")
        return result
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        log(f"{workload}: {exc}")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def contract_result(result, trace):
    """The BENCHMARK.json result object; a per-layer metric a workload
    has no layer for (e.g. serve.* on suite_fig4) reads 0."""
    wanted = PER_LAYER if trace else E2E
    source = result["layers"] if trace else result["e2e"]
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": source.get(name, 0.0), "unit": m["unit"]}
                    for name, m in wanted.items()},
    }


def unit_of(name):
    """Unit of a per-layer metric, from BENCHMARK.json or its name."""
    if name in PER_LAYER:
        return PER_LAYER[name]["unit"]
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MiB")):
        if f"{suffix}." in name or f"{suffix}_" in name or name.endswith(suffix):
            return unit
    return ""


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_bench(args):
    build()
    result = run_driver(args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        sys.exit(1)
    print(json.dumps(contract_result(result, args.trace == 1)))


def cmd_run(args):
    build()
    report = {"seed": args.seed, "runs": {}}
    ok = True
    for w in args.workload or WORKLOADS:
        runs = [run_driver(w, args.seed, args.seconds, False) for _ in range(args.runs)]
        if any(r is None for r in runs):
            sys.exit(1)
        report["runs"][w] = runs
        report["host"] = runs[0]["host"]
        for r in runs:
            if not r["correct"]:
                ok = False
                log(f"{w}: FAILED checks: {r['errors']}")
        for name, m in E2E.items():
            value = statistics.median(r["e2e"][name] for r in runs)
            print(f"{w} {name} {value:.6g} {m['unit']}")
        for name, (layer, unit) in HEADLINE.get(w, {}).items():
            value = statistics.median(r["layers"][layer] for r in runs)
            print(f"{w} {name} {value:.6g} {unit}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{w} error_rate {failed / attempted:.6g} fraction")
    (OUT / "results.json").write_text(json.dumps(report, indent=1))
    log(f"wrote {OUT / 'results.json'}")
    sys.exit(0 if ok else 1)


def cmd_trace(args):
    build()
    result = run_driver(args.workload, args.seed, args.seconds, True)
    if result is None:
        sys.exit(1)
    (OUT / f"trace-{args.workload}.json").write_text(json.dumps(result, indent=1))
    layers = result["layers"]
    for name in sorted(set(layers) | set(PER_LAYER)):
        print(f"{args.workload} {name} {layers.get(name, 0.0):.6g} {unit_of(name)}")
    for name, value in sorted(result["detail"].items()):
        print(f"{args.workload} detail.{name} {value:.6g}")
    log(f"wrote {OUT / f'trace-{args.workload}.json'} and "
        f"{OUT / f'{args.workload}.trace.json'}")
    sys.exit(0 if result["correct"] else 1)


def cmd_repeat(args):
    build()
    bad = False
    for w in args.workload or WORKLOADS:
        seeds = [args.seed] * args.k if args.same_seed else range(args.seed, args.seed + args.k)
        runs = [run_driver(w, s, args.seconds, False) for s in seeds]
        if any(r is None or not r["correct"] for r in runs):
            log(f"{w}: a run failed or was incorrect")
            bad = True
            continue
        for name in E2E:
            values = [r["e2e"][name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            s, b = spread(values), E2E[name]["bound"]
            verdict = "ok" if s <= b / 3 else "WIDE" if s <= b else "FAIL"
            if verdict == "FAIL" and name != "setup_s":
                bad = True
            print(f"{w} {name} median={statistics.median(values):.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={100 * s:.2f}% bound={100 * b:.1f}% {verdict}")
    sys.exit(1 if bad else 0)


def compare_verdict(workload, a_runs, b_runs, claim):
    """Verdict lines for one workload; returns (lines, passed)."""
    lines, passed = [], True
    if sum(r["failed"] for r in b_runs) > sum(r["failed"] for r in a_runs):
        lines.append(f"{workload}: CHANGE fails more operations than PARENT")
        passed = False
    for name, m in E2E.items():
        a = [r["metrics"][name]["value"] for r in a_runs]
        b = [r["metrics"][name]["value"] for r in b_runs]
        sign = 1 if m["better"] == "higher" else -1
        a_med, b_med = statistics.median(a), statistics.median(b)
        gain = sign * (b_med - a_med) / a_med
        q1, _, q3 = statistics.quantiles(a, n=4)
        lim = m["bound"]
        if claim == (name, workload):
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            ok = wins >= 0.9 * len(a) and gain > 0 and abs(b_med - a_med) > q3 - q1
            verdict = f"claim {'MET' if ok else 'NOT MET'} ({wins}/{len(a)} wins)"
            passed = passed and ok
        elif (q3 - q1) / a_med > lim and not all(sign * (y - x) > 0 for x in a for y in b):
            verdict = "unresolved (parent spread wider than the bound)"
        elif gain < -lim:
            verdict = f"REGRESSION (bound {100 * lim:.1f}%)"
            passed = False
        else:
            verdict = "within bound"
        lines.append(f"{workload} {name} parent={a_med:.6g} change={b_med:.6g} "
                     f"{100 * gain:+.2f}% {verdict}")
    return lines, passed


def cmd_compare(args):
    claim = tuple(args.claim.split("@")) if args.claim else None
    checkouts = [Path(args.parent).resolve(), Path(args.change).resolve()]
    passed = True
    for w in args.workload or WORKLOADS:
        runs = ([], [])
        for i in range(args.pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                proc = subprocess.run(
                    [sys.executable, "bench/e2e/run.py", "bench", "--workload", w,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", "0"], cwd=checkouts[side], stdout=subprocess.PIPE,
                    text=True)
                if proc.returncode:
                    log(f"{w}: run in {checkouts[side]} failed")
                    sys.exit(1)
                runs[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        lines, ok = compare_verdict(w, runs[0], runs[1], claim)
        print("\n".join(lines), flush=True)
        passed = passed and ok
    sys.exit(0 if passed else 1)


def cmd_baseline(args):
    build()
    sets = []
    for _ in range(2):
        sets.append({w: [run_driver(w, args.seed, args.seconds, False)
                         for _ in range(args.runs)] for w in WORKLOADS})
    traced = {w: run_driver(w, args.seed, args.seconds, True) for w in WORKLOADS}
    results = [r for s in sets for runs in s.values() for r in runs] + list(traced.values())
    if any(r is None or not r["correct"] for r in results):
        log("a baseline run failed or was incorrect")
        sys.exit(1)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    header = dict(traced[WORKLOADS[0]]["host"])
    header.update({"commit": commit.stdout.strip() or "unknown", "seed": args.seed,
                   "seconds": args.seconds, "runs_per_set": args.runs,
                   "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z")})
    summary = {}
    for w in WORKLOADS:
        for name, m in E2E.items():
            medians = [statistics.median(r["e2e"][name] for r in s[w]) for s in sets]
            drift = (medians[1] - medians[0]) / medians[0]
            summary[f"{w}.{name}"] = {"set1_median": medians[0], "set2_median": medians[1],
                                      "drift": drift, "bound": m["bound"]}
    path = HERE / "baseline" / f"seed{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"header": header, "summary": summary,
                                "set1": {w: [r["e2e"] for r in s] for w, s in sets[0].items()},
                                "set2": {w: [r["e2e"] for r in s] for w, s in sets[1].items()},
                                "traced": {w: {"layers": r["layers"], "detail": r["detail"]}
                                           for w, r in traced.items()}}, indent=1))
    for key, s in summary.items():
        flag = "ok" if abs(s["drift"]) <= s["bound"] else "DRIFT"
        print(f"{key} {s['set1_median']:.6g} -> {s['set2_median']:.6g} "
              f"{100 * s['drift']:+.2f}% (bound {100 * s['bound']:.1f}%) {flag}")
    log(f"wrote {path}")


def cmd_smoke():
    start = time.time()
    build()
    seconds = CONFIG["smoke"]["seconds"]
    seen, bad = set(), False
    for w in WORKLOADS:
        for trace in (False, True):
            result = run_driver(w, 1, seconds, trace, smoke=True)
            if result is None or not result["correct"]:
                log(f"{w} (trace={trace}): {result and result['errors']}")
                bad = True
                continue
            out = contract_result(result, trace)
            values = [m["value"] for m in out["metrics"].values()]
            if out["attempted"] < 1 or not all(isinstance(v, (int, float)) for v in values):
                log(f"{w} (trace={trace}): malformed result {out}")
                bad = True
            if trace:
                seen |= set(result["layers"]) & set(PER_LAYER)
                if result["layers"].get("obs.spans_dropped", 0):
                    log(f"{w}: spans dropped")
                    bad = True
            print(f"{w} trace={int(trace)} ok: {out['attempted']} checked")
    missing = set(PER_LAYER) - seen
    if missing:
        log(f"per-layer metrics no workload reports: {sorted(missing)}")
        bad = True
    print(f"smoke {'FAILED' if bad else 'passed'} in {time.time() - start:.1f} s")
    sys.exit(1 if bad else 0)


def main():
    if sys.argv[1:] == ["--smoke"]:
        cmd_smoke()
    default_seconds = BENCH["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("bench")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p = sub.add_parser("trace")
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=default_seconds)
    p = sub.add_parser("repeat")
    p.add_argument("k", type=int)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true")
    p.add_argument("--seconds", type=float, default=default_seconds)
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=2)
    p.add_argument("--claim", help="METRIC@WORKLOAD the change claims to improve")
    p.add_argument("--seconds", type=float, default=default_seconds)
    p = sub.add_parser("baseline")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=default_seconds)
    args = parser.parse_args()
    {"bench": cmd_bench, "run": cmd_run, "trace": cmd_trace, "repeat": cmd_repeat,
     "compare": cmd_compare, "baseline": cmd_baseline}[args.cmd](args)


if __name__ == "__main__":
    main()
