#!/usr/bin/env python3
"""Builds and runs the SEPO benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare OLD.txt NEW.txt
  python3 perfbench/run.py selftest

The first form builds perfbench/ (and the repository's src/ it links) into
.bench_build/ at the repository root, then runs one measurement. Its last
stdout line is the JSON result. `compare` reads captured outputs of one or
more runs each and refuses to compare results from different hosts.
`selftest` runs every workload at toy size and checks that every metric in
BENCHMARK.json prints with its unit.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sepo_perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Processes per --trace 0 run (see run_pooled).
PROCESSES = 6


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no source tree at {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "sepo_perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_bench(args, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the built benchmark; returns (exit code, stdout or None)."""
    try:
        r = subprocess.run([BINARY, *args], timeout=timeout,
                           stdout=subprocess.PIPE if capture else None,
                           text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    return r.returncode, r.stdout


def flag(argv, name):
    try:
        return argv[argv.index(name) + 1]
    except (ValueError, IndexError):
        fail(f"{name} is required")


def quantile_note(samples):
    """Sample count and the highest percentile with ten samples beyond it."""
    note = f"median of n={len(samples)}"
    for p in (99, 95, 90, 75):
        if len(samples) * (1 - p / 100) >= 10:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            note += f", p{p}={cuts[p - 1]:.9g}"
            break
    return f"  ({note})"


def run_pooled(argv):
    """--trace 0: PROCESSES processes of seconds/PROCESSES each, samples
    pooled. Host times depend on the address-space layout a process gets
    (a process keeps its layout for all its rounds), so one process alone
    cannot give a steady median."""
    seconds = float(flag(argv, "--seconds"))
    part = list(argv)
    part[part.index("--seconds") + 1] = repr(seconds / PROCESSES)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    header, pooled, procs, steal = None, {}, [], []
    for i in range(PROCESSES):
        code, out = run_bench(part, capture=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = out.splitlines()
        for line in lines:
            print(f"  | {line}")
        if code != 0 or not lines or not lines[-1].startswith("{"):
            fail(f"process {i + 1} of {PROCESSES} failed (exit {code})", 1)
        result = json.loads(lines[-1])
        samples = next(json.loads(l[len("samples "):]) for l in lines
                       if l.startswith("samples "))
        head = [l for l in lines if l.startswith(("fingerprint ",
                                                  "workload "))]
        if header is None:
            header = head
        elif head != header:
            print("check: processes disagree on host or input:", head)
            result["correct"] = False
        for k, v in samples.items():
            pooled.setdefault(k, []).extend(v)
        steal += [float(l.split()[1]) for l in lines
                  if l.startswith("host_steal_pct ")]
        procs.append(result)

    def metric(name):
        return [p["metrics"][name]["value"] for p in procs]

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    sim = statistics.median(pooled["sim_seconds"])
    ref_sim = statistics.median(pooled["ref_sim_seconds"])
    rows = [
        ("sepo_host_s", statistics.median(pooled["sepo_host_s"]), "s",
         pooled["sepo_host_s"]),
        ("baseline_host_s", statistics.median(pooled["baseline_host_s"]),
         "s", pooled["baseline_host_s"]),
        ("sim_seconds", sim, "sim_s", pooled["sim_seconds"]),
        ("sim_speedup", ref_sim / sim if sim else 0.0, "x", None),
        ("peak_rss_mb", statistics.median(metric("peak_rss_mb")), "MB", None),
        ("setup_s", statistics.median(metric("setup_s")), "s",
         metric("setup_s")),
        ("ok_frac", 1.0 - failed / attempted if attempted else 0.0, "ratio",
         None),
    ]
    for line in header:
        print(line)
    print(f"pooled {PROCESSES} processes; failed_frac "
          f"{failed / attempted if attempted else 0.0:.6f} "
          f"({failed} of {attempted} runs); host steal % per process "
          f"{[round(x, 2) for x in steal]}")
    # Unscaled figures move with the host's load; shown, not metrics.
    med = {k: statistics.median(v) for k, v in pooled.items()}
    print(f"unscaled medians: sepo {med['sepo_cpu_s']:.6f} s CPU, "
          f"{med['sepo_wall_s']:.6f} s wall; baseline "
          f"{med['baseline_cpu_s']:.6f} s CPU, {med['baseline_wall_s']:.6f} s "
          f"wall; set-up {med['setup_cpu_s']:.6f} s CPU, "
          f"{med['setup_wall_s']:.6f} s wall; probe {med['probe_s']:.6f} s")
    for name, value, unit, samples in rows:
        note = quantile_note(samples) if samples else ""
        print(f"metric {name:36} {value:.9g} {unit}{note}")
    print(json.dumps({
        "correct": all(p["correct"] for p in procs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows},
    }))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_output(text):
    """Fingerprints, workload names and result objects in captured output."""
    prints, workloads, results = set(), set(), []
    for line in text.splitlines():
        if line.startswith("fingerprint "):
            prints.add(line[len("fingerprint "):].strip())
        elif line.startswith("workload "):
            workloads.add(line.split()[1].rstrip(":"))
        elif line.startswith("{") and '"metrics"' in line:
            results.append(json.loads(line))
    return prints, workloads, results


def compare(old_path, new_path):
    """Median of every metric, old vs new; exit 2 if the runs are not
    comparable (fingerprint or workload differs), 3 if an end-to-end metric
    got worse by more than its bound in BENCHMARK.json."""
    sides = []
    for path in (old_path, new_path):
        with open(path) as f:
            sides.append(parse_output(f.read()))
    (p_old, w_old, r_old), (p_new, w_new, r_new) = sides
    if not r_old or not r_new:
        fail("no results to compare")
    if len(p_old) != 1 or p_old != p_new:
        print("fingerprints differ; refusing to compare:", file=sys.stderr)
        for p in sorted(p_old | p_new):
            print(f"  {p}", file=sys.stderr)
        sys.exit(2)
    if len(w_old) != 1 or w_old != w_new:
        fail(f"workloads differ: {sorted(w_old)} vs {sorted(w_new)}")
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    regressed = False
    print(f"{'metric':36} {'old':>14} {'new':>14} {'change':>9}  bound")
    for name in r_old[0]["metrics"]:
        old = statistics.median(r["metrics"][name]["value"] for r in r_old)
        new = statistics.median(r["metrics"][name]["value"] for r in r_new
                                if name in r["metrics"])
        change = (new - old) / old if old else 0.0
        note = ""
        if name in bounds:
            m = bounds[name]
            worse = change if m["better"] == "lower" else -change
            note = f"{m['bound']:.2f}"
            if worse > m["bound"]:
                note += "  REGRESSED"
                regressed = True
        print(f"{name:36} {old:14.6g} {new:14.6g} {change:+9.2%}  {note}")
    sys.exit(3 if regressed else 0)


def selftest():
    """Toy-size run of every workload, both modes: every BENCHMARK.json
    metric must print with its unit, as a `metric` line and in the JSON."""
    build()
    spec = load_spec()
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            # Through this script's own entry point, as a user runs it.
            r = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", "1", "--seconds", "1", "--trace",
                 str(trace), "--scale", "0.03"],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            code, out = r.returncode, r.stdout
            where = f"{w['name']} --trace {trace}"
            lines = [l for l in out.strip().splitlines()
                     if not l.startswith("  | ")]
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{where}: correct is not true")
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) >= 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{where}: JSON metrics or units differ "
                                f"from BENCHMARK.json: {diff}")
            if printed != want:
                problems.append(f"{where}: printed metrics differ from "
                                f"BENCHMARK.json")
    for p in problems:
        print(f"selftest: {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            fail("usage: run.py compare OLD NEW")
        compare(argv[1], argv[2])
    if argv[:1] == ["selftest"]:
        selftest()
    build()
    if flag(argv, "--trace") == "0":
        run_pooled(argv)
        sys.exit(0)
    code, _ = run_bench(argv)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
