#!/usr/bin/env python3
"""PMW-CM benchmark: build the program, run one workload, print the result.

    python3 perfbench/run.py --workload update_mix_2p20 --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds
perfbench/ (which pulls in the repository's CMake project) under
$CARGO_TARGET_DIR, or .bench_build when that is unset. Each run prints a
stamp line (hardware, SIMD dispatch, build, source) and, as its last line,
one json object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
metric names and units are the ones BENCHMARK.json declares; see
perfbench/README.md for what each one measures. When the outputs fail
the correctness gate the line says "correct": false and the command
exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "pmw_perfbench"

# The published workload shapes. update_mix_2p20 serves a fixed
# transcript of `requests` requests whatever --seconds says (the same seed
# always serves the same requests); read_zipf_socket measures for
# --seconds.
WORKLOADS = {
    "update_mix_2p20": {"dim": 19, "records": 2000, "catalog": 78,
                        "alpha": 0.1, "solver_iters": 4, "setups": 5,
                        "requests": 156},
    "read_zipf_socket": {"dim": 6, "records": 200000, "catalog": 96,
                         "alpha": 0.2, "setups": 21},
}

# Tiny shapes for --self-check: same code paths, seconds of work.
SELF_CHECK = {
    "update_mix_2p20": {"dim": 6, "records": 5000, "catalog": 32,
                        "alpha": 0.1, "solver_iters": 8, "setups": 2,
                        "requests": 48},
    "read_zipf_socket": {"dim": 4, "records": 200000, "catalog": 16,
                         "alpha": 0.2, "setups": 2},
}

# Per-layer metrics read from the registry scrape (the front door's
# kMetricsRequest frame): name -> (section, instrument, field).
SCRAPED = {
    "frontend.batch_fill_p50": ("histograms", "pmw_frontend_batch_fill", "p50"),
    "serve.epochs": ("counters", "pmw_serve_epochs_total", None),
    "serve.reprepared": ("counters", "pmw_serve_reprepared_total", None),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "pmw")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return None
    make = ["cmake", "--build", out, "--target", BINARY, "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        return None
    path = os.path.join(out, BINARY)
    return path if os.path.exists(path) else None


def source_stamp():
    """Git commit when the tree is a checkout, plus a digest of the
    sources the program is built from (the checkout may not be a git
    repository)."""
    commit = "unknown"
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = result.stdout.split()
        # Only this tree's own repository counts, not one enclosing it.
        if result.returncode == 0 and len(lines) == 2 and \
                os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if "__pycache__" in name or name.endswith(".md"):
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(binary, workload, seed, seconds, trace, shape):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--dim", str(shape["dim"]), "--records", str(shape["records"]),
            "--catalog", str(shape["catalog"]), "--alpha", str(shape["alpha"]),
            "--setups", str(shape["setups"]),
            "--run-dir", os.path.dirname(build_dir())]
    for key in ("solver_iters", "requests"):
        if key in shape:
            args += ["--" + key.replace("_", "-"), str(shape[key])]
    try:
        result = subprocess.run(args, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within 170 s" % BINARY)
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log("run.py: %s exited %d" % (BINARY, result.returncode))
        return None
    return json.loads(lines[-1])


def result_line(raw, trace):
    """The benchmark's result object from the program's raw line."""
    values = dict(raw["metrics"])
    scrape = raw.get("scrape") or {}
    for name, (section, instrument, field) in SCRAPED.items():
        entry = scrape.get(section, {}).get(instrument)
        if entry is not None:
            values[name] = entry[field] if field else entry
    problems = list(raw.get("gate_failures", []))
    metrics = {}
    for metric in declared_metrics(trace):
        value = values.get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s missing" % metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = bool(raw.get("correct")) and raw.get("failed", 1) == 0 \
        and not problems
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}, problems


def execute(binary, workload, seed, seconds, trace, shape):
    """One run: the program and its gate. Returns the result object, the
    problems found, and the program's raw line."""
    raw = run_workload(binary, workload, seed, seconds, trace, shape)
    if raw is None:
        return None, ["the program failed"], None
    line, problems = result_line(raw, trace)
    return line, problems, raw


def stamp_line(raw, workload, seconds, trace, commit, source_digest):
    stamp = dict(raw.get("stamp", {}))
    stamp.update({"workload": workload, "seconds": seconds,
                  "trace": int(trace), "cpu": cpu_model(),
                  "git_commit": commit, "source_digest": source_digest,
                  "hard_rounds": raw.get("hard_rounds"),
                  "transcript_digest": raw.get("transcript_digest")})
    return "stamp " + json.dumps(stamp, sort_keys=True)


def self_check(binary):
    """Tiny shapes through every workload and trace mode: every declared
    metric printed with its unit, and the gate passing."""
    ok = True
    for workload, shape in SELF_CHECK.items():
        for trace in (False, True):
            line, problems, _ = execute(binary, workload, 7, 1, trace, shape)
            passed = line is not None and line["correct"] and all(
                m["unit"] for m in line["metrics"].values())
            ok = ok and passed
            print("%s %s trace=%d: %s%s" % (
                "PASS" if passed else "FAIL", workload, trace,
                "%d metrics, attempted %d, failed %d" % (
                    len(line["metrics"]), line["attempted"], line["failed"])
                if line else "no result",
                "" if passed else " -- " + "; ".join(problems)))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    options = parser.parse_args()
    if not options.self_check and options.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    binary = build()
    if binary is None:
        log("run.py: the benchmark program did not build")
        return 2
    if options.self_check:
        return 0 if self_check(binary) else 1

    trace = options.trace == 1
    line, problems, raw = execute(
        binary, options.workload, options.seed, options.seconds, trace,
        WORKLOADS[options.workload])
    for problem in problems:
        log("run.py: " + problem)
    if line is None:
        return 1
    commit, source_digest = source_stamp()
    print(stamp_line(raw, options.workload, options.seconds, trace, commit,
                     source_digest))
    print(json.dumps(line))
    # Wrong outputs fail the command, after the result that says why.
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
