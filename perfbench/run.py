#!/usr/bin/env python3
"""Build and run the AutoQ benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify|hunt|serve --seed N \
        --seconds S --trace 0|1

Builds the benchmark binary and the `autoq-daemon` binary in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the workload.
The last line of standard output is the JSON result; see
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, names in os.walk(path)
            if "/out" not in d[len(root):] and "/target" not in d[len(root):]
            for f in names
        )
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:16]


def commit_id(root):
    try:
        result = subprocess.run(
            ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return source_digest(root)


def rustc_version():
    try:
        result = subprocess.run(["rustc", "--version"], capture_output=True,
                                text=True, timeout=30)
        return result.stdout.strip().replace('"', "'") or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def complete(result, trace, root):
    """Checks the result's metrics against BENCHMARK.json. A traced run
    reports the layers its workload reaches; every other per-layer metric
    is filled in as 0, because each traced result carries all of them."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        listed = json.load(handle)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        fail(f"metrics not in BENCHMARK.json: {', '.join(unknown)}")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                fail(f"end-to-end metric {name} is missing")
            metrics[name] = {"value": 0.0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name} is in {metrics[name]['unit']}, not {unit}")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["verify", "hunt", "serve"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    for needed in (manifest, os.path.join(root, "BENCHMARK.json"),
                   os.path.join(root, "crates", "core", "Cargo.toml"),
                   os.path.join(root, "crates", "daemon", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{needed} is missing: run from the root of the repository")

    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", manifest,
             "-p", "autoq-perfbench", "-p", "autoq-daemon"]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    out_dir = os.path.join(root, "perfbench", "out")
    command = [
        os.path.join(target, "release", "autoq-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(target, "release", "autoq-daemon"),
        "--out", out_dir,
        "--rustc", rustc_version(),
        "--commit", commit_id(root),
    ]
    # Its own process group, so a timeout also stops the daemon it spawned.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("the run timed out")
    if child.returncode != 0:
        fail(f"the benchmark exited with code {child.returncode}")
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the benchmark printed no result line")
    lines[-1] = json.dumps(complete(result, args.trace, root))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
