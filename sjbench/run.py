#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 sjbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the engine and the driver (Release) into .bench_build/; later calls
rebuild incrementally. The driver's output passes through unchanged: its
last line is the JSON result. Traced runs also write their spans to
.bench_build/traces/. Extra driver flags (e.g. --series for the self-test)
are passed through.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "sjbench_driver")


def fail(msg):
    print("sjbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the engine's sources (src/ and the build files)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "sjbench"):
        for d, _, names in sorted(os.walk(os.path.join(ROOT, top))):
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no engine sources next to sjbench/ (run from a full checkout)")
    log_path = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    # Keep compiler caches inside the checkout, never in $HOME.
    env = dict(os.environ, CCACHE_DIR=os.path.join(BUILD, "ccache"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "sjbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "sjbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log, env=env).returncode:
                fail("build failed, see " + log_path)


def main():
    args = sys.argv[1:]
    if "--workload" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    build()
    extra = ["--source", source_id()]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "{}-seed{}.json".format(
            args[args.index("--workload") + 1],
            args[args.index("--seed") + 1] if "--seed" in args else "0")
        extra += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([DRIVER] + args + extra, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
