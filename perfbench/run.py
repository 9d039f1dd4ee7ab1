#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload adjust-10k --seed 1 --seconds 20 --trace 0

Builds perfbench (a Go module of its own that links the library through
a replace directive) into .bench_build/, with the Go build cache and every
other file the toolchain writes kept under .bench_build/ too, then runs it
with the given arguments. The benchmark's own output passes through; its
last line is the JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    return env


def main():
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--spans-dir", os.path.join(BUILD, "spans")]
    run = subprocess.run([BINARY] + args, cwd=ROOT, env=env, timeout=170)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
