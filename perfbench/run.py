#!/usr/bin/env python3
"""Build the benchmark harness and evalserve from source, then run one
benchmark invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig-cold --seed 1 --seconds 12 --trace 0

All arguments pass through to the harness (see main.go). Build outputs,
the Go build cache and every store a run writes live under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root. Nothing is read or written outside the repository.
The exit status is the harness's; a failed build exits 2 before any
result is printed.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    bench = Path(__file__).resolve().parent
    root = bench.parent
    build = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ)
    # Keep the Go toolchain's caches, temp files and config inside the
    # build directory, and keep it offline.
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        path = build / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="-mod=mod", GOTELEMETRY="off", GOWORK="off")
    bindir = build / "bin"
    harness, evalserve = bindir / "perfbench", bindir / "evalserve"
    builds = ((bench, ["go", "build", "-o", str(harness), "."]),
              (root, ["go", "build", "-o", str(evalserve), "./cmd/evalserve"]))
    for cwd, cmd in builds:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: build failed: {err}", file=sys.stderr)
            return 2
        if proc.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    cmd = [str(harness), "-root", str(root), "-work", str(build / "work"),
           "-evalserve", str(evalserve)] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        # The harness and its servers share a session; stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
