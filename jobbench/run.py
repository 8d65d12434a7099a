#!/usr/bin/env python3
"""Build the job benchmark from source and run one workload.

Usage, from the repository root:

    python3 jobbench/run.py --workload octarine-full --seed 1 --seconds 20 --trace 0

The Go build cache, the binary, journals and span files all go under
.bench_build/ in the repository root. The last line of standard output is
the result as one JSON object; anything that stops the run from producing
it (a failed build, a failed run, a timeout) exits non-zero without it.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "jobbench")

# A run must end within 180 seconds; leave room to report.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    # The benchmark measures the runtime's defaults.
    env.pop("GOGC", None)
    env.pop("GOMAXPROCS", None)
    env.pop("GOMEMLIMIT", None)
    env.update(
        # The go command keeps its telemetry counters and env file under
        # the user config directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    args = [BINARY, *sys.argv[1:], "--workdir", os.path.join(BUILD, "work")]
    try:
        run = subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        print("run.py: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
