#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The Go build and module caches, the
build's scratch space and the binary live under .bench_build/, and the
traced run's spans under .bench_out/, both inside the checkout. The build needs the repository's
own module one directory up, so outside a checkout it fails and the
script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

here = os.path.dirname(os.path.abspath(__file__))
root = os.path.dirname(here)
build = os.path.join(root, ".bench_build")
binary = os.path.join(build, "perfbench")

env = dict(os.environ)
env.update(
    GOCACHE=os.path.join(build, "gocache"),
    GOPATH=os.path.join(build, "gopath"),
    GOMODCACHE=os.path.join(build, "gopath", "mod"),
    XDG_CONFIG_HOME=os.path.join(build, "config"),
    GOTMPDIR=os.path.join(build, "tmp"),
    GOTOOLCHAIN="local",
    GOPROXY="off",
    GOFLAGS="",
)
os.makedirs(env["GOTMPDIR"], exist_ok=True)
built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
if built.returncode != 0:
    print("perfbench: build failed", file=sys.stderr)
    sys.exit(2)
os.chdir(root)
os.execv(binary, [binary] + sys.argv[1:])
