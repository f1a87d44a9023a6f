#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

Run from the root of the repository checkout:

    python3 perfbench/run.py --workload lookup-zipf --seed 1 --seconds 10 --trace 0

Every build output, the Go build cache and the span files stay under
.bench_build/ in the checkout. The exit code is the benchmark's; a missing
repository or a failed build exits 2 without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "clam"))):
        print("perfbench: run from the root of the repository checkout "
              "(go.mod and clam/ not found)", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"),
                     ("XDG_CACHE_HOME", "home/.cache")):
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off",
               CGO_ENABLED="0", GOTELEMETRY="off")
    binary = os.path.join(out, "bin", "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here,
                               env=env, stdout=sys.stderr)
    except OSError as err:
        print(f"perfbench: cannot run the go toolchain: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
