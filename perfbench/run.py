#!/usr/bin/env python3
"""Build and run the end-to-end mail-server benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload univ --seed 1 --seconds 20 --trace 0

The Go program in this directory is built against the repository's
packages (its go.mod replaces module "repro" with the parent directory)
into the build directory: $CARGO_TARGET_DIR when set, else .bench_build.
The Go build cache, temporary files and the stores under test live there
too, so a run reads and writes nothing outside the checkout. Arguments
are passed through; the program's last output line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    ran = subprocess.run([binary, "--out", os.path.join(build, "run")] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
