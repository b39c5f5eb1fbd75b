#!/usr/bin/env python3
"""Build rps-serve and the load generator from source, then run one workload.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 50 --trace 0

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); scratch data goes to .bench_work/<pid>/ and is removed
afterwards. The last line of standard output is the JSON result; the exit
status is non-zero if a build fails, the sources are missing, or any reply
is wrong.

With taskset installed, the load generator and the server both run on the
first CPU this process may use, so every request is a context switch on one
CPU rather than a wake-up across CPUs, which on a virtual machine waits on
the host's scheduler.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run's own timeout, kept under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(target, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: standard output carries the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "serve")
    ):
        sys.exit("run.py: the repository sources are missing; run from a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build(target, ["-p", "rps-serve", "--bin", "rps-serve"])
    build(target, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])

    cpu = min(os.sched_getaffinity(0))
    pin = shutil.which("taskset") is not None
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "rps-perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(target, "release", "rps-serve"),
        "--work-dir",
        work,
    ]
    if pin:
        cmd += ["--server-cpus", str(cpu)]
    # A session of its own, so a timeout can stop the server child too.
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None,
    )
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    sys.exit(code)


if __name__ == "__main__":
    main()
