#!/usr/bin/env python3
"""Build jqinfer and the wirebench executable from source, then run one workload.

Usage (from the repository root):
    python3 wirebench/run.py --workload label-warm --seed 1 --seconds 20 --trace 0

Everything the run writes stays under the current directory: the dune
build in _build/, inputs, sockets and heap files in a per-run directory
under .wirebench/ (removed at the end), traces in .wirebench/traces/.
The benchmark executable and the server it spawns run in their own
process group, which is killed and waited for whatever happens, so a
failing run leaves no server behind.
"""

import os
import shutil
import signal
import subprocess
import sys
import time

BUILD_TARGETS = ["bin/jqinfer.exe", "wirebench/wirebench.exe"]
RUN_TIMEOUT_S = 170


def build(env):
    cmd = ["dune", "build", "--root", ".", "--cache=disabled"] + BUILD_TARGETS
    return subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode


def kill_group(proc):
    """SIGTERM the benchmark's process group, SIGKILL after 5 s, until no member is left."""
    deadline = time.monotonic() + 5
    sig = signal.SIGTERM
    while True:
        proc.poll()  # reap the benchmark process itself once it exits
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        if time.monotonic() > deadline:
            if sig == signal.SIGKILL:
                return
            sig = signal.SIGKILL
            deadline = time.monotonic() + 5
        time.sleep(0.05)


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    if build(env) != 0:
        print("wirebench: build failed", file=sys.stderr)
        return 2
    state = ".wirebench"
    work = os.path.join(state, "run-%d" % os.getpid())
    traces = os.path.join(state, "traces")
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    env["TMPDIR"] = os.path.abspath(tmp)
    cmd = [
        os.path.join("_build", "default", "wirebench", "wirebench.exe"),
        *sys.argv[1:],
        "--server", os.path.join("_build", "default", "bin", "jqinfer.exe"),
        "--work", work,
        "--trace-dir", traces,
    ]
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def on_signal(signum, _frame):
        kill_group(proc)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("wirebench: run timed out", file=sys.stderr)
        code = 1
    kill_group(proc)
    proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
