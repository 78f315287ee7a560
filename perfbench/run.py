#!/usr/bin/env python3
"""EPP benchmark driver.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds epp_serve and the
benchmark's own epp_perfbench binary from the checkout's sources (CMake,
build tree under $CARGO_TARGET_DIR or .bench_build), then runs one
workload:

  serve-hot, serve-cold  a fresh epp_serve daemon (cold start, --workers 2,
                         port 0) is started several times to time set-up;
                         the last one is driven over loopback by
                         epp_perfbench and stopped afterwards.
  capacity-plan,         in-process, epp_perfbench alone.
  sim-sweep

The last line of standard output is the JSON result. Any failed step
exits nonzero, naming the workload and the step, without a result line.
"""
import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("serve-hot", "serve-cold", "capacity-plan", "sim-sweep")
# Set-up (daemon cold start) is timed this many times per run; the median
# is reported.
SETUP_REPEATS = 7
# Wall-time cap for one run after the build.
RUN_CAP_S = 170
DAEMON_READY_S = 60


class StepFailed(Exception):
    pass


def die_with_parent():
    """Child-side: get SIGKILL when this driver dies, however it dies."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


children = []


def stop_children():
    """Stop every child process started by this run and wait for it."""
    while children:
        proc = children.pop()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def on_signal(signum, _frame):
    raise StepFailed(f"interrupted by signal {signum}")


def root_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root, workload):
    sources = [os.path.join(root, "src", "CMakeLists.txt"),
               os.path.join(root, "tools", "epp_serve.cpp")]
    for path in sources:
        if not os.path.isfile(path):
            raise StepFailed(f"{workload}: build: missing source {os.path.relpath(path, root)}")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "epp_serve", "epp_perfbench"]]
        for step in steps:
            proc = subprocess.Popen(step, stdout=log, stderr=subprocess.STDOUT, cwd=root)
            children.append(proc)
            code = proc.wait()
            children.remove(proc)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise StepFailed(f"{workload}: build: '{' '.join(step[:2])}' exited {code}")
    return build_dir


def start_daemon(serve_bin, bundle_path, log_path):
    """Start a cold epp_serve; return (process, port, seconds to ready)."""
    t0 = time.monotonic()
    with open(log_path, "w") as log:
        proc = subprocess.Popen([serve_bin, "--port", "0", "--workers", "2",
                                 "--save-bundle", bundle_path],
                                stdout=subprocess.PIPE, stderr=log, text=True,
                                preexec_fn=die_with_parent)
    children.append(proc)
    deadline = t0 + DAEMON_READY_S
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("listening on ") or not line:
            break
    ready_s = time.monotonic() - t0
    if not line.startswith("listening on "):
        raise StepFailed(f"daemon start: no 'listening on' line (exit {proc.poll()})")
    port = int(line.rsplit(":", 1)[1])
    return proc, port, ready_s


def stop_daemon(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc in children:
        children.remove(proc)


def memory_mb(pid):
    """The daemon's (VmHWM, VmRSS) in MB."""
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            fields[key] = value
    try:
        return int(fields["VmHWM"].split()[0]) / 1024.0, int(fields["VmRSS"].split()[0]) / 1024.0
    except (KeyError, IndexError) as error:
        raise StepFailed(f"daemon start: no {error} in its status")


def calibrated_s(log_path):
    with open(log_path) as f:
        for line in f:
            if line.startswith("calibrated in "):
                return float(line.split()[2]) / 1e3
    raise StepFailed("daemon start: no calibration time in its log")


def run(args):
    root = root_dir()
    build_dir = build(root, args.workload)
    signal.alarm(RUN_CAP_S)
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    bench = [os.path.join(build_dir, "epp_perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir]
    step = "run"
    if args.workload.startswith("serve-"):
        step = "daemon start"
        serve_bin = os.path.join(build_dir, "epp_serve")
        ready, calib, hwm, rss = [], [], [], []
        for i in range(SETUP_REPEATS):
            bundle = os.path.join(out_dir, f"bundle-{i}.epp")
            log_path = os.path.join(out_dir, f"daemon-{i}.log")
            try:
                proc, port, ready_s = start_daemon(serve_bin, bundle, log_path)
                calib.append(calibrated_s(log_path))
                peak, resident = memory_mb(proc.pid)
                hwm.append(peak)
                rss.append(resident)
            except StepFailed as error:
                raise StepFailed(f"{args.workload}: {error}")
            ready.append(ready_s)
            if i + 1 < SETUP_REPEATS:
                stop_daemon(proc)
        bench += ["--port", str(port), "--pid", str(proc.pid), "--bundle", bundle,
                  "--setup-s", repr(statistics.median(ready)),
                  "--setup-samples", str(len(ready)),
                  "--calibrate-s", repr(statistics.median(calib)),
                  "--startup-hwm-mb", repr(statistics.median(hwm)),
                  "--listen-rss-mb", repr(statistics.median(rss)),
                  "--own-listen-rss-mb", repr(rss[-1])]
        step = "load"
    child = subprocess.Popen(bench, stdout=subprocess.PIPE, text=True, cwd=root,
                             preexec_fn=die_with_parent)
    children.append(child)
    output, _ = child.communicate()
    children.remove(child)
    lines = output.strip().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if child.returncode != 0:
        raise StepFailed(f"{args.workload}: {step}: epp_perfbench exited {child.returncode}")
    stop_children()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise StepFailed(f"{args.workload}: {step}: no result line")
    # The result line goes last, after the human-readable table; a failed
    # correctness check still prints it (correct: false), then exits 1.
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        raise StepFailed(f"{args.workload}: correctness check failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGALRM, lambda *_: on_signal(signal.SIGALRM, None))
    try:
        run(args)
    except (StepFailed, OSError, ValueError) as error:
        stop_children()
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
        sys.exit(1)
    finally:
        stop_children()


if __name__ == "__main__":
    main()
