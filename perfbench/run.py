#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload <serve|sweep|scale|multitree> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library through the root CMakeLists) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The workload's report goes to stdout, and its last line is
one JSON object with the keys correct, attempted, failed and metrics.

After the run this script checks two things the C++ driver cannot: the
digest of the reference seed's inputs against perfbench/input_digests.json
(a changed generator or delta drawer is a changed workload), and that the
metrics printed are exactly the ones BENCHMARK.json lists for the mode.
Either failing turns the result incorrect and the exit code non-zero.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def commit_id():
    """The git commit, or a digest of the sources when the checkout has no git."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def normalize(args):
    """--name value -> --name=value, the form the C++ driver's strict parser takes."""
    out = []
    i = 0
    while i < len(args):
        arg = args[i]
        if arg.startswith("--") and "=" not in arg and i + 1 < len(args) \
                and not args[i + 1].startswith("--"):
            out.append(arg + "=" + args[i + 1])
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def post_checks(lines, trace):
    """Problems the C++ driver cannot see; an empty list means none."""
    problems = []
    with open(os.path.join(HERE, "input_digests.json")) as f:
        pinned = json.load(f)
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "reference_digest":
            workload, digest = parts[1], parts[3]
            if pinned.get(workload) != digest:
                problems.append("reference inputs of %s hash to %s, pinned %s: the workload "
                                "changed" % (workload, digest, pinned.get(workload)))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(json.loads(lines[-1])["metrics"].keys())
    if sorted(wanted) != sorted(got):
        problems.append("metrics printed %s differ from BENCHMARK.json %s" % (got, wanted))
    return problems


def main():
    args = normalize(sys.argv[1:])
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 3
    proc = subprocess.run([binary] + args + ["--commit=" + commit_id()],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("perfbench exited with %d and no result" % proc.returncode)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    problems = post_checks(lines, "--trace=1" in args)
    for p in problems:
        print("# CHECK FAILED: " + p)
    if problems:
        result["correct"] = False
        result["failed"] = min(result["attempted"], result["failed"] + len(problems))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
