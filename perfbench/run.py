#!/usr/bin/env python3
"""Builds the benchmark when its sources changed, then runs one workload.

    python3 perfbench/run.py --workload <ingest-search|relate|train> \
        [--seed N] [--seconds S] [--trace 0|1] [--lake-seeds 101,202,303]

Run it from the root of the repository. The build (sbt, see build.sbt next to
this file) compiles the program's sources in ../src/main/scala with the
benchmark's own; its output stays under perfbench/. The last line of
standard output is the result object; everything else goes to standard error.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
BUILD_DIR = os.path.join(HERE, ".build")
RUN_DIR = os.path.join(HERE, ".run")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath")
STAMP_FILE = os.path.join(BUILD_DIR, "stamp")

# Fixed JVM heap: the same on every run, so GC behaviour and heap_mb compare.
HEAP = "3g"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_stamp():
    """Hash of every file the build reads, so any edit triggers a rebuild."""
    h = hashlib.sha256()
    inputs = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(HERE, "src", "main")):
        for d, _, files in sorted(os.walk(top)):
            inputs += [os.path.join(d, f) for f in sorted(files)]
    for path in inputs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Runs a child to its end; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {cmd[0]}")
        proc.kill()
        proc.wait()
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as f:
            if f.read().strip() == stamp:
                return True
    log("building (sbt compile)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    out_path = os.path.join(BUILD_DIR, "sbt.log")
    with open(out_path, "w") as out:
        code = run_bounded(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
    with open(out_path) as f:
        lines = [l.strip() for l in f if l.strip()]
    if code != 0 or not lines:
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        log(f"build failed (exit {code}); log in {out_path}")
        return False
    classpath = lines[-1]
    with open(CLASSPATH_FILE, "w") as f:
        f.write(classpath)
    with open(STAMP_FILE, "w") as f:
        f.write(stamp)
    return True


def main(argv):
    if not os.path.isdir(PROGRAM_SOURCES):
        log(f"no program sources at {os.path.relpath(PROGRAM_SOURCES)}: run from a checkout of the repository")
        return 2
    if not build():
        return 1
    with open(CLASSPATH_FILE) as f:
        classpath = f.read().strip()
    tmp = os.path.join(RUN_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.tmp={RUN_DIR}",
           "-cp", classpath, "repro.perf.Main"] + argv
    code = run_bounded(cmd, RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
