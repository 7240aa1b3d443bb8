#!/usr/bin/env python3
"""IIM benchmark entry point.

    python3 perfbench/run.py --workload sn-table5 --seed 42 --seconds 15 --trace 0

Run from the root of a checkout. The first call builds the program
(src/main/scala) together with the benchmark's JVM side (perfbench/src) with
sbt into .bench_build/perfbench; later calls reuse that build while the
sources are unchanged. Each run then launches plain JVMs on the exported
classpath:

  --trace 0  fresh JVMs, one after the other. Two start Spark and are timed
             from start-up to "workload ready" (setup_s is their median);
             the second then makes the cold and warm Spark passes. Between
             and after them, a few JVMs without Spark each make local passes;
             the first writes its output to a file, against which every other
             output is gated cell by cell.
  --trace 1  one JVM that makes a traced pass through the layer calls and
             reports the per-layer metrics; its spans, Spark task totals and
             counters go to .bench_build/perfbench/trace-<workload>-<seed>.json.

Human-readable lines go to stderr. Stdout carries a stamp line and, last, the
result object {"correct", "attempted", "failed", "metrics"}. Any error exits
non-zero without a result.
"""
import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
PROGRAM = ROOT / "src" / "main" / "scala"
WORKLOADS = ("sn-table5", "ca-sweep", "serve")
HEAP = "4g"
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850

# The module options spark-submit adds on Java 17.
JVM_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


class BenchError(Exception):
    pass


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def source_digest():
    h = hashlib.sha256()
    files = sorted(PROGRAM.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala")) + [
        HERE / "build.sbt", HERE / "project" / "build.properties"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile once per source digest; return the runtime classpath."""
    digest = source_digest()
    cp_file, digest_file = OUT / "classpath.txt", OUT / "source.sha256"
    if cp_file.exists() and digest_file.exists() and digest_file.read_text() == digest:
        return cp_file.read_text().strip(), digest
    OUT.mkdir(parents=True, exist_ok=True)
    log("building with sbt (first run in this checkout)")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    env = dict(os.environ)
    repos = Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        # Resolve from the local caches only, as the main build does.
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=%s "
                           "-Dsbt.offline=true -Xmx2g" % repos)
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL, text=True, timeout=BUILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("sbt build timed out")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    cp = [l for l in lines if not l.startswith("[") and ".jar" in l]
    if p.returncode != 0 or not cp:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        raise BenchError("sbt build failed (exit %d)" % p.returncode)
    cp_file.write_text(cp[-1].strip())
    digest_file.write_text(digest)
    return cp[-1].strip(), digest


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Jvm:
    """One benchmark JVM; reads its protocol lines with a deadline."""

    def __init__(self, classpath, args, deadline):
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(OUT / "spark-local"))
        cmd = ["java", "-Xmx" + HEAP, "-Xms" + HEAP, "-Djava.io.tmpdir=" + str(tmp),
               "-Dlog4j2.configurationFile=" + str(HERE / "log4j2.properties"),
               "-Dspark.sql.warehouse.dir=" + str(OUT / "warehouse")] + JVM_OPTS + [
               "-cp", classpath, "repro.perfbench.Main"] + args
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)

    def expect(self, tag):
        """Wait for the next line tagged `tag`; return (seconds since spawn, payload)."""
        while True:
            left = self.deadline - time.monotonic()
            if left <= 0 or not self.sel.select(timeout=left):
                raise BenchError("timed out waiting for %s" % tag)
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("JVM exited (code %s) before %s" % (self.proc.wait(), tag))
            if line.startswith(tag + " "):
                return time.perf_counter() - self.started, json.loads(line[len(tag) + 1:])
            sys.stderr.write(line)

    def finish(self):
        """Wait for a clean exit, passing any further output on to stderr."""
        while True:
            left = self.deadline - time.monotonic()
            if left <= 0 or not self.sel.select(timeout=left):
                raise BenchError("JVM did not exit in time")
            line = self.proc.stdout.readline()
            if not line:
                break
            sys.stderr.write(line)
        code = self.proc.wait()
        if code != 0:
            raise BenchError("JVM exited with code %d" % code)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def timing(samples):
    """Median and the highest percentile that has at least ten samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s), "samples": samples}
    if len(s) >= 11:
        out["tail"] = {"percentile": round(100.0 * (len(s) - 10) / len(s), 1), "value": s[len(s) - 11]}
    else:
        out["tail"] = None
    return out


def merge(locals_, spark):
    """One result from the local JVMs' and the Spark JVM's: samples pool,
    counts add up, and every output must give the same RMS, bit for bit."""
    res = dict(spark, local_impute_s_samples=[x for r in locals_ for x in r["local_impute_s_samples"]])
    notes = []
    for i, r in enumerate(locals_):
        res["attempted"] += r["attempted"]
        res["failed"] += r["failed"]
        notes += ["local JVM %d: %s" % (i, n) for n in r["gate_notes"]]
        if r["rms"] != spark["rms"]:
            notes.append("local JVM %d: rms %r differs from the Spark rms %r" % (i, r["rms"], spark["rms"]))
    res["gate_notes"] = notes + spark["gate_notes"]
    res["correct"] = spark["correct"] and all(r["correct"] for r in locals_) and not notes
    return res


def git_sha():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    if ".ell_star_" in name:
        return "tuples"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink every size (self-check)")
    ap.add_argument("--fault", choices=("none", "flip", "throw"), default="none",
                    help="inject an output fault to exercise the gate (self-check)")
    a = ap.parse_args()

    if not (PROGRAM / "repro" / "core" / "IIM.scala").exists():
        raise BenchError("program sources not found under %s" % PROGRAM.relative_to(ROOT))
    classpath, digest = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    cores = nproc()
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--scale", str(a.scale), "--cores", str(cores), "--fault", a.fault]
    env_stamp = {"git_sha": git_sha(), "source_sha256": digest, "nproc": cores, "heap": "-Xmx" + HEAP,
                 "seed": a.seed, "seconds": a.seconds, "trace": a.trace}

    if a.trace:
        trace_file = OUT / ("trace-%s-%d.json" % (a.workload, a.seed))
        jvm = Jvm(classpath, ["--mode", "trace", "--trace-out", str(trace_file)] + common, deadline)
        try:
            jvm.expect("READY")
            _, stamp = jvm.expect("STAMP")
            _, res = jvm.expect("RESULT")
            jvm.finish()
        finally:
            jvm.kill()
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(res["per_layer"].items())}
        env_stamp["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        # The first local JVM hands its output to the others' gates in this file.
        local_file = OUT / ("local-%s-%d.bin" % (a.workload, a.seed))
        local_file.unlink(missing_ok=True)

        def jvm_run(mode):
            jvm = Jvm(classpath, ["--mode", mode, "--local-file", str(local_file)] + common, deadline)
            try:
                t, _ = jvm.expect("READY")
                _, stamp = jvm.expect("STAMP")
                _, r = jvm.expect("RESULT")
                jvm.finish()
                return t, stamp, r
            finally:
                jvm.kill()

        try:
            # Local JVMs go between and after the Spark JVMs, so that they
            # sample the whole run.
            locals_ = [jvm_run("local")[2]]
            setups = [jvm_run("setup")[0]]
            if locals_[0]["local_jvms"] > 1:
                locals_.append(jvm_run("local")[2])
            t, stamp, spark = jvm_run("spark")
            setups.append(t)
            while len(locals_) < locals_[0]["local_jvms"]:
                locals_.append(jvm_run("local")[2])
        finally:
            local_file.unlink(missing_ok=True)
        res = merge(locals_, spark)
        times = {"setup_s": timing(setups), "impute_s": timing(res["impute_s_samples"]),
                 "local_impute_s": timing(res["local_impute_s_samples"])}
        metrics = {k: {"value": t["median"], "unit": "s"} for k, t in times.items()}
        metrics["cold_s"] = {"value": res["cold_s"], "unit": "s"}
        env_stamp["timings"] = times
        env_stamp["spark_warmup_passes"] = res["spark_warmup_passes"]

    # rms and failed_frac are gated rather than bounded, so they are reported
    # next to the metrics (stamp and stderr) instead of among them.
    gated = {"rms": {"value": res["rms"], "unit": "value"},
             "failed_frac": {"value": res["failed"] / max(1, res["attempted"]), "unit": "fraction"}}
    env_stamp.update(gated, gate_notes=res["gate_notes"], jvm=stamp)
    for k, m in list(metrics.items()) + list(gated.items()):
        log("%-36s %14.6g %s" % (k, m["value"] if m["value"] is not None else float("nan"), m["unit"]))
    print(json.dumps({"stamp": env_stamp}, sort_keys=True))
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}), flush=True)


if __name__ == "__main__":
    # A SIGTERM unwinds like an error, so every started JVM is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except (BenchError, KeyError, ValueError, OSError) as e:
        log("error: %s" % e)
        sys.exit(2)
