#!/usr/bin/env python3
"""Build file of the benchmark: compiles the sketch library and the driver.

    python3 perfbench/build.py          # from the repository root

Compiles, with the Scala compiler that ships in Spark's `jars/` directory,

  * the program under test: `src/main/scala/repro/core/**`,
    `src/main/scala/repro/SynthData.scala` and
    `src/main/scala/repro/exp/Workloads.scala`;
  * the benchmark driver: `perfbench/src/**`;

into `perfbench/out/classes`. A stamp of the sources' hash skips the compile
when nothing changed. Needs a JDK 17 (`JAVA_HOME` or `java` on PATH) and a
Spark 4.1 / Scala 2.13 distribution (`SPARK_HOME`, or `spark-submit` on PATH).
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CLASSES = OUT / "classes"
STAMP = OUT / "classes.stamp"
PROGRAM = ROOT / "src" / "main" / "scala" / "repro"


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no JDK found: set JAVA_HOME or put java on PATH")
    return found


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return Path(home) / "jars"


def sources():
    core = PROGRAM / "core"
    if not core.is_dir():
        raise BuildError(f"program sources not found under {PROGRAM.relative_to(ROOT)}")
    files = sorted(core.rglob("*.scala"))
    files += [PROGRAM / "SynthData.scala", PROGRAM / "exp" / "Workloads.scala"]
    files += sorted((BENCH / "src").rglob("*.scala"))
    missing = [f for f in files if not f.is_file()]
    if missing:
        raise BuildError(f"missing source: {missing[0].relative_to(ROOT)}")
    return files


def stamp(files, jars):
    h = hashlib.sha256(str(jars).encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    return f"{CLASSES}{os.pathsep}{spark_jars() / '*'}"


def ensure_built():
    """Compile if the sources changed since the last build; return the classpath."""
    files = sources()
    jars = spark_jars()
    digest = stamp(files, jars)
    if STAMP.exists() and STAMP.read_text() == digest and CLASSES.is_dir():
        return classpath()
    if CLASSES.exists():
        shutil.rmtree(CLASSES)
    CLASSES.mkdir(parents=True)
    cmd = [java_bin(), "-Xmx1g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(CLASSES)] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        raise BuildError(f"scalac exited with {done.returncode}")
    STAMP.write_text(digest)
    return classpath()


if __name__ == "__main__":
    try:
        ensure_built()
    except BuildError as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        sys.exit(2)
