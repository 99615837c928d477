"""Compile the program and the benchmark runner into one class directory.

The program's sources (`src/main/scala`) and the runner (`perfbench/scala`)
are compiled with the Scala compiler that ships in Spark's `jars/`
directory, against those same jars, so the build needs nothing but
`SPARK_HOME` and a JDK. Output goes to `.bench_build/` and is reused while
the sources are unchanged.
"""

import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

PROGRAM_SOURCES = Path("src/main/scala")
RUNNER_SOURCES = Path("perfbench/scala")
BUILD_DIR = Path(".bench_build")


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("SPARK_HOME must point at a Spark distribution with a jars/ directory")
    return Path(home) / "jars"


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources(root: Path) -> list:
    program = sorted((root / PROGRAM_SOURCES).rglob("*.scala"))
    if not program:
        raise BuildError(f"no program sources under {PROGRAM_SOURCES}; run from the repository root")
    return program + sorted((root / RUNNER_SOURCES).glob("*.scala"))


def source_hash(root: Path, files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def build(root: Path) -> tuple:
    """Return (class directory, source hash), compiling if needed."""
    jars = spark_jars()
    files = sources(root)
    digest = source_hash(root, files)
    build_dir = root / BUILD_DIR
    build_dir.mkdir(exist_ok=True)
    out = build_dir / f"classes-{digest[:16]}"
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (out / ".complete").exists():
            return out, digest
        tmp = build_dir / "classes-tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir()
        compiler = [str(jars / f"{n}-{v}.jar") for n, v in _scala_jars(jars)]
        cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", ":".join(compiler), "scala.tools.nsc.Main",
               "-nowarn", "-d", str(tmp), "-classpath", ":".join(str(j) for j in sorted(jars.glob("*.jar")))]
        print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
        res = subprocess.run(cmd + [str(f) for f in files], stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            raise BuildError("compilation failed:\n" + res.stdout[-4000:])
        (tmp / ".complete").write_text(digest)
        for old in build_dir.glob("classes-*"):
            if old != tmp:
                shutil.rmtree(old, ignore_errors=True)
        tmp.rename(out)
    return out, digest


def _scala_jars(jars: Path) -> list:
    """(name, version) of the compiler, library and reflect jars Spark ships."""
    found = sorted(jars.glob("scala-compiler-*.jar"))
    if not found:
        raise BuildError(f"no scala-compiler jar in {jars}")
    version = found[-1].name[len("scala-compiler-"):-len(".jar")]
    names = ["scala-compiler", "scala-library", "scala-reflect"]
    missing = [n for n in names if not (jars / f"{n}-{version}.jar").exists()]
    if missing:
        raise BuildError(f"missing {missing} for Scala {version} in {jars}")
    return [(n, version) for n in names]
