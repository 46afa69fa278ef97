"""Builds the program and the benchmark tool from source, and refuses to
measure anything but an optimized, uninstrumented build."""

import json
import os
import re
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")


class BuildRefused(Exception):
    """The build is not one the benchmark may report numbers from."""


def nproc():
    return len(os.sched_getaffinity(0))


def build(root):
    """Configures (once) and builds perfbench/ into .bench_build/cmake; returns
    the build record (paths of the CLI and the tool, compiler, flags)."""
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            raise FileNotFoundError(f"no {needed} in {root}: not a softsched checkout")
    build_dir = os.path.join(root, BUILD_DIR)
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        done = subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                               "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                              **quiet, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            raise RuntimeError("cmake configure failed")
    done = subprocess.run(["cmake", "--build", build_dir, "-j", str(nproc())], **quiet,
                          check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace")[-4000:])
        raise RuntimeError("build failed")
    with open(os.path.join(build_dir, "build_record.json")) as f:
        record = json.load(f)
    record["effective_flags"] = effective_flags(build_dir)
    return record


def effective_flags(build_dir):
    """The compile flags the generator actually wrote for the program's
    libraries and the CLI (not the cache's CMAKE_BUILD_TYPE string)."""
    flags = {}
    for target in ("src/core/CMakeFiles/softsched_core.dir",
                   "src/sched/CMakeFiles/softsched_sched.dir",
                   "src/serve/CMakeFiles/softsched_serve.dir",
                   "tools/CMakeFiles/softsched_cli.dir"):
        path = os.path.join(build_dir, "softsched", target, "flags.make")
        with open(path) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    flags[target.split("/")[-1]] = line.split("=", 1)[1].strip()
    return flags


def guard(record):
    """Raises BuildRefused for a sanitizer, coverage or unoptimized build."""
    if record["build_type"] != "Release":
        raise BuildRefused(f"build type {record['build_type']!r} is not Release")
    for target, flags in record["effective_flags"].items():
        words = flags.split()
        if any(w.startswith("-fsanitize") or w in ("--coverage", "-fprofile-arcs", "-O0", "-Og")
               for w in words):
            raise BuildRefused(f"{target} is instrumented: {flags}")
        if not any(re.fullmatch(r"-O[23s]|-Ofast", w) for w in words):
            raise BuildRefused(f"{target} is not optimized: {flags}")
        if "-DNDEBUG" not in words:
            raise BuildRefused(f"{target} keeps assertions: {flags}")
    if "-fsanitize" in record.get("core_options", "") or "--coverage" in record.get(
            "core_options", ""):
        raise BuildRefused(f"instrumented compile options: {record['core_options']}")


def host_record(record):
    flags = record["effective_flags"].get("softsched_core.dir", "")
    return {
        "nproc": nproc(),
        "compiler": f"{record['compiler_id']} {record['compiler_version']}",
        "build_type": record["build_type"],
        "lto": "-flto" in flags,
        "flags": flags,
    }
