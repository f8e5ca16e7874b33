#!/usr/bin/env python3
"""Coverage ratchet: every function in src/ runs in tier-1, or it is allow-listed.

Run after the tier-1 ctests of a --coverage build:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j && ctest --test-dir build-cov -j
  python3 tests/coverage/never_run.py build-cov tests/coverage/never_run_allow.txt

Every .gcda under the build directory is read with `gcov --json-format
--stdout`. A function is identified by its source location: the instances that
several translation units or template arguments compile from one definition
count as one function, and it ran if any instance ran. The allow-list names a
never-run function by its file and demangled name (the smallest name among its
instances), one per line with a reason:

  src/path/file.cc  Namespace::Function(int)  # why tier-1 cannot run it

Exits 1 when a function outside the list never runs, or when a listed
function now runs or no longer exists, so the list can only shrink.
"""

import json
import os
import subprocess
import sys


def functions(build_dir, root):
    """{(file, line, column): [ran, name]} over every src/ function compiled."""
    gcdas = sorted(os.path.join(d, f) for d, _, fs in os.walk(build_dir)
                   for f in fs if f.endswith(".gcda"))
    if not gcdas:
        sys.exit("never_run: no .gcda files under " + build_dir)
    found = {}
    for i in range(0, len(gcdas), 64):
        out = subprocess.run(["gcov", "--json-format", "--stdout"] + gcdas[i:i + 64],
                             cwd=build_dir, capture_output=True, text=True, check=True).stdout
        for doc in out.splitlines():
            report = json.loads(doc)
            cwd = report["current_working_directory"]
            for f in report["files"]:
                path = os.path.relpath(os.path.realpath(os.path.join(cwd, f["file"])), root)
                if not path.startswith("src" + os.sep):
                    continue
                for fn in f["functions"]:
                    key = (path, fn["start_line"], fn["start_column"])
                    entry = found.setdefault(key, [False, fn["demangled_name"]])
                    entry[0] = entry[0] or fn["execution_count"] > 0
                    entry[1] = min(entry[1], fn["demangled_name"])
    return found


def allow_list(path):
    """{(file, name): reason} from the allow-list file."""
    allowed = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            entry, sep, reason = line.rpartition(" # ")
            file_name = entry.split(None, 1)
            if not sep or len(file_name) != 2 or not reason.strip():
                sys.exit("%s:%d: expected `FILE NAME  # reason`" % (path, n))
            allowed[(file_name[0], file_name[1].strip())] = reason.strip()
    return allowed


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: never_run.py BUILD_DIR ALLOW_LIST")
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__))))
    found = functions(os.path.abspath(sys.argv[1]), root)
    allowed = allow_list(sys.argv[2])
    never = {(k[0], name) for k, (ran, name) in found.items() if not ran}
    ran = {(k[0], name) for k, (r, name) in found.items() if r}
    print("never_run: %d functions in src/, %d never run, %d allow-listed"
          % (len(found), len(never), len(allowed)))
    failures = 0
    for file, name in sorted(never - allowed.keys()):
        print("NEVER RUN (not on the allow-list): %s  %s" % (file, name))
        failures += 1
    for file, name in sorted(allowed.keys() - never):
        why = "now runs" if (file, name) in ran else "no longer exists"
        print("ALLOW-LISTED BUT %s (remove it from the list): %s  %s" % (why.upper(), file, name))
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
