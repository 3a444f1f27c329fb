#!/usr/bin/env python3
"""Golden sweep of the stap CLI over the shipped example data.

Runs every deterministic `stap` command on the schemas and documents in
examples/data (the working directory, so paths in outputs stay relative)
and compares sha256(stdout), sha256(stderr) and the exit code of each run
with the checked-in manifest. Hashes instead of transcripts: one full pair
sweep prints tens of megabytes.

  golden_sweep.py STAP DATA_DIR MANIFEST --shard I/N
      check the cases whose index is I modulo N
  golden_sweep.py STAP DATA_DIR MANIFEST --record [--match TEXT]
      rerun the cases whose command line contains TEXT (all by default)
      and rewrite their manifest entries

Commands whose output is random or timing-dependent (sample, explain,
serve, top) appear only on their argument-error paths.
"""

import argparse
import hashlib
import os
import subprocess
import sys

FAMILIES = ["theorem32", "theorem36a", "theorem36b", "theorem38a",
            "theorem38b", "theorem43a", "theorem43b", "theorem411",
            "counted"]


def enumerate_cases(data_dir):
    stap = sorted(f for f in os.listdir(data_dir) if f.endswith(".stap"))
    xsd = sorted("xsd/" + f for f in os.listdir(os.path.join(data_dir, "xsd"))
                 if f.endswith(".xsd"))
    cases = []
    for schema in stap + xsd:
        for command in ["check", "approx", "minimize", "complement",
                        "export"]:
            cases.append([command, schema])
        cases.append(["measure", schema, "--depth=4", "--json"])
        cases.append(["compile", schema, "-o", "/dev/null"])
        cases.append(["validate", schema, "catalog.xml"])
    pairs = [(a, b) for a in stap for b in stap] + [(x, x) for x in xsd]
    for a, b in pairs:
        for command in ["merge", "intersect", "diff", "lower", "included",
                        "witness", "report"]:
            cases.append([command, a, b])
    cases.append(["--max-states=200000", "diff", "xsd/catalog.xsd",
                  "xsd/catalog.xsd"])
    cases.append(["count", "library_v1.stap", "3", "4"])
    cases.append(["types", "library_v1.stap", "catalog.xml"])
    cases.append(["--jobs=2", "validate", "library_v1.stap", "catalog.xml",
                  "catalog.xml", "missing.xml"])
    cases.append(["export", "library_v1.stap", "--repair-upa"])
    for name in FAMILIES:
        cases.append(["family", name, "3"])
    cases.append(["family", "theorem32"])
    for schema in xsd:
        cases.append(["import", schema])
    # Usage and error paths.
    cases += [
        [],
        ["frobnicate"],
        ["check"],
        ["check", "library_v1.stap", "library_v2.stap"],
        ["merge", "library_v1.stap"],
        ["validate", "library_v1.stap"],
        ["compile", "library_v1.stap"],
        ["compile", "library_v1.stap", "-x", "/dev/null"],
        ["count", "library_v1.stap", "3"],
        ["family"],
        ["family", "nosuch", "3"],
        ["import", "xsd/catalog.xsd", "extra"],
        ["measure"],
        ["measure", "library_v1.stap", "--bogus"],
        ["measure", "library_v1.stap", "--depth=99"],
        ["export", "library_v1.stap", "--bogus"],
        ["check", "missing.stap"],
        ["merge", "missing.stap", "library_v1.stap"],
        ["--budget-ms=abc", "check", "library_v1.stap"],
        ["--jobs=5000", "validate", "library_v1.stap", "catalog.xml"],
        ["sample", "library_v1.stap", "abc"],
        ["sample", "library_v1.stap", "99999999999999"],
        ["sample", "relaxng_style.stap", "1", "2"],
        ["count", "library_v1.stap", "3", "4x"],
        ["count", "library_v1.stap", "0", "2"],
        ["family", "theorem32", "-2"],
        ["explain"],
        ["explain", "library_v1.stap", "--bogus"],
        ["serve", "--bogus"],
        ["serve", "--port=99999"],
        ["top"],
        ["top", "--port=0"],
        ["top", "--port=1", "--interval-ms=1"],
    ]
    return cases


def key(case):
    return " ".join(case) if case else "(no arguments)"


def run_case(stap, data_dir, case):
    try:
        proc = subprocess.run([stap] + case, cwd=data_dir,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=120)
    except subprocess.TimeoutExpired:
        return "timeout", "-", "-"
    return (str(proc.returncode), hashlib.sha256(proc.stdout).hexdigest(),
            hashlib.sha256(proc.stderr).hexdigest())


def read_manifest(path):
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            code, out, err, case = line.rstrip("\n").split(" ", 3)
            entries[case] = (code, out, err)
    return entries


def write_manifest(path, cases, entries):
    with open(path, "w") as f:
        f.write("# exit sha256(stdout) sha256(stderr) arguments; "
                "regenerate with golden_sweep.py --record\n")
        for case in cases:
            f.write(" ".join(entries[key(case)]) + " " + key(case) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("stap")
    parser.add_argument("data_dir")
    parser.add_argument("manifest")
    parser.add_argument("--shard", default="0/1")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--match", default="")
    args = parser.parse_args()
    stap = os.path.abspath(args.stap)
    cases = enumerate_cases(args.data_dir)
    entries = read_manifest(args.manifest)

    if args.record:
        chosen = [c for c in cases if args.match in key(c)]
        for case in chosen:
            entries[key(case)] = run_case(stap, args.data_dir, case)
        write_manifest(args.manifest, cases, entries)
        print(f"recorded {len(chosen)} of {len(cases)} cases")
        return 0

    keys = {key(c) for c in cases}
    failures = [f"manifest case no longer swept: {stale}"
                for stale in sorted(set(entries) - keys)]
    index, count = (int(part) for part in args.shard.split("/"))
    chosen = [c for i, c in enumerate(cases) if i % count == index]
    for case in chosen:
        result = run_case(stap, args.data_dir, case)
        expected = entries.get(key(case))
        if expected is None:
            failures.append(f"not in the manifest: {key(case)}")
        elif expected != result:
            failures.append(
                f"{key(case)}: expected exit {expected[0]} "
                f"stdout {expected[1][:12]} stderr {expected[2][:12]}, got "
                f"exit {result[0]} stdout {result[1][:12]} "
                f"stderr {result[2][:12]}")
    for failure in failures:
        print(failure)
    print(f"{len(chosen)} cases checked, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
