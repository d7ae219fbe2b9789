#!/usr/bin/env python3
"""Capture the benchmark's reference outputs with the servet CLI.

    python3 perfbench/capture_refs.py --servet build/tools/servet

Run it with a `servet` binary built from the commit the references should
pin (the parent of a change under test). It rewrites perfbench/ref/:

  dunnington.profile, ft1024.profile   `servet profile --no-timing`, with the
                                       workloads' --jobs
  zoo/<machine>.profile                small zoo profiles the fleet-serve
                                       store is filled from
  dunnington-suite.tune                guided tune winners of the four
                                       kernels, primed with dunnington.profile
"""

import argparse
import json
import os
import subprocess
import tempfile

REF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
KERNELS = ["stencil", "transpose", "reduction", "spmv"]


def profile(servet, machine, out, jobs=1):
    subprocess.run([servet, "profile", "--machine", machine, "--jobs", str(jobs),
                    "--no-timing", "--out", out], check=True, stdout=subprocess.DEVNULL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servet", required=True, help="servet CLI binary")
    args = parser.parse_args()

    os.makedirs(os.path.join(REF, "zoo"), exist_ok=True)
    profile(args.servet, "dunnington", os.path.join(REF, "dunnington.profile"), jobs=4)
    profile(args.servet, "ft1024", os.path.join(REF, "ft1024.profile"))
    for machine in ["athlon3200", "dempsey", "nehalem2s", "ft-small", "torus4x4"]:
        profile(args.servet, machine, os.path.join(REF, "zoo", machine + ".profile"))

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in KERNELS:
            trace = os.path.join(tmp, kernel + ".json")
            subprocess.run([args.servet, "tune", "--machine", "dunnington", "--kernel", kernel,
                            "--strategy", "guided", "--jobs", "4",
                            "--profile", os.path.join(REF, "dunnington.profile"),
                            "--trace", trace], check=True, stdout=subprocess.DEVNULL)
            with open(trace) as f:
                t = json.load(f)
            lines.append("%s best %s cost %.17g evals %d evals_to_best %d\n" % (
                kernel, t["best"]["key"], t["best"]["cost"], t["evals"], t["evals_to_best"]))
    with open(os.path.join(REF, "dunnington-suite.tune"), "w") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
