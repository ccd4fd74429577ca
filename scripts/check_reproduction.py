#!/usr/bin/env python3
"""Checks that the paper reproduction still prints the recorded figures.

Runs the 13 drivers of scripts/reproduce.sh from a release build with the
arguments its --quick mode passes (--trials=40, --plot=<fig> for the four
plotted figures, table1_systems bare; default seed and threads) and
compares the sha256 of each driver's stdout with perfbench/digests.json.
Exits 1 naming every driver whose output drifted or that failed, 0 when
all 13 match. The digest file is only read, never rewritten.

Usage: scripts/check_reproduction.py   (after cmake --preset release and a
full build, so build/bench holds every driver)
"""
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "perfbench", "digests.json")

# scripts/reproduce.sh's driver list, in its order.
DRIVERS = [
    "table1_systems", "fig2_technique_comparison", "fig3_time_breakdown",
    "fig4_exascale_scaling", "fig5_short_application", "fig6_prediction_error",
    "ablation_failed_events", "ablation_restart_semantics",
    "ablation_level_skipping", "ablation_failure_distribution",
    "ablation_interval_vs_pattern", "ablation_energy_objective",
    "ablation_adaptive_horizon",
]
PLOTTED = {"fig2_technique_comparison", "fig4_exascale_scaling",
           "fig5_short_application", "fig6_prediction_error"}


def driver_args(name):
    if name == "table1_systems":
        return []
    args = ["--trials=40"]
    if name in PLOTTED:
        args.append("--plot=" + name.split("_")[0])
    return args


def main(argv):
    if argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bindir = os.path.join(ROOT, "build", "bench")
    with open(DIGESTS) as f:
        recorded = json.load(f)["stdout_sha256"]
    bad = []
    # Plot files land in a temporary directory, not the checkout.
    with tempfile.TemporaryDirectory(prefix="mlck-repro-") as outdir:
        for name in DRIVERS:
            exe = os.path.join(bindir, name)
            if not os.path.exists(exe):
                print("%-32s MISSING %s" % (name, exe))
                bad.append(name)
                continue
            p = subprocess.run([exe] + driver_args(name), cwd=outdir,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL)
            digest = hashlib.sha256(p.stdout).hexdigest()
            if p.returncode != 0:
                status = "FAILED (exit %d)" % p.returncode
            elif digest != recorded.get(name):
                status = "DRIFTED %s (recorded %s)" % (digest,
                                                       recorded.get(name))
            else:
                status = "ok"
            print("%-32s %s" % (name, status), flush=True)
            if status != "ok":
                bad.append(name)
    if bad:
        print("reproduction check failed: %s" % ", ".join(bad))
        return 1
    print("all %d driver outputs match perfbench/digests.json" % len(DRIVERS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
