#!/usr/bin/env python3
"""Print a digest of the output of a fixed list of CLI calls.

Each call runs in a fresh interpreter on the library in this checkout's
``src/``.  A line reads ``sha1[:10]  argv``, the SHA-1 of the call's stdout
followed by its stderr, with ``(exit N)`` after a call that fails.  The
list covers every command, format, failing exit code and help text, so
running the script at two commits and diffing the two outputs shows
whether a change kept every output byte:

    python3 scripts/output_digests.py > after.txt

Two calls, ``construct --a 1e-4000 --level 12`` and ``experiment box-dim
--a 1e-4000 --levels 10``, are refused at once by the numerator bit cap of
``okamoto_iterative``; a checkout from before that cap would try to build
gigabytes of numerators on them.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXPERIMENTS = [
    "experiment box-dim",
    "experiment walk-mc",
    "experiment sigma-fuzz",
    "experiment hata-yamaguti",
    "experiment box-dim --a 2/3 --levels 8",
    "experiment walk-mc --samples 10000 --horizon 10000 --seed 7",
    "experiment sigma-fuzz --trials 10000 --seed 7",
    "experiment hata-yamaguti --grid 100",
    "experiment walk-mc --samples 10000 --horizon 10000 --seed 1",
    "experiment sigma-fuzz --trials 10000 --seed 1",
    "experiment sigma-fuzz --trials 10000 --seed 2",
    "experiment box-dim --levels 4",
    "experiment walk-mc --samples 2 --horizon 10",
    "experiment sigma-fuzz --trials 2",
    "experiment hata-yamaguti --grid 2",
    "experiment walk-mc --samples 300 --horizon 1000 --seed 7",
    "experiment sigma-fuzz --trials 300 --seed 1",
    "experiment hata-yamaguti --step 1e-5 --grid 7",
    "experiment box-dim --a 1e-4000 --levels 4",  # 0.0 as a float
    "experiment box-dim --levels 11",
    "experiment box-dim --a 2/3 --levels 12",
    # the least step above 2**-54: 0.5 + h is the next float above 0.5
    "experiment hata-yamaguti --grid 10 --step 5.551115123125784e-17",
]
CLASSIFY = [
    f"classify {x}"
    for x in (
        "0", "1", "1/2", "1/3", "1/4", "5/9", "1/26", "2/729", "7/10000",
        "1/30011", "5/100003", "1/100003", "1/999983",
        # periods of 7, 8, 9, 16, 17 and 25 digits, and a preperiod of 8
        "1/1093", "1/41", "1/757", "1/17", "1/1871", "1/8951", "1/6561",
        # a period of 100002 digits; a preperiod of 5 before a period of 168
        "99741/100003", "1/245187",
    )
]
CONSTRUCT = [
    "construct --a 2/5 --level 1",
    "construct --a 2/5 --level 10 --format json",
] + [f"construct --a 2/5 --level 6 --format {fmt}" for fmt in ("csv", "json", "svg")]
EVAL = [
    f"eval --fn {fn} --format {fmt}"
    for fmt in ("csv", "json", "svg")
    for fn in (
        "takagi", "lebesgue", "okamoto", "K", "Kn", "okamoto --a 0.9",
        "lebesgue --a 0.8", "K --terms 20", "Kn --level 5",
    )
] + [f"eval --fn okamoto --a 0.7 --samples 100001 --format {f}" for f in ("csv", "json")]
EVAL += ["eval --fn okamoto --a 1e-17 --samples 3"]  # 1 - 2a rounds to 1.0
# the grid points k / 3^6, whose digits a float step gets wrong first
EVAL += [
    f"eval --fn okamoto --a {a} --samples 730 --format json" for a in (0.7, 0.85)
]

# calls that must fail, by the exit code they must give
USAGE = [
    "experiment --seed 3 walk-mc",
    "eval --fn takagi --a 0.5",
    "experiment hata-yamaguti --seed 5",
    "classify 1/4 --output /nonexistent/dir/x.json",
    "experiment hata-yamaguti --step -1e-6",  # argparse reads -1e-6 as a flag
]
DOMAIN = [
    "eval --fn lebesgue --a 7 --samples 9",
    "eval --fn K --samples 1",
    "eval --fn K --terms 0",
    "eval --fn Kn --level -1",
    "construct --a 3/2 --level 1",
    "construct --a x --level 1",
    "classify 3/2",
    "experiment box-dim --levels 2",
    "experiment box-dim --a 3/2 --levels 4",
    "experiment walk-mc --seed -1 --samples 2",
    "experiment sigma-fuzz --seed -1 --trials 2",
    "experiment sigma-fuzz --trials 0",
    "experiment sigma-fuzz --trials -5",
    "experiment hata-yamaguti --grid 0",
    "experiment hata-yamaguti --step 0",
    "experiment hata-yamaguti --step=-1e-6",
    "experiment hata-yamaguti --step 0.5",
    "experiment hata-yamaguti --step inf",
    # steps that leave 0.5 + h equal to 0.5 in floats
    "experiment hata-yamaguti --grid 10 --step 1e-17",
    "experiment hata-yamaguti --grid 10 --step 1e-300",
    "experiment hata-yamaguti --grid 10 --step 5.551115123125783e-17",
    # out of range, and too long to print in the message
    "classify 1e4000",
    "construct --a 1e4000 --level 1",
    "experiment box-dim --a 1e4000",
]
CAP = [
    "experiment box-dim --levels 13",
    "construct --a 2/5 --level 13",
    "eval --fn K --samples 2000000",
    "eval --fn K --terms 1001",
    "eval --fn Kn --level 1000",
    "experiment walk-mc --horizon 10000001 --samples 1",
    "experiment walk-mc --samples 1000001 --horizon 1",
    "experiment sigma-fuzz --trials 1000001",
    "experiment hata-yamaguti --grid 1000000",
    "classify 1/1000000007",
    # a period over the cap, of a rational too long to print in the message
    "classify 1e-4000",
    # more decimal digits than Python writes as text
    "classify 1e-5000",
    "construct --a 1e-5000 --level 1",
    "experiment box-dim --a 1e-5000 --levels 4",
    "construct --a 1e-4000 --level 2",
    # over the numerator bit cap of okamoto_iterative
    "construct --a 1e-4000 --level 12",
    "experiment box-dim --a 1e-4000 --levels 10",
]
# the help text of every parser
HELP = ["-h"] + [
    f"{command} -h"
    for command in (
        "eval", "construct", "classify", "experiment", "experiment box-dim",
        "experiment walk-mc", "experiment sigma-fuzz", "experiment hata-yamaguti",
    )
]
CALLS = EXPERIMENTS + CLASSIFY + CONSTRUCT + EVAL + USAGE + DOMAIN + CAP + HELP


def digest(call: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OKAMOTO_K_OUTDIR"}
    # argparse wraps its usage text to COLUMNS
    env.update(PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-m", "okamoto_k.cli", *shlex.split(call)],
        env=env,
        capture_output=True,
    )
    line = f"{hashlib.sha1(proc.stdout + proc.stderr).hexdigest()[:10]}  {call}"
    return line if proc.returncode == 0 else f"{line}  (exit {proc.returncode})"


if __name__ == "__main__":
    for call in CALLS:
        print(digest(call), flush=True)
