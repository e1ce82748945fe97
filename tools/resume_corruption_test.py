#!/usr/bin/env python3
"""Resume after a corrupt newest checkpoint, in every window mode.

For memory count windows, --time-span, --window-store disk,
--wal --window-store disk and --shards 2: checkpoint at 4000 and 6000,
flip a payload byte of the 6000 one, and --resume to 8000. Each mode must

  * print the same stdout as an uninterrupted run;
  * name the corrupt file exactly once on stderr;
  * keep the valid 4000 checkpoint through the resumed run's own pruning
    (the corrupt file is renamed to <name>.corrupt and holds no slot).

Usage: resume_corruption_test.py PSKY_STREAM_BINARY
"""

import os
import shutil
import subprocess
import sys
import tempfile

MODES = {
    "memory": [],
    "time": ["--time-span", "900"],
    "disk": ["--window-store", "disk", "--segment-elems", "128"],
    "wal-disk": ["--wal", "--window-store", "disk", "--segment-elems", "128"],
    "shards": ["--shards", "2"],
}


def ckpt_name(step):
    return f"ckpt-{step:020d}.psky"


def run(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"FAIL: exit {p.returncode}: {' '.join(cmd)}\n{p.stderr}")
    return p


def check_mode(binary, work, name, flags):
    base = [binary, "--generate", "inde", "--dims", "3", "--q", "0.3",
            "--window", "1000", "--emit", "final", "--seed", "31"] + flags
    ck = os.path.join(work, name)
    segs = ["--store-dir", os.path.join(work, name + "-segs")]
    full = run(base + ["--count", "8000", "--checkpoint-dir", ck + "-full"] +
               segs).stdout
    run(base + ["--count", "6000", "--checkpoint-dir", ck,
                "--checkpoint-every", "2000"] + segs)
    victim = os.path.join(ck, ckpt_name(6000))
    with open(victim, "r+b") as f:
        f.seek(-9, os.SEEK_END)
        byte = f.read(1)[0]
        f.seek(-9, os.SEEK_END)
        f.write(bytes([byte ^ 0x10]))
    res = run(base + ["--count", "8000", "--checkpoint-dir", ck,
                      "--resume"] + segs)
    problems = []
    if res.stdout != full:
        problems.append("stdout differs from the uninterrupted run")
    if res.stderr.count(victim) != 1:
        problems.append(f"stderr names {victim} "
                        f"{res.stderr.count(victim)} times, not once")
    kept = sorted(n for n in os.listdir(ck) if n.endswith(".psky"))
    if kept != [ckpt_name(4000), ckpt_name(8000)]:
        problems.append(f"retained checkpoints are {kept}")
    if not os.path.exists(victim + ".corrupt"):
        problems.append("corrupt checkpoint was not kept as .corrupt")
    for p in problems:
        print(f"FAIL: {name}: {p}\n{res.stderr}")
    if not problems:
        print(f"ok: {name}")
    return not problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    work = tempfile.mkdtemp(prefix="psky_resume_corrupt_")
    try:
        results = [check_mode(sys.argv[1], work, name, flags)
                   for name, flags in MODES.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not all(results):
        sys.exit(1)


if __name__ == "__main__":
    main()
