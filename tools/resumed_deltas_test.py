#!/usr/bin/env python3
"""A resumed --emit deltas feed continues the uninterrupted one exactly.

For a memory window and for --window-store disk: checkpoint at 8000 with
--wal, run on to 12000, and delete the final checkpoint, so a --resume
replays the 8000 checkpoint plus a 4000-record WAL tail (four windows).
The resumed run's stdout must equal the uninterrupted 20000-step feed
minus the feed of an uninterrupted run that stops at step 12000: replay
is not news, and every delta after it is exact.

Usage: resumed_deltas_test.py PSKY_STREAM_BINARY
"""

import os
import shutil
import subprocess
import sys
import tempfile

MODES = {
    "memory": [],
    "disk": ["--window-store", "disk", "--segment-elems", "256"],
}
CHECKPOINT = 8_000
RESUME_AT = 12_000
COUNT = 20_000


def run(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        sys.exit(f"FAIL: exit {p.returncode}: {' '.join(cmd)}\n{p.stderr}")
    return p


def check_mode(binary, work, name, flags):
    base = [binary, "--generate", "anti", "--dims", "3", "--q", "0.3",
            "--window", "1000", "--emit", "deltas", "--seed", "17"] + flags
    ck = os.path.join(work, name)

    def store(tag):
        return ["--store-dir", os.path.join(work, f"{name}-{tag}-segs")]

    full = run(base + ["--count", str(COUNT)] + store("full")).stdout
    head = run(base + ["--count", str(RESUME_AT)] + store("head")).stdout
    if not full.startswith(head) or len(head) == len(full):
        return [f"{name}: the {RESUME_AT}-step feed is not a proper prefix "
                f"of the {COUNT}-step one"]
    run(base + ["--count", str(RESUME_AT), "--checkpoint-dir", ck,
                "--checkpoint-every", str(CHECKPOINT), "--wal"] +
        store("prep"))
    os.remove(os.path.join(ck, f"ckpt-{RESUME_AT:020d}.psky"))
    res = run(base + ["--count", str(COUNT), "--checkpoint-dir", ck,
                      "--wal", "--resume"] + store("res"))
    problems = []
    if f"resumed at step {CHECKPOINT} " not in res.stderr:
        problems.append(f"{name}: did not resume from the {CHECKPOINT} "
                        f"checkpoint:\n{res.stderr}")
    if res.stdout != full[len(head):]:
        problems.append(f"{name}: resumed deltas differ from the "
                        f"uninterrupted feed after step {RESUME_AT}")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    work = tempfile.mkdtemp(prefix="psky_deltas_")
    problems = []
    try:
        for name, flags in MODES.items():
            problems += check_mode(sys.argv[1], work, name, flags)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        sys.exit("FAIL:\n" + "\n".join(problems))
    print(f"ok: {', '.join(MODES)}")


if __name__ == "__main__":
    main()
