#!/usr/bin/env python3
"""Peak-RSS guard: checkpointing and resuming never re-materialize the window.

A checkpoint is the window streamed in place and a resume is that stream
replayed, so neither may cost a second copy of the window. At w=100k, d=3
this runs psky_stream in each posture and compares the peak RSS of its
process (os.wait4 ru_maxrss) against a fresh run of the same posture:

  * a memory-window run resumed from a checkpoint;
  * a --wal --window-store disk run resumed from a checkpoint plus a short
    WAL tail;
  * the same posture with --emit deltas resumed over a long WAL tail: the
    tail streams record by record, and the band changes the replay
    records are dropped as it goes, not kept until the feed starts;
  * a fresh run with --checkpoint-dir (one final checkpoint) against the
    same run without it.

Each must stay within half the in-memory window (100k elements of 96
bytes, so 4.8 MB) of its baseline; a copy of the window is twice that.
RSS is meaningless under ASan/TSan, so the build registers this test only
without -fsanitize.

Usage: rss_guard_test.py PSKY_STREAM_BINARY
"""

import os
import shutil
import subprocess
import sys
import tempfile

WINDOW = 100_000
PREPARED = 100_000  # stream position of the checkpoint a resume starts at
TAIL = 2_000        # WAL records past that checkpoint
LONG_TAIL = 50_000  # ... and for the --emit deltas posture
COUNT = PREPARED + TAIL + 8_000
MARGIN_MB = WINDOW * 96 / 2 / 1e6


def peak_rss_mb(cmd):
    """Runs `cmd` to completion; returns its peak RSS in MB."""
    p = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.stderr.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"FAIL: exit {code}: {' '.join(cmd)}\n{err.decode()}")
    return usage.ru_maxrss / 1024.0


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    work = tempfile.mkdtemp(prefix="psky_rss_")
    base = [binary, "--generate", "inde", "--dims", "3", "--q", "0.3",
            "--window", str(WINDOW), "--every", "0", "--seed", "5"]
    disk = ["--wal", "--window-store", "disk"]

    def ckpt(name):
        return ["--checkpoint-dir", os.path.join(work, name)]

    def count(n):
        return ["--count", str(n)]

    failures = []

    def check(label, got, baseline):
        verdict = "ok" if got <= baseline + MARGIN_MB else "FAIL"
        print(f"{verdict}: {label}: {got:.1f} MB vs {baseline:.1f} MB "
              f"+ {MARGIN_MB:.1f} MB margin")
        if verdict != "ok":
            failures.append(label)

    try:
        # Memory window: checkpoint at PREPARED, then resume to COUNT.
        peak_rss_mb(base + count(PREPARED) + ckpt("mem"))
        resumed = peak_rss_mb(base + count(COUNT) + ckpt("mem") + ["--resume"])
        fresh = peak_rss_mb(base + count(COUNT) + ckpt("mem_fresh"))
        check("memory resume", resumed, fresh)

        # --wal --window-store disk: checkpoint at PREPARED and a TAIL-record
        # WAL past it (the final checkpoint is dropped so the tail replays).
        peak_rss_mb(base + count(PREPARED + TAIL) + ckpt("dsk") + disk +
                    ["--checkpoint-every", str(PREPARED)])
        os.remove(os.path.join(work, "dsk",
                               f"ckpt-{PREPARED + TAIL:020d}.psky"))
        resumed = peak_rss_mb(base + count(COUNT) + ckpt("dsk") + disk +
                              ["--resume"])
        fresh = peak_rss_mb(base + count(COUNT) + ckpt("dsk_fresh") + disk)
        check("wal+disk resume", resumed, fresh)

        # The same with --emit deltas and a LONG_TAIL-record WAL past the
        # checkpoint.
        deltas = disk + ["--emit", "deltas"]
        peak_rss_mb(base + count(PREPARED + LONG_TAIL) + ckpt("dlt") +
                    deltas + ["--checkpoint-every", str(PREPARED)])
        os.remove(os.path.join(work, "dlt",
                               f"ckpt-{PREPARED + LONG_TAIL:020d}.psky"))
        end = count(PREPARED + LONG_TAIL + 8_000)
        resumed = peak_rss_mb(base + end + ckpt("dlt") + deltas +
                              ["--resume"])
        fresh = peak_rss_mb(base + end + ckpt("dlt_fresh") + deltas)
        check("wal+disk deltas resume over a long tail", resumed, fresh)

        # A final checkpoint streams the window; it must not copy it.
        with_ckpt = peak_rss_mb(base + count(COUNT) + ckpt("final"))
        without = peak_rss_mb(base + count(COUNT))
        check("final checkpoint", with_ckpt, without)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failures:
        sys.exit("FAIL: " + ", ".join(failures))


if __name__ == "__main__":
    main()
