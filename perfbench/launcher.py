"""Spawns and reaps the benchmark's child processes from a small process.

On Linux a child's ``ru_maxrss`` starts from the memory high-water mark
of the process that forked it, so children forked by ``run.py`` (which
holds the oracle's data) would report its peak instead of
their own.  ``run.py`` therefore starts this launcher first, while it is
still small, and sends it one JSON request per line on standard input::

    {"argv": [...], "cwd": "...", "env": {...}, "log": "...", "timeout": 120}

For each it appends the spawn time (``time.monotonic()``) to ``argv``,
runs the child with output to ``log``, kills it after ``timeout``
seconds, reaps it with ``os.wait4`` and answers with one JSON line::

    {"code": 0, "spawned": ..., "ended": ..., "cpu_s": ..., "maxrss_kib": ...}

It exits when its standard input closes.

The launcher also turns off address-space randomization for itself and
so for every child (``personality(ADDR_NO_RANDOMIZE)``, as
``setarch -R`` does), and ``run.py`` fixes each child's
``PYTHONHASHSEED``: a process's speed depends on where its heap lands
and how its sets hash, and with both left random, processes running
identical work differed by a fifth.  The reply's ``aslr_off`` says
whether the kernel allowed it.
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import threading
import time


ADDR_NO_RANDOMIZE = 0x0040000


def disable_aslr() -> bool:
    """Turn off address-space randomization for this process's future children."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current == -1:
        return False
    return personality(current | ADDR_NO_RANDOMIZE) != -1 and bool(
        personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE
    )


def run_one(request: dict, aslr_off: bool) -> dict:
    with open(request["log"], "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        process = subprocess.Popen(
            request["argv"] + [repr(spawned)],
            cwd=request["cwd"],
            env=request["env"],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(request["timeout"], process.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    process.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": process.returncode,
        "spawned": spawned,
        "ended": ended,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "aslr_off": aslr_off,
    }


def main() -> None:
    aslr_off = disable_aslr()
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run_one(json.loads(line), aslr_off)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
