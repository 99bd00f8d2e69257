"""Process hygiene: nothing a workload starts may outlive it.

``watch`` points every temporary file (spill runs, checkpoints) into a
directory inside the checkout and, when the block ends, reports worker
processes still alive, listening sockets still open and temp entries
still on disk.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path


def listening_sockets() -> set[str]:
    """Inodes of the TCP sockets this process holds in LISTEN state."""
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed between listdir and readlink
        if target.startswith("socket:["):
            held.add(target[len("socket:["):-1])
    listening = set()
    for table in ("/proc/self/net/tcp", "/proc/self/net/tcp6"):
        try:
            with open(table) as fh:
                rows = fh.readlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in held:
                listening.add(fields[9])
    return listening


@contextmanager
def watch(work_dir: Path, label: str):
    """Yield a list that holds, after the block, everything that leaked."""
    tmp = work_dir / f"tmp-{label}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    listening_before = listening_sockets()
    leaks: list[str] = []
    try:
        yield leaks
    finally:
        gc.collect()  # stores drop their spill directories when collected
        for process in multiprocessing.active_children():
            leaks.append(f"process {process.pid} ({process.name})")
            process.terminate()
            process.join()
        for inode in listening_sockets() - listening_before:
            leaks.append(f"listening socket inode {inode}")
        leaks.extend(f"temp entry {name}" for name in os.listdir(tmp))
        shutil.rmtree(tmp, ignore_errors=True)
        tempfile.tempdir = previous[1]
        if previous[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous[0]
