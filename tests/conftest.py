import contextlib
import glob
import os

import pytest


def _children():
    """Pids of this process's children, running or not yet reaped, as
    ``/proc/<pid>/task/*/children`` lists them (reading reaps nothing); None
    where the kernel provides no such file."""
    paths = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not paths:
        return None
    pids = set()
    for path in paths:
        with contextlib.suppress(FileNotFoundError):  # a thread that ended meanwhile
            with open(path) as fh:
                pids.update(map(int, fh.read().split()))
    return pids


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or unreaped: a
    table worker or a ``data.csv`` writer must end, and be reaped, before ``main``
    returns."""
    before = _children()
    yield
    if before is not None and (left := _children() - before):
        pytest.fail(f"the test left child process(es) {sorted(left)} running or unreaped")
