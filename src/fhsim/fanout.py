"""Map a function over a list on every usable CPU, through fork.

`fan_out(fn, items)` splits the items into contiguous shares, at most
one per usable CPU. It forks one child per share after the first; each
child pickles its results, or the exception its share raised, back
through a pipe and ends with `os._exit`. The calling process computes
the first share itself, then reads each pipe in order and reaps every
child, so the results come back in input order and the first exception
raised is the one the serial loop would raise.

Fork, not a spawned pool: a forked child starts from the caller's heap,
so `fn` may be a closure over any state and only results cross a pipe,
while a spawned worker would pay for a new interpreter and a fresh
import. Fork is unsafe in a process with other threads running, so that
case, a single item, a single usable CPU and a platform without
`os.fork` run the plain serial loop instead.

No child outlives the call: if the caller's own share raises or is
interrupted, every child is killed and reaped before the exception
propagates. A child that exits without sending a complete result raises
RuntimeError naming its exit status.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from contextlib import suppress
from typing import Callable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn: Callable[[T], R], items: list[T]) -> list[R]:
    """`[fn(x) for x in items]`, the shares after the first computed in forked children."""
    n = min(len(items), usable_cpus())
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(x) for x in items]
    cuts = [len(items) * k // n for k in range(n + 1)]
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    statuses: dict[int, int] = {}  # pid -> exit status, once reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _serve(fn, share, write_end)  # never returns
            os.close(write_end)  # the child's exit is then the pipe's end of file
            children.append((pid, read_end))
        results = [fn(x) for x in shares[0]]
        payloads = []
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())  # up to the end of file: the child's exit
            statuses[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        for pid, read_end in children:
            os.close(read_end)
            if pid not in statuses:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
    for (pid, _), payload in zip(children, payloads):
        if statuses[pid] != 0 or not payload:
            raise RuntimeError(f"fan-out child {pid} exited with status {statuses[pid]} before sending its results")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results.extend(value)
    return results


def _serve(fn: Callable[[T], R], share: list[T], write_end: int) -> None:
    """In a forked child: send (True, results) or (False, exception) through the pipe, then exit."""
    status = 1
    try:
        try:
            data = pickle.dumps((True, [fn(x) for x in share]))
        except BaseException as exc:  # sent back to the parent, which raises it
            data = pickle.dumps((False, exc))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
