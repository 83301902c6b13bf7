"""Work done in forked children, on every usable CPU, through fork.

One type forks: `Producer(make)` iterates `make()` in a forked child,
which runs ahead of the caller: each item crosses a pipe as soon as it
is made, and the caller reads them in order, waiting only for an item
not yet made. The pipe's buffer bounds how far the child runs ahead.
`fan_out(fn, items)` maps a function over a list with producers: it
splits the items into contiguous shares, at most one per usable CPU,
starts one producer per share after the first, computes the first share
itself, then reads each producer in order, so the results come back in
input order and the first exception raised is the one the serial loop
would raise.

A child pickles what it sends, and the exception it raised, if any, and
ends with `os._exit`; the caller re-raises that exception where it
reads it. Fork, not a spawned pool: a forked child starts from the
caller's heap, so `fn` and `make` may be closures over any state and
only results cross a pipe, while a spawned worker would pay for a new
interpreter and a fresh import. One rule says where a producer forks:
where the process has a CPU to spare, the platform has `os.fork` and no
other thread runs (fork is unsafe in a process with other threads).
Anywhere else a producer iterates `make()` in-process as it is read,
so `fan_out` then runs the plain serial loop.

No child outlives its caller: `Producer.close` (or leaving its `with`
block) kills and reaps its child and closes the pipe, and `fan_out`
closes every producer before an exception propagates. A child that
exits without sending its end raises RuntimeError naming its exit
status.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack, suppress
from functools import partial
from typing import Generic, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a forked child would get a CPU of its own and forking is safe here."""
    return usable_cpus() >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def fan_out(fn: Callable[[T], R], items: list[T]) -> list[R]:
    """`[fn(x) for x in items]`, the shares after the first computed by producers."""
    n = max(1, min(len(items), usable_cpus()))
    cuts = [len(items) * k // n for k in range(n + 1)]
    with ExitStack() as producers:
        rest = [producers.enter_context(Producer(partial(map, fn, items[a:b]))) for a, b in zip(cuts[1:], cuts[2:])]
        results = [fn(x) for x in items[: cuts[1]]]
        for producer in rest:
            results.extend(producer)
    return results


class Producer(Generic[T]):
    """The items of `make()`, made ahead in a forked child while the caller reads them.

    The child sends each item as `(True, item)`, then `(False, None)` at
    the end or `(False, exception)` if making an item raised, and exits.
    Where forking is ruled out, `make()` is iterated in-process as the
    items are read, so the items and any exception come in the same
    order either way. Close it, or use it as a context manager, to end
    the child early.
    """

    def __init__(self, make: Callable[[], Iterable[T]]):
        self._pid: int | None = None  # the child's, where there is one
        if not _can_fork():
            self._items = iter(make())
            return
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            os.close(read_end)
            _serve(make, write_end)  # never returns
        os.close(write_end)  # the child's exit is then the pipe's end of file
        self._pid, self._pipe = pid, open(read_end, "rb")
        self._status: int | None = None  # the child's exit status, once reaped
        self._items = self._receive()

    def __iter__(self) -> Iterator[T]:
        return self

    def __next__(self) -> T:
        return next(self._items)

    def close(self) -> None:
        """Kill and reap the child, if it still runs, and close its pipe."""
        if self._pid is not None:
            self._reap(kill=True)

    def __enter__(self) -> Producer[T]:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _receive(self) -> Iterator[T]:
        """Each item the child sends, in order; at the end, reap it and raise what it raised."""
        while True:
            try:
                more, value = pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):
                status = self._reap(kill=False)
                raise RuntimeError(
                    f"forked child {self._pid} exited with status {status} before sending its results"
                ) from None
            if not more:
                break
            yield value
        self._reap(kill=False)
        if value is not None:
            raise value

    def _reap(self, kill: bool) -> int:
        """Close the pipe and reap the child, killing it first unless it is known to be ending."""
        if self._status is None:
            self._pipe.close()
            if kill:
                with suppress(ProcessLookupError):
                    os.kill(self._pid, signal.SIGKILL)
            self._status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self._status


def _serve(make: Callable[[], Iterable], write_end: int) -> None:
    """In a forked child: send each item of make(), then the end or the exception, and exit."""
    status = 1
    try:
        with open(write_end, "wb") as pipe:
            try:
                for item in make():
                    # pickled whole before any byte is written, so a failed
                    # pickle leaves no part of a message in the pipe
                    pipe.write(pickle.dumps((True, item)))
                    pipe.flush()
                end = (False, None)
            except BaseException as exc:  # sent back to the parent, which raises it
                end = (False, exc)
            pipe.write(pickle.dumps(end))
        status = 0
    finally:
        os._exit(status)
