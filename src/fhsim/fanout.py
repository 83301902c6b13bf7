"""Work done in forked children, on every usable CPU, through fork.

Two entry points share one fork, relay and reap implementation, `_Child`:

* `fan_out(fn, items)` maps a function over a list. It splits the items
  into contiguous shares, at most one per usable CPU, and forks one
  child per share after the first. The calling process computes the
  first share itself, then reads each child's results in order, so the
  results come back in input order and the first exception raised is
  the one the serial loop would raise.
* `Producer(make)` iterates `make()` in one forked child, which runs
  ahead of the caller: each item crosses a pipe as soon as it is made,
  and the caller reads them in order, waiting only for an item not yet
  made. The pipe's buffer bounds how far the child runs ahead.

A child pickles what it sends, and the exception it raised, if any, and
ends with `os._exit`; the caller re-raises that exception where it
reads it. Fork, not a spawned pool: a forked child starts from the
caller's heap, so `fn` and `make` may be closures over any state and
only results cross a pipe, while a spawned worker would pay for a new
interpreter and a fresh import. Fork is unsafe in a process with other
threads running, so that case, a single usable CPU and a platform
without `os.fork` compute in-process instead: `fan_out` runs the plain
serial loop (as it does for a single item), and a `Producer` iterates
`make()` as it is read.

No child outlives its caller: `fan_out` kills and reaps every child
before an exception propagates, and `Producer.close` (or leaving its
`with` block) kills and reaps its child and closes the pipe. A child
that exits without sending its end raises RuntimeError naming its exit
status.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import suppress
from typing import Generic, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork(workers: int) -> bool:
    """Whether `workers` processes would each get a CPU and forking is safe here."""
    return workers >= 2 and hasattr(os, "fork") and threading.active_count() == 1


def fan_out(fn: Callable[[T], R], items: list[T]) -> list[R]:
    """`[fn(x) for x in items]`, the shares after the first computed in forked children."""
    n = min(len(items), usable_cpus())
    if not _can_fork(n):
        return [fn(x) for x in items]
    cuts = [len(items) * k // n for k in range(n + 1)]
    shares = [items[a:b] for a, b in zip(cuts, cuts[1:])]
    children: list[_Child] = []
    try:
        for share in shares[1:]:
            # a child sends its share's results as one item, once all are made
            children.append(_Child(lambda share=share: [[fn(x) for x in share]]))
        results = [fn(x) for x in shares[0]]
        for child in children:
            [share_results] = child.receive()
            results.extend(share_results)
    finally:
        for child in children:
            child.close()
    return results


class Producer(Generic[T]):
    """The items of `make()`, made ahead in a forked child while the caller reads them.

    Where a child cannot run on a CPU of its own, or forking is unsafe,
    `make()` is iterated in-process as the items are read, so the items
    and any exception come in the same order either way. Close it, or
    use it as a context manager, to end the child early.
    """

    def __init__(self, make: Callable[[], Iterable[T]]):
        self._child = _Child(make) if _can_fork(usable_cpus()) else None
        self._items = self._child.receive() if self._child else iter(make())

    def __iter__(self) -> Iterator[T]:
        return self

    def __next__(self) -> T:
        return next(self._items)

    def close(self) -> None:
        """Kill and reap the child, if it still runs, and close its pipe."""
        if self._child is not None:
            self._child.close()

    def __enter__(self) -> Producer[T]:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Child:
    """A forked child sending the items of `make()` through a pipe, and the read end of that pipe.

    The child sends each item as `(True, item)`, then `(False, None)` at
    the end or `(False, exception)` if making an item raised, and exits.
    """

    def __init__(self, make: Callable[[], Iterable]):
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
        self.pid, self.pipe = pid, open(read_end, "rb")
        self.status: int | None = None  # its exit status, once reaped

    def receive(self) -> Iterator:
        """Each item the child sends, in order; at the end, reap it and raise what it raised."""
        while True:
            try:
                more, value = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                status = self.close(kill=False)
                raise RuntimeError(
                    f"forked child {self.pid} exited with status {status} before sending its results"
                ) from None
            if not more:
                break
            yield value
        self.close(kill=False)
        if value is not None:
            raise value

    def close(self, kill: bool = True) -> int | None:
        """Close the pipe and reap the child, killing it first unless it is known to be ending."""
        if self.status is None:
            self.pipe.close()
            if kill:
                with suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


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
