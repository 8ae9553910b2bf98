"""Forked workers for the range commands' run loop.

``forked_map`` is ``map(block, blocks)`` spread over this process and children
forked from it, with the results in order.  A child sends each result down
its own pipe as one length-prefixed pickle, so nothing but ``os.fork``, a pipe
and ``pickle`` is needed: no ``multiprocessing``, no pool start-up, and the
children start with every module and cache the parent has loaded.  The range
commands import this module only when a run forks, which ``sweep._run``
decides once its first block has run: with more than one worker, and only
when the blocks left would take longer here than a fork costs.
"""

from __future__ import annotations

import os
import pickle
import signal
from itertools import islice
from typing import IO, Callable, Iterator, NoReturn

__all__ = ["forked_map"]


class _WorkerTraceback(Exception):
    """A forked worker's formatted traceback, set as the ``__cause__`` of the
    error it sent, so that the worker's frames reach stderr."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def forked_map(
    block: Callable[[range], tuple], blocks: Iterator[range], workers: int
) -> Iterator[tuple]:
    """``map(block, blocks)`` over this process and ``workers - 1`` children
    forked on the first ``next``, in order.

    Counting the caller's first block, run before this is called, as block
    0, block i runs here when i % workers == 0 and in child i % workers
    otherwise, so every child starts with the caches the caller filled.  A
    child sends each block's result down its own pipe as one length-prefixed
    pickle, and a block is read only when it is next in order.  A pipe that
    ends before its block means that child died: the run then fails, naming
    it.  However the generator ends or is closed, every child is killed and
    reaped first.
    """
    children: dict[int, tuple[int, IO[bytes]]] = {}  # child index -> (pid, pipe)
    try:
        for j in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: _child_loop never returns
                os.close(r)
                for _, pipe in children.values():
                    pipe.close()
                _child_loop(block, islice(blocks, j - 1, None, workers), w)
            os.close(w)
            children[j] = pid, open(r, "rb")
        for i, items in enumerate(blocks, 1):
            j = i % workers
            if j == 0:
                yield block(items)
                continue
            pid, pipe = children[j]
            header = pipe.read(8)
            size = int.from_bytes(header, "little")
            data = pipe.read(size) if len(header) == 8 else b""
            if not data or len(data) < size:  # the pipe ended first: the child died
                del children[j]
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"worker process {pid} died before sending its rows ({how})")
            payloads, error, tb = pickle.loads(data)
            if error is not None:
                error.__cause__ = _WorkerTraceback(tb)
            yield payloads, error
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_loop(block: Callable[[range], tuple], blocks: Iterator[range], fd: int) -> NoReturn:
    """A forked worker: run ``blocks`` up to the first error and send each
    ``(payloads, error, traceback text)`` down ``fd``.  It leaves only through
    ``os._exit``, so it never flushes inherited stdio buffers or runs exit
    handlers; one that cannot send a block (an error that does not pickle,
    say) exits with status 1, which the parent reports as a dead worker."""
    code = 1
    try:
        pipe = open(fd, "wb")
        for items in blocks:
            payloads, error = block(items)
            tb = None
            if error is not None:
                import traceback

                tb = "".join(traceback.format_exception(type(error), error, error.__traceback__))
            data = pickle.dumps((payloads, error, tb), pickle.HIGHEST_PROTOCOL)
            pipe.write(len(data).to_bytes(8, "little") + data)
            pipe.flush()
            if error is not None:
                break
        code = 0
    finally:
        os._exit(code)
