"""Byte ranges of a file, and work on each range in a forked process.

``byte_ranges`` cuts a large regular file into one range per usable CPU,
each ending just after a ``\\n`` byte, so that every range starts a line,
and each holding at least its caller's floor of bytes: ``ANALYZE_FLOOR``
for ``analyze``'s corpus, ``TRAIN_FLOOR`` for ``train``'s labeled file.
``forked`` runs a function over every range given to it, each in a child
process of its own made with ``os.fork``: the child sends the function's
result back through a pipe as a pickle, and leaves with ``os._exit``. The
caller works on the first range itself meanwhile, and then receives the
children's results in order.
"""

from __future__ import annotations

import os
import pickle
import signal
import stat
import threading
from contextlib import contextmanager

# A file is cut only where every range gets at least its caller's floor of
# bytes: below it, forking, sending the results back and merging them cost
# more than the range saves.
#
# analyze's corpus. On a shared 2-vCPU KVM host (Intel Xeon), two ranges
# began to pay at a corpus of under 1 MiB when the second vCPU was free, and
# not below 2 MiB when it was busy; at 6 MiB they paid in either state.
ANALYZE_FLOOR = 1 << 20
# train's labeled file, whose ranges are only read, checked, tokenized and
# counted. On the same host, on the benchmark's seed-1 labeled texts, timed
# from the start of a fresh train process to its gradient descent: with the
# second vCPU free, two ranges won 12 to 16 of 16 runs at each size from
# 193 KB up, and took 36.2 against 51.5 ms at 385 KB (medians); with it
# busy, they lost 6 to 10 ms at each size up to 615 KB and broke even at
# 768 KB (10 runs each). So a file is cut from 384 KiB.
TRAIN_FLOOR = 192 << 10


def usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 on a platform without
    ``os.sched_getaffinity`` (each one with it has ``os.fork``), and while
    another thread runs: a forked child would hold none of that thread's
    work but every lock it held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def byte_ranges(path, floor: int) -> list[tuple[int, int | None]]:
    """``(start, end)`` byte ranges that cover the file at ``path`` in
    order, at most one per usable CPU; the last one's end is None, the end
    of the file. Every range holds at least ``floor`` bytes, and each
    but the last ends just after a ``\\n``. A file that is not regular, is
    too small, or has no ``\\n`` to cut after is one range."""
    try:
        info = os.stat(path)
        parts = min(usable_cpus(), info.st_size // floor) if stat.S_ISREG(info.st_mode) else 1
        starts = [0]
        if parts > 1:
            with open(path, "rb") as stream:
                for i in range(1, parts):
                    at = max(info.st_size * i // parts, starts[-1] + floor)
                    cut = _after_newline(stream, at)
                    if cut is None or info.st_size - cut < floor:
                        break
                    starts.append(cut)
    except OSError:  # the reader reports it
        return [(0, None)]
    return list(zip(starts, [*starts[1:], None]))


def _after_newline(stream, offset: int) -> int | None:
    """The offset just after the first ``\\n`` at or after ``offset`` in
    the binary ``stream``, or None if there is none."""
    stream.seek(offset)
    while block := stream.read(1 << 16):
        found = block.find(b"\n")
        if found >= 0:
            return offset + found + 1
        offset += len(block)
    return None


@contextmanager
def forked(work, ranges):
    """Run ``work(start, end)`` for each of ``ranges``, each in a forked
    child process that sends its result back as a pickle. Yields the list
    of ``Child`` handles, in the order of ``ranges``. However the block is
    left, every child is then killed, if it still runs, and reaped."""
    children: list[Child] = []
    try:
        for start, end in ranges:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                # no reader left in the child, so a write fails once the parent is gone
                os.close(read)
                for child in children:
                    child.stream.close()
                _child(work, start, end, write)
            children.append(Child(pid, open(read, "rb")))
            os.close(write)
        yield children
    finally:
        for child in children:
            child.stream.close()
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)


class Child:
    """A forked child process and the read end of its pipe."""

    def __init__(self, pid: int, stream):
        self.pid = pid
        self.stream = stream

    def receive(self):
        """The child's result, once it is sent; where the child raised
        instead, its exception is raised here."""
        try:
            ok, value = pickle.load(self.stream)
        except EOFError:
            raise ChildProcessError(f"process {self.pid} ended without a result") from None
        if not ok:
            raise value
        return value


def _child(work, start: int, end: int | None, write: int):
    """The forked child: send ``(True, result)`` of ``work``, or
    ``(False, exception)`` where it raises, through ``write``, and leave
    without running any of the parent's exit handlers or flushing its
    buffers."""
    try:
        with open(write, "wb") as stream:
            try:
                result = work(start, end)
            except BaseException as exc:  # the parent raises it
                _send(stream, False, exc)
            else:
                _send(stream, True, result)
    finally:
        os._exit(0)


def _send(stream, ok: bool, value) -> None:
    try:
        data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # an object, or an exception, that does not pickle
        data = pickle.dumps((False, RuntimeError(f"{value!r} does not pickle: {exc}")))
    stream.write(data)
