"""The one place botledger forks: a stage deals its work into shares, by
``deal`` or by cuts of its own, and ``run_shares`` runs each in a forked
child that sends its result back through a pipe.
"""

from __future__ import annotations

import ctypes
import glob
import os
import pickle
import signal
import warnings
from contextlib import contextmanager, nullcontext
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import BotledgerError

_T = TypeVar("_T")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextmanager
def _on_cpu(index: int) -> Iterator[None]:
    """Run this thread on the ``index``-th of its usable CPUs, where the
    platform allows it, then on all of them again.  Left to the scheduler, a
    forked child can share its parent's CPU for the whole of its work."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[index % len(usable)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, usable)


def openblas_function(name: str) -> Callable | None:
    """The function ``openblas_<name>`` of numpy's bundled OpenBLAS, under
    whichever symbol that build exports, when there is one."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def deal(weights: Sequence[float]) -> list[slice]:
    """The items of ``weights`` dealt into ``min(items, usable CPUs)``
    contiguous shares, none empty, cut at the item starts nearest to equal
    weight, or into one share without ``fork``."""
    n = min(len(weights), usable_cpus()) if hasattr(os, "fork") else 1
    if n < 2:
        return [slice(0, len(weights))]
    before = np.concatenate(([0], np.cumsum(weights)))  # the weight before each item, and the total
    cuts = np.abs(before[:-1, None] - before[-1] * np.arange(1, n) / n).argmin(axis=0)
    edges = np.unique([0, *cuts.tolist(), len(weights)]).tolist()
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def run_shares(
    first: Callable[[], _T] | None, others: Iterable[Callable[[], _T]], died: Callable[[int], str]
) -> list[_T]:
    """What each share returns, in share order: ``first``, when given, run
    here, and each of ``others`` in a child forked as it is drawn, so a
    share's inputs can be built just before its fork and dropped after it.

    The first share, in that order, that raises raises here; a child that
    dies raises ``BotledgerError`` with ``died`` of its share's number,
    counted from 0.  When a fork fails, that share and the later ones run
    here after the children.  With one share, nothing forks.  This process
    and the children are pinned to CPUs of their own only while it runs
    ``first`` beside them.  No child outlives the call.
    """
    pinned, others = first is not None, iter(others)
    if first is None:
        ahead = list(islice(others, 2))
        if len(ahead) == 1:
            return [ahead[0]()]
        others = chain(ahead, others)
    children: list[tuple[int, int]] = []
    here: Iterable[Callable[[], _T]] = ()  # the shares run here after the children
    try:
        for work in others:
            try:
                children.append(_in_child(work, len(children) + 1 if pinned else None))
            except OSError:  # no process to spare
                here = chain([work], others)
                break
            del work  # the share is the child's alone now
        results = []
        if first is not None:
            with _on_cpu(0) if children else nullcontext():
                results.append(first())
        while children:
            pid, read = children.pop(0)
            result = _child_result(pid, read)
            if result is None:
                raise BotledgerError(f"{died(len(results))}, for example because the out-of-memory killer stopped it")
            if isinstance(result, Exception):
                raise result
            results.append(result)
    finally:
        for pid, read in children:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results + [work() for work in here]


def _in_child(work: Callable[[], object], cpu: int | None) -> tuple[int, int]:
    """Fork a child that sends what ``work`` returns, or the exception it
    raises, through a pipe, and exits 0 once all is sent; its pid and the
    pipe's read end.  The child runs one OpenBLAS thread, so children do not
    each start one per core, on the ``cpu``-th usable CPU unless that is
    None.  Arrays go after their pickle, as raw bytes that ``_child_result``
    reads into place."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that fork() in a process with threads may deadlock the child; the
            # threads are OpenBLAS's, whose fork handler stops them first, and they start again on use
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        try:
            set_blas_threads = openblas_function("set_num_threads")
            if set_blas_threads is not None:
                set_blas_threads.argtypes, set_blas_threads.restype = [ctypes.c_int], None
                set_blas_threads(1)
            with nullcontext() if cpu is None else _on_cpu(cpu):
                result: object = work()
        except Exception as exc:
            result = exc
        buffers: list[pickle.PickleBuffer] = []
        head = pickle.dumps(result, protocol=5, buffer_callback=buffers.append)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump((head, [buffer.raw().nbytes for buffer in buffers]), pipe, protocol=5)
            for buffer in buffers:
                pipe.write(buffer.raw())
        code = 0
    finally:
        os._exit(code)


def _child_result(pid: int, read: int) -> object:
    """What the child ``pid`` of ``_in_child`` sent through ``read``, or None
    when it exited without sending all of it.  The child is reaped, and
    killed first if this is interrupted."""
    try:
        with os.fdopen(read, "rb") as pipe:
            try:
                head, sizes = pickle.load(pipe)
                buffers = [bytearray(size) for size in sizes]
                for buffer in buffers:
                    pipe.readinto(buffer)
            except (EOFError, pickle.UnpicklingError):  # the child died part-way
                pass
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    # the child exits 0 only once all is sent
    return pickle.loads(head, buffers=buffers) if os.waitstatus_to_exitcode(status) == 0 else None
