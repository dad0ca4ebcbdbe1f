"""The contract of ``parallel.run_shares`` and ``parallel.deal``."""

import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from botledger import parallel
from botledger.errors import BotledgerError

FORKS = pytest.mark.skipif(not hasattr(os, "fork"), reason="every share runs in this process here")
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None


def _forks_recorded(monkeypatch, fail_at: int | None = None) -> list[int]:
    """The pids ``os.fork`` returns to this process from now on; the ``fail_at``-th fork, counted
    from 1, fails as when no process is to spare."""
    forked: list[int] = []
    calls = []
    real_fork = os.fork

    def recording_fork():
        calls.append(True)
        if len(calls) == fail_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork, raising=False)
    return forked


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if _CPUS is not None:
        assert sorted(os.sched_getaffinity(0)) == _CPUS


def _died(n: int) -> str:
    return f"share {n} died"


def _after(seconds: float, value):
    time.sleep(seconds)
    return value


def _raise(message: str, seconds: float = 0.0):
    time.sleep(seconds)
    raise ValueError(message)


@FORKS
@pytest.mark.parametrize("first", [None, partial(os.getpid)], ids=["no caller share", "caller share"])
def test_results_come_back_in_share_order(first, monkeypatch) -> None:
    # the later a share, the sooner its child ends
    forked = _forks_recorded(monkeypatch)
    others = [partial(_after, 0.3 - 0.1 * n, n) for n in range(3)]
    got = parallel.run_shares(first, others, _died)
    assert got == ([] if first is None else [os.getpid()]) + [0, 1, 2]
    assert len(forked) == 3
    _assert_no_child()


@FORKS
@pytest.mark.parametrize(
    "first, others, error",
    [
        (partial(_raise, "caller"), [partial(_raise, "child 1")], "caller"),
        (partial(_raise, "caller", 0.3), [partial(_raise, "child 1")], "caller"),
        (None, [partial(_after, 0, 0), partial(_raise, "child 1", 0.3), partial(_raise, "child 2")], "child 1"),
        (partial(int), [partial(_raise, "child 1", 0.3), partial(_raise, "child 2")], "child 1"),
    ],
    ids=["caller and child", "caller fails last", "two children", "child after the caller"],
)
def test_the_first_failing_share_in_share_order_raises(first, others, error, monkeypatch) -> None:
    forked = _forks_recorded(monkeypatch)
    with pytest.raises(ValueError, match=f"^{error}$"):
        parallel.run_shares(first, others, _died)
    assert forked
    _assert_no_child()


# Runs two shares in children, the second of which kills itself, and prints what run_shares
# raised and whether a child is left.
_KILLED_SHARE_RUN = """
import os, signal
from botledger import parallel

def killed():
    os.kill(os.getpid(), signal.SIGKILL)

try:
    parallel.run_shares(None, [int, killed], lambda n: f"the process of share {n} died")
except Exception as exc:
    try:
        os.waitpid(-1, os.WNOHANG)
        print(type(exc).__name__, exc, "| a child is left")
    except ChildProcessError:
        print(type(exc).__name__, exc, "| no child is left")
"""


@FORKS
def test_a_killed_child_raises_the_text_of_died() -> None:
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _KILLED_SHARE_RUN], capture_output=True, encoding="utf-8", env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        f"{BotledgerError.__name__} the process of share 1 died, "
        "for example because the out-of-memory killer stopped it | no child is left\n"
    )


@FORKS
@pytest.mark.parametrize("first", [None, partial(os.getpid)], ids=["no caller share", "caller share"])
def test_a_failed_fork_runs_that_share_and_the_later_ones_here(first, monkeypatch) -> None:
    forked = _forks_recorded(monkeypatch, fail_at=2)
    got = parallel.run_shares(first, [partial(os.getpid) for _ in range(4)], _died)
    ran_in = got if first is None else got[1:]
    assert ran_in[0] == forked[0] and ran_in[1:] == [os.getpid()] * 3
    assert len(forked) == 1
    _assert_no_child()


@FORKS
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="open descriptors are listed only on Linux")
def test_no_descriptor_leaks_and_no_child_is_left(monkeypatch) -> None:
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert parallel.run_shares(int, [int, int], _died) == [0, 0, 0]
    with pytest.raises(ValueError, match="^caller$"):
        parallel.run_shares(partial(_raise, "caller"), [partial(_after, 5.0, 1), partial(_after, 5.0, 2)], _died)
    with pytest.raises(ValueError, match="^child 1$"):
        parallel.run_shares(None, [partial(_raise, "child 1"), partial(_after, 5.0, 2)], _died)
    _forks_recorded(monkeypatch, fail_at=1)
    assert parallel.run_shares(None, [int, int], _died) == [0, 0]
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    _assert_no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPUs cannot be pinned here")
def test_the_callers_affinity_is_restored() -> None:
    pinned = parallel.run_shares(lambda: sorted(os.sched_getaffinity(0)), [int], _died)[0]
    assert pinned == _CPUS[:1]
    assert sorted(os.sched_getaffinity(0)) == _CPUS
    with pytest.raises(ValueError, match="^caller$"):
        parallel.run_shares(partial(_raise, "caller"), [int], _died)
    assert sorted(os.sched_getaffinity(0)) == _CPUS


@pytest.mark.parametrize(
    "first, others", [(os.getpid, []), (None, [os.getpid])], ids=["caller share", "no caller share"]
)
def test_one_share_forks_nothing(first, others, monkeypatch) -> None:
    forked = _forks_recorded(monkeypatch)
    assert parallel.run_shares(first, others, _died) == [os.getpid()]
    assert forked == []
    if _CPUS is not None:
        assert sorted(os.sched_getaffinity(0)) == _CPUS


def _affinity() -> list[int]:
    return sorted(os.sched_getaffinity(0))


@FORKS
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPUs cannot be pinned here")
def test_children_are_pinned_only_beside_a_caller_share() -> None:
    # beside a caller share, share n runs on the n-th usable CPU, counted round the usable ones
    pinned = parallel.run_shares(_affinity, [_affinity, _affinity], _died)
    assert pinned == [[_CPUS[n % len(_CPUS)]] for n in range(3)]
    assert parallel.run_shares(None, [_affinity, _affinity], _died) == [_CPUS, _CPUS]
    _assert_no_child()


@pytest.mark.parametrize(
    "weights, cpus, shares",
    [
        ([1, 1, 1, 1], 2, [(0, 2), (2, 4)]),
        ([3, 1, 1, 1], 2, [(0, 1), (1, 4)]),
        ([1, 1, 1, 1, 1, 1], 3, [(0, 2), (2, 4), (4, 6)]),
        ([5, 5], 4, [(0, 1), (1, 2)]),
        ([10, 0, 0, 0], 3, [(0, 1), (1, 4)]),
        ([1, 1, 1], 1, [(0, 3)]),
        ([], 2, [(0, 0)]),
    ],
    ids=["even", "heavy first", "three shares", "fewer items than cpus", "no empty share", "one cpu", "no item"],
)
def test_deal_cuts_contiguous_shares_nearest_to_equal_weight(weights, cpus, shares, monkeypatch) -> None:
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    want = shares if hasattr(os, "fork") else [(0, len(weights))]
    assert [(share.start, share.stop) for share in parallel.deal(weights)] == want
