import os

import pytest

from mfdgp import helper
from mfdgp.errors import DomainError

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")


def visible_cpus(monkeypatch, count):
    """Make helper.block see ``count`` CPUs: two or more fork the helper, one does not."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The pid each os.fork returned in this process."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class CountingWriter:
    """A job pipe that counts the bytes written to it."""

    def __init__(self, stream):
        self.stream, self.written = stream, 0

    def write(self, data):
        self.written += len(data)
        return self.stream.write(data)

    def flush(self):
        self.stream.flush()

    def close(self):
        self.stream.close()


def refuse(message):
    raise DomainError(message)


def leave_if_in_the_helper(caller):
    if os.getpid() != caller:
        os._exit(0)
    return "ran in the caller"


@needs_fork
def test_a_block_forks_at_its_first_job_and_nested_blocks_share_it(monkeypatch, forks):
    visible_cpus(monkeypatch, 2)
    with helper.block() as outer:
        assert outer is not None and helper.current() is outer
        assert forks == []  # no job yet
        with helper.block() as inner:
            assert inner is outer
            assert helper.start(os.getpid)() == outer.pid != os.getpid()
        assert helper.start(divmod, 7, 2)() == (3, 1)
    assert helper.current() is None
    assert outer.pid is None  # reaped when its block ended
    assert len(forks) == 1
    assert_no_child_left()


@needs_fork
def test_a_job_that_does_not_pickle_runs_in_the_caller_and_leaves_the_helper_in_step(
        monkeypatch):
    # the job is pickled whole before any of it is written: a job whose
    # pickling fails part-way writes nothing, so the next job's bytes are
    # the next the helper reads; pickle streams this one's first argument,
    # larger than its frames, before it reaches the lambda
    visible_cpus(monkeypatch, 2)
    with helper.block() as h:
        assert helper.start(os.getpid)() == h.pid
        h._jobs = CountingWriter(h._jobs)
        assert h.submit(max, bytes(1 << 20), lambda: 0) is None
        assert h._jobs.written == 0
        here = 2.5
        assert helper.start(lambda: (here, os.getpid()))() == (here, os.getpid())
        assert helper.start(os.getpid)() == h.pid
    assert_no_child_left()


@needs_fork
def test_a_job_exception_reaches_the_caller_and_the_helper_serves_on(monkeypatch):
    visible_cpus(monkeypatch, 2)
    with helper.block() as h:
        reply = h.submit(refuse, "refused in the helper")
        with pytest.raises(DomainError, match="^refused in the helper$"):
            reply()
        assert helper.start(os.getpid)() == h.pid
    assert_no_child_left()


@needs_fork
def test_a_dead_helper_runs_its_job_and_later_ones_in_the_caller(monkeypatch, forks):
    visible_cpus(monkeypatch, 2)
    with helper.block() as h:
        assert h.submit(leave_if_in_the_helper, os.getpid())() == "ran in the caller"
        assert h.submit(os.getpid) is None  # gone, and not forked again
        assert helper.start(os.getpid)() == os.getpid()
    assert len(forks) == 1
    assert_no_child_left()


def test_one_cpu_runs_every_job_in_the_caller(monkeypatch):
    visible_cpus(monkeypatch, 1)
    with helper.block() as h:
        assert h is None and helper.current() is None
        assert helper.start(os.getpid)() == os.getpid()
