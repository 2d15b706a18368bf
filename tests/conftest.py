import os
import signal

import pytest

import plethysm.cli as cli

# A test that lets verify fork must end within this many seconds. Each one
# takes under a second here; a claim pipe that never reaches end of file
# would block it, and the whole run, until CI's job limit.
DEADLINE_S = 60


@pytest.fixture
def verify_cpus(monkeypatch, request):
    """A function that lets run_verify see ``count`` CPUs and returns the
    list its forks append to.

    The test gets a deadline: an alarm DEADLINE_S seconds after set-up
    stops the run, with a message that names the test, unless teardown
    comes first. The exception it raises goes through run_verify's
    cleanup, which kills and reaps the workers.
    """
    def expired(signum, frame):
        pytest.exit(f"{request.node.nodeid} still running after {DEADLINE_S} s", returncode=1)

    def see(count: int) -> list:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)))
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(cli.os, "fork", counted_fork)
        return forks

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_S)
    yield see
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
