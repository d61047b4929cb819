"""``run_suite`` runs criterion 8 in a forked child beside the rest.

The suite's claims are pinned elsewhere (test_acceptance.py, and the
stdout sha256 in test_cli.py, also on the inline path).  These tests pin
the process contract: every ``CRITERIA`` callable runs once, in order, in
the calling process; an exception in the child or in the parent reaches
the caller with its type and message; no child is left behind, not even a
zombie; and the run raises no warning and leaks no file descriptor.
"""

import gc
import os
import sys
import threading
import warnings

import pytest

from tpa import verify

forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_criteria_run_once_in_order_in_the_calling_process(monkeypatch):
    # the way perfbench/spans.py wraps verify.CRITERIA
    calls = []

    def wrap(cid, run):
        def traced(*args, **kwargs):
            calls.append((cid, os.getpid()))
            return run(*args, **kwargs)
        return traced

    monkeypatch.setattr(verify, "CRITERIA",
                        tuple((cid, wrap(cid, run)) for cid, run in verify.CRITERIA))
    out = verify.run_suite()
    ids = [cid for cid, _ in verify.CRITERIA]
    assert len(ids) == 8 and ids[-1] == "8-properties"
    assert calls == [(cid, os.getpid()) for cid in ids]
    assert [c["criterion"] for c in out["criteria"]] == ids
    _no_child_left()


@forks
def test_criterion_8_runs_in_a_child(monkeypatch):
    # the claim is the child's; the parent only collects it
    monkeypatch.setattr(verify, "claim_properties",
                        lambda: verify._claim("property-suites", True, pid=os.getpid()))
    out = verify.run_suite()
    (claim,) = out["criteria"][-1]["claims"]
    assert claim["pid"] != os.getpid()
    _no_child_left()


def test_criterion_8_runs_inline_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(verify, "claim_properties",
                        lambda: verify._claim("property-suites", True, pid=os.getpid()))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        out = verify.run_suite()
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    (claim,) = out["criteria"][-1]["claims"]
    assert claim["pid"] == os.getpid()
    _no_child_left()


def test_child_exception_reaches_the_caller(monkeypatch):
    def boom():
        raise ValueError("boom")

    monkeypatch.setattr(verify, "claim_properties", boom)
    with pytest.raises(ValueError, match="^boom$"):
        verify.run_suite()
    _no_child_left()


@forks
def test_unpicklable_child_exception_is_reported_by_repr(monkeypatch):
    class Local(Exception):
        pass

    def boom():
        raise Local("not picklable")

    monkeypatch.setattr(verify, "claim_properties", boom)
    with pytest.raises(ChildProcessError, match="Local\\('not picklable'\\)"):
        verify.run_suite()
    _no_child_left()


@forks
def test_child_dying_without_a_result_names_its_exit_status(monkeypatch):
    monkeypatch.setattr(verify, "claim_properties", lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match="exit status 3"):
        verify.run_suite()
    _no_child_left()


def test_parent_exception_kills_and_reaps_the_child(monkeypatch):
    def boom():
        raise RuntimeError("criterion 4 failed to run")

    monkeypatch.setattr(verify, "claim_witnesses", boom)
    with pytest.raises(RuntimeError, match="^criterion 4 failed to run$"):
        verify.run_suite()
    _no_child_left()


def test_run_suite_warns_nothing_and_leaks_no_descriptor(monkeypatch):
    # an unclosed pipe file surfaces as a ResourceWarning, which the "error"
    # filter turns into an unraisable exception; a fork with threads running
    # raises a DeprecationWarning on Python 3.12+
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    fds = os.listdir("/dev/fd") if os.path.isdir("/dev/fd") else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verify.run_suite()
        gc.collect()
    assert unraisable == []
    if fds is not None:
        assert len(os.listdir("/dev/fd")) == len(fds)
    _no_child_left()
