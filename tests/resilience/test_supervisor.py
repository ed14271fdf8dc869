"""ResilientExecutor: retry, failover, and the answer never changes."""

import os

import numpy as np
import pytest

import repro.parallel.executor as pexec
from repro.parallel.executor import SerialExecutor, WorkerFailure
from repro.resilience.faults import FaultSpec, clear_faults, faulty_task
from repro.resilience.supervisor import (
    BACKOFF_CAP_S,
    ResilientExecutor,
    supervised_executor,
)


@pytest.fixture(autouse=True)
def _disarm():
    clear_faults()
    yield
    clear_faults()


def _square(x):
    return x * x


class _Flaky(SerialExecutor):
    """Serial executor with a scripted failure plan.

    ``plan`` entries: ``("submit", exc)`` raises from ``imap`` itself,
    ``("midstream", k, exc)`` yields ``k`` results then raises, and an
    exhausted plan runs clean.  Records the tasks of every attempt.
    """

    def __init__(self, plan=()):
        super().__init__()
        self.plan = list(plan)
        self.task_log = []
        self.closed = False

    def imap(self, task_fn, tasks, initializer=None, payload=(),
             payload_token=None):
        tasks = list(tasks)
        self.task_log.append(tasks)
        step = self.plan.pop(0) if self.plan else None
        if step is not None and step[0] == "submit":
            raise step[1]
        inner = super().imap(
            task_fn, tasks, initializer=initializer, payload=payload,
            payload_token=payload_token,
        )
        if step is None:
            return inner

        def broken():
            for i, item in enumerate(inner):
                if i == step[1]:
                    raise step[2]
                yield item

        return broken()

    def close(self):
        self.closed = True
        super().close()


class TestRetry:
    def test_submit_failure_retried(self):
        flaky = _Flaky([("submit", WorkerFailure("boom"))])
        sleeps = []
        ex = ResilientExecutor(
            flaky, max_retries=2, backoff_base_s=0.5, sleep=sleeps.append
        )
        assert list(ex.imap(_square, [1, 2, 3])) == [1, 4, 9]
        assert [e[0] for e in ex.events] == ["retry"]
        assert sleeps == [0.5]

    def test_midstream_failure_resubmits_only_remaining(self):
        flaky = _Flaky([("midstream", 2, WorkerFailure("died"))])
        ex = ResilientExecutor(
            flaky, max_retries=1, backoff_base_s=0, sleep=lambda s: None
        )
        assert list(ex.imap(_square, [1, 2, 3, 4, 5])) == [1, 4, 9, 16, 25]
        # First attempt saw everything, the retry only the unseen tail —
        # the splice is what keeps the stream bit-identical.
        assert flaky.task_log == [[1, 2, 3, 4, 5], [3, 4, 5]]

    def test_backoff_doubles_and_caps(self):
        plan = [("submit", WorkerFailure(str(i))) for i in range(4)]
        sleeps = []
        ex = ResilientExecutor(
            _Flaky(plan), max_retries=4, backoff_base_s=10.0,
            sleep=sleeps.append,
        )
        list(ex.imap(_square, [1]))
        assert sleeps == [10.0, 20.0, BACKOFF_CAP_S, BACKOFF_CAP_S]

    def test_retries_exhausted_raises_last_error(self):
        plan = [("submit", WorkerFailure(f"f{i}")) for i in range(3)]
        ex = ResilientExecutor(
            _Flaky(plan), max_retries=2, backoff_base_s=0,
            sleep=lambda s: None,
        )
        with pytest.raises(WorkerFailure, match="f2"):
            list(ex.imap(_square, [1]))

    def test_application_error_propagates_untouched(self):
        flaky = _Flaky()
        ex = ResilientExecutor(
            flaky, max_retries=5, backoff_base_s=0, sleep=lambda s: None
        )

        def bad(x):
            raise ValueError("application bug")

        with pytest.raises(ValueError, match="application bug"):
            list(ex.imap(bad, [1, 2]))
        assert ex.events == []
        assert len(flaky.task_log) == 1  # no retry for app errors

    def test_empty_tasks_never_initializes(self):
        calls = []
        ex = ResilientExecutor(_Flaky(), max_retries=0)
        assert list(ex.imap(_square, [], initializer=calls.append)) == []
        assert calls == []


class TestFailover:
    def test_degrades_to_fallback_and_completes(self):
        primary = _Flaky([("submit", WorkerFailure("a")),
                          ("midstream", 1, WorkerFailure("b"))])
        backup = _Flaky()
        ex = ResilientExecutor(
            primary, [lambda: backup], max_retries=1, backoff_base_s=0,
            sleep=lambda s: None,
        )
        assert list(ex.imap(_square, [1, 2, 3])) == [1, 4, 9]
        assert [e[0] for e in ex.events] == ["retry", "failover"]
        assert ex.inner is backup
        assert primary.closed  # the dead backend was released
        # The fallback only got the tail the primary never yielded.
        assert backup.task_log == [[2, 3]]

    def test_retry_budget_resets_per_backend(self):
        primary = _Flaky([("submit", WorkerFailure("p"))])
        backup = _Flaky([("submit", WorkerFailure("b")), None])
        ex = ResilientExecutor(
            primary, [lambda: backup], max_retries=0, backoff_base_s=0,
            sleep=lambda s: None,
        )
        # Primary fails (0 retries -> failover); backup fails once and
        # gets its own fresh retry budget... but with max_retries=0 it
        # has no chain left, so the error surfaces.
        with pytest.raises(WorkerFailure, match="b"):
            list(ex.imap(_square, [1]))

    def test_chain_walks_all_entries(self):
        primary = _Flaky([("submit", WorkerFailure("p"))])
        mid = _Flaky([("submit", WorkerFailure("m"))])
        last = _Flaky()
        ex = ResilientExecutor(
            primary, [lambda: mid, lambda: last], max_retries=0,
            backoff_base_s=0, sleep=lambda s: None,
        )
        assert list(ex.imap(_square, [2])) == [4]
        assert ex.inner is last
        assert [e[0] for e in ex.events] == ["failover", "failover"]

    def test_holds_token_delegates_to_current(self):
        primary = _Flaky([("submit", WorkerFailure("p"))])
        backup = _Flaky()
        ex = ResilientExecutor(
            primary, [lambda: backup], max_retries=0, backoff_base_s=0,
            sleep=lambda s: None,
        )
        list(ex.imap(
            _square, [1], initializer=lambda: None,
            payload_token=("sweep", 1),
        ))
        # The token lives on the backend that actually installed it.
        assert ex.holds_token(("sweep", 1)) is backup.holds_token(("sweep", 1))

    def test_imap_with_payload_rebuilds_per_attempt(self):
        primary = _Flaky([("midstream", 1, WorkerFailure("x"))])
        backup = _Flaky()
        ex = ResilientExecutor(
            primary, [lambda: backup], max_retries=0, backoff_base_s=0,
            sleep=lambda s: None,
        )
        builds = []

        def make_payload(force_full):
            builds.append(force_full)
            return ({"static": 1}, ("sweep", 1), True)

        out = list(ex.imap_with_payload(
            _square, [1, 2, 3], lambda p: None, make_payload
        ))
        assert out == [1, 4, 9]
        # Built once per attempt; the retry build is forced full.
        assert builds == [False, True]


class TestFactory:
    def test_no_supervision_returns_bare_backend(self):
        ex = supervised_executor("serial")
        assert isinstance(ex, SerialExecutor)
        ex.close()

    def test_supervision_wraps(self):
        ex = supervised_executor("serial", max_retries=1)
        assert isinstance(ex, ResilientExecutor)
        assert isinstance(ex.inner, SerialExecutor)
        ex.close()

    def test_chain_parsing(self):
        ex = supervised_executor("serial", failover="pool, serial")
        assert isinstance(ex, ResilientExecutor)
        ex.close()
        with pytest.raises(ValueError, match="unknown failover"):
            supervised_executor("serial", failover="teleport")

    def test_sequence_chain_accepted(self):
        ex = supervised_executor("serial", failover=("serial",))
        assert isinstance(ex, ResilientExecutor)
        ex.close()


class TestPoolIntegration:
    """Real worker deaths against a real pool (the smoke scenarios)."""

    @pytest.fixture(autouse=True)
    def _fast_timeout(self, monkeypatch):
        monkeypatch.setattr(pexec, "RESULT_TIMEOUT_S", 6.0)

    def test_worker_kill_retried_on_recycled_pool(self, tmp_path):
        spec = FaultSpec(
            kind="kill", site="task", after=1,
            once_path=str(tmp_path / "once"), spare_pid=os.getpid(),
        )
        ex = supervised_executor(
            "pool", 2, max_retries=2, backoff_base_s=0.01
        )
        try:
            out = list(ex.imap(faulty_task(_square, spec), [1, 2, 3, 4]))
            assert out == [1, 4, 9, 16]
            assert [e[0] for e in ex.events] == ["retry"]
        finally:
            ex.close()

    def test_pool_exhaustion_fails_over_to_serial(self):
        # No once-guard: every pool attempt dies.  The dispatcher is
        # spared, so the serial fallback (in-process) completes.
        spec = FaultSpec(
            kind="kill", site="task", after=1, spare_pid=os.getpid()
        )
        ex = supervised_executor(
            "pool", 2, failover="serial", max_retries=1,
            backoff_base_s=0.01,
        )
        try:
            out = list(ex.imap(faulty_task(_square, spec), [1, 2, 3, 4]))
            assert out == [1, 4, 9, 16]
            assert [e[0] for e in ex.events] == ["retry", "failover"]
            assert isinstance(ex.inner, SerialExecutor)
        finally:
            ex.close()

    def test_supervised_picasso_bit_identical(self, tmp_path, monkeypatch):
        from repro.core import Picasso, PicassoParams
        from repro.pauli import random_pauli_set

        ps = random_pauli_set(300, 8, seed=3)
        base = Picasso(params=PicassoParams(), seed=7).color(ps)
        monkeypatch.setenv("REPRO_FAULT", "kill:task:3")
        monkeypatch.setenv("REPRO_FAULT_ONCE", str(tmp_path / "once"))
        monkeypatch.setenv("REPRO_FAULT_SPARE_PID", str(os.getpid()))
        params = PicassoParams(
            executor="pool", n_workers=2, failover="serial", max_retries=2
        )
        # The |Ec| counts sweep every iteration on the pool; detection
        # alone keeps this input's small iterations in the parent.
        result = Picasso(params=params, seed=7, exact_edges=True).color(ps)
        np.testing.assert_array_equal(result.colors, base.colors)
        assert os.path.exists(tmp_path / "once")  # the kill really fired
