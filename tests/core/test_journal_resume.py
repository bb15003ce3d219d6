"""Crash-safe journal + resume: the fault-tolerance acceptance properties.

The contract under test (ISSUE 6 tentpole): a journaled campaign killed at an
*arbitrary* tick and resumed from its sidecar directory finishes bit-identical
to the same campaign run uninterrupted — across surrogate kinds (from-scratch
RF replay vs. partial-fit GP replay), prior-refresh retuning, the queue-based
service evaluator, and active fault injection.  Journaling itself must not
perturb the fault-free path: a journaled run matches an unjournaled baseline
bit for bit.
"""

import math

import pytest

from fixtures import (
    assert_results_identical as assert_identical,
    make_gp_search,
    make_service_search as make_search,
    make_service_space as make_space,
    service_run_function as run_function,
)
from repro.core.journal import CampaignJournal, JournalError, JournalReader
from repro.core.search import CBOSearch
from repro.core.surrogate import RandomForestSurrogate
from repro.service import ServiceEvaluator
from repro.sim import FaultPlan
from reference.search import advance

BUDGET = dict(max_time=600.0, max_evaluations=30)


def finish(execution):
    while advance(execution):
        pass
    return execution.result()


def crash_after(search, ticks, journal_dir, **kwargs):
    """Start a journaled campaign and abandon it after ``ticks`` advances.

    Abandoning the execution object mid-run is exactly what a process crash
    leaves behind: journal data files plus the last committed checkpoint.
    """
    execution = search.start(journal_dir=journal_dir, **kwargs)
    for _ in range(ticks):
        if not advance(execution):
            break
    return execution


def make_refresh_search(seed, space, **kwargs):
    params = dict(
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
        num_candidates=48,
        n_initial_points=5,
        prior_refresh_interval=8,
        prior_refresh_top_k=8,
        prior_refresh_epochs=12,
        seed=seed,
    )
    params.update(kwargs)
    return CBOSearch(space, run_function, **params)


class TestJournalOverheadFreePath:
    def test_journaled_run_matches_unjournaled(self, tmp_path):
        baseline = make_search(0).run(**BUDGET)
        journaled = make_search(0).run(journal_dir=tmp_path / "j", **BUDGET)
        assert_identical(baseline, journaled)
        assert (tmp_path / "j" / "meta.json").exists()
        checkpoint = CampaignJournal.read_checkpoint(tmp_path / "j")
        assert checkpoint is not None
        assert checkpoint["finished"] is True
        assert checkpoint["num_rows"] == len(journaled.history)

    def test_sparse_checkpoint_interval_matches(self, tmp_path):
        baseline = make_search(0).run(**BUDGET)
        execution = make_search(0).start(
            journal_dir=tmp_path / "j", checkpoint_interval=3, **BUDGET
        )
        assert_identical(baseline, finish(execution))
        # The final tick force-commits even off-cadence.
        assert CampaignJournal.read_checkpoint(tmp_path / "j")["finished"] is True


class TestResumeBitIdentity:
    @pytest.mark.parametrize("kill_tick", [1, 3, 7, 12])
    def test_rf_resume_is_bit_identical(self, tmp_path, kill_tick):
        baseline = make_search(0).run(**BUDGET)
        crash_after(make_search(0), kill_tick, tmp_path / "j", **BUDGET)
        resumed = make_search(0).resume(tmp_path / "j")
        assert_identical(baseline, finish(resumed))

    @pytest.mark.parametrize("kill_tick", [2, 6, 11])
    def test_gp_partial_fit_resume_is_bit_identical(self, tmp_path, kill_tick):
        budget = dict(max_time=600.0, max_evaluations=24)
        baseline = make_gp_search(0).run(**budget)
        crash_after(make_gp_search(0), kill_tick, tmp_path / "j", **budget)
        resumed = make_gp_search(0).resume(tmp_path / "j")
        assert_identical(baseline, finish(resumed))

    @pytest.mark.parametrize("kill_tick", [5, 15, 25])
    def test_prior_refresh_resume_is_bit_identical(self, tmp_path, kill_tick):
        """Kills land before the first refresh, between refreshes, and after
        the second — each replays a different number of VAE retunings."""
        space = make_space()
        budget = dict(max_time=700.0, max_evaluations=32)
        baseline = make_refresh_search(0, space).run(**budget)
        crash_after(make_refresh_search(0, space), kill_tick, tmp_path / "j", **budget)
        resumed = make_refresh_search(0, space).resume(tmp_path / "j")
        result = finish(resumed)
        assert_identical(baseline, result)
        assert resumed.num_prior_refreshes > 0

    @pytest.mark.parametrize("kill_tick", [2, 8])
    def test_service_evaluator_resume_is_bit_identical(self, tmp_path, kill_tick):
        def factory(run, num_workers, failure_duration):
            return ServiceEvaluator(
                run, num_workers=num_workers, failure_duration=failure_duration
            )

        baseline = make_search(0, evaluator_factory=factory).run(**BUDGET)
        crash_after(
            make_search(0, evaluator_factory=factory),
            kill_tick,
            tmp_path / "j",
            **BUDGET,
        )
        resumed = make_search(0, evaluator_factory=factory).resume(tmp_path / "j")
        assert_identical(baseline, finish(resumed))

    @pytest.mark.parametrize("kill_tick", [3, 9])
    def test_resume_under_fault_injection_is_bit_identical(self, tmp_path, kill_tick):
        """The fault schedule is keyed by (plan seed, submission seq), and the
        journal persists the sequence cursor — a resumed campaign meets
        exactly the faults the uninterrupted run would have met."""
        plan = FaultPlan(
            seed=42,
            failure_rate=0.1,
            crash_rate=0.03,
            hang_rate=0.05,
            loss_rate=0.15,
            straggler_rate=0.1,
            straggler_factor=4.0,
        )

        def factory(run, num_workers, failure_duration):
            return ServiceEvaluator(
                run,
                num_workers=num_workers,
                failure_duration=failure_duration,
                fault_plan=plan,
                deadline=600.0,
            )

        budget = dict(max_time=900.0, max_evaluations=30)
        baseline = make_search(0, evaluator_factory=factory).run(**budget)
        crash_after(
            make_search(0, evaluator_factory=factory),
            kill_tick,
            tmp_path / "j",
            **budget,
        )
        resumed = make_search(0, evaluator_factory=factory).resume(tmp_path / "j")
        assert_identical(baseline, finish(resumed))

    def test_crash_before_first_checkpoint_restarts_fresh(self, tmp_path):
        baseline = make_search(0).run(**BUDGET)
        # start() writes meta and the initial submit, but the first checkpoint
        # only lands at the end of the first advance() — crash before it.
        make_search(0).start(journal_dir=tmp_path / "j", **BUDGET)
        assert CampaignJournal.read_checkpoint(tmp_path / "j") is None
        resumed = make_search(0).resume(tmp_path / "j")
        assert_identical(baseline, finish(resumed))

    def test_torn_tail_is_rolled_back_on_attach(self, tmp_path):
        """Bytes written after the last committed checkpoint (a crash mid
        append) are truncated away on attach instead of corrupting state."""
        baseline = make_search(0).run(**BUDGET)
        crash_after(make_search(0), 5, tmp_path / "j", **BUDGET)
        for name in ("rows.bin", "intervals.bin"):
            with open(tmp_path / "j" / name, "ab") as handle:
                handle.write(b"\x7f" * 11)  # torn partial records
        resumed = make_search(0).resume(tmp_path / "j")
        result = finish(resumed)
        assert_identical(baseline, result)
        # Appends after the rollback landed where the torn bytes were: the
        # journal reads back as the finished run, not shifted by them.
        reader = JournalReader(tmp_path / "j", make_space())
        assert reader.history().to_csv() == result.history.to_csv()
        assert reader.intervals() == result.busy_intervals


class TestResumeValidation:
    def test_resume_rejects_mismatched_search(self, tmp_path):
        crash_after(make_search(0), 3, tmp_path / "j", **BUDGET)
        with pytest.raises(JournalError, match="seed"):
            make_search(1).resume(tmp_path / "j")

    def test_resume_rejects_mismatched_space(self, tmp_path):
        from repro.core.space import RealParameter, SearchSpace

        crash_after(make_search(0), 3, tmp_path / "j", **BUDGET)
        other = SearchSpace([RealParameter("rate", 0.1, 50.0, log=True)])
        with pytest.raises(JournalError):
            make_search(0, space=other).resume(tmp_path / "j")

    def test_resume_requires_fresh_search(self, tmp_path):
        crash_after(make_search(0), 3, tmp_path / "j", **BUDGET)
        dirty = make_search(0)
        dirty.run(max_time=300.0, max_evaluations=10)
        with pytest.raises(JournalError, match="freshly constructed"):
            dirty.resume(tmp_path / "j")

    def test_resume_requires_meta(self, tmp_path):
        (tmp_path / "j").mkdir()
        with pytest.raises(JournalError):
            make_search(0).resume(tmp_path / "j")


class TestJournalRecord:
    def test_checkpoint_counts_track_history(self, tmp_path):
        execution = crash_after(make_search(0), 4, tmp_path / "j", **BUDGET)
        checkpoint = CampaignJournal.read_checkpoint(tmp_path / "j")
        assert checkpoint["num_rows"] == len(execution.history)
        assert checkpoint["num_intervals"] == len(execution.intervals)
        assert checkpoint["finished"] is False
        meta = CampaignJournal.read_meta(tmp_path / "j")
        assert meta["seed"] == 0
        assert meta["surrogate"] == "RandomForestSurrogate"

    def test_reader_rebuilds_exact_rows(self, tmp_path):
        execution = crash_after(make_search(0), 6, tmp_path / "j", **BUDGET)
        reader = JournalReader(tmp_path / "j", make_space())
        history, intervals = reader.history().copy(), reader.intervals()
        assert len(history) == len(execution.history)
        for stored, live in zip(history, execution.history):
            assert stored.configuration == live.configuration
            assert stored.submitted == live.submitted
            assert stored.completed == live.completed
            assert (stored.objective == live.objective) or (
                math.isnan(stored.objective) and math.isnan(live.objective)
            )
        assert intervals == execution.intervals
