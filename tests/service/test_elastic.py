"""Elastic-fleet bit-identity: joining/leaving must not perturb anyone.

The elasticity contract of :class:`~repro.service.CampaignRunner`:
whatever the join schedule (arrival ticks), leave pattern (budgets, hence
finish times) and quarantine events, every campaign's
:class:`~repro.core.search.SearchHistory` is bitwise equal to the same
search run solo through ``CBOSearch.run``.  Hypothesis draws the schedules;
the full-size case is marked ``slow``.

Admission control (``max_inflight``, ``max_inflight_per_tenant``) is pinned
deterministically: FIFO order, per-tenant overtaking, and no starvation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import (
    assert_results_identical as assert_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search,
    make_service_space,
    service_run_function,
)
from repro.core.search import CBOSearch
from repro.core.surrogate import RandomForestSurrogate
from repro.service import CampaignRunner, CampaignSpec
from reference.search import advance

# One fixed budget per campaign kind: mixed kinds make mixed fleet groups,
# mixed budgets make staggered leaves.
KINDS = {
    "rf": (make_service_search, 600.0, 18),
    "gp": (make_gp_search, 400.0, 12),
    "refresh": (make_refresh_search, 700.0, 24),
}

#: Solo baselines keyed by (kind, seed) — Hypothesis redraws the same small
#: seed set across examples, so the sequential runs are computed once.
_SOLO_CACHE = {}


def solo_result(kind, seed):
    key = (kind, seed)
    if key not in _SOLO_CACHE:
        factory, max_time, max_evaluations = KINDS[kind]
        _SOLO_CACHE[key] = factory(seed, make_service_space()).run(
            max_time=max_time, max_evaluations=max_evaluations
        )
    return _SOLO_CACHE[key]


def make_spec(kind, seed, space, doomed=False, tenant="default"):
    factory, max_time, max_evaluations = KINDS[kind]
    if doomed:
        search = make_doomed_search(seed, space)
    else:
        search = factory(seed, space)
    return CampaignSpec(
        search=search,
        max_time=max_time,
        max_evaluations=max_evaluations,
        label=f"{kind}-{seed}",
        tenant=tenant,
    )


def make_doomed_search(seed, space, limit=9):
    """An RF campaign whose run function dies after ``limit`` evaluations."""
    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] > limit:
            raise RuntimeError("injected elastic failure")
        return service_run_function(config)

    return CBOSearch(
        space,
        run,
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
        num_candidates=48,
        n_initial_points=5,
        seed=seed,
    )


schedules = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),   # campaign kind
        st.integers(min_value=0, max_value=5),  # arrival tick
        st.booleans(),                     # quarantined mid-flight?
    ),
    min_size=2,
    max_size=4,
)


class TestElasticBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(schedule=schedules)
    def test_any_join_leave_quarantine_schedule_is_bit_identical(self, schedule):
        space = make_service_space()
        runner = CampaignRunner(on_campaign_error="quarantine")
        for seed, (kind, arrival, doomed) in enumerate(schedule):
            index = runner.admit(
                make_spec(kind, seed, space, doomed=doomed),
                arrival_tick=arrival,
            )
            assert index == seed
        results = runner.run()
        assert len(results) == len(schedule)
        quarantined = {q.index for q in runner.quarantined}
        for seed, (kind, _, doomed) in enumerate(schedule):
            if doomed:
                # The injected failure fires after the initial batch, so the
                # campaign is quarantined mid-flight with a partial history.
                assert seed in quarantined
                assert len(results[seed].history) < KINDS[kind][2]
            else:
                assert seed not in quarantined
                assert_identical(solo_result(kind, seed), results[seed])

    def test_mid_flight_join_reforms_fleet_groups(self):
        """A same-kind campaign joining later still fuses with the cohort."""
        space = make_service_space()
        runner = CampaignRunner()
        runner.admit(make_spec("rf", 0, space))
        runner.admit(make_spec("rf", 1, space))
        runner.admit(make_spec("rf", 2, space), arrival_tick=4)
        results = runner.run()
        for seed in range(3):
            assert_identical(solo_result("rf", seed), results[seed])
        # The late joiner fused with the incumbents once admitted.
        assert runner.num_fleet_fits > 0
        assert runner.num_fleet_fitted_surrogates > 2 * 2

    def test_admission_while_ticking(self):
        """admit() between tick() calls — the registry's driving pattern."""
        space = make_service_space()
        runner = CampaignRunner()
        runner.admit(make_spec("rf", 0, space))
        for _ in range(6):
            runner.tick()
        runner.admit(make_spec("rf", 1, space))
        results = runner.run()
        assert_identical(solo_result("rf", 0), results[0])
        assert_identical(solo_result("rf", 1), results[1])

    @pytest.mark.slow
    @settings(max_examples=5, deadline=None)
    @given(
        schedule=st.lists(
            st.tuples(
                st.sampled_from(sorted(KINDS)),
                st.integers(min_value=0, max_value=8),
                st.booleans(),
            ),
            min_size=5,
            max_size=7,
        ),
        max_inflight=st.integers(min_value=2, max_value=4),
    )
    def test_full_size_schedules_with_admission_control(
        self, schedule, max_inflight
    ):
        space = make_service_space()
        runner = CampaignRunner(
            max_inflight=max_inflight, on_campaign_error="quarantine"
        )
        for seed, (kind, arrival, doomed) in enumerate(schedule):
            runner.admit(
                make_spec(kind, seed, space, doomed=doomed),
                arrival_tick=arrival,
            )
        results = runner.run()
        quarantined = {q.index for q in runner.quarantined}
        for seed, (kind, _, doomed) in enumerate(schedule):
            if doomed:
                assert seed in quarantined
            else:
                assert_identical(solo_result(kind, seed), results[seed])


class TestAdmissionControl:
    def test_max_inflight_serialises_and_preserves_identity(self):
        space = make_service_space()
        runner = CampaignRunner(max_inflight=1)
        for seed in range(3):
            runner.admit(make_spec("rf", seed, space))
        results = runner.run()
        assert runner.admitted_order == [0, 1, 2]
        for seed in range(3):
            assert_identical(solo_result("rf", seed), results[seed])
        # Serialised campaigns never share a tick, so nothing fuses.
        assert runner.num_fleet_fits == 0

    def test_num_inflight_respects_the_cap(self):
        space = make_service_space()
        runner = CampaignRunner(max_inflight=2)
        for seed in range(4):
            runner.admit(make_spec("rf", seed, space))
        peak = 0
        while runner._active or runner._admission_queue:
            runner.tick()
            peak = max(peak, runner.num_inflight)
        assert peak == 2

    def test_per_tenant_cap_lets_other_tenants_overtake(self):
        space = make_service_space()
        runner = CampaignRunner(max_inflight_per_tenant=1)
        runner.admit(make_spec("rf", 0, space, tenant="alice"))
        runner.admit(make_spec("rf", 1, space, tenant="alice"))
        runner.admit(make_spec("rf", 2, space, tenant="bob"))
        runner.tick()
        # Alice's second campaign is held back by her tenant bound; Bob's
        # passes it in the queue (per-tenant fairness at admission).
        assert runner.admitted_order == [0, 2]
        assert runner.num_waiting == 1
        results = runner.run()
        assert runner.admitted_order == [0, 2, 1]
        for seed in range(3):
            assert_identical(solo_result("rf", seed), results[seed])

    def test_global_block_preserves_fifo(self):
        space = make_service_space()
        runner = CampaignRunner(max_inflight=1)
        runner.admit(make_spec("rf", 0, space, tenant="alice"))
        runner.admit(make_spec("rf", 1, space, tenant="alice"))
        runner.admit(make_spec("rf", 2, space, tenant="bob"))
        runner.tick()
        # The global limit blocks everyone equally — bob must not overtake,
        # or a queue of alices could starve her indefinitely.
        assert runner.admitted_order == [0]
        results = runner.run()
        assert runner.admitted_order == [0, 1, 2]
        assert all(r is not None for r in results)

    def test_quarantined_departure_frees_an_admission_slot(self):
        space = make_service_space()
        runner = CampaignRunner(
            max_inflight=1, on_campaign_error="quarantine"
        )
        runner.admit(make_spec("rf", 0, space, doomed=True))
        runner.admit(make_spec("rf", 1, space))
        results = runner.run()
        assert [q.index for q in runner.quarantined] == [0]
        assert_identical(solo_result("rf", 1), results[1])

    def test_validation(self):
        with pytest.raises(ValueError, match="max_inflight"):
            CampaignRunner(max_inflight=0)
        with pytest.raises(ValueError, match="max_inflight_per_tenant"):
            CampaignRunner(max_inflight_per_tenant=0)


class TestElasticJournalsAndBatching:
    """Leases end with a campaign's last tick, and batched submits keep the
    error policy, when campaigns come and go."""

    def journaled(self, kind, seed, root, **overrides):
        spec = make_spec(kind, seed, make_service_space())
        spec.journal_dir = root / f"{kind}-{seed}"
        for name, value in overrides.items():
            setattr(spec, name, value)
        return spec

    def test_finished_campaign_is_resumable_while_the_runner_ticks(self, tmp_path):
        runner = CampaignRunner()
        runner.admit(self.journaled("rf", 0, tmp_path, max_evaluations=8))
        runner.admit(self.journaled("rf", 1, tmp_path))
        while runner.num_inflight != 1:
            runner.tick()
        # Campaign 0 has finished and left; campaign 1 still holds its lease.
        execution = make_service_search(0, make_service_space()).resume(
            tmp_path / "rf-0"
        )
        assert execution.finished
        assert len(execution.history) == len(runner.results()[0].history)
        execution.close_journal()
        results = runner.run()
        assert_identical(solo_result("rf", 1), results[1])

    def test_quarantined_campaign_is_resumable_while_the_runner_ticks(self, tmp_path):
        space = make_service_space()
        runner = CampaignRunner(on_campaign_error="quarantine")
        doomed = make_spec("rf", 0, space, doomed=True)
        doomed.journal_dir = tmp_path / "doomed"
        runner.admit(doomed)
        runner.admit(self.journaled("refresh", 1, tmp_path))
        while not runner.quarantined:
            runner.tick()
        assert runner.num_inflight == 1
        # Resume with a repaired run function while the survivor still runs.
        repaired = CBOSearch(
            space,
            service_run_function,
            num_workers=6,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=0),
            num_candidates=48,
            n_initial_points=5,
            seed=0,
        ).resume(tmp_path / "doomed")
        assert len(repaired.history) == len(runner.results()[0].history)
        repaired.close_journal()
        results = runner.run()
        assert_identical(solo_result("refresh", 1), results[1])

    def test_close_releases_active_journals_without_committing(self, tmp_path):
        runner = CampaignRunner()
        for seed in range(2):
            runner.admit(self.journaled("rf", seed, tmp_path))
        for _ in range(4):
            runner.tick()
        assert runner.num_inflight == 2
        committed = {
            seed: {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / f"rf-{seed}").iterdir())
            }
            for seed in range(2)
        }
        runner.close()
        runner.close()  # idempotent
        for seed in range(2):
            directory = tmp_path / f"rf-{seed}"
            assert {
                path.name: path.read_bytes() for path in sorted(directory.iterdir())
            } == committed[seed]
            # The last checkpoint is where a resume picks up, and from there
            # the campaign still finishes as its uninterrupted solo run.
            execution = make_service_search(seed, make_service_space()).resume(
                directory
            )
            while advance(execution):
                pass
            assert_identical(solo_result("rf", seed), execution.result())
            execution.close_journal()

    def test_raise_mode_releases_the_survivors_journals(self, tmp_path):
        space = make_service_space()
        runner = CampaignRunner()
        runner.admit(self.journaled("rf", 0, tmp_path))
        doomed = make_spec("rf", 1, space, doomed=True)
        doomed.journal_dir = tmp_path / "doomed"
        runner.admit(doomed, arrival_tick=1)
        with pytest.raises(RuntimeError, match="injected elastic failure"):
            runner.run()
        resumed = make_service_search(0, space).resume(tmp_path / "rf-0")
        while advance(resumed):
            pass
        assert_identical(solo_result("rf", 0), resumed.result())
        resumed.close_journal()

    def test_batched_submit_failure_quarantines_only_its_campaign(self):
        """A late arrival's fused initial submission comes back one short:
        only that campaign is quarantined, in the submit phase."""
        space = make_service_space()
        calls = {"late": 0}

        def batcher(requests):
            runtimes = [
                [service_run_function(c) for c in configs] for _, configs in requests
            ]
            for position, (index, _) in enumerate(requests):
                if index == 2:
                    calls["late"] += 1
                    if calls["late"] == 1:
                        runtimes[position] = runtimes[position][:-1]
            return runtimes

        runner = CampaignRunner(
            run_batcher=batcher, on_campaign_error="quarantine"
        )
        runner.admit(make_spec("rf", 0, space))
        runner.admit(make_spec("gp", 1, space))
        runner.admit(make_spec("rf", 2, space), arrival_tick=2)
        results = runner.run()
        assert [(q.index, q.phase) for q in runner.quarantined] == [(2, "submit")]
        assert "equal length" in str(runner.quarantined[0].error)
        assert calls["late"] == 1
        assert_identical(solo_result("rf", 0), results[0])
        assert_identical(solo_result("gp", 1), results[1])

