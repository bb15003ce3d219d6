"""The multi-campaign batch runner must not change any campaign's results.

The acceptance property of the service layer: driving N campaigns through
:class:`~repro.service.CampaignRunner` (batch ticks, fleet surrogate fits,
fused candidate scoring, batched run-function evaluation) produces
per-campaign :class:`~repro.core.search.SearchResult`\\ s bit-identical to N
sequential ``CBOSearch.run`` calls with the same seeds.
"""

import inspect
import math

import numpy as np
import pytest

from fixtures import (
    assert_results_identical as assert_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search as make_search,
    make_service_space as make_space,
    service_run_function as run_function,
)
from repro.core.history import SearchHistory
from repro.core.search import CBOSearch, VAEABOSearch
from repro.core.space import IntegerParameter, RealParameter, SearchSpace
from repro.core.surrogate import RandomForestSurrogate
from repro.core.transfer import TransferLearningPrior
from repro.service import (
    CampaignRunner,
    CampaignSpec,
    ElasticCampaignRunner,
    SharedWorkerPool,
)
from reference.search import advance


class TestRunnerBitIdentity:
    def test_runner_matches_sequential_runs(self):
        space = make_space()
        sequential = [
            make_search(seed, space).run(max_time=600.0, max_evaluations=30)
            for seed in range(4)
        ]
        specs = [
            CampaignSpec(
                search=make_search(seed, space),
                max_time=600.0,
                max_evaluations=30,
                label=f"c{seed}",
            )
            for seed in range(4)
        ]
        runner = CampaignRunner(specs)
        batched = runner.run()
        assert len(batched) == 4
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert runner.num_fleet_fits > 0
        assert runner.num_fleet_fitted_surrogates >= 2 * runner.num_fleet_fits

    def test_runner_with_gp_campaigns_matches_sequential(self):
        space = make_space()
        sequential = [
            make_gp_search(seed, space).run(max_time=400.0, max_evaluations=16)
            for seed in range(2)
        ]
        specs = [
            CampaignSpec(
                search=make_gp_search(seed, space),
                max_time=400.0,
                max_evaluations=16,
            )
            for seed in range(2)
        ]
        batched = CampaignRunner(specs).run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)

    def test_mixed_surrogates_and_budgets(self):
        space = make_space()
        # Surrogates are stateful (RNG): each execution needs a fresh one.
        setups = [
            lambda: dict(surrogate=RandomForestSurrogate(n_estimators=6, seed=0), seed=0),
            lambda: dict(surrogate="GP", seed=1),
            lambda: dict(surrogate=RandomForestSurrogate(n_estimators=6, seed=2), seed=2),
        ]
        budgets = [(500.0, 24), (350.0, 12), (650.0, 30)]
        sequential = [
            make_search(space=space, **kw()).run(max_time=t, max_evaluations=m)
            for kw, (t, m) in zip(setups, budgets)
        ]
        specs = [
            CampaignSpec(search=make_search(space=space, **kw()), max_time=t, max_evaluations=m)
            for kw, (t, m) in zip(setups, budgets)
        ]
        batched = CampaignRunner(specs).run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)

    @pytest.mark.parametrize(
        "factory",
        [make_search, make_gp_search, make_refresh_search],
        ids=["rf", "gp", "refresh"],
    )
    def test_quarantine_mode_without_failures_changes_nothing(self, factory):
        """Every phase call goes through the error policy in quarantine mode;
        with nothing failing, the fused run still matches the sequential
        runs bit for bit and quarantines nobody."""
        space = make_space()
        sequential = [
            factory(seed, space).run(max_time=600.0, max_evaluations=20)
            for seed in range(3)
        ]
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=factory(seed, space), max_time=600.0, max_evaluations=20
                )
                for seed in range(3)
            ],
            on_campaign_error="quarantine",
        )
        batched = runner.run()
        assert runner.quarantined == []
        for a, b in zip(sequential, batched):
            assert_identical(a, b)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner([])


class TestRunnerOptionSurface:
    """The runners' keyword options, pinned: the fused tick pipeline is the
    only in-process path, so there is nothing else to switch."""

    def test_campaign_runner_options(self):
        parameters = inspect.signature(CampaignRunner).parameters
        assert {name: p.default for name, p in parameters.items()} == {
            "specs": inspect.Parameter.empty,
            "run_batcher": None,
            "on_campaign_error": "raise",
            "processes": 1,
        }

    def test_elastic_runner_options(self):
        parameters = inspect.signature(ElasticCampaignRunner).parameters
        assert {name: p.default for name, p in parameters.items()} == {
            "max_inflight": None,
            "max_inflight_per_tenant": None,
            "run_batcher": None,
            "on_campaign_error": "raise",
        }


class TestRunBatcher:
    def test_run_batcher_receives_spec_indices_and_sets_runtimes(self):
        space = make_space()
        seen = []

        def batcher(requests):
            seen.append([idx for idx, _ in requests])
            return [[run_function(c) for c in configs] for _, configs in requests]

        specs = [
            CampaignSpec(search=make_search(seed, space), max_time=500.0, max_evaluations=15)
            for seed in range(3)
        ]
        batched = CampaignRunner(specs, run_batcher=batcher).run()
        sequential = [
            make_search(seed, space).run(max_time=500.0, max_evaluations=15)
            for seed in range(3)
        ]
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        # The initial submissions come through the batcher as one pass.
        assert seen[0] == [0, 1, 2]
        assert all(all(0 <= idx < 3 for idx in batch) for batch in seen)

    def test_attached_initial_batch_goes_through_the_batcher(self, tmp_path):
        """A spec resumed from a journal with no checkpoint yet rebuilds its
        initial batch, and the run batcher evaluates it with the fresh
        spec's in one pass: one create-or-attach path for runner and
        registry."""
        space = make_space()
        crashed = make_search(0, space).start(
            max_time=600.0, max_evaluations=24, journal_dir=tmp_path / "c0"
        )
        crashed.close_journal()  # died before its first checkpoint
        first_call = []

        def batcher(requests):
            if not first_call:
                first_call.extend((index, len(configs)) for index, configs in requests)
            return [[run_function(c) for c in configs] for _, configs in requests]

        specs = [
            CampaignSpec(
                search=make_search(seed, space),
                max_time=600.0,
                max_evaluations=24,
                journal_dir=tmp_path / f"c{seed}",
                resume_from_journal=True,
            )
            for seed in range(2)
        ]
        results = CampaignRunner(specs, run_batcher=batcher).run()
        assert first_call == [(0, 6), (1, 6)]
        for seed, result in enumerate(results):
            assert_identical(
                make_search(seed, space).run(max_time=600.0, max_evaluations=24),
                result,
            )

    def test_batched_mixed_families_match_sequential(self):
        space = make_space()
        factories = (make_search, make_gp_search, make_refresh_search)
        sequential = [
            factory(seed, space).run(max_time=600.0, max_evaluations=20)
            for seed, factory in enumerate(factories)
        ]
        calls = []

        def batcher(requests):
            calls.append(len(requests))
            return [[run_function(c) for c in configs] for _, configs in requests]

        specs = [
            CampaignSpec(search=factory(seed, space), max_time=600.0, max_evaluations=20)
            for seed, factory in enumerate(factories)
        ]
        batched = CampaignRunner(specs, run_batcher=batcher).run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert calls[0] == 3
        assert max(calls) == 3

    def test_batcher_returning_too_few_lists_fails_loudly(self, tmp_path):
        """A short outer list cannot be attributed to one campaign, so it
        aborts the run even in quarantine mode; the journals are released."""
        space = make_space()

        def batcher(requests):
            return [[run_function(c) for c in configs] for _, configs in requests][:-1]

        specs = [
            CampaignSpec(
                search=make_search(seed, space),
                max_time=600.0,
                max_evaluations=20,
                journal_dir=tmp_path / f"c{seed}",
            )
            for seed in range(2)
        ]
        runner = CampaignRunner(
            specs, run_batcher=batcher, on_campaign_error="quarantine"
        )
        with pytest.raises(ValueError, match="1 runtime lists for 2 submissions"):
            runner.run()
        for seed in range(2):
            make_search(seed, space).resume(tmp_path / f"c{seed}").close_journal()

    def test_batched_submit_failure_raises_in_raise_mode(self):
        space = make_space()

        def batcher(requests):
            runtimes = [[run_function(c) for c in configs] for _, configs in requests]
            runtimes[-1] = runtimes[-1][:-1]
            return runtimes

        specs = [
            CampaignSpec(search=make_search(seed, space), max_time=600.0, max_evaluations=20)
            for seed in range(2)
        ]
        with pytest.raises(ValueError, match="equal length"):
            CampaignRunner(specs, run_batcher=batcher).run()

    def test_start_quarantined_campaign_is_not_sent_to_the_batcher(self, tmp_path):
        space = make_space()
        seen = []

        def batcher(requests):
            seen.append([index for index, _ in requests])
            return [[run_function(c) for c in configs] for _, configs in requests]

        specs = [
            CampaignSpec(search=make_search(seed, space), max_time=500.0, max_evaluations=15)
            for seed in range(3)
        ]
        # Campaign 1 attaches to another seed's journal: its start raises.
        make_search(7, space).run(
            max_time=300.0, max_evaluations=6, journal_dir=tmp_path / "other"
        )
        specs[1].journal_dir = tmp_path / "other"
        specs[1].resume_from_journal = True
        runner = CampaignRunner(
            specs, run_batcher=batcher, on_campaign_error="quarantine"
        )
        results = runner.run()
        assert [(q.index, q.phase) for q in runner.quarantined] == [(1, "start")]
        assert "seed" in str(runner.quarantined[0].error)
        assert results[1] is None
        assert seen[0] == [0, 2]
        assert all(1 not in batch for batch in seen)
        for seed in (0, 2):
            assert_identical(
                make_search(seed, space).run(max_time=500.0, max_evaluations=15),
                results[seed],
            )


class TestServiceBackedCampaigns:
    def test_campaigns_share_a_worker_pool(self):
        space = make_space()
        pool = SharedWorkerPool(num_workers=6)
        specs = [
            CampaignSpec(
                search=CBOSearch(
                    space,
                    run_function,
                    num_workers=6,
                    surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
                    num_candidates=32,
                    n_initial_points=4,
                    seed=seed,
                    evaluator_factory=pool.evaluator_factory(),
                ),
                max_time=800.0,
                max_evaluations=20,
            )
            for seed in range(2)
        ]
        results = CampaignRunner(specs).run()
        assert all(r.num_evaluations > 0 for r in results)
        # Both campaigns ran on the shared clock and the shared workers.
        assert 0.0 < pool.utilization(800.0) <= 1.0
        total = sum(r.num_evaluations for r in results)
        assert total == sum(len(r.history) for r in results)


class TestHeterogeneousFleets:
    def test_campaigns_over_different_spaces(self):
        """Fused scoring/fitting must group by space width, not crash."""
        narrow = SearchSpace(
            [IntegerParameter("batch", 1, 256, log=True), RealParameter("rate", 0.1, 10.0)]
        )

        def narrow_runtime(config):
            return 25.0 + 5.0 * abs(math.log(config["batch"]) - 3.0)

        wide = make_space()
        sequential = [
            CBOSearch(narrow, narrow_runtime, num_workers=4,
                      surrogate=RandomForestSurrogate(n_estimators=6, seed=0),
                      num_candidates=32, n_initial_points=4, seed=0).run(
                max_time=500.0, max_evaluations=18
            ),
            make_search(1, wide).run(max_time=500.0, max_evaluations=18),
        ]
        specs = [
            CampaignSpec(
                search=CBOSearch(narrow, narrow_runtime, num_workers=4,
                                 surrogate=RandomForestSurrogate(n_estimators=6, seed=0),
                                 num_candidates=32, n_initial_points=4, seed=0),
                max_time=500.0,
                max_evaluations=18,
            ),
            CampaignSpec(search=make_search(1, wide), max_time=500.0, max_evaluations=18),
        ]
        batched = CampaignRunner(specs).run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)


def make_source_history(space, n=60, seed=123):
    history = SearchHistory(space)
    rng = np.random.default_rng(seed)
    for i, config in enumerate(space.sample(n, rng)):
        history.record(config, run_function(config), float(i), float(i + 1))
    return history


class TestTransferCampaignFleet:
    """The transfer scenario: TL-seeded campaigns with fused prior refreshes."""

    def test_refresh_campaigns_match_sequential_runs(self):
        space = make_space()
        sequential = [
            make_refresh_search(seed, space).run(max_time=700.0, max_evaluations=32)
            for seed in range(3)
        ]
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make_refresh_search(seed, space),
                    max_time=700.0,
                    max_evaluations=32,
                )
                for seed in range(3)
            ],
        )
        batched = runner.run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert runner.num_prior_refreshes > 0
        assert runner.num_vae_fleet_fits > 0
        assert runner.num_vae_fleet_members <= runner.num_prior_refreshes

    def test_transfer_seeded_campaigns_refresh_in_the_runner(self):
        """Campaigns constructed with TransferLearningPriors keep refreshing
        from their own incumbents inside the batched runner."""
        space = make_space()
        source = make_source_history(space)

        def make(seed):
            return VAEABOSearch(
                space,
                run_function,
                source_history=source,
                vae_epochs=15,
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
                num_candidates=48,
                n_initial_points=5,
                prior_refresh_interval=8,
                prior_refresh_top_k=8,
                prior_refresh_epochs=12,
                seed=seed,
            )

        sequential = [make(seed).run(max_time=700.0, max_evaluations=28) for seed in range(2)]
        runner = CampaignRunner(
            [
                CampaignSpec(search=make(seed), max_time=700.0, max_evaluations=28)
                for seed in range(2)
            ]
        )
        batched = runner.run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert runner.num_prior_refreshes > 0

    def test_deferred_transfer_fits_fuse_at_construction(self):
        """``defer_transfer_fit=True`` cohorts train their initial transfer
        VAEs as one fleet pass at runner start, bit-identical to eager
        construction-time fits."""
        space = make_space()
        # Big enough that the top quantile clears min_configurations_for_vae.
        source = make_source_history(space, n=120)

        def make(seed, defer):
            return VAEABOSearch(
                space,
                run_function,
                source_history=source,
                vae_epochs=15,
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
                num_candidates=48,
                n_initial_points=5,
                seed=seed,
                defer_transfer_fit=defer,
            )

        sequential = [
            make(seed, False).run(max_time=600.0, max_evaluations=20)
            for seed in range(3)
        ]
        specs = [
            CampaignSpec(search=make(seed, True), max_time=600.0, max_evaluations=20)
            for seed in range(3)
        ]
        assert all(spec.search.pending_transfer_fit is not None for spec in specs)
        runner = CampaignRunner(specs)
        batched = runner.run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert runner.num_transfer_fleet_fits == 1
        assert runner.num_transfer_fleet_members == 3
        assert all(spec.search.pending_transfer_fit is None for spec in specs)

    def test_deferred_singleton_takes_the_solo_backstop(self):
        """A deferred fleet of one trains through the execution backstop."""
        space = make_space()
        source = make_source_history(space, n=120)

        def make(defer):
            return VAEABOSearch(
                space,
                run_function,
                source_history=source,
                vae_epochs=15,
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=0),
                num_candidates=48,
                n_initial_points=5,
                seed=0,
                defer_transfer_fit=defer,
            )

        eager = make(False).run(max_time=600.0, max_evaluations=20)
        runner = CampaignRunner(
            [CampaignSpec(search=make(True), max_time=600.0, max_evaluations=20)]
        )
        batched = runner.run()
        assert_identical(eager, batched[0])
        assert runner.num_transfer_fleet_fits == 0
        # And entirely outside a runner, a deferred solo run is unchanged.
        assert_identical(eager, make(True).run(max_time=600.0, max_evaluations=20))

    def test_failed_fused_transfer_pass_retries_bit_identically(self, monkeypatch):
        """Under quarantine, a fused transfer pass that dies mid-training
        leaves its members to the solo backstop, and every campaign still
        finishes bit-identical to eager construction-time fits: the failed
        pass hands back each member's RNG stream untouched."""
        from repro.core.vae.layers import DenseFleet

        space = make_space()
        source = make_source_history(space, n=120)

        def make(seed, defer):
            return VAEABOSearch(
                space,
                run_function,
                source_history=source,
                vae_epochs=15,
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=seed),
                num_candidates=48,
                n_initial_points=5,
                seed=seed,
                defer_transfer_fit=defer,
            )

        eager = [
            make(seed, False).run(max_time=600.0, max_evaluations=20)
            for seed in range(3)
        ]
        fused_calls = {"n": 0}
        original_backward = DenseFleet.backward

        def backward(self, grad_output):
            # Only fused passes (more than one member) fail, mid-training.
            if grad_output.shape[0] > 1:
                fused_calls["n"] += 1
                if fused_calls["n"] == 7:
                    raise FloatingPointError("injected fused-pass failure")
            return original_backward(self, grad_output)

        monkeypatch.setattr(DenseFleet, "backward", backward)
        runner = CampaignRunner(
            [
                CampaignSpec(search=make(seed, True), max_time=600.0, max_evaluations=20)
                for seed in range(3)
            ],
            on_campaign_error="quarantine",
        )
        batched = runner.run()
        assert fused_calls["n"] >= 7
        assert runner.num_transfer_fleet_fits == 0
        assert runner.quarantined == []
        for a, b in zip(eager, batched):
            assert_identical(a, b)

    def test_solo_run_installs_refreshed_prior(self):
        space = make_space()
        search = make_refresh_search(0, space)
        execution = search.start(max_time=700.0, max_evaluations=32)
        while advance(execution):
            pass
        assert execution.num_prior_refreshes > 0
        prior = execution.optimizer.prior
        assert isinstance(prior, TransferLearningPrior)
        # The refreshed prior spans the whole space (no new parameters) and
        # carries the campaign's own top-k incumbents.
        assert prior.new_parameters == []
        assert len(prior.top_configurations) == search.prior_refresh_top_k

    def test_refresh_knob_validation(self):
        space = make_space()
        with pytest.raises(ValueError):
            CBOSearch(space, run_function, prior_refresh_interval=0)
        with pytest.raises(ValueError):
            CBOSearch(space, run_function, prior_refresh_interval=4, prior_refresh_top_k=0)
        with pytest.raises(ValueError):
            CBOSearch(space, run_function, prior_refresh_interval=4, prior_refresh_epochs=0)


class TestFleetFitErrorPath:
    def test_incompatible_fleet_leaves_rng_streams_untouched(self):
        """A rejected fleet must not advance any member's generator."""
        import numpy as np
        from repro.core.surrogate.random_forest import fit_forest_fleet

        rng = np.random.default_rng(0)
        X, y = rng.random((60, 4)), rng.random(60)
        good = RandomForestSurrogate(seed=1)
        reference = RandomForestSurrogate(seed=1)
        bad = RandomForestSurrogate(seed=2, max_depth=5)
        with pytest.raises(ValueError, match="incompatible"):
            fit_forest_fleet([(good, X, y), (bad, X, y)])
        good.fit(X, y)
        reference.fit(X, y)
        for ta, tb in zip(good._trees, reference._trees):
            assert np.array_equal(ta.threshold, tb.threshold)


class TestGPFleetRunnerIdentity:
    """GP campaigns through the batched runner are bit-identical to solo runs.

    The GP counterpart of the RF/VAE runner identity tests: batched GPFleet
    fits (stacked Cholesky full refits, concatenated factor extensions) must
    not change any campaign's results.  A
    reduced size runs in tier-1; the full 8-campaign fleet is marked
    ``slow``.
    """

    def test_gp_campaigns_match_sequential(self):
        space = make_space()
        sequential = [
            make_gp_search(seed, space, num_workers=6, n_initial_points=5).run(
                max_time=600.0, max_evaluations=22
            )
            for seed in range(3)
        ]
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make_gp_search(seed, space, num_workers=6, n_initial_points=5),
                    max_time=600.0,
                    max_evaluations=22,
                )
                for seed in range(3)
            ],
        )
        batched = runner.run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        fleet_passes = runner.num_gp_fleet_extends + runner.num_gp_fleet_full_fits
        assert fleet_passes > 0
        assert runner.num_gp_fleet_members >= 2 * fleet_passes

    def test_mixed_rf_and_gp_fleet_campaigns(self):
        """RF and GP campaigns in one runner each fuse with their own kind."""
        space = make_space()

        def searches():
            return [
                make_search(0, space),
                make_gp_search(1, space, num_workers=6, n_initial_points=5),
                make_search(2, space),
                make_gp_search(3, space, num_workers=6, n_initial_points=5),
            ]

        sequential = [s.run(max_time=500.0, max_evaluations=18) for s in searches()]
        runner = CampaignRunner(
            [
                CampaignSpec(search=s, max_time=500.0, max_evaluations=18)
                for s in searches()
            ],
        )
        batched = runner.run()
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        assert runner.num_fleet_fits > 0
        assert runner.num_gp_fleet_extends + runner.num_gp_fleet_full_fits > 0


@pytest.mark.slow
class TestGPFleetRunnerFullSize:
    def test_eight_gp_campaigns_bit_identical_to_sequential(self):
        """Full-size acceptance: 8 concurrent GP campaigns, bit-identical."""
        space = make_space()

        def make(seed):
            return make_gp_search(
                seed, space, num_workers=8, num_candidates=96, n_initial_points=6
            )

        sequential = [
            make(seed).run(max_time=float("inf"), max_evaluations=90)
            for seed in range(8)
        ]
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make(seed), max_time=float("inf"), max_evaluations=90
                )
                for seed in range(8)
            ]
        )
        batched = runner.run()
        assert len(batched) == 8
        for a, b in zip(sequential, batched):
            assert_identical(a, b)
        # At this size both fleet fit modes must have engaged: batched
        # factor extensions and stacked full refits.
        assert runner.num_gp_fleet_extends > 0
        assert runner.num_gp_fleet_full_fits > 0
        fleet_passes = runner.num_gp_fleet_extends + runner.num_gp_fleet_full_fits
        assert runner.num_gp_fleet_members >= 2 * fleet_passes


class TestQuarantineAndRunnerJournal:
    """Graceful degradation: one failing campaign must not sink the batch."""

    @staticmethod
    def make_exploding_run(limit):
        """A run function that works ``limit`` times, then always raises."""
        calls = {"n": 0}

        def run(config):
            calls["n"] += 1
            if calls["n"] > limit:
                raise RuntimeError("injected campaign failure")
            return run_function(config)

        return run

    def test_runner_journals_campaigns_per_spec(self, tmp_path):
        from repro.core.journal import CampaignJournal

        space = make_space()
        sequential = [
            make_search(seed, space).run(max_time=600.0, max_evaluations=24)
            for seed in range(3)
        ]
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make_search(seed, space),
                    max_time=600.0,
                    max_evaluations=24,
                    journal_dir=tmp_path / f"c{seed}",
                )
                for seed in range(3)
            ]
        )
        batched = runner.run()
        for seed, (a, b) in enumerate(zip(sequential, batched)):
            assert_identical(a, b)
            checkpoint = CampaignJournal.read_checkpoint(tmp_path / f"c{seed}")
            assert checkpoint["finished"] is True
            assert checkpoint["num_rows"] == len(b.history)

    def test_quarantine_isolates_the_failing_campaign(self):
        space = make_space()
        solo = [
            make_search(seed, space).run(max_time=600.0, max_evaluations=24)
            for seed in (0, 2)
        ]
        specs = [
            CampaignSpec(
                search=make_search(0, space), max_time=600.0,
                max_evaluations=24, label="good-0",
            ),
            CampaignSpec(
                search=CBOSearch(
                    space,
                    self.make_exploding_run(12),
                    num_workers=6,
                    surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
                    num_candidates=48,
                    n_initial_points=5,
                    seed=1,
                ),
                max_time=600.0,
                max_evaluations=24,
                label="doomed",
            ),
            CampaignSpec(
                search=make_search(2, space), max_time=600.0,
                max_evaluations=24, label="good-2",
            ),
        ]
        runner = CampaignRunner(specs, on_campaign_error="quarantine")
        results = runner.run()
        assert len(runner.quarantined) == 1
        entry = runner.quarantined[0]
        assert entry.index == 1
        assert entry.label == "doomed"
        assert "injected campaign failure" in str(entry.error)
        # Survivors finish bit-identical to their solo runs: the quarantine
        # must not perturb fleet grouping determinism for healthy campaigns.
        assert_identical(solo[0], results[0])
        assert_identical(solo[1], results[2])
        # The doomed campaign still reports whatever it had completed.
        assert len(results[1].history) < 24

    def test_quarantined_campaign_is_resumable_from_its_journal(self, tmp_path):
        space = make_space()
        doomed = CampaignSpec(
            search=CBOSearch(
                space,
                self.make_exploding_run(12),
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
                num_candidates=48,
                n_initial_points=5,
                seed=1,
            ),
            max_time=600.0,
            max_evaluations=24,
            journal_dir=tmp_path / "doomed",
        )
        runner = CampaignRunner(
            [doomed, CampaignSpec(search=make_search(2, space), max_time=600.0, max_evaluations=24)],
            on_campaign_error="quarantine",
        )
        runner.run()
        assert [q.index for q in runner.quarantined] == [0]
        # Resume with a repaired run function (same seed/surrogate/space):
        # the journal restores the completed evaluations and the campaign
        # runs to its budget.
        repaired = CBOSearch(
            space,
            run_function,
            num_workers=6,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
            num_candidates=48,
            n_initial_points=5,
            seed=1,
        )
        execution = repaired.resume(tmp_path / "doomed")
        restored = len(execution.history)
        assert restored > 0
        while advance(execution):
            pass
        result = execution.result()
        assert result.num_evaluations >= max(restored, 24 - 6)
        assert math.isfinite(result.best_runtime)

    def test_raise_mode_propagates_the_error(self):
        space = make_space()
        specs = [
            CampaignSpec(
                search=CBOSearch(
                    space,
                    self.make_exploding_run(8),
                    num_workers=6,
                    surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
                    num_candidates=48,
                    n_initial_points=5,
                    seed=1,
                ),
                max_time=600.0,
                max_evaluations=24,
            ),
        ]
        with pytest.raises(RuntimeError, match="injected campaign failure"):
            CampaignRunner(specs).run()

    def test_on_campaign_error_is_validated(self):
        space = make_space()
        specs = [CampaignSpec(search=make_search(0, space), max_time=100.0)]
        with pytest.raises(ValueError, match="on_campaign_error"):
            CampaignRunner(specs, on_campaign_error="ignore")

    def test_finished_campaigns_release_their_journals(self, tmp_path):
        """Regression: a runner kept every journal's writer lease for as long
        as it lived, so resuming a finished campaign raised JournalBusyError."""
        space = make_space()
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make_search(seed, space),
                    max_time=600.0,
                    max_evaluations=24,
                    journal_dir=tmp_path / f"c{seed}",
                )
                for seed in range(2)
            ]
        )
        results = runner.run()
        for seed, result in enumerate(results):
            execution = make_search(seed, space).resume(tmp_path / f"c{seed}")
            assert execution.finished
            assert len(execution.history) == len(result.history)
            execution.close_journal()

    def test_raise_mode_releases_the_survivors_journals(self, tmp_path):
        """Regression: after ``run()`` raised, the campaigns still in flight
        kept their leases and could not be resumed in the same process."""
        space = make_space()

        def doomed_search():
            return CBOSearch(
                space,
                self.make_exploding_run(12),
                num_workers=6,
                surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
                num_candidates=48,
                n_initial_points=5,
                seed=1,
            )

        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=make_search(0, space),
                    max_time=600.0,
                    max_evaluations=24,
                    journal_dir=tmp_path / "good",
                ),
                CampaignSpec(
                    search=doomed_search(),
                    max_time=600.0,
                    max_evaluations=24,
                    journal_dir=tmp_path / "doomed",
                ),
            ]
        )
        with pytest.raises(RuntimeError, match="injected campaign failure"):
            runner.run()
        # Both campaigns resume from their last checkpoints; the survivor
        # then finishes bit-identical to an uninterrupted solo run.
        resumed = make_search(0, space).resume(tmp_path / "good")
        while advance(resumed):
            pass
        assert_identical(
            make_search(0, space).run(max_time=600.0, max_evaluations=24),
            resumed.result(),
        )
        resumed.close_journal()
        doomed = CBOSearch(
            space,
            run_function,
            num_workers=6,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
            num_candidates=48,
            n_initial_points=5,
            seed=1,
        ).resume(tmp_path / "doomed")
        assert len(doomed.history) > 0
        doomed.close_journal()

    @pytest.mark.parametrize("short_call", [1, 3])
    def test_batched_submit_failure_quarantines_only_its_campaign(self, short_call):
        """Regression: with a run batcher, one campaign's submit failure
        aborted the whole run in quarantine mode.  ``short_call=1`` hits the
        fused initial batches, ``3`` a later tick's submissions."""
        space = make_space()
        solo = [
            make_search(seed, space).run(max_time=600.0, max_evaluations=24)
            for seed in (0, 2)
        ]
        calls = {"n": 0}

        def batcher(requests):
            calls["n"] += 1
            runtimes = [[run_function(c) for c in configs] for _, configs in requests]
            if calls["n"] == short_call:
                position = [index for index, _ in requests].index(1)
                runtimes[position] = runtimes[position][:-1]  # one short
            return runtimes

        specs = [
            CampaignSpec(
                search=make_search(seed, space),
                max_time=600.0,
                max_evaluations=24,
                label=f"c{seed}",
            )
            for seed in range(3)
        ]
        runner = CampaignRunner(
            specs, run_batcher=batcher, on_campaign_error="quarantine"
        )
        results = runner.run()
        assert [(q.index, q.phase) for q in runner.quarantined] == [(1, "submit")]
        assert "equal length" in str(runner.quarantined[0].error)
        assert_identical(solo[0], results[0])
        assert_identical(solo[1], results[2])

    @pytest.mark.parametrize("target", ["ask", "rf-fit", "rf-score", "refresh"])
    def test_failed_fleet_pass_retries_solo_bit_identically(self, target, monkeypatch):
        """One injected failure in a fused pass — the fleet ask, the RF fleet
        fit, fused RF scoring or a refresh VAEFleet fit — falls back to each
        member's solo step, and both campaigns still finish bit-identical to
        their solo runs: a failed pass hands back every member's model and
        RNG streams as it found them."""
        from repro.core.space import ColumnBatch
        from repro.core.surrogate import random_forest
        from repro.core.vae.layers import DenseFleet
        from repro.service import runner as runner_module

        space = make_space()
        factory = make_refresh_search if target == "refresh" else make_search
        solo = [
            factory(seed, space).run(max_time=600.0, max_evaluations=24)
            for seed in range(2)
        ]
        fired = {"calls": 0}
        nth = {"ask": 3, "rf-fit": 2, "rf-score": 1, "refresh": 5}[target]

        def failing(original, fused=lambda *args: True):
            """``original`` raising once, after its ``nth`` fused call ran."""

            def call(*args, **kwargs):
                result = original(*args, **kwargs)
                if fused(*args):
                    fired["calls"] += 1
                    if fired["calls"] == nth:
                        raise MemoryError(f"injected {target} failure")
                return result

            return call

        if target == "ask":
            # The 3rd concat is the 2nd fused ask's candidate sheet, stacked
            # after every member drew its candidates.
            monkeypatch.setattr(
                ColumnBatch, "concat", staticmethod(failing(ColumnBatch.concat))
            )
        elif target == "rf-fit":
            build = random_forest._build_forest_fleet
            monkeypatch.setattr(
                random_forest,
                "_build_forest_fleet",
                failing(build, fused=lambda Xs, *rest: len(Xs) > 1),
            )
        elif target == "rf-score":
            monkeypatch.setattr(
                runner_module,
                "predict_forest_fleet",
                failing(runner_module.predict_forest_fleet),
            )
        else:
            # Mid-training, in a fused pass (more than one member).
            monkeypatch.setattr(
                DenseFleet,
                "backward",
                failing(
                    DenseFleet.backward,
                    fused=lambda layer, grad_output: grad_output.shape[0] > 1,
                ),
            )
        runner = CampaignRunner(
            [
                CampaignSpec(
                    search=factory(seed, space), max_time=600.0, max_evaluations=24
                )
                for seed in range(2)
            ],
            on_campaign_error="quarantine",
        )
        results = runner.run()
        assert fired["calls"] >= nth
        assert runner.quarantined == []
        for a, b in zip(solo, results):
            assert_identical(a, b)

    def test_scoring_failure_quarantines_in_the_ask_phase(self):
        """A candidate-scoring crash inside ``finish_ask`` is recorded against
        its own campaign; the other campaign is untouched."""

        class ExplodingSurrogate(RandomForestSurrogate):
            def predict(self, X):
                if self.fitted and X.shape[0] > 1:
                    raise FloatingPointError("singular score sheet")
                return super().predict(X)

        space = make_space()
        doomed = CBOSearch(
            space,
            run_function,
            num_workers=6,
            surrogate=ExplodingSurrogate(n_estimators=6, seed=1),
            num_candidates=48,
            n_initial_points=5,
            seed=1,
        )
        # The healthy campaign is GP-backed, so the doomed RF pool is a
        # singleton and scores through its own predict.
        specs = [
            CampaignSpec(
                search=make_gp_search(0, space), max_time=400.0,
                max_evaluations=16, label="good",
            ),
            CampaignSpec(
                search=doomed, max_time=400.0, max_evaluations=16, label="doomed"
            ),
        ]
        runner = CampaignRunner(specs, on_campaign_error="quarantine")
        results = runner.run()
        assert [(q.label, q.phase) for q in runner.quarantined] == [("doomed", "ask")]
        assert isinstance(runner.quarantined[0].error, FloatingPointError)
        assert_identical(
            make_gp_search(0, space).run(max_time=400.0, max_evaluations=16),
            results[0],
        )
