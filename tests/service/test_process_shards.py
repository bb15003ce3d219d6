"""Process shards: ``CampaignRunner(processes=N)`` changes no campaign.

A multi-process run deals the specs into contiguous shards of whole
campaigns and runs each shard through a sequential runner in a forked
child; the parent rebuilds every result from the child's journal.  The
contract is the in-process run's: every campaign's results and journal
bytes are **bitwise identical**, and a campaign quarantined inside a child
is reported exactly as the in-process run reports it, under the parent's
spec index.  The suite also pins the deal itself (observed through the
worker pid each run-function call reports), the counter reduction over
shards, how a child's failure reaches the parent, and that every journal
is free to resume once the run returns.
"""

import multiprocessing
import os

import pytest

from fixtures import (
    assert_results_identical,
    make_gp_search,
    make_refresh_search,
    make_service_search,
    make_service_space,
    service_run_function,
)
from repro.core.search import CBOSearch
from repro.core.surrogate import RandomForestSurrogate
from repro.service.runner import CampaignRunner, CampaignSpec
from reference.search import advance

BUDGET = dict(max_time=700.0, max_evaluations=26)


def make_mixed_specs(n=4, journal_root=None):
    """An n-campaign cohort cycling through the RF/GP/refresh families."""
    space = make_service_space()
    factories = (make_service_search, make_gp_search, make_refresh_search)
    return [
        CampaignSpec(
            search=factories[i % 3](seed=100 + i, space=space),
            label=f"c{i}",
            journal_dir=None if journal_root is None else journal_root / f"c{i}",
            **BUDGET,
        )
        for i in range(n)
    ]


def journal_bytes(directory):
    """Every journal file's raw bytes, keyed by name (order-independent)."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def make_doomed_search(limit=12):
    """An RF campaign whose run function raises after ``limit`` evaluations."""
    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] > limit:
            raise RuntimeError("injected campaign failure")
        return service_run_function(config)

    return CBOSearch(
        make_service_space(),
        run,
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=6, seed=1),
        num_candidates=48,
        n_initial_points=5,
        seed=1,
    )


def make_logged_search(label, log):
    """A tiny RF campaign whose run function logs ``label pid`` per call.

    The log reveals which worker process ran which campaign.
    """

    def run(config):
        with open(log, "a") as handle:
            handle.write(f"{label} {os.getpid()}\n")
        return service_run_function(config)

    return CBOSearch(
        make_service_space(),
        run,
        num_workers=6,
        surrogate=RandomForestSurrogate(n_estimators=4, seed=0),
        num_candidates=16,
        n_initial_points=5,
        seed=0,
    )


def bundled_blas_pools():
    """``(get, set)`` thread-count functions of NumPy's and SciPy's bundled
    OpenBLAS, for each one this build ships."""
    import ctypes
    import glob

    import numpy
    import scipy

    pools = []
    for package, suffix in ((numpy, "64_"), (scipy, "")):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, f"{package.__name__}.libs", "libscipy_openblas*")):
            library = ctypes.CDLL(path)
            try:
                get = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            pools.append((get, set_))
    return pools


def counters(runner):
    """Every ``num_*`` counter of a runner, by name."""
    return {
        name: value for name, value in vars(runner).items() if name.startswith("num_")
    }


class TestProcessShards:
    def test_process_shards_match_in_process(self, tmp_path):
        in_process = CampaignRunner(make_mixed_specs(journal_root=tmp_path / "a")).run()
        runner = CampaignRunner(
            make_mixed_specs(journal_root=tmp_path / "b"), processes=2
        )
        results = runner.run()
        for a, b in zip(in_process, results):
            assert_results_identical(a, b)
        # results() serves the same multi-process outcome after the fact.
        for a, b in zip(results, runner.results()):
            assert_results_identical(a, b)
        assert runner.num_ticks > 0
        for i in range(4):
            assert journal_bytes(tmp_path / "a" / f"c{i}") == journal_bytes(
                tmp_path / "b" / f"c{i}"
            )

    @pytest.mark.parametrize("processes", [2, 3])
    def test_mixed_cohort_matches_solo_runs(self, tmp_path, processes):
        """The identity reference is each campaign's own sequential
        ``CBOSearch.run``, whatever the process count."""
        results = CampaignRunner(
            make_mixed_specs(n=6, journal_root=tmp_path), processes=processes
        ).run()
        for spec, result in zip(make_mixed_specs(n=6), results):
            assert_results_identical(spec.search.run(**BUDGET), result)

    def test_process_shards_require_journals(self):
        runner = CampaignRunner(make_mixed_specs(n=2), processes=2)
        with pytest.raises(ValueError, match="journal"):
            runner.run()

    def test_processes_are_validated(self):
        with pytest.raises(ValueError, match="processes"):
            CampaignRunner(make_mixed_specs(n=1), processes=0)

    def test_shards_take_no_admission_control(self, tmp_path):
        """A forked shard cannot see the other shards' in-flight campaigns,
        so admission limits and arrival ticks have no meaning across it."""
        specs = make_mixed_specs(n=2, journal_root=tmp_path)
        for limit in ({"max_inflight": 1}, {"max_inflight_per_tenant": 1}):
            with pytest.raises(ValueError, match="admission limit"):
                CampaignRunner(specs, processes=2, **limit)
        runner = CampaignRunner(processes=2)
        with pytest.raises(ValueError, match="arrival_tick"):
            runner.admit(specs[0], arrival_tick=2)
        assert runner.specs == []

    def test_quarantine_inside_a_child_matches_in_process(self, tmp_path):
        """Spec 3 is the second campaign of the second shard: the child
        numbers it 1, and the parent must report it as 3."""

        def specs(root):
            out = make_mixed_specs(n=5, journal_root=root)
            out[3] = CampaignSpec(
                search=make_doomed_search(),
                label="doomed",
                journal_dir=root / "c3",
                **BUDGET,
            )
            return out

        in_process_runner = CampaignRunner(
            specs(tmp_path / "a"), on_campaign_error="quarantine"
        )
        in_process = in_process_runner.run()
        runner = CampaignRunner(
            specs(tmp_path / "b"), on_campaign_error="quarantine", processes=2
        )
        results = runner.run()
        assert [(q.index, q.label) for q in runner.quarantined] == [(3, "doomed")]
        assert [q.index for q in in_process_runner.quarantined] == [3]
        assert runner.quarantined[0].phase == in_process_runner.quarantined[0].phase
        assert "injected campaign failure" in str(runner.quarantined[0].error)
        # The partial result failed at the same virtual moment in both runs.
        assert len(results[3].history) == len(in_process[3].history)
        for index, (a, b) in enumerate(zip(in_process, results)):
            if index != 3:
                assert_results_identical(a, b)

    def test_counters_sum_over_shards_and_ticks_take_the_deepest(self, tmp_path):
        """Four specs in two processes run as shards [0, 1] and [2, 3]: the
        parent's counters are the two shard runners' counters summed, and
        ``num_ticks`` is the deeper shard's tick count."""
        shard_runners = [
            CampaignRunner(make_mixed_specs(journal_root=tmp_path / "ref")[lo:hi])
            for lo, hi in ((0, 2), (2, 4))
        ]
        for shard_runner in shard_runners:
            shard_runner.run()
        runner = CampaignRunner(
            make_mixed_specs(journal_root=tmp_path / "p"), processes=2
        )
        runner.run()
        expected = {
            name: sum(counters(r)[name] for r in shard_runners)
            for name in counters(runner)
        }
        expected["num_ticks"] = max(r.num_ticks for r in shard_runners)
        assert counters(runner) == expected
        assert runner.num_fleet_fits > 0

    @pytest.mark.parametrize(
        "count,processes,shards",
        [
            (2, 2, [[0], [1]]),
            (5, 2, [[0, 1, 2], [3, 4]]),
            (5, 3, [[0, 1], [2, 3], [4]]),
            (3, 5, [[0], [1], [2]]),
        ],
        ids=["2-into-2", "5-into-2", "5-into-3", "3-into-5"],
    )
    def test_specs_are_dealt_into_contiguous_balanced_shards(
        self, tmp_path, count, processes, shards
    ):
        """Spec i runs in shard ``i * k // n`` of ``k = min(processes, n)``:
        contiguous, in spec order, sizes differing by at most one, and never
        an idle child."""
        log = tmp_path / "calls.log"
        specs = [
            CampaignSpec(
                search=make_logged_search(f"c{i}", log),
                max_time=300.0,
                max_evaluations=6,
                journal_dir=tmp_path / f"c{i}",
            )
            for i in range(count)
        ]
        CampaignRunner(specs, processes=processes).run()
        campaigns_of = {}
        for line in log.read_text().splitlines():
            label, pid = line.split()
            campaigns_of.setdefault(pid, set()).add(int(label[1:]))
        assert os.getpid() not in {int(pid) for pid in campaigns_of}
        assert sorted(sorted(c) for c in campaigns_of.values()) == shards

    def test_more_processes_than_specs_match_in_process(self, tmp_path):
        in_process = CampaignRunner(
            make_mixed_specs(n=3, journal_root=tmp_path / "a")
        ).run()
        results = CampaignRunner(
            make_mixed_specs(n=3, journal_root=tmp_path / "b"), processes=5
        ).run()
        for a, b in zip(in_process, results):
            assert_results_identical(a, b)

    def test_one_process_runs_in_this_process(self, monkeypatch):
        """``processes=1`` is the in-process tick pipeline: it never forks,
        and so needs no journals."""

        def no_fork(*args, **kwargs):
            raise AssertionError("processes=1 must not start worker processes")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        results = CampaignRunner(make_mixed_specs(n=2), processes=1).run()
        solo = [spec.search for spec in make_mixed_specs(n=2)]
        for search, result in zip(solo, results):
            assert_results_identical(search.run(**BUDGET), result)

    def test_failure_inside_a_child_raises_in_the_parent(self, tmp_path):
        specs = make_mixed_specs(n=4, journal_root=tmp_path)
        specs[3] = CampaignSpec(
            search=make_doomed_search(),
            label="doomed",
            journal_dir=tmp_path / "c3",
            **BUDGET,
        )
        runner = CampaignRunner(specs, processes=2)
        with pytest.raises(RuntimeError, match="process shards failed") as caught:
            runner.run()
        # Only the doomed campaign's shard fails, and the report says which.
        message = str(caught.value)
        assert "shard [2, 3]" in message
        assert "injected campaign failure" in message
        assert "shard [0, 1]" not in message

    def test_start_quarantined_inside_a_child_keeps_the_parent_index(self, tmp_path):
        """A spec whose start raises is reported with phase ``start`` under
        its parent index and yields no result, as in the in-process run."""

        def specs(root):
            out = make_mixed_specs(n=4, journal_root=root)
            out[2] = CampaignSpec(
                search=make_service_search(seed=7),
                label="broken",
                journal_dir=root / "c2",
                # An incomplete configuration: the start itself raises.
                initial_configurations=[{"batch": 3}],
                **BUDGET,
            )
            return out

        in_process_runner = CampaignRunner(
            specs(tmp_path / "a"), on_campaign_error="quarantine"
        )
        in_process = in_process_runner.run()
        runner = CampaignRunner(
            specs(tmp_path / "b"), on_campaign_error="quarantine", processes=2
        )
        results = runner.run()
        assert [(q.index, q.label, q.phase) for q in runner.quarantined] == [
            (2, "broken", "start")
        ]
        assert [(q.index, q.phase) for q in in_process_runner.quarantined] == [
            (2, "start")
        ]
        assert results[2] is None and in_process[2] is None
        for index in (0, 1, 3):
            assert_results_identical(in_process[index], results[index])

    @pytest.mark.parametrize("processes", [2, 3])
    def test_run_batcher_serves_every_child(self, tmp_path, processes):
        """Children call the batcher with the parent's spec indices: a
        batcher that dispatches on the index (one runtime model per
        campaign) must evaluate every campaign with its own model."""

        def batcher(requests):
            return [
                [
                    (1.0 + 0.5 * index) * service_run_function(config)
                    for config in configs
                ]
                for index, configs in requests
            ]

        in_process = CampaignRunner(
            make_mixed_specs(journal_root=tmp_path / "a"), run_batcher=batcher
        ).run()
        results = CampaignRunner(
            make_mixed_specs(journal_root=tmp_path / "b"),
            run_batcher=batcher,
            processes=processes,
        ).run()
        for a, b in zip(in_process, results):
            assert_results_identical(a, b)

    def test_children_pin_blas_to_one_thread(self, tmp_path):
        """Every shard child runs NumPy's and SciPy's BLAS on one thread, even
        when the parent's pools are wider: a batcher running in the children
        records what both getters read there."""
        pools = bundled_blas_pools()
        if len(pools) < 2:
            pytest.skip("this build does not bundle both OpenBLAS libraries")
        record = tmp_path / "threads.log"

        def batcher(requests):
            with open(record, "a") as handle:
                handle.write(" ".join(str(get()) for get, _ in pools) + "\n")
            return [[service_run_function(c) for c in configs] for _, configs in requests]

        before = [get() for get, _ in pools]
        try:
            for _, set_threads in pools:
                set_threads(2)
            CampaignRunner(
                make_mixed_specs(journal_root=tmp_path / "j"),
                run_batcher=batcher,
                processes=2,
            ).run()
        finally:
            for (_, set_threads), threads in zip(pools, before):
                set_threads(threads)
        readings = record.read_text().split("\n")[:-1]
        assert readings
        assert set(readings) == {"1 1"}

    def test_journals_are_released_when_the_run_returns(self, tmp_path):
        """The children's writer leases end with the children: every
        campaign resumes in the parent right away, finished."""
        results = CampaignRunner(
            make_mixed_specs(journal_root=tmp_path), processes=2
        ).run()
        for i, (spec, result) in enumerate(zip(make_mixed_specs(), results)):
            execution = spec.search.resume(tmp_path / f"c{i}")
            assert execution.finished
            assert len(execution.history) == len(result.history)
            execution.close_journal()

    def test_children_resume_interrupted_campaigns(self, tmp_path):
        """Specs with ``resume_from_journal`` continue from their journals
        inside the children and finish bit-identical to uninterrupted runs."""
        for i, spec in enumerate(make_mixed_specs(journal_root=tmp_path)):
            execution = spec.search.start(journal_dir=spec.journal_dir, **BUDGET)
            for _ in range(2 + i):
                advance(execution)
            execution.close_journal()
        specs = make_mixed_specs(journal_root=tmp_path)
        for spec in specs:
            spec.resume_from_journal = True
        results = CampaignRunner(specs, processes=2).run()
        for spec, result in zip(make_mixed_specs(), results):
            assert_results_identical(spec.search.run(**BUDGET), result)
