"""Burst regression: 50 short-lived campaigns under admission control.

The service-scale smoke the campaign runner must absorb: a burst of many
small tenant-labelled campaigns arriving in waves against a shared worker
pool.  Pinned here: every campaign is eventually admitted exactly once and
runs to completion (no starvation) bit-identical to its solo run, with fused
fleet fits along the way, the in-flight cap holds at every tick, admission
stays FIFO within each tenant, and the pool's per-tenant slot caps
(``tenant_slots``) bound each tenant's concurrent evaluations.
"""

import itertools

import pytest

from fixtures import (
    assert_results_identical,
    make_service_space,
    service_run_function,
)
from repro.core.search import CBOSearch
from repro.core.surrogate import RandomForestSurrogate
from repro.service import (
    CampaignRunner,
    CampaignSpec,
    SharedWorkerPool,
)

NUM_CAMPAIGNS = 50
MAX_INFLIGHT = 8
TENANTS = ("alice", "bob", "carol")


def make_burst_spec(index, space, pool=None, max_time=400.0):
    """A deliberately tiny campaign — burst tests care about churn, not BO.

    Pool-backed specs need a roomy ``max_time``: the shared pool's virtual
    clock is global, so late arrivals burn horizon while earlier waves hold
    the workers.
    """
    tenant = TENANTS[index % len(TENANTS)]
    factory = None if pool is None else pool.evaluator_factory(tenant=tenant)
    search = CBOSearch(
        space,
        service_run_function,
        num_workers=4,
        surrogate=RandomForestSurrogate(n_estimators=4, seed=index),
        num_candidates=16,
        n_initial_points=3,
        seed=index,
        evaluator_factory=factory,
    )
    return CampaignSpec(
        search=search,
        max_time=max_time,
        max_evaluations=8,
        label=f"burst-{index}",
        tenant=tenant,
    )


def run_burst(runner, specs, arrival_of):
    for index, spec in enumerate(specs):
        runner.admit(spec, arrival_tick=arrival_of(index))
    peak_inflight = 0
    while runner._active or runner._admission_queue:
        runner.tick()
        peak_inflight = max(peak_inflight, runner.num_inflight)
    return runner.results(), peak_inflight


class TestBurstAdmission:
    def test_fifty_campaign_burst_completes_without_starvation(self):
        space = make_service_space()
        runner = CampaignRunner(max_inflight=MAX_INFLIGHT)
        specs = [make_burst_spec(i, space) for i in range(NUM_CAMPAIGNS)]
        # Five waves of ten, two ticks apart.
        results, peak = run_burst(runner, specs, arrival_of=lambda i: 2 * (i // 10))

        # No starvation: every campaign admitted exactly once and finished.
        assert sorted(runner.admitted_order) == list(range(NUM_CAMPAIGNS))
        assert len(results) == NUM_CAMPAIGNS
        assert all(r is not None for r in results)
        assert all(len(r.history) == 8 for r in results)
        assert runner.num_waiting == 0
        assert runner.num_inflight == 0

        # The cap held at every tick and was actually exercised by the burst.
        assert peak <= MAX_INFLIGHT
        assert peak == MAX_INFLIGHT

        # Elasticity changes scheduling, never results: with private workers
        # every campaign matches its solo run, and fused fits did happen.
        for index, result in enumerate(results):
            spec = make_burst_spec(index, space)
            solo = spec.search.run(
                max_time=spec.max_time, max_evaluations=spec.max_evaluations
            )
            assert_results_identical(solo, result)
        assert runner.num_fleet_fitted_surrogates > 0

    def test_admission_is_fifo_within_each_tenant(self):
        space = make_service_space()
        runner = CampaignRunner(
            max_inflight=MAX_INFLIGHT, max_inflight_per_tenant=2
        )
        specs = [make_burst_spec(i, space) for i in range(24)]
        results, peak = run_burst(runner, specs, arrival_of=lambda i: 0)

        assert all(r is not None for r in results)
        assert peak <= MAX_INFLIGHT
        for tenant in TENANTS:
            indices = [
                i for i in runner.admitted_order if specs[i].tenant == tenant
            ]
            # A tenant's own campaigns never overtake each other.
            assert indices == sorted(indices)

    def test_per_tenant_inflight_cap_bounds_each_tenants_share(self):
        space = make_service_space()
        runner = CampaignRunner(
            max_inflight=6, max_inflight_per_tenant=2
        )
        specs = [make_burst_spec(i, space) for i in range(18)]
        for index, spec in enumerate(specs):
            runner.admit(spec, arrival_tick=0)
        while runner._active or runner._admission_queue:
            runner.tick()
            per_tenant = {t: 0 for t in TENANTS}
            for execution in runner._active:
                index = runner._index_of[id(execution)]
                per_tenant[specs[index].tenant] += 1
            assert all(count <= 2 for count in per_tenant.values())
        assert sorted(runner.admitted_order) == list(range(18))


class TestTenantSlotShares:
    def test_pool_slot_caps_bound_concurrent_evaluations(self):
        space = make_service_space()
        pool = SharedWorkerPool(
            num_workers=12, tenant_slots={t: 4 for t in TENANTS}
        )
        runner = CampaignRunner(max_inflight=MAX_INFLIGHT)
        specs = [
            make_burst_spec(i, space, pool=pool, max_time=100_000.0)
            for i in range(NUM_CAMPAIGNS)
        ]
        results, peak = run_burst(runner, specs, arrival_of=lambda i: i // 10)

        assert all(r is not None for r in results)
        # The stop budget is a threshold: batched collects on the shared
        # pool may land a few extra completions past the 8th.
        assert all(len(r.history) >= 8 for r in results)
        assert peak <= MAX_INFLIGHT
        # The pool enforced each tenant's slot share throughout the burst —
        # including for the over-submitted asks that finished campaigns
        # abandon in flight, which still occupy (capped) slots at the end.
        assert pool.tenant_peak_running
        for tenant, peak_running in pool.tenant_peak_running.items():
            assert peak_running <= 4, (tenant, peak_running)
        assert all(pool.tenant_running(t) <= 4 for t in TENANTS)

    def test_uncapped_tenants_share_the_whole_pool(self):
        space = make_service_space()
        pool = SharedWorkerPool(num_workers=6, tenant_slots={"alice": 2})
        runner = CampaignRunner()
        specs = [
            make_burst_spec(i, space, pool=pool, max_time=100_000.0)
            for i in range(6)
        ]
        results, _ = run_burst(runner, specs, arrival_of=lambda i: 0)
        assert all(r is not None for r in results)
        assert pool.tenant_peak_running["alice"] <= 2
        # bob and carol have no cap: free to exceed alice's bound.
        uncapped_peak = max(
            pool.tenant_peak_running.get("bob", 0),
            pool.tenant_peak_running.get("carol", 0),
        )
        assert uncapped_peak >= 1
