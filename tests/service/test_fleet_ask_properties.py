"""Fleet-ask bit-identity: batched cross-campaign proposals change nothing.

The acceptance property of the fleet ask (`prepare_ask_fleet` plus the
runner's ``_begin_asks_fleet`` grouping): for any space, campaign count,
surrogate mix and elastic join/leave/quarantine schedule, the runner's
fused asks are **bitwise identical** — candidate sheets, dedup decisions,
final histories and each optimizer's RNG state — to sequential solo
``CBOSearch.run`` calls.  Hypothesis draws the spaces and schedules; the
dedup edge cases (cross-campaign candidate collisions, cardinality-exhausted
spaces, fleets of one, stacked sheets of 8 and 32 members) are pinned
deterministically.
"""

import zlib

import numpy as np
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
from repro.core.optimizer import BayesianOptimizer, prepare_ask_fleet
from repro.core.search import CBOSearch
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate
from repro.service import CampaignRunner, CampaignSpec

# Mirrors tests/service/test_elastic.py: one fixed budget per campaign kind
# so mixed cohorts produce mixed fleet groups and staggered leaves.
KINDS = {
    "rf": (make_service_search, 600.0, 18),
    "gp": (make_gp_search, 400.0, 12),
    "refresh": (make_refresh_search, 700.0, 24),
}

_SOLO_CACHE = {}


def solo_run(kind, seed):
    """A sequential solo run of one campaign: its result and final RNG state."""
    key = (kind, seed)
    if key not in _SOLO_CACHE:
        factory, max_time, max_evaluations = KINDS[kind]
        search = factory(seed, make_service_space())
        result = search.run(max_time=max_time, max_evaluations=max_evaluations)
        _SOLO_CACHE[key] = (result, rng_state(search))
    return _SOLO_CACHE[key]


def solo_result(kind, seed):
    return solo_run(kind, seed)[0]


def make_spec(kind, seed, space):
    factory, max_time, max_evaluations = KINDS[kind]
    return CampaignSpec(
        search=factory(seed, space),
        max_time=max_time,
        max_evaluations=max_evaluations,
        label=f"{kind}-{seed}",
    )


def rng_state(search):
    return search.optimizer.rng.bit_generator.state


# --------------------------------------------------------------- random spaces
# A pool of parameter factories; Hypothesis draws subsets to build spaces, so
# the identity property is exercised over integer/real/log/categorical/ordinal
# mixes rather than the one fixture space.
PARAM_FACTORIES = (
    lambda: IntegerParameter("batch", 1, 256, log=True),
    lambda: RealParameter("rate", 0.1, 10.0, log=True),
    lambda: RealParameter("frac", -1.0, 1.0),
    lambda: CategoricalParameter("pool", ("fifo", "prio", "wait")),
    lambda: OrdinalParameter("pes", (1, 2, 4, 8)),
    lambda: CategoricalParameter.boolean("busy"),
)

spaces = st.lists(
    st.integers(min_value=0, max_value=len(PARAM_FACTORIES) - 1),
    min_size=2,
    max_size=4,
    unique=True,
).map(lambda idx: SearchSpace([PARAM_FACTORIES[i]() for i in sorted(idx)]))


def generic_run_function(config):
    """Deterministic pseudo-runtime over configs of any drawn space."""
    digest = zlib.crc32(repr(sorted(config.items())).encode())
    return 30.0 + (digest % 10_000) / 250.0


def make_generic_search(seed, space):
    return CBOSearch(
        space,
        generic_run_function,
        num_workers=4,
        surrogate=RandomForestSurrogate(n_estimators=5, seed=seed),
        num_candidates=24,
        n_initial_points=4,
        seed=seed,
    )


schedules = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),  # campaign kind
        st.integers(min_value=0, max_value=5),  # arrival tick
    ),
    min_size=2,
    max_size=4,
)


class TestFleetAskProperties:
    @settings(max_examples=8, deadline=None)
    @given(space=spaces, n_campaigns=st.integers(min_value=2, max_value=4))
    def test_random_spaces_batched_equals_unbatched(self, space, n_campaigns):
        """Any drawn space: batched asks match sequential solo runs bit for bit."""
        budget = dict(max_time=400.0, max_evaluations=12)
        specs_batched = [
            CampaignSpec(search=make_generic_search(seed, space), **budget)
            for seed in range(n_campaigns)
        ]
        solo_searches = [
            make_generic_search(seed, space) for seed in range(n_campaigns)
        ]
        batched_runner = CampaignRunner(specs_batched)
        batched = batched_runner.run()
        solo = [search.run(**budget) for search in solo_searches]
        for a, b in zip(solo, batched):
            assert_identical(a, b)
        # The RNG streams drained identically: same draws, same order.
        for search, spec in zip(solo_searches, specs_batched):
            assert rng_state(search) == rng_state(spec.search)
        # Same-space same-encoding campaigns actually fused.
        assert batched_runner.num_ask_fleet_passes > 0
        assert batched_runner.num_ask_fleet_members >= (
            2 * batched_runner.num_ask_fleet_passes
        )

    @settings(max_examples=8, deadline=None)
    @given(schedule=schedules)
    def test_elastic_schedules_batched_is_bit_identical(self, schedule):
        """Join/leave schedules over mixed RF/GP/refresh cohorts."""
        space = make_service_space()
        runner = CampaignRunner()
        specs = []
        for seed, (kind, arrival) in enumerate(schedule):
            spec = make_spec(kind, seed, space)
            specs.append(spec)
            runner.admit(spec, arrival_tick=arrival)
        results = runner.run()
        for seed, ((kind, _), spec) in enumerate(zip(schedule, specs)):
            solo, solo_rng = solo_run(kind, seed)
            assert_identical(solo, results[seed])
            assert solo_rng == rng_state(spec.search)

    @settings(max_examples=6, deadline=None)
    @given(schedule=schedules, doom_mask=st.integers(min_value=1, max_value=7))
    def test_quarantine_under_batched_ask(self, schedule, doom_mask):
        """Quarantined members leave their fleet group without perturbing it."""
        space = make_service_space()
        doomed_of = {
            seed: bool(doom_mask & (1 << seed)) for seed in range(len(schedule))
        }
        runner = CampaignRunner(on_campaign_error="quarantine")
        for seed, (kind, arrival) in enumerate(schedule):
            if doomed_of[seed]:
                spec = CampaignSpec(
                    search=make_doomed_search(seed, space),
                    max_time=600.0,
                    max_evaluations=18,
                )
            else:
                spec = make_spec(kind, seed, space)
            runner.admit(spec, arrival_tick=arrival)
        results = runner.run()
        quarantined = {q.index for q in runner.quarantined}
        for seed, (kind, _) in enumerate(schedule):
            if doomed_of[seed]:
                assert seed in quarantined
            else:
                assert seed not in quarantined
                assert_identical(solo_result(kind, seed), results[seed])


def make_doomed_search(seed, space, limit=9):
    """An RF campaign whose run function dies after ``limit`` evaluations."""
    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] > limit:
            raise RuntimeError("injected fleet-ask failure")
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


# ------------------------------------------------------------ dedup edge cases
TINY_SPACE_PARAMS = (
    CategoricalParameter("pool", ("fifo", "prio", "wait")),
    CategoricalParameter.boolean("busy"),
)  # 6 distinct configurations in total


def make_tiny_optimizer(seed=0, num_candidates=16):
    return BayesianOptimizer(
        SearchSpace(list(TINY_SPACE_PARAMS)),
        surrogate=RandomForestSurrogate(n_estimators=4, seed=seed),
        num_candidates=num_candidates,
        n_initial_points=2,
        seed=seed,
    )


def make_model_phase_fleet(fleet_size):
    """Model-phase RF optimizers over one shared space, ragged histories."""
    space = make_service_space()
    optimizers = []
    for k in range(fleet_size):
        opt = BayesianOptimizer(
            space,
            surrogate=RandomForestSurrogate(n_estimators=6, seed=k),
            num_candidates=128,
            n_initial_points=4,
            seed=k,
        )
        configs = space.sample(10 + k % 5, np.random.default_rng(100 + k))
        opt.tell(configs, [service_run_function(c) for c in configs])
        optimizers.append(opt)
    return optimizers


def assert_prepared_equal(a, b):
    """Two ``PreparedAsk``\\ s must match bit for bit, dedup decisions included."""
    assert a.n == b.n
    assert a.proposals == b.proposals
    assert a.wants_scores == b.wants_scores
    assert a.fresh_configs == b.fresh_configs
    if a.fresh is None:
        assert b.fresh is None
    else:
        assert a.fresh.to_configurations() == b.fresh.to_configurations()
        assert a.encoded.tobytes() == b.encoded.tobytes()
        assert a.unit.tobytes() == b.unit.tobytes()


class TestFusedDedupEdgeCases:
    def evaluated(self, n, exclude=()):
        """The first ``n`` distinct tiny-space configs not in ``exclude``."""
        configs = [
            {"pool": pool, "busy": busy}
            for pool in ("fifo", "prio", "wait")
            for busy in (False, True)
            if {"pool": pool, "busy": busy} not in exclude
        ]
        return configs[:n]

    def objectives(self, configs):
        return [10.0 + i for i, _ in enumerate(configs)]

    def test_cross_campaign_collisions_stay_member_local(self):
        """Equal-seed members draw identical candidate sheets, but each
        member's dedup must consult only its *own* evaluated keys."""
        histories = [self.evaluated(4), self.evaluated(2)]
        solo, fleet = [], []
        for members in (solo, fleet):
            for history in histories:
                # Same optimizer seed for every member: the stacked sheet
                # holds byte-identical rows for both, the collision case.
                opt = make_tiny_optimizer(seed=0)
                opt.tell(history, self.objectives(history))
                members.append(opt)
        prepared_solo = [opt.prepare_ask(2) for opt in solo]
        prepared_fleet = prepare_ask_fleet([(opt, 2) for opt in fleet])
        for a, b in zip(prepared_solo, prepared_fleet):
            assert_prepared_equal(a, b)
        for a, b in zip(solo, fleet):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        # The dedup actually engaged, and member-locally: the 4-evaluation
        # member dropped more of the (identical) sheet than the 2-evaluation
        # member did.
        kept = [len(p.fresh.to_configurations()) for p in prepared_fleet]
        assert kept[0] < kept[1]

    def test_cardinality_exhausted_space_short_circuits(self):
        """Members that exhaust their 6-config space fall into the
        ``_sample_unique`` short-circuit; the fleet path must reproduce it."""
        history = self.evaluated(6)  # every config evaluated, ask for 3
        solo, fleet = [], []
        for members in (solo, fleet):
            for seed in (0, 1):
                opt = make_tiny_optimizer(seed=seed)
                opt.tell(history, self.objectives(history))
                members.append(opt)
        prepared_solo = [opt.prepare_ask(3) for opt in solo]
        prepared_fleet = prepare_ask_fleet([(opt, 3) for opt in fleet])
        for a, b in zip(prepared_solo, prepared_fleet):
            assert_prepared_equal(a, b)
            # The shortfall path ran: the model-phase pool could not cover
            # the request, so proposals were topped up via _sample_unique.
            assert b.fresh_configs is not None
            assert len(b.fresh_configs) == 3
        for a, b in zip(solo, fleet):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @pytest.mark.parametrize("fleet_size", [8, 32])
    def test_large_fleets_match_solo_asks(self, fleet_size):
        """Stacked sheets at fleet sizes the runner tests never reach: every
        round's proposals, dedup decisions, encoded and unit sheets and the
        final RNG states match solo ``prepare_ask`` calls."""
        solo = make_model_phase_fleet(fleet_size)
        fleet = make_model_phase_fleet(fleet_size)
        for _ in range(3):
            prepared_solo = [opt.prepare_ask(4) for opt in solo]
            prepared_fleet = prepare_ask_fleet([(opt, 4) for opt in fleet])
            for a, b in zip(prepared_solo, prepared_fleet):
                assert b.proposals is None  # the stacked model-phase path
                assert_prepared_equal(a, b)
        for a, b in zip(solo, fleet):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_init_phase_members_bypass_the_stacked_sheet(self):
        """Members still initialising never join the fused candidate draw."""
        solo, fleet = [], []
        for members in (solo, fleet):
            for seed in (3, 4):
                members.append(make_tiny_optimizer(seed=seed))
        prepared_solo = [opt.prepare_ask(2) for opt in solo]
        prepared_fleet = prepare_ask_fleet([(opt, 2) for opt in fleet])
        for a, b in zip(prepared_solo, prepared_fleet):
            assert_prepared_equal(a, b)
            assert b.proposals is not None
        for a, b in zip(solo, fleet):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_fleet_of_one_degenerates_to_solo(self):
        """A single campaign never fuses."""
        space = make_service_space()
        runner = CampaignRunner([make_spec("rf", 0, space)])
        results = runner.run()
        assert_identical(solo_result("rf", 0), results[0])
        assert runner.num_ask_fleet_passes == 0
        assert runner.num_ask_fleet_members == 0

    def test_mixed_spaces_group_apart(self):
        """Campaigns over different spaces never share a stacked sheet."""
        space_a = make_service_space()
        space_b = SearchSpace(
            [
                IntegerParameter("batch", 1, 256, log=True),
                RealParameter("rate", 0.1, 10.0, log=True),
            ]
        )
        budget = dict(max_time=400.0, max_evaluations=12)
        specs = [
            CampaignSpec(search=make_service_search(0, space_a), **budget),
            CampaignSpec(search=make_service_search(1, space_a), **budget),
            CampaignSpec(search=make_generic_search(2, space_b), **budget),
        ]
        solo = [
            make_service_search(0, make_service_space()).run(**budget),
            make_service_search(1, make_service_space()).run(**budget),
            make_generic_search(
                2,
                SearchSpace(
                    [
                        IntegerParameter("batch", 1, 256, log=True),
                        RealParameter("rate", 0.1, 10.0, log=True),
                    ]
                ),
            ).run(**budget),
        ]
        runner = CampaignRunner(specs)
        batched = runner.run()
        for a, b in zip(solo, batched):
            assert_identical(a, b)
        # Only the two space-A campaigns can fuse; the space-B singleton
        # always takes the solo fallback.
        assert runner.num_ask_fleet_passes > 0
        assert runner.num_ask_fleet_members == 2 * runner.num_ask_fleet_passes
