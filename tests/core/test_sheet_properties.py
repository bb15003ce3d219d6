"""Index sheets against the value-typed oracle (``reference.sheet``).

A :class:`~repro.core.space.ColumnBatch` holds every categorical and
ordinal column as domain indices, from the sampler to the proposal.  These
properties pin that to the value-typed pipeline it replaced, bit for bit:

* the sheet codecs (dedup keys, numeric, one-hot and unit encodings) over
  random spaces — categorical domains of width 2–5 mixing bools, strings
  and ints, ordinal domains, integer and real parameters, linear or log;
* the VAE decode (activations and ``decode_columns``), RNG state included;
* solo and fleet asks under independent, transfer (VAE and top-set
  fallback) and refresh priors, for fleets of 1–6 members and the top-up
  paths: proposals and their value types, ``fresh`` materialisations,
  keys, encodings and RNG states.

The regression guards below pin what the index sheets save: a model-phase
ask without a top-up never looks a value up, and a single-pick
kernel-penalty selection never builds the unit encoding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import sheet as oracle
from repro.core import optimizer as optimizer_mod
from repro.core import priors as priors_mod
from repro.core import space as space_mod
from repro.core.history import SearchHistory
from repro.core.optimizer import BayesianOptimizer, prepare_ask_fleet
from repro.core.priors import IndependentPrior, MixturePrior
from repro.core.space import (
    CategoricalParameter,
    ColumnBatch,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)
from repro.core.surrogate import RandomForestSurrogate
from repro.core.transfer import TransferLearningPrior, fit_transfer_prior
from repro.core.vae.transforms import TabularTransform
from repro.core.vae.tvae import TabularVAE

# ---------------------------------------------------------------- strategies
#: Category values: no two compare equal (ints avoid 0 and 1, which equal
#: the bools).
CATEGORY_POOL = (False, True, "a", "b", "fifo", "x", 2, 3, 7, 11)
ORDINAL_POOL = (1, 2, 2.5, 4, 8, 16, 32.0)


@st.composite
def parameters(draw, name):
    kind = draw(st.sampled_from(("categorical", "ordinal", "integer", "real")))
    if kind == "categorical":
        width = draw(st.integers(min_value=2, max_value=5))
        values = draw(st.permutations(CATEGORY_POOL))[:width]
        return CategoricalParameter(name, values)
    if kind == "ordinal":
        values = draw(st.lists(st.sampled_from(ORDINAL_POOL), min_size=2, max_size=5, unique=True))
        return OrdinalParameter(name, sorted(values))
    log = draw(st.booleans())
    if kind == "integer":
        low = draw(st.integers(min_value=1, max_value=5))
        return IntegerParameter(name, low, low + draw(st.integers(1, 300)), log=log)
    low = draw(st.floats(min_value=0.05, max_value=2.0))
    return RealParameter(name, low, low + draw(st.floats(min_value=0.5, max_value=50.0)), log=log)


@st.composite
def spaces(draw, min_size=1, max_size=5):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    return SearchSpace([draw(parameters(f"p{i}")) for i in range(size)])


def typed(configs):
    """Configurations with every value's type: equality then pins both."""
    return [[(name, type(value), value) for name, value in c.items()] for c in configs]


def value_batch(space, configs):
    return oracle.ValueColumnBatch.from_configurations(space, configs)


def draw_configs(space, n, seed):
    """``n`` configurations whose discrete values are the domain's objects."""
    return IndependentPrior(space).sample_configurations(n, np.random.default_rng(seed))


# ------------------------------------------------------------------- codecs
class TestSheetCodecs:
    @settings(deadline=None)
    @given(space=spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40))
    def test_codecs_match_the_per_parameter_codecs(self, space, seed, n):
        rng = np.random.default_rng(seed)
        configs = draw_configs(space, n, seed)
        batch = ColumnBatch.from_configurations(space, configs)
        values = value_batch(space, configs)
        assert typed(batch.to_configurations()) == typed(values.to_configurations())
        for codec in ("key_array", "to_numeric_array", "to_one_hot_array", "to_unit_array"):
            expected = getattr(oracle, codec)(space, values)
            got = getattr(space, codec)(batch)
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes(), codec
        # The same sheet through take and concat: row-local, bit for bit.
        order = rng.permutation(n)
        halves = [batch.take(order[: n // 2]), batch.take(order[n // 2 :])]
        stacked = ColumnBatch.concat(halves)
        assert space.key_array(stacked).tobytes() == space.key_array(batch.take(order)).tobytes()

    @settings(deadline=None)
    @given(space=spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_unit_round_trip_hands_out_domain_values(self, space, seed, n):
        unit = np.random.default_rng(seed).uniform(-0.2, 1.2, size=(n, len(space)))
        batch = space.from_unit_columns(unit)
        expected = [
            {p.name: p.from_unit(float(u)) for p, u in zip(space, row)} for row in unit
        ]
        assert [batch.row(i) for i in range(n)] == batch.to_configurations()
        for got, want in zip(batch.to_configurations(), expected):
            for p in space:
                if not isinstance(p, RealParameter):
                    assert (type(got[p.name]), got[p.name]) == (type(want[p.name]), want[p.name])
        for p in space:
            if isinstance(p, (CategoricalParameter, OrdinalParameter)):
                assert batch.discrete_indices(p).dtype.kind == "i"
                assert batch.values(p.name).tolist() == [c[p.name] for c in expected]


def make_vae(transform, seed):
    return TabularVAE(
        input_dim=transform.dimension,
        numeric_columns=transform.numeric_columns,
        categorical_blocks=transform.categorical_blocks,
        latent_dim=2,
        hidden=(8, 8),
        seed=seed,
    )


class TestVAEDecode:
    @settings(deadline=None)
    @given(
        space=spaces(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        sample_categories=st.booleans(),
    )
    def test_decode_columns_matches_per_block_decode(self, space, seed, n, sample_categories):
        transform = TabularTransform(space)
        X = np.random.default_rng(seed).uniform(-0.1, 1.1, size=(n, transform.dimension))
        rng_a, rng_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        batch = transform.decode_columns(X, rng=rng_a, sample_categories=sample_categories)
        expected = oracle.decode_columns(transform, X, rng=rng_b, sample_categories=sample_categories)
        assert typed(batch.to_configurations()) == typed(
            oracle.ValueColumnBatch(space, expected).to_configurations()
        )
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(deadline=None)
    @given(space=spaces(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_decode_activations_match_per_block_softmax(self, space, seed, n):
        transform = TabularTransform(space)
        vae = make_vae(transform, seed % 1000)
        logits = np.random.default_rng(seed).normal(0.0, 3.0, size=(n, transform.dimension))
        got = vae._decode_activations(logits)
        assert got.tobytes() == oracle.decode_activations(vae, logits).tobytes()


# ---------------------------------------------------------------------- asks
def objective(space, configs):
    """A deterministic objective over any drawn space (maximised)."""
    rows = space.to_unit_array(configs)
    return list(-((rows - 0.3) ** 2).sum(axis=1))


def history_of(space, n, seed):
    history = SearchHistory(space)
    configs = draw_configs(space, n, seed)
    for i, (config, value) in enumerate(zip(configs, objective(space, configs))):
        history.record(config, float(np.exp(-value)), float(i), float(i + 1))
    return history


def build_prior(kind, space, seed):
    """A joint prior of ``kind`` over ``space``, deterministic in ``seed``."""
    if kind == "independent":
        return IndependentPrior(space)
    if kind == "mixture":
        return MixturePrior([IndependentPrior(space), IndependentPrior(space)], [0.7, 0.3])
    if kind in ("transfer", "fallback"):
        params = list(space)
        source_space = SearchSpace(params[:-1] if len(params) > 1 else params)
        return fit_transfer_prior(
            history_of(source_space, 40, seed),
            space,
            quantile=0.3,
            epochs=3,
            hidden=(8, 8),
            uniform_fraction=0.2,
            min_configurations_for_vae=8 if kind == "transfer" else 1000,
            seed=seed,
        )
    top = history_of(space, 20, seed).top_k_columns(8)
    transform = TabularTransform(space)
    vae = make_vae(transform, seed)
    vae.fit(transform.encode_columns(top), epochs=3, batch_size=8)
    return TransferLearningPrior(
        space, vae, transform, [], uniform_fraction=0.1,
        top_configurations=top.to_configurations(), top_batch=top,
    )


def make_optimizer(space, prior, seed, surrogate, num_candidates=24):
    return BayesianOptimizer(
        space,
        surrogate=RandomForestSurrogate(n_estimators=4, seed=seed) if surrogate == "RF" else "GP",
        prior=prior,
        num_candidates=num_candidates,
        n_initial_points=4,
        seed=seed,
    )


def twin_optimizers(space, prior_kind, seed, surrogate, told, num_candidates=24):
    """Two optimizers in one state: one for the library, one for the oracle."""
    prior = build_prior(prior_kind, space, seed)
    twins = []
    for _ in range(2):
        opt = make_optimizer(space, prior, seed, surrogate, num_candidates)
        configs = draw_configs(space, told, seed + 7)
        opt.tell(configs, objective(space, configs))
        twins.append(opt)
    return twins


def assert_matches_oracle(opt, got, expected):
    assert got.n == expected.n
    assert typed(got.proposals or []) == typed(expected.proposals or [])
    assert (got.fresh is None) == (expected.fresh is None)
    if got.fresh is None:
        return
    assert typed(got.fresh_configs or []) == typed(expected.fresh_configs or [])
    assert typed(got.fresh.to_configurations()) == typed(expected.fresh.to_configurations())
    space = opt.space
    assert space.key_array(got.fresh).tobytes() == oracle.key_array(space, expected.fresh).tobytes()
    assert got.encoded.tobytes() == expected.encoded.tobytes()
    assert got.unit.tobytes() == expected.unit.tobytes()


def run_rounds(space, library, reference, n, rounds=2, fleet=False):
    """Ask ``rounds`` times on both sides; tell both the same proposals."""
    for _ in range(rounds):
        if fleet:
            prepared = prepare_ask_fleet([(opt, n) for opt in library])
        else:
            prepared = [opt.prepare_ask(n) for opt in library]
        expected = [oracle.prepare_ask(opt, n) for opt in reference]
        for lib, ref, got, want in zip(library, reference, prepared, expected):
            assert_matches_oracle(lib, got, want)
            assert lib.rng.bit_generator.state == ref.rng.bit_generator.state
        for lib, ref, got, want in zip(library, reference, prepared, expected):
            proposals = got.proposals if got.proposals is not None else lib.finish_ask(got, None, None)
            assert typed(proposals) == typed(oracle.finish_ask(ref, want))
            assert lib.rng.bit_generator.state == ref.rng.bit_generator.state
            values = objective(space, proposals)
            lib.tell(proposals, values)
            ref.tell(proposals, values)


PRIOR_KINDS = ("independent", "mixture", "transfer", "fallback", "refresh")


class TestAskMatchesOracle:
    @settings(deadline=None)
    @given(
        space=spaces(),
        prior_kind=st.sampled_from(PRIOR_KINDS),
        surrogate=st.sampled_from(("RF", "GP")),
        seed=st.integers(0, 10_000),
        n=st.integers(1, 4),
        told=st.integers(2, 8),
    )
    def test_solo_ask(self, space, prior_kind, surrogate, seed, n, told):
        library, reference = twin_optimizers(space, prior_kind, seed, surrogate, told)
        run_rounds(space, [library], [reference], n)

    @settings(deadline=None)
    @given(
        space=spaces(),
        prior_kind=st.sampled_from(PRIOR_KINDS),
        surrogate=st.sampled_from(("RF", "GP")),
        seed=st.integers(0, 10_000),
        members=st.integers(1, 6),
        n=st.integers(1, 4),
    )
    def test_fleet_ask(self, space, prior_kind, surrogate, seed, members, n):
        pairs = [
            twin_optimizers(space, prior_kind, seed + k, surrogate, told=4 + k)
            for k in range(members)
        ]
        run_rounds(space, [a for a, _ in pairs], [b for _, b in pairs], n, fleet=True)

    @settings(deadline=None)
    @given(
        widths=st.lists(st.integers(2, 3), min_size=1, max_size=2),
        prior_kind=st.sampled_from(("independent", "refresh")),
        seed=st.integers(0, 10_000),
        members=st.integers(1, 3),
        n=st.integers(1, 4),
    )
    def test_top_up_paths(self, widths, prior_kind, seed, members, n):
        """Tiny discrete spaces, mostly evaluated: the shortfall tops up via
        the unique sampler, and an exhausted space short-circuits it."""
        space = SearchSpace(
            [CategoricalParameter(f"c{i}", CATEGORY_POOL[2 * i : 2 * i + w]) for i, w in enumerate(widths)]
        )
        pairs = [
            twin_optimizers(space, prior_kind, seed + k, "RF", told=8, num_candidates=6)
            for k in range(members)
        ]
        run_rounds(space, [a for a, _ in pairs], [b for _, b in pairs], n, rounds=3, fleet=members > 1)


# ------------------------------------------------------------ regression guards
def model_phase_optimizers(count, surrogate="RF"):
    space = SearchSpace(
        [
            IntegerParameter("batch", 1, 1024, log=True),
            RealParameter("rate", 0.1, 50.0),
            CategoricalParameter("pool", ("fifo", "prio", "wait")),
            OrdinalParameter("pes", (1, 2, 4, 8)),
            CategoricalParameter.boolean("busy"),
        ]
    )
    optimizers = []
    for seed in range(count):
        opt = make_optimizer(space, None, seed, surrogate, num_candidates=64)
        configs = draw_configs(space, 12, seed)
        opt.tell(configs, objective(space, configs))
        optimizers.append(opt)
    return optimizers


class TestRegressionGuards:
    def test_model_phase_asks_look_no_value_up(self, monkeypatch):
        calls = []
        original = space_mod._IndexedDiscreteMixin.indices_vec

        def counting(self, values):
            calls.append(len(values))
            return original(self, values)

        solo, fleet = model_phase_optimizers(1)[0], model_phase_optimizers(3)
        monkeypatch.setattr(space_mod._IndexedDiscreteMixin, "indices_vec", counting)
        prepared = solo.prepare_ask(2)
        fused = prepare_ask_fleet([(opt, 2) for opt in fleet])
        assert prepared.fresh_configs is None
        assert all(p.fresh_configs is None and p.proposals is None for p in fused)
        assert calls == []

    @pytest.mark.parametrize("surrogate", ["RF", "GP"])
    def test_single_pick_builds_no_unit_encoding(self, monkeypatch, surrogate):
        library = model_phase_optimizers(1, surrogate)[0]
        reference = model_phase_optimizers(1, surrogate)[0]
        builds = []
        original = SearchSpace.to_unit_array

        def counting(self, configs):
            if isinstance(configs, ColumnBatch):  # not the test's objective
                builds.append(len(configs))
            return original(self, configs)

        monkeypatch.setattr(SearchSpace, "to_unit_array", counting)
        for _ in range(3):
            prepared = library.prepare_ask(1)
            proposals = library.finish_ask(prepared, None, None)
            assert prepared._unit is None
            expected = oracle.finish_ask(reference, oracle.prepare_ask(reference, 1))
            assert typed(proposals) == typed(expected)
            values = objective(library.space, proposals)
            library.tell(proposals, values)
            reference.tell(proposals, values)
        assert builds == []
        # A batch of several picks reads the unit encoding once.
        library.finish_ask(library.prepare_ask(3), None, None)
        assert len(builds) == 1

    def test_value_memos_are_gone(self):
        assert ColumnBatch.__slots__ == ("space", "_columns", "_n")
        assert not hasattr(ColumnBatch, "_indices")
        # A value column is `values(name)`; `column(name)` handed out values
        # and would now hand out indices, so it is gone.
        assert not hasattr(ColumnBatch, "column")
        assert not hasattr(optimizer_mod, "_share_stacked_indices")
        prior = priors_mod.CategoricalPrior(CategoricalParameter("c", ("a", "b")))
        assert not hasattr(prior, "_values_array")

    def test_equal_values_become_the_domain_objects(self):
        """A sheet stores indices, so a value equal to a domain value comes
        back as the domain's own object."""
        space = SearchSpace([OrdinalParameter("o", (1, 2.5)), CategoricalParameter("c", ("a", 3))])
        batch = ColumnBatch.from_configurations(space, [{"o": 1.0, "c": np.int64(3)}])
        assert typed(batch.to_configurations()) == typed([{"o": 1, "c": 3}])

    def test_sheet_constructor_rejects_value_columns(self):
        space = SearchSpace([CategoricalParameter("c", ("a", "b")), RealParameter("r", 0.0, 1.0)])
        with pytest.raises(ValueError, match="domain indices"):
            ColumnBatch(space, {"c": np.asarray(["a", "b"], dtype=object), "r": np.zeros(2)})
        batch = ColumnBatch(space, {"c": np.asarray([1, 0]), "r": np.zeros(2)})
        assert batch.to_configurations() == [{"c": "b", "r": 0.0}, {"c": "a", "r": 0.0}]
