"""Typed history storage against the row-major reference (``reference.history``).

:class:`~repro.core.history.SearchHistory` stores every parameter as its
word: ``float64`` for a real parameter, ``int64`` for an integer parameter
and the ``int64`` domain index of a categorical or ordinal parameter.  These
properties pin that, over random spaces — categorical domains of width 2–5
mixing bools, strings and ints, ordinal domains mixing ints and floats,
integer and real parameters, linear or log — on canonical histories, whose
values already have the types typed storage hands back:

* evaluations and their value types, ``parameter_column``, the CSV text and
  the ``top_k_columns`` / ``top_quantile_columns`` sheets equal those of
  :class:`reference.history.RowHistoryReference`;
* ``rows.bin`` equals the block the former value encoder packs
  (:func:`reference.history.pack_rows`), and the journal reader hands back
  the same history.

The examples below pin the appends that have no word, which raise
``ValueError`` naming what is wrong instead of storing it.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.history import RowHistoryReference, pack_rows
from repro.core.history import Evaluation, SearchHistory
from repro.core.journal import CampaignJournal, JournalReader
from repro.core.space import (
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    SearchSpace,
)

#: Category values: no two compare equal (ints avoid 0 and 1, which equal
#: the bools).
CATEGORY_POOL = (False, True, "a", "b", "fifo", "x", 2, 3, 7, 11)
ORDINAL_POOL = (1, 2, 2.5, 4, 8, 16, 32.0)
QUANTILES = (0.05, 0.1, 0.25, 0.5, 1.0)


@st.composite
def parameters(draw, name):
    kind = draw(st.sampled_from(("categorical", "ordinal", "integer", "real")))
    if kind == "categorical":
        width = draw(st.integers(min_value=2, max_value=5))
        return CategoricalParameter(name, draw(st.permutations(CATEGORY_POOL))[:width])
    if kind == "ordinal":
        values = draw(st.lists(st.sampled_from(ORDINAL_POOL), min_size=2, max_size=5, unique=True))
        return OrdinalParameter(name, sorted(values))
    log = draw(st.booleans())
    if kind == "integer":
        low = draw(st.integers(min_value=1 if log else -50, max_value=5))
        return IntegerParameter(name, low, low + draw(st.integers(1, 300)), log=log)
    low = draw(st.floats(min_value=0.05 if log else -5.0, max_value=2.0))
    return RealParameter(name, low, low + draw(st.floats(min_value=0.5, max_value=50.0)), log=log)


def canonical_value(param):
    """A value of ``param`` of the type typed storage returns."""
    if isinstance(param, RealParameter):
        return st.floats(min_value=param.low, max_value=param.high)
    if isinstance(param, IntegerParameter):
        return st.integers(min_value=param.low, max_value=param.high)
    return st.sampled_from(param._domain)


@st.composite
def histories(draw):
    """A space and both histories filled with the same canonical records."""
    size = draw(st.integers(min_value=1, max_value=5))
    space = SearchSpace([draw(parameters(f"p{i}")) for i in range(size)])
    n = draw(st.integers(min_value=0, max_value=30))
    typed = SearchHistory(space)
    reference = RowHistoryReference(space)
    runtimes = st.one_of(st.floats(min_value=0.1, max_value=600.0), st.just(float("nan")))
    for i in range(n):
        config = {p.name: draw(canonical_value(p)) for p in space}
        runtime = draw(runtimes)
        completed = float(draw(st.integers(min_value=1, max_value=n)))
        reference.append(typed.record(config, runtime, float(i), completed, worker=i % 3))
    return typed, reference


def typed_configs(configs):
    """Configurations with every value's type: equality then pins both."""
    return [[(name, type(value), value) for name, value in c.items()] for c in configs]


def typed_evaluations(evaluations):
    return [
        (
            typed_configs([ev.configuration]),
            ev.objective if math.isfinite(ev.objective) else "nan",
            ev.runtime if math.isfinite(ev.runtime) else "nan",
            ev.submitted,
            ev.completed,
            ev.worker,
            ev.eval_id,
        )
        for ev in evaluations
    ]


def journaled(history, directory):
    journal = CampaignJournal.create(directory, history.space, fsync=False)
    try:
        journal.write_meta({})
        journal.append_rows(history)
        journal.checkpoint({})
    finally:
        journal.close()


class TestTypedStorage:
    @settings(deadline=None)
    @given(pair=histories(), k=st.integers(min_value=1, max_value=12), q=st.sampled_from(QUANTILES))
    def test_views_match_the_row_reference(self, pair, k, q):
        history, reference = pair
        assert typed_evaluations(history) == typed_evaluations(reference.evaluations)
        assert typed_evaluations(history.successful()) == typed_evaluations(
            ev for ev in reference.evaluations if not ev.failed
        )
        for name in history.space.parameter_names:
            column = history.parameter_column(name)
            expected = reference.parameter_column(name)
            assert column.dtype == object
            assert typed_configs([{"v": v} for v in column]) == typed_configs(
                [{"v": v} for v in expected]
            )
        assert history.to_csv() == reference.to_csv()
        top_k = history.top_k_columns(k)
        assert typed_configs(top_k.to_configurations()) == typed_configs(reference.top_k(k))
        if any(not ev.failed for ev in reference.evaluations):
            top_q = history.top_quantile_columns(q)
            assert typed_configs(top_q.to_configurations()) == typed_configs(
                reference.top_quantile(q)
            )
            assert typed_configs(history.top_quantile(q)) == typed_configs(
                reference.top_quantile(q)
            )
        # The sheets hold the words themselves: numbers and domain indices.
        for p in history.space:
            words = top_k.columns[p.name]
            if isinstance(p, RealParameter):
                assert words.dtype == np.float64
            else:
                assert words.dtype == np.int64

    @settings(deadline=None)
    @given(pair=histories())
    def test_rows_bin_and_reader_round_trip(self, pair):
        history, reference = pair
        with tempfile.TemporaryDirectory() as tmp:
            journaled(history, Path(tmp))
            assert (Path(tmp) / "rows.bin").read_bytes() == pack_rows(
                history.space, reference.evaluations
            )
            view = JournalReader(tmp, history.space).history()
            assert typed_evaluations(view) == typed_evaluations(history)
            assert view.to_csv() == history.to_csv()
            loaded = SearchHistory.from_csv(view.to_csv(), history.space)
            assert typed_configs(loaded.configurations()) == typed_configs(
                history.configurations()
            )


def wide_space():
    return SearchSpace(
        [
            RealParameter("rate", 0.5, 100.0),
            IntegerParameter("k", 1, 10),
            OrdinalParameter("pes", (1, 2, 4, 8)),
            CategoricalParameter("pool", ("fifo", "prio")),
        ]
    )


def record(history, **overrides):
    config = {"rate": 2.5, "k": 3, "pes": 4, "pool": "fifo"}
    config.update(overrides)
    return history.record(config, 10.0, 0.0, 10.0)


class TestAppendRejects:
    def test_non_integral_integer_value(self, tmp_path):
        """A journal used to truncate 3.5 to 3 while the history kept 3.5."""
        history = SearchHistory(wide_space())
        with pytest.raises(ValueError, match="'k'"):
            record(history, k=3.5)
        assert len(history) == 0
        record(history, k=3.0)
        journaled(history, tmp_path / "j")
        assert JournalReader(tmp_path / "j", history.space).history()[0].configuration["k"] == 3

    @pytest.mark.parametrize("name, value", [("pes", 3), ("pool", "fifo_wait"), ("pool", None)])
    def test_discrete_value_outside_its_domain(self, name, value):
        history = SearchHistory(wide_space())
        with pytest.raises(ValueError, match=repr(name)):
            record(history, **{name: value})
        assert len(history) == 0

    def test_non_numeric_real_value(self):
        with pytest.raises(ValueError, match="'rate'"):
            record(SearchHistory(wide_space()), rate="fast")

    def test_missing_and_extra_keys(self):
        history = SearchHistory(wide_space())
        config = {"rate": 2.5, "k": 3, "pes": 4}
        with pytest.raises(ValueError, match=r"missing parameters \['pool'\]"):
            history.record(config, 10.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"unknown keys \['extra'\]"):
            history.record(dict(config, pool="fifo", extra=1), 10.0, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"missing parameters \['pool'\] and unknown keys"):
            history.append(Evaluation(dict(config, extra=1), 1.0, 1.0, 0.0, 1.0))
        assert len(history) == 0

    def test_unparseable_csv_cell_names_row_and_column(self):
        history = SearchHistory(wide_space())
        record(history)
        record(history, k=7)
        text = history.to_csv().replace(",7,", ",7.5,")
        with pytest.raises(ValueError, match=r"CSV row 1 \(line 3\), column 'k'"):
            SearchHistory.from_csv(text, history.space)
        text = history.to_csv().replace(",fifo\r\n", ",lifo\r\n", 1)
        with pytest.raises(ValueError, match=r"CSV row 0 \(line 2\), column 'pool'"):
            SearchHistory.from_csv(text, history.space)


class TestCanonicalValues:
    def test_real_value_reads_back_as_float(self):
        history = SearchHistory(wide_space())
        record(history, rate=2)
        value = history[0].configuration["rate"]
        assert type(value) is float and value == 2.0

    def test_equal_value_becomes_the_domain_object(self):
        space = SearchSpace([OrdinalParameter("p", (1, 2.5, 4)), IntegerParameter("k", 1, 9)])
        history = SearchHistory(space)
        history.record({"p": np.int64(4), "k": np.float64(3.0)}, 1.0, 0.0, 1.0)
        history.record({"p": 1.0, "k": True}, 1.0, 0.0, 1.0)
        assert typed_configs(history.configurations()) == typed_configs(
            [{"p": 4, "k": 3}, {"p": 1, "k": 1}]
        )
