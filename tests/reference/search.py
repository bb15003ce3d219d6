"""The sequential manager loop: one campaign stepped phase by phase.

``CBOSearch.run`` runs a campaign as a
:class:`~repro.service.runner.CampaignRunner` of one.  This loop steps a
:class:`~repro.core.search.CampaignExecution` directly, one phase after
another, and is the oracle the runner-of-one identity tests and the journal
crash/resume tests step against.
"""

from typing import Optional, Sequence

from repro.core.search import CampaignExecution, CBOSearch, SearchResult
from repro.core.space import Configuration


def advance(execution: CampaignExecution) -> bool:
    """One full manager interaction; False once the campaign is over.

    collect → tell (fit when due) → prior refresh when due → ask → submit
    → checkpoint; the final call commits the closing checkpoint.
    """
    if execution.collect() is None:
        execution.maybe_checkpoint()
        return False
    execution.tell_collected()
    refresh = execution.prepare_prior_refresh()
    if refresh is not None:
        refresh.vae.fit(
            refresh.design, epochs=refresh.epochs, batch_size=refresh.batch_size
        )
        execution.finish_prior_refresh(refresh)
    n = execution.begin_ask_request()
    if n is not None:
        execution.complete_ask(n)
        if execution.finish_ask() is not None:
            execution.submit_prepared()
    execution.maybe_checkpoint()
    return True


def run(
    search: CBOSearch,
    max_time: float = 3600.0,
    max_evaluations: Optional[int] = None,
    initial_configurations: Optional[Sequence[Configuration]] = None,
    journal_dir: Optional[object] = None,
) -> SearchResult:
    """``search`` stepped to completion by :func:`advance`; the journal, if
    any, is released at the end."""
    execution = search.start(
        max_time=max_time,
        max_evaluations=max_evaluations,
        initial_configurations=initial_configurations,
        journal_dir=journal_dir,
    )
    while advance(execution):
        pass
    execution.close_journal()
    return execution.result()
