"""Test-only oracle: the reference per-request path of the retry executor.

:meth:`repro.crawler.resilience.ResilientExecutor.call` is the crawler's
hot path and is tuned for speed: it skips the breaker protocol while the
breaker is closed and builds the jitter key only when jitter is drawn.
:class:`ReferenceExecutor` runs the straightforward version it replaced,
kept verbatim below (:meth:`ReferenceExecutor.reference_call`): every
attempt asks the breaker for its cooldown and for admission, whatever
its state.  ``tests/test_resilience_equivalence.py`` crawls the same
apps through both and requires identical results.  No production code
imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.crawler.resilience import (
    GAVE_UP,
    OK,
    PERMANENT,
    CrawlOutcome,
    ResilientExecutor,
)
from repro.obs.observer import get_observer
from repro.platform.graph_api import GraphApiError
from repro.platform.install import AppRemovedError
from repro.platform.transport import TransientGraphApiError
from repro.rng import derive_seed

__all__ = ["ReferenceExecutor"]


class ReferenceExecutor(ResilientExecutor):
    """A :class:`ResilientExecutor` whose ``call`` is the reference path."""

    def call(
        self,
        endpoint: str,
        app_id: str,
        fn,
        outcome: CrawlOutcome,
        deadline_at: float | None = None,
        args: tuple = (),
    ):
        return self.reference_call(
            endpoint, app_id, lambda: fn(*args), outcome, deadline_at
        )

    def reference_call(
        self,
        endpoint: str,
        app_id: str,
        fn,
        outcome: CrawlOutcome,
        deadline_at: float | None = None,
    ):
        """Run ``fn`` with retries; returns the result or ``None``.

        Updates *outcome* in place: attempts and faults accumulate (one
        outcome may span several requests, e.g. the weekly summary
        queries), and ``status`` is set to the worst applicable verdict
        so far — OK sticks once any request succeeded, GAVE_UP records
        an exhausted budget, PERMANENT an authoritative removal.
        """
        breaker = self.breaker(endpoint)
        obs = get_observer()
        rng: np.random.Generator | None = None
        rng_key = f"retry:{endpoint}:{app_id}:{outcome.attempts}"
        started = self.stats.app_elapsed_s
        try:
            for attempt in range(self.policy.max_attempts):
                wait = breaker.cooldown_remaining(self.stats.app_elapsed_s)
                if wait > 0.0:
                    if self._past_deadline(deadline_at, wait):
                        self._mark(outcome, GAVE_UP)
                        return None
                    self.stats.add_wait(wait)
                    if obs.enabled:
                        obs.event(
                            "breaker.cooldown_wait",
                            t=self.stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                            wait_s=wait,
                        )
                        obs.observe("breaker_cooldown_wait_seconds", wait)
                before = breaker.state
                allowed = breaker.allow(self.stats.app_elapsed_s)
                if obs.enabled:
                    self._note_transition(obs, endpoint, app_id, before, breaker)
                if not allowed:
                    self._mark(outcome, GAVE_UP)
                    return None
                outcome.attempts += 1
                if obs.enabled:
                    obs.event(
                        "retry.attempt",
                        t=self.stats.app_elapsed_s,
                        endpoint=endpoint,
                        app_id=app_id,
                        attempt=attempt,
                    )
                    obs.count("retry_attempts_total", endpoint=endpoint)
                try:
                    result = fn()
                except TransientGraphApiError as error:
                    outcome.faults.append(error.kind)
                    before = breaker.state
                    breaker.record_failure(self.stats.app_elapsed_s)
                    if obs.enabled:
                        obs.event(
                            "retry.fault",
                            t=self.stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                            kind=error.kind,
                            attempt=attempt,
                        )
                        obs.count("retry_faults_total", kind=error.kind)
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    if attempt + 1 >= self.policy.max_attempts:
                        self._mark(outcome, GAVE_UP)
                        return None
                    # A rate-limit hint that already overruns the
                    # deadline makes the retry hopeless before any
                    # jitter is drawn: give up now, sleep nothing.
                    if self._past_deadline(
                        deadline_at, self.policy.mandatory_delay(error)
                    ):
                        self._mark(outcome, GAVE_UP)
                        return None
                    if rng is None:  # jitter RNG, derived only when needed
                        rng = np.random.default_rng(derive_seed(self._seed, rng_key))
                    delay = self.policy.delay_for(error, attempt, rng)
                    if self._past_deadline(deadline_at, delay):
                        self._mark(outcome, GAVE_UP)
                        return None
                    self.stats.add_wait(delay)
                    if obs.enabled:
                        obs.event(
                            "retry.backoff",
                            t=self.stats.app_elapsed_s,
                            endpoint=endpoint,
                            app_id=app_id,
                            delay_s=delay,
                        )
                        obs.observe("retry_backoff_seconds", delay)
                except (AppRemovedError, GraphApiError):
                    # Authoritative: the app is gone.  The endpoint is
                    # healthy (it answered), so the breaker resets.
                    before = breaker.state
                    breaker.record_success()
                    if obs.enabled:
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    self._mark(outcome, PERMANENT)
                    return None
                else:
                    before = breaker.state
                    breaker.record_success()
                    if obs.enabled:
                        self._note_transition(obs, endpoint, app_id, before, breaker)
                    outcome.status = OK
                    return result
            self._mark(outcome, GAVE_UP)
            return None
        finally:
            outcome.elapsed_s += self.stats.app_elapsed_s - started

