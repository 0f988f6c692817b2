"""Configuration: the paper's measured constants and the simulation scale.

Two kinds of values live here.

``PAPER``
    Every number the paper reports (dataset sizes, feature-distribution
    percentiles, classifier operating points, AppNet statistics).  These
    are the *reproduction targets*: benchmarks print them next to the
    values measured on the simulated platform.

``ScaleConfig``
    The single knob that shrinks the simulation.  ``scale=1.0`` is
    paper-scale (111,167 apps / 2.2M users / 91M posts) and is not meant
    to run on a laptop; tests use ``scale≈0.01`` and benchmarks
    ``scale≈0.05``.  All proportions are scale-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PaperStats", "PAPER", "ScaleConfig", "ServiceConfig"]


@dataclass(frozen=True)
class PaperStats:
    """Constants reported by the paper (Rahman et al., CoNEXT 2012).

    Field names cite the table/figure/section each number comes from so a
    reader can check them against the text.
    """

    # --- Sec 1 / Sec 2.3 / Table 1: corpus and dataset sizes -----------
    total_apps: int = 111_167  # D-Total
    total_posts: int = 91_000_000  # posts with an application field
    total_users: int = 2_200_000  # walls monitored by MyPageKeeper
    monitored_posts: int = 144_000_000  # all posts MyPageKeeper saw
    posts_without_app_fraction: float = 0.37  # Sec 2.2
    malicious_posts_without_app_fraction: float = 0.27  # Sec 2.2
    malicious_apps_before_whitelist: int = 6_350  # Sec 2.3
    d_sample_malicious: int = 6_273
    d_sample_benign: int = 6_273
    d_sample_benign_vetted: int = 5_750  # Social-Bakers-vetted benign apps
    d_summary_benign: int = 6_067
    d_summary_malicious: int = 2_528
    d_inst_benign: int = 2_257
    d_inst_malicious: int = 491
    d_profilefeed_benign: int = 6_063
    d_profilefeed_malicious: int = 3_227
    d_complete_benign: int = 2_255
    d_complete_malicious: int = 487

    # --- Sec 3: prevalence ---------------------------------------------
    malicious_app_fraction: float = 0.13  # "at least 13% of apps"
    malicious_posts_by_apps_fraction: float = 0.53
    # Fig 3 — bit.ly clicks accumulated per malicious app
    clicks_over_100k_fraction: float = 0.60
    clicks_over_1m_fraction: float = 0.20
    top_app_clicks: int = 1_742_359  # 'What is the sexiest thing about you?'
    malicious_apps_with_bitly: int = 3_805
    bitly_urls_posted: int = 5_700
    # Fig 4 — Monthly Active Users of malicious apps
    median_mau_over_1000_fraction: float = 0.40
    max_mau_over_1000_fraction: float = 0.60
    top_app_max_mau: int = 260_000  # 'Future Teller'
    top_app_median_mau: int = 20_000

    # --- Sec 4.1: on-demand feature distributions ----------------------
    # Fig 5 — summary-field completeness
    benign_has_category: float = 0.89
    benign_has_company: float = 0.81
    benign_has_description: float = 0.93
    malicious_has_category: float = 0.20
    malicious_has_company: float = 0.05
    malicious_has_description: float = 0.014
    # Fig 6/7 — permissions
    malicious_single_permission_fraction: float = 0.97
    benign_single_permission_fraction: float = 0.62
    permission_pool_size: int = 64
    # Fig 8 — WOT trust of redirect domain
    malicious_wot_unknown_fraction: float = 0.80
    malicious_wot_below_5_fraction: float = 0.95
    benign_redirect_facebook_fraction: float = 0.80
    # Sec 4.1.4 — client-ID mismatch in install URL
    malicious_client_id_mismatch_fraction: float = 0.78
    benign_client_id_mismatch_fraction: float = 0.01
    # Fig 9 — posts in app profile page
    malicious_empty_profile_fraction: float = 0.97
    # Table 3 — top-5 hosting domains cover 83% of malicious D-Inst apps
    top5_hosting_domains_coverage: float = 0.83
    top_hosting_domains: tuple[tuple[str, int], ...] = (
        ("thenamemeans2.com", 138),
        ("technicalyard.com", 96),
        ("wikiworldmedia.com", 82),
        ("fastfreeupdates.com", 53),
        ("thenamemeans3.com", 34),
    )

    # --- Sec 4.2: aggregation-based feature distributions --------------
    # Fig 10/11 — app-name sharing
    malicious_shared_name_fraction: float = 0.87
    malicious_mean_apps_per_name: float = 5.0
    malicious_names_over_10_apps_fraction: float = 0.08
    the_app_clone_count: int = 627  # apps named 'The App'
    # Fig 12 — external-link-to-post ratio
    benign_zero_external_fraction: float = 0.80
    malicious_high_external_fraction: float = 0.40
    bitly_share_of_short_urls: float = 0.92
    shortened_pointing_back_to_fb_fraction: float = 0.074  # 386 / 5197

    # --- Sec 5: classification -----------------------------------------
    # Table 5 — FRAppE Lite 5-fold CV (ratio -> accuracy, FP, FN), in %
    frappe_lite_cv: tuple[tuple[str, float, float, float], ...] = (
        ("1:1", 98.5, 0.6, 2.5),
        ("4:1", 99.0, 0.1, 4.7),
        ("7:1", 99.0, 0.1, 4.4),
        ("10:1", 99.5, 0.1, 5.5),
    )
    # Sec 5.2 — FRAppE full, 7:1
    frappe_accuracy: float = 99.5
    frappe_fp: float = 0.0
    frappe_fn: float = 4.1
    # Sec 7 — robust-features-only variant
    robust_accuracy: float = 98.2
    robust_fp: float = 0.4
    robust_fn: float = 3.2
    # Table 6 — single-feature 5-fold CV (feature -> accuracy, FP, FN)
    single_feature_cv: tuple[tuple[str, float, float, float], ...] = (
        ("category", 76.5, 45.8, 1.2),
        ("company", 72.1, 55.0, 0.8),
        ("description", 97.8, 3.3, 1.0),
        ("profile_posts", 96.9, 4.3, 1.9),
        ("client_id", 88.5, 1.0, 22.0),
        ("wot_score", 91.9, 13.4, 2.9),
        ("permission_count", 73.3, 49.3, 4.1),
    )
    # Sec 5.3 / Table 8 — applying FRAppE to unlabelled apps
    unlabelled_apps: int = 98_609
    flagged_apps: int = 8_144
    validated_deleted: int = 6_591
    validated_total: int = 8_051
    validated_fraction: float = 0.985
    ground_truth_fp_bound: float = 0.026  # Sec 5.3 "at most 2.6%"

    # --- Sec 6: AppNets --------------------------------------------------
    colluding_apps: int = 6_331
    promoter_fraction: float = 0.25
    promotee_fraction: float = 0.588
    dual_role_fraction: float = 0.162
    promoter_apps: int = 1_584
    promotee_apps: int = 3_723
    dual_role_apps: int = 1_024
    connected_components: int = 44
    top_component_sizes: tuple[int, ...] = (3_484, 770, 589, 296, 247)
    collusion_degree_over_10_fraction: float = 0.70
    max_collusions: int = 417
    clustering_coeff_over_074_fraction: float = 0.25
    # direct promotion
    direct_promoters: int = 692
    direct_promotees: int = 1_806
    direct_promoters_over_5_fraction: float = 0.15
    # indirection websites
    indirection_websites: int = 103
    indirection_promoters: int = 1_936
    indirection_promoter_names: int = 206
    indirection_promotees: int = 4_676
    indirection_promotee_names: int = 273
    websites_over_100_apps_fraction: float = 0.35
    indirection_bitly: int = 84
    indirection_on_aws_fraction: float = 0.333
    # Sec 6.2 — piggybacking
    piggyback_low_ratio_fraction: float = 0.05  # apps with mal-ratio < 0.2

    # --- Fig 1 — the AppNet snapshot -------------------------------------
    fig1_component_size: int = 770
    fig1_average_degree: int = 195


PAPER = PaperStats()


@dataclass
class ScaleConfig:
    """The simulation scale and the handful of structural knobs.

    ``scale`` multiplies every raw count (users, apps, posts).  Counts
    that the paper reports as absolute structure (44 AppNet components,
    103 indirection websites, 5 hosting domains) scale with a floor so
    the structure survives small scales.
    """

    scale: float = 0.05
    master_seed: int = 2012
    #: posts are the expensive object; allow scaling them harder than apps
    post_scale: float | None = None
    #: months of simulated observation (paper: 9)
    months: int = 9
    #: per-request probability of an injected transient crawl fault
    #: (0 = the fault layer is a strict no-op; see platform.transport)
    fault_rate: float = 0.0
    #: crawl attempts per request before the crawler gives up
    retry_budget: int = 4
    #: seeded sustained-outage windows injected by the transport
    #: (0 = none; see :func:`repro.platform.transport.draw_blackout_windows`).
    #: Orthogonal to ``fault_rate``: blackouts fail *every* request in
    #: their window, per-call faults are independent coin flips.
    blackouts: int = 0
    #: directory for the crash-safe crawl checkpoint (write-ahead journal
    #: + atomic snapshots); ``None`` disables checkpointing entirely and
    #: the pipeline behaves bit-identically to a journal-less run
    checkpoint_dir: str | None = None
    #: minimum journal appends between snapshot compactions (a compaction
    #: also waits until the journal has outgrown the last snapshot)
    checkpoint_every: int = 64
    #: continue an existing checkpoint instead of refusing to touch it
    resume: bool = False
    #: crawl workers for the batch-parallel scheduler; 1 = the plain
    #: sequential loop.  Any value yields byte-identical records (see
    #: :mod:`repro.crawler.scheduler` for the determinism contract).
    crawl_workers: int = 1
    #: OS processes for the fault-tolerant sharded crawl; 1 = no
    #: supervisor.  Takes precedence over ``crawl_workers`` and keeps
    #: the same byte-identity contract even under worker crashes (see
    #: :mod:`repro.crawler.supervisor`).
    crawl_processes: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if not 0.0 <= self.fault_rate < 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1), got {self.fault_rate}"
            )
        if self.retry_budget < 1:
            raise ValueError(
                f"retry_budget must be >= 1, got {self.retry_budget}"
            )
        if self.blackouts < 0:
            raise ValueError(
                f"blackouts must be >= 0, got {self.blackouts}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.crawl_workers < 1:
            raise ValueError(
                f"crawl_workers must be >= 1, got {self.crawl_workers}"
            )
        if self.crawl_processes < 1:
            raise ValueError(
                f"crawl_processes must be >= 1, got {self.crawl_processes}"
            )
        if self.post_scale is None:
            # Posts outnumber apps ~800:1 in the paper; keep laptop runs
            # tractable by scaling posts quadratically with the knob
            # (scale=0.05 -> ~230K posts; scale=1.0 -> the full 91M).
            self.post_scale = self.scale * self.scale

    def count(self, paper_value: int, minimum: int = 1) -> int:
        """Scale an app/user-like count, with a floor."""
        return max(minimum, int(round(paper_value * self.scale)))

    def post_count(self, paper_value: int, minimum: int = 1) -> int:
        """Scale a post-like count, with a floor."""
        assert self.post_scale is not None
        return max(minimum, int(round(paper_value * self.post_scale)))

    @property
    def n_apps(self) -> int:
        return self.count(PAPER.total_apps, minimum=200)

    @property
    def n_users(self) -> int:
        return self.count(PAPER.total_users, minimum=500)

    @property
    def n_posts(self) -> int:
        return self.post_count(PAPER.total_posts, minimum=5_000)

    @property
    def n_malicious_apps(self) -> int:
        return self.count(PAPER.d_sample_malicious, minimum=40)

    def structural(self, paper_value: int, minimum: int = 2) -> int:
        """Scale a *structural* count (components, websites, domains).

        Structural counts shrink with the square root of the scale so
        that, e.g., a 1%-scale run still has several AppNet components
        rather than 0.44 of one.
        """
        return max(minimum, int(round(paper_value * math.sqrt(self.scale))))


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online verdict service (:mod:`repro.service`).

    Everything is expressed in *simulated* seconds on the shared
    :class:`~repro.platform.transport.TransportStats` clock — the
    service never reads the wall clock, so any run is a pure function
    of its seed and configuration.
    """

    #: admitted-but-not-yet-served requests the service will hold;
    #: beyond this, arrivals are shed (bulk before interactive)
    max_queue_depth: int = 16
    #: deadline budget of an interactive request, from its arrival
    interactive_deadline_s: float = 60.0
    #: deadline budget of a bulk request, from its arrival
    bulk_deadline_s: float = 600.0
    #: deadline budget of an internal cache-refresh task
    refresh_deadline_s: float = 600.0
    #: verdict-cache freshness window (serve without re-crawling)
    cache_ttl_s: float = 3600.0
    #: beyond the TTL but within this window a verdict is *stale*:
    #: served immediately while a background refresh revalidates it
    cache_stale_ttl_s: float = 6 * 3600.0
    #: TTL for negative entries (authoritative PERMANENT removals);
    #: a removed app cannot come back, so this is long by default
    negative_ttl_s: float = 24 * 3600.0
    #: schedule background refreshes for stale-while-revalidate hits
    revalidate: bool = True
    #: per-endpoint-class bulkhead: the fraction of a request's
    #: remaining deadline one endpoint class may consume, so a slow
    #: Graph API lookup cannot eat the whole request budget
    bulkhead_fractions: tuple[tuple[str, float], ...] = (
        ("summary", 0.6),
        ("feed", 0.3),
        ("install", 0.3),
    )
    #: consecutive transient failures that open an endpoint breaker
    breaker_failure_threshold: int = 5
    #: breaker cooldown before a half-open probe, simulated seconds
    breaker_cooldown_s: float = 180.0
    #: retry attempts per request inside the service (smaller than the
    #: batch crawler's: an online caller is waiting)
    retry_attempts: int = 2
    #: simulated service cost of answering from the verdict cache
    cache_hit_cost_s: float = 0.01
    #: simulated CPU cost of feature extraction + SVM evaluation
    score_cost_s: float = 0.05
    #: queued same-priority requests drained into one batched
    #: crawl+extract+predict pass per service tick; 1 = the historical
    #: one-request-per-tick loop, bit-identical to previous releases
    batch_size: int = 1
    #: upper bound of the *adaptive* continuous-batching controller
    #: (:func:`repro.service.admission.plan_batch`); 1 = adaptive
    #: batching off.  When > 1 each tick drains a planned batch whose
    #: size grows with queue depth and shrinks when deadline headroom
    #: is tight — this supersedes the fixed ``batch_size`` drain, and
    #: ``batch_max=1`` remains the literal historical unbatched path.
    batch_max: int = 1
    #: per-request service-time estimate the adaptive controller weighs
    #: deadline headroom against (simulated seconds)
    batch_headroom_s: float = 5.0
    #: overlap a tick's scoring with the next tick's crawl I/O on the
    #: simulated clock (only active when batch_max > 1)
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.batch_max < 1:
            raise ValueError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.batch_headroom_s <= 0:
            raise ValueError(
                f"batch_headroom_s must be positive, got {self.batch_headroom_s}"
            )
        for name in (
            "interactive_deadline_s",
            "bulk_deadline_s",
            "refresh_deadline_s",
            "cache_ttl_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cache_stale_ttl_s < self.cache_ttl_s:
            raise ValueError(
                "cache_stale_ttl_s must be >= cache_ttl_s "
                f"({self.cache_stale_ttl_s} < {self.cache_ttl_s})"
            )
        for endpoint, fraction in self.bulkhead_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"bulkhead fraction for {endpoint!r} must be in "
                    f"(0, 1], got {fraction}"
                )

    def deadline_for(self, priority: str) -> float:
        """The default deadline budget of *priority* requests."""
        return (
            self.interactive_deadline_s
            if priority == "interactive"
            else self.bulk_deadline_s
        )


#: A tiny configuration for unit tests.
TEST_SCALE = ScaleConfig(scale=0.01)
