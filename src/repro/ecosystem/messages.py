"""Post-message generation.

Spam campaigns reuse near-identical, keyword-dense lure texts (that is
what MyPageKeeper's text-similarity feature keys on); benign app posts
are varied game/activity updates that rarely contain spam vocabulary.
Like/comment counts also differ: malicious posts engage users less.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MessageFactory"]

_SPAM_TEMPLATES = (
    "WOW I just got {n} Facebook Credits for Free",
    "Get your FREE {n} FACEBOOK CREDITS",
    "OMG free iPad for the first {n} users, hurry!",
    "WOW! I Just Got a Recharge of Rs {n}.",
    "Get Your Free Facebook Sim Card before {n} run out",
    "Shocking! See who viewed your profile, {n} stalkers found",
    "Claim your exclusive {n}$ gift card now, limited offer",
    "I won {n} credits with this amazing app, free for everyone",
)

_CHATTER_TEMPLATES = (
    "Had a great day at the beach with the family",
    "Can't believe it's already day {n} of the semester",
    "Anyone up for coffee this weekend?",
    "Just finished a {n} km run, feeling great",
    "Happy birthday to my best friend!",
    "New photo album from our trip, {n} pictures",
    "Watching the game tonight, who else?",
    "Finally finished reading that book after {n} days",
)

_BENIGN_TEMPLATES = (
    "I just reached level {n} in {app}!",
    "{app}: come help me with my farm, I planted {n} crops",
    "I scored {n} points playing {app}",
    "Sent you a little present in {app}",
    "Can you beat my {app} streak of {n}?",
    "Just unlocked a new badge in {app} after {n} games",
    "My daily fortune from {app} made me smile",
    "Joined a new tournament in {app}, wish me luck",
    "Sharing my {app} results: {n} correct answers",
    "Look at the new decoration I placed in {app}",
)


class MessageFactory:
    """Draws post texts and engagement counts for both populations."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    # -- texts ----------------------------------------------------------

    def campaign_template(self) -> str:
        """Pick the (near-fixed) lure text template for one campaign."""
        return _SPAM_TEMPLATES[int(self._rng.integers(0, len(_SPAM_TEMPLATES)))]

    def spam_message(self, template: str) -> str:
        """Instantiate the campaign template with a varying number.

        Keeping everything but the number constant gives the high
        cross-post text similarity MyPageKeeper measures on campaigns.
        """
        n = int(self._rng.integers(1, 10)) * 10 ** int(self._rng.integers(1, 4))
        return template.format(n=n)

    def appless_messages(self, spam: list[bool]) -> list[str]:
        """Texts of consecutive app-less posts, in one draw.

        ``spam[i]`` picks a fresh-template lure
        (``spam_message(campaign_template())``) over a manual status
        update for post *i*.  Both draw only ``integers`` here, so the
        whole run is one broadcast call: the same values, and the same
        stream state after, as drawing post by post.
        """
        lows: list[int] = []
        highs: list[int] = []
        for is_spam in spam:
            if is_spam:
                lows += (0, 1, 1)
                highs += (len(_SPAM_TEMPLATES), 10, 4)
            else:
                lows += (0, 1)
                highs += (len(_CHATTER_TEMPLATES), 400)
        draws = iter(self._rng.integers(lows, highs).tolist())
        texts = []
        for is_spam in spam:
            if is_spam:
                template = _SPAM_TEMPLATES[next(draws)]
                texts.append(template.format(n=next(draws) * 10 ** next(draws)))
            else:
                template = _CHATTER_TEMPLATES[next(draws)]
                texts.append(template.format(n=next(draws)))
        return texts

    def benign_message(self, app_name: str) -> str:
        template = _BENIGN_TEMPLATES[int(self._rng.integers(0, len(_BENIGN_TEMPLATES)))]
        return template.format(app=app_name, n=int(self._rng.integers(1, 500)))

    def benign_messages(self, app_name: str, count: int) -> list[str]:
        """*count* consecutive :meth:`benign_message` calls, in one draw.

        The (template, n) draws of all *count* messages are one
        broadcast ``integers`` call, which yields the same values and
        leaves the stream in the same state as the scalar calls.
        """
        draws = self._rng.integers(
            [0, 1] * count, [len(_BENIGN_TEMPLATES), 500] * count
        ).tolist()
        return [
            _BENIGN_TEMPLATES[template].format(app=app_name, n=n)
            for template, n in zip(draws[0::2], draws[1::2])
        ]

    # -- engagement -------------------------------------------------------

    def spam_engagement(self) -> tuple[int, int]:
        """(likes, comments) for a malicious post — low engagement."""
        likes = int(self._rng.poisson(0.8))
        comments = int(self._rng.poisson(0.3))
        return likes, comments

    def benign_engagement(self) -> tuple[int, int]:
        """(likes, comments) for a benign post."""
        likes = int(self._rng.poisson(7.0))
        comments = int(self._rng.poisson(2.5))
        return likes, comments
