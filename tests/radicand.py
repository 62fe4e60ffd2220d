"""The radicand R at one s, the reference the closed-form pieces are tested
against: profiles._closed_pieces forms the same R in its loop."""

import math

from cmc_elliptic.profiles import Family, domain


def _radicand(params, s):
    """The radicand R at one s, as _closed_pieces forms it in its loop."""
    H, B = params.H, params.B
    if params.family is Family.EUCLIDEAN:
        if B == 1.0:
            # 2(1 + sin 2Hs) = 4 sin^2(H d), d the distance to the nearer
            # edge of the window: an exact difference near either edge.
            dom = domain(params)
            return 4 * math.sin(H * min(s - dom.lo, dom.hi - s)) ** 2
        return 1 + B * B + 2 * B * math.sin(2 * H * s)
    if params.family is Family.LORENTZ_SPACELIKE_AXIS:
        # 1 + B^2 - 2B cosh(2Hs), free of the cancellation as B -> 1.
        return (1 - B) ** 2 - 4 * B * math.sinh(H * s) ** 2
    return (B * B - 1) + 2 * B * math.sinh(2 * H * s)  # exact at B = 1
