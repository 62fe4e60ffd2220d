"""One point of a rotation surface, the reference the mesh tests compare to."""

from cmc_elliptic.profiles import _orbit, _rotation, profile_point


def surface_point(params, s, theta):
    """The rotation-orbit map applied to the profile point at arc length s."""
    cs = profile_point(params, s)
    return _orbit(params, cs, [_rotation(params, theta)])[0]
