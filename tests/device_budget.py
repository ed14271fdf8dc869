"""Device budgets for the DeviceSim build tests, derived from the strip
scratch the build charges (:func:`repro.device.tiles.strip_scratch`)."""

from repro.device.tiles import strip_scratch


def device_budget(n, fixed, coo_bytes, workers=1, block_oracle=False):
    """Smallest budget whose build over ``n`` vertices leaves at least
    ``coo_bytes`` for the COO buffer once the ``fixed`` input bytes and
    the strip scratch sized from the rest are charged."""
    available = coo_bytes
    while available - strip_scratch(n, available, workers, block_oracle)[1] < coo_bytes:
        available += 1
    return fixed + available
