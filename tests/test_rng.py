"""Keyed random streams."""

import numpy as np
import numpy.random.bit_generator

from schwarz_lab.rng import stream


def test_a_stream_draws_no_os_entropy(monkeypatch):
    # np.random.SeedSequence() with no entropy reads it from the bit_generator
    # module's randbits; patching np.random.SeedSequence would not reach the
    # Philox constructor, which refers to the class directly
    def no_entropy(*args, **kwargs):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(numpy.random.bit_generator, "randbits", no_entropy)
    monkeypatch.setattr(np.random, "SeedSequence", no_entropy)
    gen = stream(20260816, "pinned", 3)
    assert [x.hex() for x in gen.standard_normal(3)] == [
        "0x1.64753c9e77508p+1", "-0x1.6372269d6ca75p+1", "-0x1.3deba3399cc18p-2"]
    assert [x.hex() for x in gen.uniform(size=2)] == [
        "0x1.f82e90b44e2bfp-1", "0x1.c1fe4ade9184cp-1"]
