"""A user-style property registration module (not a test file).

Imported by name through ``PropertySuite.register_modules`` in
tests/test_batch_verifier.py: the suite's coordinator *and* every pool
worker rebuild their per-process registry by importing this module, which
is exactly how user code is expected to ship custom properties to the
batch engine.
"""

from repro.analysis.properties import PropertyResult, PropertySpec, register_property

register_property(
    PropertySpec(
        name="has-any-next-hop",
        description="the source either delivers locally or has a next hop",
        evaluate=lambda ctx, source: PropertyResult(
            holds=bool(ctx.table.next_hops.get(source)) or ctx.table.delivers(source)
        ),
    )
)
