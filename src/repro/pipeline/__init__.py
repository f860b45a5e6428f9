"""Parallel per-class pipeline over destination equivalence classes.

Destination equivalence classes never interact (§5.1), so any per-class
job -- compression, batch property verification -- is embarrassingly
parallel once the one-time policy-BDD encoding exists.  This package
provides the batching/fan-out/aggregation machinery:

* :class:`EncodedNetwork` -- the pickleable one-time encoding artifact;
* :class:`ClassFanOut` -- the generic engine running any registered
  per-class task over a process pool, thread pool, or serial fallback;
* :class:`CompressionPipeline` -- the ``"compress"`` task plus report
  aggregation on top of :class:`ClassFanOut`;
* :class:`PipelineReport` / :class:`EcRecord` -- aggregated, JSON-ready
  results;
* ``python -m repro.pipeline`` -- a CLI over the generated topology
  families (subcommands compress, verify, failures, delta, store, serve).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": (
        "CLASS_TASKS", "EXECUTORS", "ClassFanOut", "CompressionPipeline", "PipelineError",
        "PipelineRun",
    ),
    ".encoded": ("EncodedNetwork",),
    ".report": ("EcRecord", "PipelineReport"),
})
