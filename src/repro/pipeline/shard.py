"""Sub-class chunks: cutting a class's unit sequence for the process pool.

Some tasks' per-class work is a sequence of units: a list of independent
failure scenarios, a chainable list of change steps.  When too few
classes are left to keep a process pool busy,
:meth:`~repro.pipeline.core.ClassFanOut.plan` cuts each class of such a
task into contiguous chunks of that sequence (:func:`split_units`); the
coordinator re-merges a class's chunk records in chunk order
(:func:`merge_chunks`), so reports stay bit-identical to a serial run.
A task opts in with :func:`register_unit_splitter` as its module imports.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _chunk_bounds(total: int, pieces: int) -> List[Tuple[int, int]]:
    """``pieces`` near-equal contiguous ``[start, end)`` ranges of
    ``range(total)`` (fewer when ``total < pieces``), order-preserving."""
    pieces = max(1, min(pieces, total))
    base, extra = divmod(total, pieces)
    bounds = []
    start = 0
    for i in range(pieces):
        end = start + base + (1 if i < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def split_units(options: dict, key: str, pieces: int):
    """Cut the unit sequence at ``options[key]`` into ``pieces`` chunks:
    ``(options patches, weight fractions)``, each patch carrying
    ``unit_range=[a, b)`` for the task to run only those units
    (:func:`repro.pipeline.perturb.unit_range`), or ``None`` when the
    sequence is too short to cut in two.  Whether units are independent
    (failure scenarios) or chain (change steps, where a chunk starting
    mid-script first replays its predecessor) is the task's business."""
    total = len(options.get(key) or [])
    bounds = _chunk_bounds(total, pieces)
    if len(bounds) < 2:
        return None
    patches = [{"unit_range": [a, b]} for a, b in bounds]
    fractions = [(b - a) / total for a, b in bounds]
    return patches, fractions


def merge_chunks(chunks: List[object], attr: str) -> object:
    """Chunk 0's record (it carries the class baseline fields) with every
    chunk's ``record.<attr>`` list concatenated in chunk order, which is
    the original unit order."""
    merged = chunks[0]
    for extra in chunks[1:]:
        getattr(merged, attr).extend(getattr(extra, attr))
    return merged


#: ``task path -> (options key of the task's unit sequence, record
#: attribute holding its per-unit results)``, for the tasks whose classes
#: may be split; filled by :func:`register_unit_splitter` as they import.
UNIT_SEQUENCES: Dict[str, Tuple[str, str]] = {}


def register_unit_splitter(task_path: str, options_key: str, record_attr: str) -> None:
    """Let the process pool split a task's classes into sub-class chunks
    (:func:`split_units` over ``options[options_key]``, re-merged by
    :func:`merge_chunks` over ``record.<record_attr>``)."""
    UNIT_SEQUENCES[task_path] = (options_key, record_attr)
