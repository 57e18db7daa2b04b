"""Layer spans recorded from outside the library.

The library has no timing hooks of its own, so a traced run wraps each
layer's public functions at the places its callers look them up:

* a module-level function is re-bound in every ``repro.*`` module that
  holds it (``walk_estimate_batch`` calls the ``unbiased_estimate_batch``
  imported into :mod:`repro.core.walk_estimate`, not the one in
  :mod:`repro.core.unbiased`), which also reaches modules a same-named
  attribute shadows, such as :mod:`repro.core.estimate`;
* a method or class method is replaced on its class.

:func:`install` returns the list of patches; :func:`uninstall` puts every
original object back.  Wrappers record nothing while
:attr:`Recorder.active` is false, so work done between timed ops (set-up,
output checks) never lands in a span.

Spans nest.  A span's *self time* is its duration minus the time of the
spans opened inside it.  A wrapper's own cost is kept out of every self
time and reported as :attr:`Recorder.wrapper_s`, so the self times of
every bucket, the root span's self time (the ``other`` bucket) and the
wrapper cost add up to the traced ops' total.  Worker processes forked
while wrappers are installed inherit them; the spans they record stay in
the worker and are never reported.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT_BUCKET = "other.self_s"

#: Ratio metrics: name -> (numerator counter, denominator counter).
RATIOS = {
    "core.unbiased.hit_frac": ("core.unbiased.hits", "core.unbiased.estimates"),
    "core.rejection.accept_frac": (
        "core.rejection.accepted",
        "core.rejection.decisions",
    ),
    "osn.api.cache_hit_frac": ("osn.api.cache_hits", "osn.api.lookups"),
}


class Recorder:
    """An open-span stack plus self seconds and counters per bucket.

    A wrapped call costs time its span does not cover: the wrapper's
    bookkeeping before and after the span, and the call into the wrapper.
    :meth:`settle` moves that time out of the caller's self time into
    :attr:`wrapper_s`: the part the wrapper clocks itself, plus
    :attr:`residue` seconds per call for the part it cannot clock.  The
    span also covers :attr:`inner` seconds of bookkeeping per call, which
    :meth:`settle` moves out of the layer's own self time.
    :func:`calibrate` measures both constants.
    """

    def __init__(self) -> None:
        self.active = False
        self.inner = 0.0
        self.residue = 0.0
        self.wrapper_s = 0.0
        self._stack: List[list] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, bucket: str, layer: str) -> list:
        # bucket, layer, seconds in child spans, elapsed, start
        frame = [bucket, layer, 0.0, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        elapsed = frame[3] = end - frame[4]
        self.seconds[frame[0]] += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    def settle(self, frame: list, began: float) -> None:
        """Charge the cost of the wrapped call that opened *frame* at
        *began* to :attr:`wrapper_s`, not to its caller or its layer."""
        outside = perf_counter() - began - frame[3] + self.residue
        self.seconds[frame[0]] -= self.inner
        self._stack[-1][2] += outside
        self.wrapper_s += outside + self.inner

    def top_layer(self) -> Optional[str]:
        """Layer of the innermost open span, if any."""
        return self._stack[-1][1] if self._stack else None

    def open_spans(self) -> int:
        return len(self._stack)

    def span_seconds(self) -> float:
        """Every bucket's self time (the root bucket included) plus the
        wrapper cost taken out of them."""
        return sum(self.seconds.values()) + self.wrapper_s

    def metrics(self, names: Iterable[str]) -> Dict[str, float]:
        """The value of each named layer metric; 0 for a layer that never ran."""
        out: Dict[str, float] = {}
        for name in names:
            if name in RATIOS:
                numerator, denominator = RATIOS[name]
                total = self.counts.get(denominator, 0.0)
                out[name] = self.counts.get(numerator, 0.0) / total if total else 0.0
            elif name in self.seconds:
                out[name] = self.seconds[name]
            else:
                out[name] = self.counts.get(name, 0.0)
        return out


# ----------------------------------------------------------------------
# Counters: (counts, args, kwargs, result, token) -> None
# ----------------------------------------------------------------------
def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _kernel_steps(counts, args, kwargs, result, token) -> None:
    walks, columns = result.paths.shape
    counts["walks.kernels.steps"] += walks * max(columns - 1, 0)


def _unbiased(counts, args, kwargs, result, token) -> None:
    t = _arg(args, kwargs, 4, "t")
    repetitions = _arg(args, kwargs, 6, "repetitions", 1)
    counts["core.unbiased.steps"] += result.size * repetitions * t
    counts["core.unbiased.estimates"] += result.size
    counts["core.unbiased.hits"] += int((result > 0).sum())


def _accept_batch(counts, args, kwargs, result, token) -> None:
    accepted = result[0]
    counts["core.rejection.decisions"] += accepted.size
    counts["core.rejection.accepted"] += int(accepted.sum())


def _accept(counts, args, kwargs, result, token) -> None:
    counts["core.rejection.decisions"] += 1
    counts["core.rejection.accepted"] += bool(result)


def _ws_bw_batch(counts, args, kwargs, result, token) -> None:
    counts["core.weighted.walks"] += result.size


def _one_backward_walk(counts, args, kwargs, result, token) -> None:
    counts["core.weighted.walks"] += 1


def _walker_steps(counts, args, kwargs, result, token) -> None:
    counts["walks.walker.steps"] += len(result.path) - 1


def _counter_of(view) -> Optional[int]:
    counter = getattr(view, "counter", None)
    return None if counter is None else counter.unique_nodes


def _crawl_before(recorder, args, kwargs):
    return _counter_of(_arg(args, kwargs, 1, "api"))


def _crawl_queries(counts, args, kwargs, result, token) -> None:
    if token is not None:
        after = _counter_of(_arg(args, kwargs, 1, "api"))
        counts["core.crawl.queries"] += after - token


def _api_before(lookups_of: Callable) -> Callable:
    def before(recorder, args, kwargs):
        # Only the outermost API call counts lookups: degrees_batch
        # answers its misses through neighbors_batch.
        if recorder.top_layer() == "osn.api":
            return None
        return lookups_of(args, kwargs), args[0].counter.unique_nodes

    return before


def _api_lookups(counts, args, kwargs, result, token) -> None:
    if token is None:
        return
    lookups, before = token
    queries = args[0].counter.unique_nodes - before
    counts["osn.api.lookups"] += lookups
    counts["osn.api.queries"] += queries
    counts["osn.api.cache_hits"] += lookups - queries


def _rows_appended(counts, args, kwargs, result, token) -> None:
    counts["graphs.discovered.rows"] += 1


def _slab_bytes(counts, args, kwargs, result, token) -> None:
    counts["graphs.shm.bytes"] += result.spec.total_bytes


def _crawl_chunk(counts, args, kwargs, result, token) -> None:
    counts["crawl.crawler.rows"] += result.new_rows
    counts["crawl.crawler.batches"] += result.batches
    counts["crawl.crawler.sim_s"] += result.seconds


def _published(counts, args, kwargs, result, token) -> None:
    if result is not None:
        counts["crawl.publisher.epochs"] += 1


def _shards(counts, args, kwargs, result, token) -> None:
    counts["walks.parallel.shards"] += len(_arg(args, kwargs, 2, "per_shard_args"))


def _checkpoint_bytes(counts, args, kwargs, result, token) -> None:
    counts["service.checkpoint.bytes"] += os.path.getsize(result)


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Hook:
    """One wrapped public callable and where its time and counts go."""

    layer: str
    module: str
    qualname: str
    seconds: str
    calls: str
    count: Optional[Callable] = None
    before: Optional[Callable] = None


def _hook(layer, module, qualname, count=None, before=None, *, kind="self"):
    """A hook whose buckets follow the ``<layer>.<quantity>`` naming."""
    calls = "calls" if kind == "self" else f"{kind}_calls"
    return Hook(
        layer, module, qualname, f"{layer}.{kind}_s", f"{layer}.{calls}", count, before
    )


def _batch_lookups(args, kwargs) -> int:
    return len(_arg(args, kwargs, 1, "nodes"))


HOOKS: Tuple[Hook, ...] = (
    _hook("core.dispatch", "repro.core.dispatch", "estimate"),
    _hook("walks.kernels", "repro.walks.batch", "run_walk_batch", _kernel_steps),
    _hook("core.unbiased", "repro.core.unbiased", "unbiased_estimate_batch", _unbiased),
    _hook(
        "core.rejection",
        "repro.core.rejection",
        "RejectionSampler.accept_batch",
        _accept_batch,
    ),
    _hook("core.rejection", "repro.core.rejection", "RejectionSampler.accept", _accept),
    _hook("core.weighted", "repro.core.weighted", "ws_bw_batch", _ws_bw_batch),
    _hook(
        "core.weighted",
        "repro.core.weighted",
        "weighted_backward_estimate",
        _one_backward_walk,
    ),
    _hook("walks.walker", "repro.walks.walker", "run_walk", _walker_steps),
    _hook(
        "core.crawl",
        "repro.core.crawl",
        "InitialCrawl.__init__",
        _crawl_queries,
        _crawl_before,
    ),
    _hook(
        "osn.api",
        "repro.osn.api",
        "SocialNetworkAPI.neighbors",
        _api_lookups,
        _api_before(lambda args, kwargs: 1),
    ),
    _hook(
        "osn.api",
        "repro.osn.api",
        "SocialNetworkAPI.neighbors_batch",
        _api_lookups,
        _api_before(_batch_lookups),
    ),
    _hook(
        "osn.api",
        "repro.osn.api",
        "SocialNetworkAPI.degrees_batch",
        _api_lookups,
        _api_before(_batch_lookups),
    ),
    *(
        _hook(
            "graphs.discovered",
            "repro.graphs.discovered",
            f"DiscoveredGraph.{name}",
            _rows_appended if name == "record" else None,
            kind="append",
        )
        for name in ("record", "mark")
    ),
    *(
        _hook(
            "graphs.discovered",
            "repro.graphs.discovered",
            f"DiscoveredGraph.{name}",
            kind="read",
        )
        for name in ("fetched_mask", "try_degrees", "rows_flat", "degrees_of")
    ),
    _hook(
        "graphs.discovered",
        "repro.graphs.discovered",
        "DiscoveredGraph.compact",
        kind="compact",
    ),
    _hook(
        "graphs.discovered",
        "repro.graphs.discovered",
        "DiscoveredSlab.fetched_csr",
        kind="compact",
    ),
    Hook(
        "graphs.shm",
        "repro.graphs.shm",
        "SharedCSR.create",
        "graphs.shm.create_s",
        "graphs.shm.creates",
        _slab_bytes,
    ),
    _hook(
        "crawl.crawler",
        "repro.crawl.crawler",
        "AsyncCrawler.crawl_chunk",
        _crawl_chunk,
    ),
    _hook(
        "crawl.publisher",
        "repro.crawl.publisher",
        "TopologyPublisher.publish",
        _published,
    ),
    _hook("crawl.publisher", "repro.crawl.publisher", "TopologyPublisher.acquire"),
    Hook(
        "walks.parallel",
        "repro.walks.parallel",
        "ShardedWalkEngine.map_shards",
        "walks.parallel.wait_s",
        "walks.parallel.rounds",
        _shards,
    ),
    _hook("core.sharded", "repro.core.sharded", "merge_batch_results"),
    _hook("service.jobs", "repro.service.jobs", "Job.absorb"),
    _hook("service.jobs", "repro.service.jobs", "Job.current_estimate"),
    _hook("service.checkpoint", "repro.service.checkpoint", "write", _checkpoint_bytes),
)


# ----------------------------------------------------------------------
# Installing and removing wrappers
# ----------------------------------------------------------------------
def _wrap(recorder: Recorder, hook: Hook, fn: Callable) -> Callable:
    bucket, layer, calls = hook.seconds, hook.layer, hook.calls
    before, count = hook.before, hook.count

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            began = perf_counter()
            token = before(recorder, args, kwargs) if before else None
            recorder.counts[calls] += 1
            frame = recorder.enter(bucket, layer)
            try:
                result = await fn(*args, **kwargs)
            finally:
                recorder.exit(frame)
            if count is not None:
                count(recorder.counts, args, kwargs, result, token)
            recorder.settle(frame, began)
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        began = perf_counter()
        token = before(recorder, args, kwargs) if before else None
        recorder.counts[calls] += 1
        frame = recorder.enter(bucket, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if count is not None:
            count(recorder.counts, args, kwargs, result, token)
        recorder.settle(frame, began)
        return result

    return traced


def _noop() -> None:
    pass


_PROBE = Hook("trace.probe", "", "_noop", "trace.probe_s", "trace.probe_calls")
_PROBE_CALLS, _PROBE_BATCHES = 2000, 9


def calibrate() -> Tuple[float, float]:
    """``(inner, residue)`` for :class:`Recorder`, in seconds per call.

    Times batches of a wrapped no-op against the bare no-op and takes the
    median of each constant over the batches: *inner* is the probe's span
    minus the bare call, and *residue* is whatever a wrapped call adds to
    its caller beyond its span and the time :meth:`Recorder.settle` clocks.
    """
    inners, residues = [], []
    for _ in range(_PROBE_BATCHES):
        probe_recorder = Recorder()
        probe = _wrap(probe_recorder, _PROBE, _noop)
        began = perf_counter()
        for _ in range(_PROBE_CALLS):
            _noop()
        bare = (perf_counter() - began) / _PROBE_CALLS
        probe_recorder.active = True
        root = probe_recorder.enter(ROOT_BUCKET, "other")
        began = perf_counter()
        for _ in range(_PROBE_CALLS):
            probe()
        wrapped = (perf_counter() - began) / _PROBE_CALLS
        probe_recorder.exit(root)
        span = probe_recorder.seconds[_PROBE.seconds] / _PROBE_CALLS
        inners.append(span - bare)
        residues.append(wrapped - span - probe_recorder.wrapper_s / _PROBE_CALLS)
    return max(statistics.median(inners), 0.0), max(statistics.median(residues), 0.0)


Patch = Tuple[object, str, object]


def install(recorder: Recorder) -> List[Patch]:
    """Calibrate *recorder*, then wrap every hook's callable; returns the
    patches to undo."""
    recorder.inner, recorder.residue = calibrate()
    patches: List[Patch] = []
    try:
        for hook in HOOKS:
            module = sys.modules[hook.module]
            if "." in hook.qualname:
                class_name, attribute = hook.qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                if isinstance(original, classmethod):
                    wrapped = classmethod(_wrap(recorder, hook, original.__func__))
                else:
                    wrapped = _wrap(recorder, hook, original)
                setattr(owner, attribute, wrapped)
                patches.append((owner, attribute, original))
                continue
            original = getattr(module, hook.qualname)
            wrapped = _wrap(recorder, hook, original)
            for name, holder in list(sys.modules.items()):
                if holder is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attribute, wrapped)
                        patches.append((holder, attribute, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Put every patched attribute back, newest first."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)
    patches.clear()
